"""Exact two-phase simplex over rational numbers, with dual-simplex
re-optimization under added variable bounds.

Small and certificate-grade: every pivot is carried out in exact integer
arithmetic, so optimal values are exact Fractions and safe to use as
bounds.  The tableau is one 2-D numpy integer matrix, the constraint rows
followed by the objective row, over a vector of positive row denominators;
each row is reduced by the gcd of its entries and its denominator after
every pivot.  The matrix is int64 while every entry and denominator stays
below 2**30 in magnitude, so that a pivot's ``a*pc - f*b`` stays below
2**61; once one reaches 2**30 the tableau widens to object dtype (exact
Python ints, the same expressions) for good.
Bland's rule (smallest eligible column enters, smallest basic index leaves
on ratio ties) guarantees termination and makes runs deterministic.

The tableau is integer from its first row: ``solve_lp`` hands it sparse
rows, each scaled by the lcm of its denominators and int64 when it fits,
and ``set_objective`` writes the reduced costs as one integer combination
of the basic rows, gcd-reduced, so no dense row of Fractions is ever
built.  Each pivot checks the 2**30 limit on the rows it has just
computed.

``solve_lp`` returns the optimal tableau with its result.  A bound
``x_v <= u`` or ``x_v >= l`` added to it (``add_bound``) keeps it dual
feasible, so the dual simplex (``dual_optimize``, Bland's rule again)
restores optimality in a few pivots: this is how branch-and-bound children
are solved.  ``rebuilt`` recreates such a tableau from the root, the bound
rows and the optimal basis alone; branch-and-bound uses it only for the
nodes whose tableaux it did not keep, past its byte bound (``nbytes``).
"""

from __future__ import annotations

import copy
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .budget import BudgetClock

LE, GE, EQ = "<=", ">=", "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
STOPPED = "stopped"

_ZERO = Fraction(0)
# int64 entries and denominators stay below this; past it, object dtype.
_INT64_LIMIT = 1 << 30


@dataclass
class LpResult:
    status: str
    value: Optional[Fraction]
    x: Optional[list[Fraction]]
    # The optimal tableau, for re-optimizing under added bounds.
    tableau: Optional["_Tableau"] = None


def _fits(*arrays: np.ndarray) -> bool:
    return all(a.size == 0 or int(np.abs(a).max()) < _INT64_LIMIT for a in arrays)


class _Tableau:
    """Dense simplex tableau; the objective row holds reduced costs.

    ``mat`` holds the m constraint rows and then the objective row, each
    ncols + 1 integer numerators (the last is the right-hand side), over
    the positive denominators ``dens``; entry k of row i is
    ``mat[i, k] / dens[i]``.  Signs and ratio comparisons then need only
    integer arithmetic, and the pivots are the same as with one Fraction
    per entry.  The constructor takes sparse rows and scales each by the
    least common denominator of its entries; the objective row starts at
    zero until ``set_objective`` loads one.
    """

    def __init__(self, rows: Sequence[dict[int, Fraction | int]], basis: list[int],
                 ncols: int):
        """``rows`` map columns to the entries of each constraint row, the
        right-hand side at column ncols; a column left out holds 0."""
        self.ncols = ncols
        self.basis = basis        # basic column per constraint row
        dens = [math.lcm(*(v.denominator for v in row.values())) for row in rows] + [1]
        at = tuple(zip(*((i, k) for i, row in enumerate(rows) for k in row)))
        nums = [
            v.numerator * (den // v.denominator)
            for row, den in zip(rows, dens) for v in row.values()
        ]
        dtype = np.int64 if max(map(abs, nums + dens)) < _INT64_LIMIT else object
        self.mat = np.zeros((len(rows) + 1, ncols + 1), dtype=dtype)
        self.dens = np.array(dens, dtype=dtype)
        if nums:
            self.mat[at] = np.array(nums, dtype=dtype)

    def _widen_past_limit(self, *arrays: np.ndarray) -> None:
        """Switch to object dtype for good once entries reach the limit."""
        if self.mat.dtype != object and not _fits(*arrays):
            self.mat, self.dens = self.mat.astype(object), self.dens.astype(object)

    def value(self, i: int, k: int) -> Fraction:
        return Fraction(int(self.mat[i, k]), int(self.dens[i]))

    def objective_value(self) -> Fraction:
        return self.value(-1, self.ncols)

    def point(self, num_vars: int) -> list[Fraction]:
        """The basic solution's first num_vars coordinates."""
        x = [_ZERO] * num_vars
        for i, b in enumerate(self.basis):
            if b < num_vars:
                x[b] = self.value(i, self.ncols)
        return x

    def most_fractional(self, num_vars: int) -> Optional[tuple[int, int]]:
        """(k, floor of x_k) for the most-fractional x_k with k < num_vars,
        ties to the smallest k; None when all are integral.  Basic x_k =
        rhs / den has fractional part (rhs mod den) / den; the rest are 0.
        """
        m, rhs = len(self.basis), self.ncols
        nums, dens = self.mat[:m, rhs], self.dens[:m]
        rows = zip(self.basis, (nums % dens).tolist(), nums.tolist(), dens.tolist())
        best = None
        best_s = best_den = 0
        for k, r, num, den in sorted(row for row in rows if row[0] < num_vars and row[1]):
            s = min(r, den - r)  # min(f, 1 - f) is s / den
            if best is None or s * best_den > best_s * den:
                best, best_s, best_den = (k, num // den), s, den
        return best

    @property
    def nbytes(self) -> int:
        """Bytes this tableau holds: the object, its attributes (the arrays
        with their data, the basis list) and, in object dtype, the Python
        ints the arrays point to."""
        attrs = vars(self)
        size = sys.getsizeof(self) + sum(map(sys.getsizeof, (attrs, *attrs.values())))
        if self.mat.dtype == object:
            size += sum(map(sys.getsizeof, itertools.chain(self.mat.flat, self.dens)))
        return size

    def copy(self) -> "_Tableau":
        tab = copy.copy(self)
        tab.mat, tab.dens, tab.basis = self.mat.copy(), self.dens.copy(), self.basis[:]
        return tab

    def drop_row(self, i: int) -> None:
        self.mat = np.delete(self.mat, i, axis=0)
        self.dens = np.delete(self.dens, i)
        del self.basis[i]

    def truncate(self, ncols: int) -> None:
        """Keep the first ncols columns and the right-hand side."""
        self.mat = np.delete(self.mat, np.s_[ncols:self.ncols], axis=1)
        self.ncols = ncols

    def set_objective(self, costs: dict[int, Fraction | int]) -> None:
        """Load reduced costs for maximizing costs . x from the current basis:
        -costs plus each basic row times its column's cost, as one integer
        row over the least common denominator."""
        weights = {
            i: Fraction(costs[b], int(self.dens[i]))
            for i, b in enumerate(self.basis) if costs.get(b)
        }
        den = math.lcm(*(v.denominator for v in (*costs.values(), *weights.values())))
        obj = np.zeros(self.ncols + 1, dtype=object)
        for j, c in costs.items():
            obj[j] = -c.numerator * (den // c.denominator)
        if weights:
            w = [v.numerator * (den // v.denominator) for v in weights.values()]
            obj += np.array(w, dtype=object) @ self.mat[list(weights)]
        g = math.gcd(den, *obj.tolist())
        obj, den = obj // g, den // g
        self._widen_past_limit(obj, np.array([den], dtype=object))
        self.mat[-1], self.dens[-1] = obj, den

    def pivot(self, r: int, c: int) -> None:
        mat, dens = self.mat, self.dens
        prow, pc = mat[r], mat[r, c]
        if pc < 0:
            prow, pc = -prow, -pc
        # Row r over denominator pc has a 1 in column c.
        g = math.gcd(int(np.gcd.reduce(prow)), int(pc))
        prow, pc = prow // g, pc // g
        mat[r], dens[r] = prow, pc
        rows = mat[:, c].nonzero()[0]
        rows = rows[rows != r]
        # Each row minus its column-c entry times the pivot row, over den * pc.
        new = mat[rows]
        new = new * pc - new[:, c, None] * prow
        den = dens[rows] * pc
        g = np.gcd(np.gcd.reduce(new, axis=1), den)
        new, den = new // g[:, None], den // g
        self._widen_past_limit(new, den)
        self.mat[rows], self.dens[rows] = new, den
        self.basis[r] = c

    def optimize(self, clock: Optional[BudgetClock] = None) -> str:
        """Pivot until no reduced cost is negative, or until the time cap of
        ``clock`` runs out (STOPPED).  Bland's rule throughout."""
        rhs, m = self.ncols, len(self.basis)
        while True:
            negative = (self.mat[-1, :rhs] < 0).nonzero()[0]
            if not negative.size:
                return OPTIMAL
            # Zero nodes never meet a node cap, so only the time cap stops.
            if clock is not None and clock.exhausted(0):
                return STOPPED
            enter = int(negative[0])
            # Within a row the denominator cancels: the ratio is b / a.
            rows = (self.mat[:m, enter] > 0).nonzero()[0]
            sub = self.mat[rows][:, [enter, rhs]].T.tolist()
            leave = -1
            best_b = best_a = 0
            for i, a, b in zip(rows.tolist(), *sub):
                if (
                    leave < 0
                    or b * best_a < best_b * a
                    or (b * best_a == best_b * a and self.basis[i] < self.basis[leave])
                ):
                    best_b, best_a = b, a
                    leave = i
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, enter)

    def add_bound(self, var: int, sense: str, bound: int) -> None:
        """Add x_var <= bound (LE) or x_var >= bound (GE) as a new row whose
        new slack column is basic, written in the current basis.

        Reduced costs do not change, so an optimal tableau stays dual
        feasible; only the new row's right-hand side may turn negative.
        """
        rhs, m = self.ncols, len(self.basis)
        # LE reads x_var + s = bound, GE reads -x_var + s = -bound.
        sign = 1 if sense == LE else -1
        if var in self.basis:
            # Substitute the basic row x_var = (b - sum a_j x_j) / den.
            i = self.basis.index(var)
            src, den = self.mat[i].tolist(), int(self.dens[i])
            row = [-sign * v for v in src[:rhs]] + [den, sign * (bound * den - src[rhs])]
            row[var] = 0
        else:
            den = 1
            row = [0] * (rhs + 2)
            row[var], row[rhs], row[rhs + 1] = sign, 1, sign * bound
        g = math.gcd(den, *row)
        row = np.array([v // g for v in row] + [den // g], dtype=object)
        self._widen_past_limit(row)
        row, mat = row.astype(self.mat.dtype), self.mat
        mat = np.concatenate((mat[:, :rhs], np.zeros_like(mat[:, :1]), mat[:, rhs:]), axis=1)
        self.mat = np.concatenate((mat[:m], row[None, :-1], mat[m:]))
        self.dens = np.concatenate((self.dens[:m], row[-1:], self.dens[m:]))
        self.ncols = rhs + 1
        self.basis.append(rhs)

    def dual_optimize(self) -> str:
        """From a dual-feasible tableau, pivot until no right-hand side is
        negative: OPTIMAL, or INFEASIBLE when a negative row has no
        negative entry.  Bland's rule: the smallest basic index among the
        negative rows leaves, and the smallest column on ratio ties enters.
        """
        rhs, m = self.ncols, len(self.basis)
        while True:
            negative = (self.mat[:m, rhs] < 0).nonzero()[0].tolist()
            if not negative:
                return OPTIMAL
            leave = min(negative, key=self.basis.__getitem__)
            # The ratio obj[j] / -row[j] over row[j] < 0; both denominators
            # are positive and shared by every column, so they cancel.
            cols = (self.mat[leave, :rhs] < 0).nonzero()[0]
            sub = self.mat[[leave, -1]][:, cols].tolist()
            enter = -1
            best_o = best_a = 0
            for j, a, o in zip(cols.tolist(), *sub):
                if enter < 0 or o * -best_a < best_o * -a:
                    best_o, best_a = o, a
                    enter = j
            if enter < 0:
                return INFEASIBLE
            self.pivot(leave, enter)

    def rebuilt(
        self, bounds: Sequence[tuple[int, str, int]], basis: Sequence[int]
    ) -> "_Tableau":
        """This tableau plus the bound rows (var, sense, bound), in order,
        pivoted to ``basis`` with its rows in that order.

        Rows are gcd-reduced over positive denominators, so the result
        equals, entry for entry, any tableau of the same program with the
        same basis in the same row order.
        """
        tab = self.copy()
        for var, sense, bound in bounds:
            tab.add_bound(var, sense, bound)
        target = set(basis)
        for c in basis:
            if c in tab.basis:
                continue
            # Some row whose basic column leaves has a nonzero entry in c,
            # because the target basis is nonsingular.
            col = tab.mat[:, c].tolist()
            r = next(i for i, b in enumerate(tab.basis) if b not in target and col[i])
            tab.pivot(r, c)
        at = {b: i for i, b in enumerate(tab.basis)}
        order = [at[b] for b in basis] + [len(basis)]
        tab.mat, tab.dens, tab.basis = tab.mat[order], tab.dens[order], list(basis)
        return tab


def solve_lp(
    num_vars: int,
    rows: Sequence[tuple[dict[int, Fraction | int], str, Fraction | int]],
    objective: dict[int, Fraction | int],
    clock: Optional[BudgetClock] = None,
) -> LpResult:
    """Maximize objective . x subject to rows and x >= 0.

    Each row is (coefficients keyed by variable index, sense, rhs) with
    sense one of "<=", ">=", "=".  A time cap of ``clock`` that runs
    out between pivots stops the solve: status STOPPED, no value.
    """
    normalized: list[tuple[dict[int, Fraction | int], str, Fraction | int]] = []
    for coeffs, sense, b in rows:
        if sense not in (LE, GE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        row = {j: v for j, v in coeffs.items() if v != 0}
        if b < 0:
            row = {j: -v for j, v in row.items()}
            b = -b
            sense = {LE: GE, GE: LE, EQ: EQ}[sense]
        normalized.append((row, sense, b))

    n_slack = sum(1 for _, s, _ in normalized if s in (LE, GE))
    n_art = sum(1 for _, s, _ in normalized if s in (GE, EQ))
    ncols = num_vars + n_slack + n_art
    first_art = num_vars + n_slack

    # Each row gains its slack and artificial entries and its right-hand
    # side at column ncols.
    basis: list[int] = []
    slack_at = num_vars
    art_at = first_art
    for row, sense, b in normalized:
        for j in row:
            if not 0 <= j < num_vars:
                raise ValueError(f"variable index {j} out of range")
        row[ncols] = b
        if sense == LE:
            row[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        elif sense == GE:
            row[slack_at] = -1
            slack_at += 1
            row[art_at] = 1
            basis.append(art_at)
            art_at += 1
        else:
            row[art_at] = 1
            basis.append(art_at)
            art_at += 1

    tab = _Tableau([row for row, _, _ in normalized], basis, ncols)

    if n_art:
        tab.set_objective({j: -1 for j in range(first_art, ncols)})
        status = tab.optimize(clock)
        if status == UNBOUNDED:
            raise AssertionError("phase 1 cannot be unbounded")
        if status == STOPPED:
            return LpResult(STOPPED, None, None)
        if tab.mat[-1, ncols] != 0:  # maximized -(sum of artificials) below zero
            return LpResult(INFEASIBLE, None, None)
        # Drive leftover zero-valued artificials out, dropping redundant rows.
        for i in range(len(tab.basis) - 1, -1, -1):
            if tab.basis[i] < first_art:
                continue
            nonzero = tab.mat[i, :first_art].nonzero()[0]
            if nonzero.size:
                tab.pivot(i, int(nonzero[0]))
            else:
                tab.drop_row(i)
        # Artificial columns are contiguous at the end; slice them off.
        tab.truncate(first_art)
        ncols = first_art

    for j in objective:
        if not 0 <= j < num_vars:
            raise ValueError(f"objective index {j} out of range")
    tab.set_objective(objective)
    status = tab.optimize(clock)
    if status != OPTIMAL:
        return LpResult(status, None, None)

    return LpResult(OPTIMAL, tab.objective_value(), tab.point(num_vars), tab)
