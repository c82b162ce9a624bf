"""Exact simplex over rational numbers, with dual-simplex re-optimization
under added variable bounds.

Small and certificate-grade: every pivot is carried out in exact integer
arithmetic, so optimal values are exact Fractions and safe to use as
bounds.  The tableau is one 2-D numpy integer matrix, the constraint rows
followed by the objective row, whose last column holds each row's positive
denominator; so a pivot gathers, eliminates, gcd-reduces, range-checks and
scatters the rows it touches once, denominators with them.  The matrix is
int64 while every entry stays below 2**30 in magnitude, so that a pivot's
``a*pc - f*b`` stays below 2**61; once one reaches 2**30 the tableau
widens to object dtype (exact Python ints, the same expressions) for good.
Bland's rule (smallest eligible column enters, smallest basic index leaves
on ratio ties) guarantees termination and makes runs deterministic.  Most
of the integer program's pivots have a zero ratio, which needs no loop.

``solve_lp`` takes the one program shape the integer program has: integer
``<=`` rows with right-hand sides >= 0 and ``=`` rows with right-hand side
0.  x = 0 meets them all, so no phase 1 is needed: the tableau starts as
the integer rows with every denominator 1 and -costs as the objective row,
each ``<=`` row's slack basic, and each ``=`` row enters the basis by one
pivot that moves no right-hand side.  The primal simplex runs from there.
Each pivot checks the 2**30 limit on the rows it has just computed.

``solve_lp`` returns its status and the optimal tableau, whose
``objective_value`` and ``point`` are the result.  A bound
``x_v <= u`` or ``x_v >= l`` added to it (``add_bound``) keeps it dual
feasible, so the dual simplex (``dual_optimize``, Bland's rule again)
restores optimality in a few pivots: this is how branch-and-bound children
are solved, and how it re-solves from the root's tableau a node whose
tableau it did not keep, past its byte bound (``nbytes``).
"""

from __future__ import annotations

import copy
import itertools
import math
import operator
import sys
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
# int64 entries, denominators included, stay below this; past it, object dtype.
_INT64_LIMIT = 1 << 30


def _fits(a: np.ndarray) -> bool:
    return a.size == 0 or int(np.abs(a).max()) < _INT64_LIMIT


def _least_ratios(eligible: np.ndarray, nums: np.ndarray, dens: np.ndarray) -> list[int]:
    """Bland's ratio test over the i where ``eligible`` holds, every such
    nums[i] >= 0 < dens[i]: each i with the least nums[i] / dens[i], in
    order, or [] when none is eligible.  No ratio is below 0, so zero nums
    need no loop."""
    zero = (eligible & (nums == 0)).nonzero()[0]
    if zero.size:
        return zero.tolist()
    nums, dens = nums.tolist(), dens.tolist()
    least: list[int] = []
    for i in eligible.nonzero()[0].tolist():
        diff = nums[i] * dens[least[0]] - nums[least[0]] * dens[i] if least else 0
        if diff < 0:
            least = []
        if diff <= 0:
            least.append(i)
    return least


class _Tableau:
    """Dense simplex tableau; the objective row holds reduced costs.

    ``mat`` holds the m constraint rows and then the objective row, each
    ncols + 2 integers: ncols + 1 numerators (the right-hand side last)
    and then the row's positive denominator; entry k of row i is
    ``mat[i, k] / mat[i, -1]``.  Signs and ratio comparisons then need only
    integer arithmetic, and the pivots are the same as with one Fraction
    per entry.
    """

    def __init__(self, rows: Sequence[dict[int, int]], costs: dict[int, int],
                 basis: list[int], ncols: int):
        """``rows`` map columns to the integer entries of each constraint
        row, the right-hand side at column ncols; a column left out holds 0.
        The objective row is -costs, and every denominator is 1."""
        self.ncols = ncols
        self.basis = basis        # basic column per constraint row
        rows = [*rows, {j: -c for j, c in costs.items()}]
        self.mat = np.zeros((len(rows), ncols + 2), dtype=object)
        self.mat[:, -1] = 1
        for i, row in enumerate(rows):
            self.mat[i, list(row)] = list(map(operator.index, row.values()))
        self.mat = self.mat.astype(np.int64 if _fits(self.mat) else object)

    def _widen_past_limit(self, a: np.ndarray) -> None:
        """Switch to object dtype for good once entries reach the limit."""
        if self.mat.dtype != object and not _fits(a):
            self.mat = self.mat.astype(object)

    def value(self, i: int, k: int) -> Fraction:
        return Fraction(int(self.mat[i, k]), int(self.mat[i, -1]))

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
        nums, dens = self.mat[:m, rhs], self.mat[:m, -1]
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
        """Bytes this tableau holds: the object, its attributes (the matrix
        with its data, the basis list) and, in object dtype, the Python ints
        the matrix points to."""
        attrs = vars(self)
        size = sys.getsizeof(self) + sum(map(sys.getsizeof, (attrs, *attrs.values())))
        if self.mat.dtype == object:
            size += sum(map(sys.getsizeof, self.mat.flat))
        return size

    def copy(self) -> "_Tableau":
        tab = copy.copy(self)
        tab.mat, tab.basis = self.mat.copy(), self.basis[:]
        return tab

    def pivot(self, r: int, c: int) -> None:
        mat = self.mat
        rows = mat[:, c].nonzero()[0]
        # Row r over denominator pc > 0 has a 1 in column c.
        row = mat[r]
        g = np.gcd.reduce(row[:-1])
        prow = row // (g if row[c] > 0 else -g)
        pc, prow[-1] = prow[c], 0
        # Each row minus its column-c entry times prow, over den * pc (prow's
        # last 0 leaves den * pc); row r comes out 0, ..., 0, 1, and prow replaces it.
        new = mat[rows]
        new = new * pc - new[:, c, None] * prow
        new //= np.gcd.reduce(new, axis=1)[:, None]
        self._widen_past_limit(new)
        prow[-1] = pc
        self.mat[rows] = new
        self.mat[r] = prow
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
            # The ratio is b / a over a > 0 (within a row the denominator
            # cancels), ties to the smallest basic index.
            col = self.mat[:m, enter]
            ties = _least_ratios(col > 0, self.mat[:m, rhs], col)
            if not ties:
                return UNBOUNDED
            self.pivot(min(ties, key=self.basis.__getitem__), enter)

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
            src = self.mat[self.basis.index(var)].tolist()
            den = src[-1]
            row = [-sign * v for v in src[:rhs]] + [den, sign * (bound * den - src[rhs]), den]
            row[var] = 0
        else:
            row = [0] * (rhs + 3)
            row[var], row[rhs], row[rhs + 1], row[-1] = sign, 1, sign * bound, 1
        g = math.gcd(*row)
        row = np.array([v // g for v in row], dtype=object)
        self._widen_past_limit(row)
        row, mat = row.astype(self.mat.dtype), self.mat
        mat = np.concatenate((mat[:, :rhs], np.zeros_like(mat[:, :1]), mat[:, rhs:]), axis=1)
        self.mat = np.concatenate((mat[:m], row[None], mat[m:]))
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
            row = self.mat[leave, :rhs]
            ties = _least_ratios(row < 0, self.mat[-1, :rhs], -row)
            if not ties:
                return INFEASIBLE
            self.pivot(leave, ties[0])


def solve_lp(
    num_vars: int,
    rows: Sequence[tuple[dict[int, int], str, int]],
    objective: dict[int, int],
    clock: Optional[BudgetClock] = None,
) -> tuple[str, Optional[_Tableau]]:
    """Maximize objective . x subject to rows and x >= 0: (status, the
    optimal tableau), the tableau None unless the status is OPTIMAL.

    Each row is (integer coefficients keyed by variable index, sense, rhs):
    "<=" with rhs >= 0, or "=" with rhs 0 and independent of the "=" rows
    before it; any other row raises ValueError.  x = 0 is then feasible:
    the "<=" rows' slacks start basic, and each "=" row enters the basis by
    one pivot on its first nonzero column.  A time cap of ``clock`` that
    runs out before a pivot stops the solve: status STOPPED.
    """
    for j in objective:
        if not 0 <= j < num_vars:
            raise ValueError(f"objective index {j} out of range")
    ncols = num_vars + sum(sense == LE for _, sense, _ in rows)
    slacks = itertools.count(num_vars)
    table: list[dict[int, int]] = []
    basis: list[int] = []  # -1 for an "=" row until it enters
    for i, (coeffs, sense, b) in enumerate(rows):
        for j in coeffs:
            if not 0 <= j < num_vars:
                raise ValueError(f"row {i}: variable index {j} out of range")
        if not (sense == LE and b >= 0 or sense == EQ and b == 0):
            raise ValueError(
                f"row {i}: {sense!r} with right-hand side {b}; only '<=' rows "
                "with right-hand side >= 0 and '=' rows with 0 are accepted"
            )
        row = {**coeffs, ncols: b}
        if sense == LE:
            basis.append(next(slacks))
            row[basis[-1]] = 1
        else:
            basis.append(-1)
        table.append(row)

    tab = _Tableau(table, objective, basis, ncols)
    for i, col in enumerate(basis):
        if col >= 0:
            continue
        nonzero = tab.mat[i, :num_vars].nonzero()[0]
        if not nonzero.size:
            raise ValueError(f"row {i}: '=' row depends on the '=' rows before it")
        if clock is not None and clock.exhausted(0):
            return STOPPED, None
        # The right-hand side is 0, so no other right-hand side moves.
        tab.pivot(i, int(nonzero[0]))
    status = tab.optimize(clock)
    return status, tab if status == OPTIMAL else None
