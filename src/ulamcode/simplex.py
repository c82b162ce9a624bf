"""Exact two-phase simplex over rational numbers, with dual-simplex
re-optimization under added variable bounds.

Small and certificate-grade: every pivot is carried out in exact integer
arithmetic (each tableau row is integer numerators over one common
denominator), so optimal values are exact Fractions and safe to use as
bounds.
Bland's rule (smallest eligible column enters, smallest basic index leaves
on ratio ties) guarantees termination and makes runs deterministic.

``solve_lp`` returns the optimal tableau with its result.  A bound
``x_v <= u`` or ``x_v >= l`` added to it (``add_bound``) keeps it dual
feasible, so the dual simplex (``dual_optimize``, Bland's rule again)
restores optimality in a few pivots: this is how branch-and-bound children
are solved.  ``rebuilt`` recreates such a tableau from the root, the bound
rows and the optimal basis alone, so callers need not keep tableaux.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

LE, GE, EQ = "<=", ">=", "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class LpResult:
    status: str
    value: Optional[Fraction]
    x: Optional[list[Fraction]]
    # The optimal tableau, for re-optimizing under added bounds.
    tableau: Optional["_Tableau"] = None


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over one positive common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    """Divide a row and its denominator by their greatest common divisor."""
    g = math.gcd(den, *row)
    if g > 1:
        return [v // g for v in row], den // g
    return row, den


def _eliminate(
    row: list[int], den: int, prow: list[int], pc: int, c: int
) -> tuple[list[int], int]:
    """row/den minus row[c]/den times the pivot row prow/pc (prow[c] == pc)."""
    f = row[c]
    return _reduced([a * pc - f * b if b else a * pc for a, b in zip(row, prow)], den * pc)


class _Tableau:
    """Dense simplex tableau; the objective row holds reduced costs.

    Each row is kept fraction-free: a list of integer numerators over one
    positive integer denominator per row, reduced by their gcd after every
    pivot.  Entry k of row i is ``rows[i][k] / dens[i]``.  Signs and ratio
    comparisons then need only integer arithmetic, and the pivots are the
    same as with one Fraction per entry.
    """

    def __init__(self, rows: list[list[Fraction]], basis: list[int], ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []   # m constraint rows, each ncols + 1
        self.dens: list[int] = []
        for row in rows:
            nums, den = _scaled(row)
            self.rows.append(nums)
            self.dens.append(den)
        self.basis = basis        # basic column per constraint row
        self.obj: list[int] = []
        self.obj_den = 1

    def value(self, i: int, k: int) -> Fraction:
        return Fraction(self.rows[i][k], self.dens[i])

    def objective_value(self) -> Fraction:
        return Fraction(self.obj[self.ncols], self.obj_den)

    def point(self, num_vars: int) -> list[Fraction]:
        """The basic solution's first num_vars coordinates."""
        x = [_ZERO] * num_vars
        for i, b in enumerate(self.basis):
            if b < num_vars:
                x[b] = self.value(i, self.ncols)
        return x

    def copy(self) -> "_Tableau":
        # Pivots replace rows rather than write into them, so the copy
        # may share the row lists.
        tab = copy.copy(self)
        tab.rows, tab.dens, tab.basis = self.rows[:], self.dens[:], self.basis[:]
        return tab

    def drop_row(self, i: int) -> None:
        del self.rows[i]
        del self.dens[i]
        del self.basis[i]

    def truncate(self, ncols: int) -> None:
        """Keep the first ncols columns and the right-hand side."""
        rhs = self.ncols
        self.rows = [row[:ncols] + [row[rhs]] for row in self.rows]
        self.ncols = ncols

    def set_objective(self, costs: dict[int, Fraction]) -> None:
        """Load reduced costs for maximizing costs . x from the current basis."""
        obj = [_ZERO] * (self.ncols + 1)
        for j, c in costs.items():
            obj[j] = -c
        for i, b in enumerate(self.basis):
            cb = costs.get(b, _ZERO)
            if cb != 0:
                scale = cb / self.dens[i]
                for k, v in enumerate(self.rows[i]):
                    if v != 0:
                        obj[k] += scale * v
        nums, den = _scaled(obj)
        self.obj, self.obj_den = _reduced(nums, den)

    def pivot(self, r: int, c: int) -> None:
        prow = self.rows[r]
        pc = prow[c]
        if pc < 0:
            prow = [-v for v in prow]
            pc = -pc
        # Row r over denominator pc has a 1 in column c.
        prow, pc = _reduced(prow, pc)
        self.rows[r] = prow
        self.dens[r] = pc
        for i, row in enumerate(self.rows):
            if i != r and row[c] != 0:
                self.rows[i], self.dens[i] = _eliminate(row, self.dens[i], prow, pc, c)
        if self.obj[c] != 0:
            self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, prow, pc, c)
        self.basis[r] = c

    def optimize(self) -> str:
        """Pivot until no reduced cost is negative.  Bland's rule throughout."""
        rhs = self.ncols
        while True:
            obj = self.obj
            enter = -1
            for j in range(rhs):
                if obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            # Within a row the denominator cancels: the ratio is b / a.
            leave = -1
            best_b = best_a = 0
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    b = row[rhs]
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
        rhs = self.ncols
        self.rows = [row[:rhs] + [0, row[rhs]] for row in self.rows]
        self.obj = self.obj[:rhs] + [0, self.obj[rhs]]
        self.ncols = rhs + 1
        # LE reads x_var + s = bound, GE reads -x_var + s = -bound.
        sign = 1 if sense == LE else -1
        if var in self.basis:
            # Substitute the basic row x_var = (b - sum a_j x_j) / den.
            i = self.basis.index(var)
            src, den = self.rows[i], self.dens[i]
            row = [-sign * v for v in src]
            row[var] = 0
            row[rhs + 1] = sign * (bound * den - src[rhs + 1])
        else:
            den = 1
            row = [0] * (rhs + 2)
            row[var] = sign
            row[rhs + 1] = sign * bound
        row[rhs] = den
        row, den = _reduced(row, den)
        self.rows.append(row)
        self.dens.append(den)
        self.basis.append(rhs)

    def dual_optimize(self) -> str:
        """From a dual-feasible tableau, pivot until no right-hand side is
        negative: OPTIMAL, or INFEASIBLE when a negative row has no
        negative entry.  Bland's rule: the smallest basic index among the
        negative rows leaves, and the smallest column on ratio ties enters.
        """
        rhs = self.ncols
        while True:
            leave = -1
            for i, row in enumerate(self.rows):
                if row[rhs] < 0 and (leave < 0 or self.basis[i] < self.basis[leave]):
                    leave = i
            if leave < 0:
                return OPTIMAL
            # The ratio obj[j] / -row[j] over row[j] < 0; both denominators
            # are positive and shared by every column, so they cancel.
            row, obj = self.rows[leave], self.obj
            enter = -1
            for j in range(rhs):
                a = row[j]
                if a < 0 and (enter < 0 or obj[j] * -row[enter] < obj[enter] * -a):
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
            r = next(
                i for i, b in enumerate(tab.basis) if b not in target and tab.rows[i][c]
            )
            tab.pivot(r, c)
        at = {b: i for i, b in enumerate(tab.basis)}
        tab.rows = [tab.rows[at[b]] for b in basis]
        tab.dens = [tab.dens[at[b]] for b in basis]
        tab.basis = list(basis)
        return tab


def solve_lp(
    num_vars: int,
    rows: Sequence[tuple[dict[int, Fraction | int], str, Fraction | int]],
    objective: dict[int, Fraction | int],
) -> LpResult:
    """Maximize objective . x subject to rows and x >= 0.

    Each row is (coefficients keyed by variable index, sense, rhs) with
    sense one of "<=", ">=", "=".
    """
    senses: list[str] = []
    coeff_rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for coeffs, sense, b in rows:
        if sense not in (LE, GE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        row = {j: Fraction(v) for j, v in coeffs.items() if v != 0}
        b = Fraction(b)
        if b < 0:
            row = {j: -v for j, v in row.items()}
            b = -b
            sense = {LE: GE, GE: LE, EQ: EQ}[sense]
        coeff_rows.append(row)
        senses.append(sense)
        rhs.append(b)

    m = len(coeff_rows)
    n_slack = sum(1 for s in senses if s in (LE, GE))
    n_art = sum(1 for s in senses if s in (GE, EQ))
    ncols = num_vars + n_slack + n_art
    first_art = num_vars + n_slack

    trows: list[list[Fraction]] = []
    basis: list[int] = []
    slack_at = num_vars
    art_at = first_art
    for i in range(m):
        row = [_ZERO] * (ncols + 1)
        for j, v in coeff_rows[i].items():
            if not 0 <= j < num_vars:
                raise ValueError(f"variable index {j} out of range")
            row[j] = v
        row[ncols] = rhs[i]
        if senses[i] == LE:
            row[slack_at] = _ONE
            basis.append(slack_at)
            slack_at += 1
        elif senses[i] == GE:
            row[slack_at] = -_ONE
            slack_at += 1
            row[art_at] = _ONE
            basis.append(art_at)
            art_at += 1
        else:
            row[art_at] = _ONE
            basis.append(art_at)
            art_at += 1
        trows.append(row)

    tab = _Tableau(trows, basis, ncols)

    if n_art:
        tab.set_objective({j: -_ONE for j in range(first_art, ncols)})
        status = tab.optimize()
        if status != OPTIMAL:
            raise AssertionError("phase 1 cannot be unbounded")
        if tab.obj[ncols] != 0:  # maximized -(sum of artificials) below zero
            return LpResult(INFEASIBLE, None, None)
        # Drive leftover zero-valued artificials out, dropping redundant rows.
        for i in range(len(tab.rows) - 1, -1, -1):
            if tab.basis[i] < first_art:
                continue
            row = tab.rows[i]
            c = next((j for j in range(first_art) if row[j] != 0), -1)
            if c >= 0:
                tab.pivot(i, c)
            else:
                tab.drop_row(i)
        # Artificial columns are contiguous at the end; slice them off.
        tab.truncate(first_art)
        ncols = first_art

    costs: dict[int, Fraction] = {}
    for j, v in objective.items():
        if not 0 <= j < num_vars:
            raise ValueError(f"objective index {j} out of range")
        costs[j] = Fraction(v)
    tab.set_objective(costs)
    status = tab.optimize()
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)

    return LpResult(OPTIMAL, tab.objective_value(), tab.point(num_vars), tab)
