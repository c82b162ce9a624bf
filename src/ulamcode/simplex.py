"""Exact simplex over rational numbers, with dual-simplex re-optimization
under added variable bounds.

Small and certificate-grade: every pivot is carried out in exact integer
arithmetic, so optimal values are exact Fractions and safe to use as
bounds.  The tableau is condensed (the dictionary form): one 2-D numpy
integer matrix of the constraint rows and the objective row, with a column
per nonbasic column, the right-hand side and each row's positive
denominator; so a pivot gathers, eliminates, gcd-reduces, range-checks and
scatters the rows it touches once, over the nonbasic columns only.  The
matrix is int64 while every entry stays below 2**30 in magnitude, so that
a pivot's ``a*pc - f*b`` (b below 2**31) stays below 2**62; once one
reaches 2**30 the tableau widens to object dtype (exact Python ints) for
good.  Bland's rule (smallest eligible column enters, smallest basic index
leaves on ratio ties) guarantees termination and makes runs deterministic.
Most of the integer program's pivots have a zero ratio, which needs no
loop.

``solve_lp`` takes the one program shape the integer program has: integer
``<=`` rows with right-hand sides >= 0 and ``=`` rows with right-hand side
0.  x = 0 meets them all, so no phase 1 is needed: ``solve_lp`` writes the
integer rows and then -costs straight into one matrix, every denominator 1
and each ``<=`` row's slack basic, and each ``=`` row enters the basis by
one pivot that moves no right-hand side.  The primal simplex runs from there.
Each pivot checks the 2**30 limit on the rows it has just computed.

``solve_lp`` returns its status and the optimal tableau, whose
``objective_value`` is the result.  A bound ``x_v <= u`` or ``x_v >= l``
on a basic variable x_v, added to it (``add_bound``), keeps it dual
feasible, so the dual simplex (``dual_optimize``, Bland's rule again)
restores optimality in a few pivots: this is how branch-and-bound children
are solved.  A tableau is four slots and no instance dict, and ``nbytes``
measures it, for the integer program's byte bound on its open nodes.
"""

from __future__ import annotations

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
    """Condensed simplex tableau; the objective row holds reduced costs.

    ``mat`` holds the m constraint rows and then the objective row: a slot
    per nonbasic column, the right-hand side, then the row's positive
    denominator; entry s of row i is ``mat[i, s] / mat[i, -1]`` at column
    ``labels[s]``.  Basic column basis[i] (-1 for an "=" row until it
    enters) is 1 in row i and 0 in the other rows, so it has no slot.  The
    pivots are those of one Fraction per entry of the full tableau.
    """

    __slots__ = ("mat", "basis", "labels", "ncols")

    def __init__(self, mat: np.ndarray, basis: list[int], ncols: int):
        """A tableau of a copy of the integer matrix ``mat``, in int64 when
        its entries fit and in object dtype otherwise, with slot j at column
        j until the pivots move them."""
        self.mat = mat.astype(np.int64 if _fits(mat) else object)
        self.basis = basis        # basic column per constraint row
        self.labels = list(range(mat.shape[1] - 2))  # nonbasic column per slot
        self.ncols = ncols

    def _widen_past_limit(self, a: np.ndarray) -> None:
        """Switch to object dtype for good once entries reach the limit."""
        if self.mat.dtype != object and not _fits(a):
            self.mat = self.mat.astype(object)

    def objective_value(self) -> Fraction:
        return Fraction(int(self.mat[-1, -2]), int(self.mat[-1, -1]))

    def most_fractional(self, num_vars: int) -> Optional[tuple[int, int]]:
        """(k, floor of x_k) for the most-fractional x_k with k < num_vars,
        ties to the smallest k; None when all are integral.  Basic x_k =
        rhs / den has fractional part (rhs mod den) / den; the rest are 0,
        so k is basic, as add_bound needs.
        """
        m = len(self.basis)
        nums, dens = self.mat[:m, -2], self.mat[:m, -1]
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
        """Bytes this tableau holds: the object, its four slots' values (the
        matrix with its data, the basis and label lists, ncols) and, in
        object dtype, the Python ints the matrix points to."""
        size = sum(map(sys.getsizeof, (self, self.mat, self.basis, self.labels, self.ncols)))
        if self.mat.dtype == object:
            size += sum(map(sys.getsizeof, self.mat.flat))
        return size

    def copy(self) -> "_Tableau":
        tab = _Tableau.__new__(_Tableau)
        tab.mat, tab.basis, tab.labels = self.mat.copy(), self.basis[:], self.labels[:]
        tab.ncols = self.ncols
        return tab

    def pivot(self, r: int, c: int) -> None:
        """labels[c] enters the basis in row r and basis[r] leaves it for
        slot c; where no column leaves (an "=" row), slot c goes."""
        mat, leave = self.mat, self.basis[r]
        rows = mat[:, c].nonzero()[0]
        # In full, row r also holds its denominator at column leave.  Over
        # pc > 0 it has a 1 at labels[c], and `out` at leave.
        row = mat[r]
        g = np.gcd.reduce(row if leave >= 0 else row[:-1])
        prow = row // (g if row[c] > 0 else -g)
        pc, out = prow[c], prow[-1] if leave >= 0 else 0
        # Each row times pc minus its entering entry f times prow, over
        # den * pc (prow's last 0 leaves den * pc).  prow's pc + out puts
        # -f * out in slot c, the leaving column's entry (0 off row r).  The
        # entries of the full rows left out are 0 or den * pc, so the gcds
        # and the range check are the same.  prow replaces row r.
        prow[c], prow[-1] = pc + out, 0
        new = mat.take(rows, axis=0)
        sub = new[:, c, None] * prow
        new *= pc
        new -= sub
        new //= np.gcd.reduce(new, axis=1)[:, None]
        self._widen_past_limit(new)
        prow[c], prow[-1] = out, pc
        self.mat[rows] = new
        self.mat[r] = prow
        self.basis[r] = self.labels[c]
        if leave >= 0:
            self.labels[c] = leave
        else:
            self.mat = np.delete(self.mat, c, axis=1)
            del self.labels[c]

    def optimize(self, clock: BudgetClock = BudgetClock()) -> str:
        """Pivot until no reduced cost is negative, or until the deadline of
        ``clock`` passes (STOPPED).  Bland's rule throughout."""
        m = len(self.basis)
        while True:
            negative = (self.mat[-1, :-2] < 0).nonzero()[0].tolist()
            if not negative:
                return OPTIMAL
            if clock.exhausted():
                return STOPPED
            enter = min(negative, key=self.labels.__getitem__)
            # The ratio is b / a over a > 0 (within a row the denominator
            # cancels), ties to the smallest basic index.
            col = self.mat[:m, enter]
            ties = _least_ratios(col > 0, self.mat[:m, -2], col)
            if not ties:
                return UNBOUNDED
            self.pivot(min(ties, key=self.basis.__getitem__), enter)

    def add_bound(self, var: int, sense: str, bound: int) -> None:
        """Add x_var <= bound (LE) or x_var >= bound (GE) on the basic
        variable x_var as a new row whose new slack column is basic, written
        in the current basis.

        Reduced costs do not change, so an optimal tableau stays dual
        feasible; only the new row's right-hand side may turn negative.
        """
        m = len(self.basis)
        # LE reads x_var + s = bound, GE reads -x_var + s = -bound.  Substitute
        # the basic row x_var = (b - sum a_j x_j) / den: the new row is 0 at
        # x_var and den at s, basic columns both.
        sign = 1 if sense == LE else -1
        *src, b, den = self.mat[self.basis.index(var)].tolist()
        row = [-sign * v for v in src] + [sign * (bound * den - b), den]
        g = math.gcd(*row)
        row = np.array([v // g for v in row], dtype=object)
        self._widen_past_limit(row)
        self.mat = np.concatenate((self.mat[:m], row[None].astype(self.mat.dtype), self.mat[m:]))
        self.basis.append(self.ncols)
        self.ncols += 1

    def dual_optimize(self) -> str:
        """From a dual-feasible tableau, pivot until no right-hand side is
        negative: OPTIMAL, or INFEASIBLE when a negative row has no
        negative entry.  Bland's rule: the smallest basic index among the
        negative rows leaves, and the smallest column on ratio ties enters.
        """
        m = len(self.basis)
        while True:
            negative = (self.mat[:m, -2] < 0).nonzero()[0].tolist()
            if not negative:
                return OPTIMAL
            leave = min(negative, key=self.basis.__getitem__)
            # The ratio obj[j] / -row[j] over row[j] < 0; both denominators
            # are positive and shared by every column, so they cancel.
            row = self.mat[leave, :-2]
            ties = _least_ratios(row < 0, self.mat[-1, :-2], -row)
            if not ties:
                return INFEASIBLE
            self.pivot(leave, min(ties, key=self.labels.__getitem__))


def solve_lp(
    num_vars: int,
    rows: Sequence[tuple[dict[int, int], str, int]],
    objective: dict[int, int],
    clock: BudgetClock = BudgetClock(),
) -> tuple[str, Optional[_Tableau]]:
    """Maximize objective . x subject to rows and x >= 0: (status, the
    optimal tableau), the tableau None unless the status is OPTIMAL.

    Each row is (integer coefficients keyed by variable index, sense, rhs):
    "<=" with rhs >= 0, or "=" with rhs 0 and independent of the "=" rows
    before it; any other row raises ValueError.  x = 0 is then feasible:
    the "<=" rows' slacks start basic, and each "=" row enters the basis by
    one pivot on its first nonzero column.  A deadline of ``clock`` that
    passes before a pivot stops the solve: status STOPPED.
    """
    for j in objective:
        if not 0 <= j < num_vars:
            raise ValueError(f"objective index {j} out of range")
    # Slot j holds x_j, and the slots stay in order until the primal
    # simplex: the first nonzero slot holds the smallest variable.
    mat = np.zeros((len(rows) + 1, num_vars + 2), dtype=object)
    mat[:, -1] = 1
    mat[-1, list(objective)] = [-operator.index(c) for c in objective.values()]
    ncols, basis = num_vars, []  # basis: -1 for an "=" row until it enters
    for i, (coeffs, sense, b) in enumerate(rows):
        for j in coeffs:
            if not 0 <= j < num_vars:
                raise ValueError(f"row {i}: variable index {j} out of range")
        if not (sense == LE and b >= 0 or sense == EQ and b == 0):
            raise ValueError(
                f"row {i}: {sense!r} with right-hand side {b}; only '<=' rows "
                "with right-hand side >= 0 and '=' rows with 0 are accepted"
            )
        mat[i, [*coeffs, num_vars]] = [*map(operator.index, coeffs.values()), operator.index(b)]
        basis.append(ncols if sense == LE else -1)
        ncols += sense == LE

    tab = _Tableau(mat, basis, ncols)
    del mat  # the tableau holds its own copy
    for i, col in enumerate(basis):
        if col >= 0:
            continue
        nonzero = tab.mat[i, :-2].nonzero()[0]
        if not nonzero.size:
            raise ValueError(f"row {i}: '=' row depends on the '=' rows before it")
        if clock.exhausted():
            return STOPPED, None
        # The right-hand side is 0, so no other right-hand side moves.
        tab.pivot(i, int(nonzero[0]))
    status = tab.optimize(clock)
    return status, tab if status == OPTIMAL else None
