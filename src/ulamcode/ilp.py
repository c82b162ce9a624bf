"""Integer-programming upper bound on maximum Ulam-code sizes.

The model counts, for each symbol a and each split point l, how many
length-(n-d+1) symbol patterns with a in the middle can occur across all
codewords: a code with minimum distance d repeats no such pattern, and
only (n-1)!/(d-1)! patterns exist, which caps a weighted sum of the
position counts X[b][a].  Maximizing the number of codewords subject to
those caps yields an upper bound on the code size.

The solver is exact end to end: rational simplex relaxations drive a
deterministic best-bound branch-and-bound, so returned bounds are
certificates, never float artifacts.  Only the root relaxation is a cold
two-phase solve; every child is re-optimized from its parent's tableau by
the dual simplex, and open nodes keep their tableaux up to a byte bound
(see solve_ilp).  Integrality and the branching variable
are read off the tableau's integer matrix (int64, or object dtype once an
entry reaches 2**30; see simplex.py), and values leave as int and Fraction.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bounds import CodeParams
from .budget import SearchBudget
from .simplex import EQ, GE, INFEASIBLE, LE, LpResult, _Tableau, solve_lp

Var = tuple[int, int]  # (b, a): position b holds symbol a
Row = tuple[dict[Var, int], int]

OPTIMAL = "optimal"
BOUND_ONLY = "bound_only"
# The integer program's node cap without a budget, and in every cell of
# search and tables: its nodes cost orders of magnitude more than clique nodes.
IP_NODE_CAP = 500
# Byte bound on the tableaux that solve_ilp keeps for its open nodes
# (_Tableau.nbytes).  A node pushed while the kept ones would pass it keeps
# only its path and basis, and its tableau is rebuilt from the root's when
# it is popped.  A rebuilt tableau equals the kept one entry for entry, so
# the bound changes time and memory, never results.
IP_TABLEAU_BYTES = 16 << 20


@dataclass
class IlpModel:
    """The position-count program for one (n, d) pair."""

    n: int
    d: int
    variables: tuple[Var, ...]
    inequality_rows: list[Row]
    equality_rows: list[Row]
    objective: dict[Var, int]
    var_upper: dict[Var, int]
    row_meta: list[tuple[int, int]]  # (a, l) behind each inequality row


@dataclass
class IlpSolution:
    status: str  # "optimal" | "bound_only" | "infeasible"
    objective_value: int
    assignment: Optional[dict[Var, int]]
    lp_relaxation_value: Fraction
    nodes_explored: int = 0


def build_model(params: CodeParams) -> IlpModel:
    """Build the program: for every symbol a and split l in 0..n-d,

        sum_b C(b-1, l) C(n-b, n-d-l) X[b][a]  <=  (n-1)!/(d-1)!

    plus equal column sums across positions and max sum_a X[1][a].
    Requires d >= 2 (at d = 1 every pattern is a whole permutation and the
    program is vacuous; ip_upper_bound short-circuits to n!).
    """
    n, d = params.n, params.d
    if d < 2:
        raise ValueError("model is only defined for d >= 2; use n! for d = 1")
    rhs = math.factorial(n - 1) // math.factorial(d - 1)

    variables = tuple((b, a) for b in range(1, n + 1) for a in range(1, n + 1))
    ineq: list[Row] = []
    meta: list[tuple[int, int]] = []
    for a in range(1, n + 1):
        for l in range(0, n - d + 1):
            coeffs: dict[Var, int] = {}
            for b in range(1, n + 1):
                c = math.comb(b - 1, l) * math.comb(n - b, n - d - l)
                if c:
                    coeffs[(b, a)] = c
            ineq.append((coeffs, rhs))
            meta.append((a, l))

    eq: list[Row] = []
    for b in range(1, n):
        coeffs = {(b, a): 1 for a in range(1, n + 1)}
        coeffs.update({(b + 1, a): -1 for a in range(1, n + 1)})
        eq.append((coeffs, 0))

    objective = {(1, a): 1 for a in range(1, n + 1)}

    var_upper: dict[Var, int] = {}
    for v in variables:
        caps = [r // coeffs[v] for coeffs, r in ineq if v in coeffs]
        if not caps:
            raise AssertionError(f"variable {v} missing from every covering row")
        var_upper[v] = min(caps)

    return IlpModel(
        n=n,
        d=d,
        variables=variables,
        inequality_rows=ineq,
        equality_rows=eq,
        objective=objective,
        var_upper=var_upper,
        row_meta=meta,
    )


def _lp_result(model: IlpModel) -> LpResult:
    index = {v: k for k, v in enumerate(model.variables)}
    rows: list[tuple[dict[int, int], str, int]] = []
    for coeffs, rhs in model.inequality_rows:
        rows.append(({index[v]: c for v, c in coeffs.items()}, LE, rhs))
    for coeffs, rhs in model.equality_rows:
        rows.append(({index[v]: c for v, c in coeffs.items()}, EQ, rhs))
    objective = {index[v]: c for v, c in model.objective.items()}
    return solve_lp(len(model.variables), rows, objective)


def solve_ilp(model: IlpModel, budget: Optional[SearchBudget] = None) -> IlpSolution:
    """Exact integer optimum by best-bound branch-and-bound.

    Branches on the most-fractional variable (ties to the smallest (b, a)),
    explores nodes best-bound-first with FIFO tie-break, and prunes with
    exact rational relaxation values.  With an exhausted budget the result
    is a proven upper bound (status "bound_only"), never a silent guess;
    without a budget, the program gets IP_NODE_CAP nodes.

    The root relaxation is solved cold by the two-phase simplex.  Each
    child is its parent's tableau plus one bound row, re-optimized by the
    dual simplex.  An open node keeps that tableau while the kept ones stay
    within IP_TABLEAU_BYTES; past it, a node keeps only its path of bound
    rows and its optimal basis, and its tableau is rebuilt from the root's
    when it is popped.
    """
    clock = (budget or SearchBudget(max_nodes=IP_NODE_CAP)).start()
    num_vars = len(model.variables)

    counter = held = 0
    # (-value, counter, path, basis, (k, floor of x_k), tableau or None);
    # counters are unique, so heap order never compares past them.
    heap: list[
        tuple[Fraction, int, tuple, tuple[int, ...], tuple[int, int], Optional[_Tableau]]
    ] = []

    def consider(tab, path: tuple) -> None:
        nonlocal best_value, best_x, counter, held
        value = tab.objective_value()
        branch = tab.most_fractional(num_vars)
        if branch is None:
            iv = math.floor(value)
            if iv > best_value:
                best_value = iv
                x = tab.point(num_vars)
                best_x = {v: int(x[k]) for k, v in enumerate(model.variables)}
            return
        if math.floor(value) > best_value:
            counter += 1
            basis, size = tuple(tab.basis), tab.nbytes
            if held + size <= IP_TABLEAU_BYTES:
                held += size
            else:
                tab = None  # rebuilt from the root's when popped
            heapq.heappush(heap, (-value, counter, path, basis, branch, tab))

    root = _lp_result(model)
    nodes = 1
    if root.status == INFEASIBLE:
        status, root_value, best_value, best_x = INFEASIBLE, Fraction(0), 0, None
    else:
        status, root_value = OPTIMAL, root.value
        # Feasible warm start: the constant matrix X[b][a] = m with the
        # largest m every covering row allows.
        mstar = min(rhs // sum(coeffs.values()) for coeffs, rhs in model.inequality_rows)
        best_value = model.n * mstar
        best_x = {v: mstar for v in model.variables}
        # A copy, so that the root's own tableau stays intact for rebuilds.
        consider(root.tableau.copy(), ())

    while heap:
        if clock.exhausted(nodes):
            status = BOUND_ONLY
            break
        neg, _, path, basis, (k, fl), tab = heapq.heappop(heap)
        if math.floor(-neg) <= best_value:
            # Best-bound order: nothing left can beat the incumbent.
            heap.clear()
            break
        if tab is None:
            tab = root.tableau.rebuilt(path, basis)
        else:
            held -= tab.nbytes
        # The node is done after its two children, so the second takes
        # its tableau; the first gets a copy made before either changes.
        for bound, child in (((k, LE, fl), tab.copy()), ((k, GE, fl + 1), tab)):
            child.add_bound(*bound)
            nodes += 1
            if child.dual_optimize() == INFEASIBLE:
                continue
            consider(child, path + (bound,))

    if status == BOUND_ONLY:
        # Every open node's floor is still a candidate for the optimum.
        best_value = max([best_value] + [math.floor(-entry[0]) for entry in heap])
    return IlpSolution(
        status=status,
        objective_value=best_value,
        assignment=best_x,
        lp_relaxation_value=root_value,
        nodes_explored=nodes,
    )


def ip_upper_bound(
    params: CodeParams, budget: Optional[SearchBudget] = None
) -> tuple[int, bool]:
    """(proven integer-program bound, whether the program hit its budget).
    The bound is valid for any budget (None: IP_NODE_CAP nodes).  It never
    exceeds the Singleton bound: the root relaxation equals it, and no
    node's value exceeds the root's.
    """
    if params.d == 1:
        return math.factorial(params.n), False
    sol = solve_ilp(build_model(params), budget)
    return sol.objective_value, sol.status == BOUND_ONLY


def export_lp(model: IlpModel) -> str:
    """Render the model in LP text format (deterministic output).

    Variables are named x_<b>_<a> with 1-based indices; constraint names
    carry the (a, l) pair behind each covering row.
    """

    def term(coeff: int, var: Var, first: bool) -> str:
        b, a = var
        name = f"x_{b}_{a}"
        mag = abs(coeff)
        body = name if mag == 1 else f"{mag} {name}"
        if first:
            return body if coeff > 0 else f"- {body}"
        return f"+ {body}" if coeff > 0 else f"- {body}"

    def linear(coeffs: dict[Var, int]) -> str:
        parts = []
        for v in sorted(coeffs):
            if coeffs[v] == 0:
                continue
            parts.append(term(coeffs[v], v, first=not parts))
        return " ".join(parts)

    lines = [f"\\ maximum-codewords bound model, n={model.n} d={model.d}"]
    lines.append("Maximize")
    lines.append(f" obj: {linear(model.objective)}")
    lines.append("Subject To")
    for (coeffs, rhs), (a, l) in zip(model.inequality_rows, model.row_meta):
        lines.append(f" cover_a{a}_l{l}: {linear(coeffs)} <= {rhs}")
    for b, (coeffs, rhs) in enumerate(model.equality_rows, start=1):
        lines.append(f" link_b{b}: {linear(coeffs)} = {rhs}")
    lines.append("Bounds")
    for v in model.variables:
        lines.append(f" 0 <= x_{v[0]}_{v[1]} <= {model.var_upper[v]}")
    lines.append("General")
    for v in model.variables:
        lines.append(f" x_{v[0]}_{v[1]}")
    lines.append("End")
    return "\n".join(lines) + "\n"
