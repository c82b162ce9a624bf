"""Integer-programming upper bound on maximum Ulam-code sizes.

The program is a function of (n, d) alone, and every entry point takes
the CodeParams and builds it itself.  It counts, for each symbol a and
each split point l, how many length-(n-d+1) symbol patterns with a in the
middle can occur across all codewords: a code with minimum distance d
repeats no such pattern, and only (n-1)!/(d-1)! patterns exist, which
caps a weighted sum of the position counts X[b][a] (see _cover).
Maximizing the number of codewords subject to those caps yields an upper
bound on the code size, and that bound is all solve_ilp returns: no
primal point leaves the solver.

The solver is exact end to end: rational simplex relaxations drive a
deterministic best-bound branch-and-bound, so returned bounds are
certificates, never float artifacts.  Only the root relaxation is solved
from scratch, by the primal simplex from x = 0, which meets every row; a
time cap stops it between pivots.  Every child is re-optimized from its
parent's tableau by the dual simplex, and every open node keeps its
tableau; a byte bound on those tableaux is part of the budget (see
solve_ilp).  Integrality and the branching variable are read off the
last two columns of the condensed tableau's matrix, the right-hand sides
and the row denominators (int64, or object dtype past 2**30; see
simplex.py), and values leave as Python ints.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bounds import CodeParams, singleton_upper
from .budget import BudgetClock, SearchBudget
from .simplex import EQ, GE, INFEASIBLE, LE, OPTIMAL, STOPPED, _Tableau, solve_lp

BOUND_ONLY = "bound_only"
# The integer program's node cap without a budget, and in every cell of
# search and tables: its nodes cost orders of magnitude more than clique nodes.
IP_NODE_CAP = 500
# Byte bound on the tableaux that solve_ilp's open nodes keep
# (_Tableau.nbytes, read once per pushed node; a bound row adds a row and no
# column).  Like the node and time caps, it ends the run as bound_only once
# passed, by at most the two children of the last node popped.
IP_TABLEAU_BYTES = 16 << 20


@dataclass
class IlpSolution:
    status: str  # "optimal" | "bound_only"
    objective_value: int
    nodes_explored: int = 0


def _cover(params: CodeParams) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The program's n-d+1 covering rows as (cover, rhs): for every symbol
    a and split l in 0..n-d,

        sum_b cover[l][b-1] X[b][a]  <=  rhs,
        cover[l][b-1] = C(b-1, l) C(n-b, n-d-l),  rhs = (n-1)!/(d-1)!.

    Every row sums to C(n, d-1) (the Chu-Vandermonde sum over b of
    C(b-1, l) C(n-b, n-d-l)), so the constant X[b][a] = m meets it exactly
    when m <= rhs / C(n, d-1) = (n-d+1)!/n, the Singleton bound over n.

    Requires d >= 2 (at d = 1 every pattern is a whole permutation and the
    program is vacuous; solve_ilp answers n! itself).
    """
    n, d = params.n, params.d
    if d < 2:
        raise ValueError("model is only defined for d >= 2; use n! for d = 1")
    cover = tuple(
        tuple(math.comb(b - 1, l) * math.comb(n - b, n - d - l) for b in range(1, n + 1))
        for l in range(n - d + 1)
    )
    return cover, math.factorial(n - 1) // math.factorial(d - 1)


def _program(
    params: CodeParams,
) -> tuple[list[tuple[str, dict[int, int], str, int]], dict[int, int]]:
    """The program's named rows and objective over columns (b-1)*n + (a-1),
    one per X[b][a]: the covering rows cover_a<a>_l<l> (a outer, l inner),
    then the n-1 link rows link_b<b>, sum_a X[b][a] = sum_a X[b+1][a];
    maximize sum_a X[1][a].  No row holds a zero coefficient, and every row
    lists its columns in order."""
    n = params.n
    cover, rhs = _cover(params)
    rows = [
        (f"cover_a{a + 1}_l{l}", {b * n + a: c for b, c in enumerate(row) if c}, LE, rhs)
        for a in range(n)
        for l, row in enumerate(cover)
    ]
    rows += [
        (f"link_b{b}", {k: 1 if k < b * n else -1 for k in range((b - 1) * n, (b + 1) * n)},
         EQ, 0)
        for b in range(1, n)
    ]
    return rows, dict.fromkeys(range(n), 1)


def _root_lp(
    params: CodeParams, clock: Optional[BudgetClock] = None
) -> tuple[str, Optional[_Tableau]]:
    rows, objective = _program(params)
    return solve_lp(params.n**2, [row[1:] for row in rows], objective, clock)


def solve_ilp(params: CodeParams, budget: Optional[SearchBudget] = None) -> IlpSolution:
    """Exact integer optimum by best-bound branch-and-bound.

    Branches on the most-fractional variable (ties to the smallest (b, a)),
    explores nodes best-bound-first with FIFO tie-break, and prunes with
    exact rational relaxation values.  With an exhausted budget the result
    is a proven upper bound (status "bound_only"), never a silent guess;
    without a budget, the program gets IP_NODE_CAP nodes.  The value never
    exceeds the Singleton bound: the root relaxation equals it, and no
    node's value exceeds the root's.  The incumbent starts at the warm
    start n * (S // n), S the Singleton bound: the constant matrix X[b][a]
    = S // n is the largest one every covering row allows (see _cover).  An
    integral node only raises it.  At d = 1, where the program is vacuous,
    the answer is n! after 0 nodes.

    The root relaxation is solved from x = 0 by the primal simplex, which
    reads the budget's time cap between pivots; stopped there, the result
    is the relaxation's value, the Singleton bound, after one node.  A node
    cap counts the root as one node and cannot stop it.  Each child is its
    parent's tableau plus one bound row on the branching variable, which
    most_fractional takes from the basis, re-optimized by the dual simplex,
    and each open node keeps that tableau: its bytes are charged once, when
    it is pushed, and its entry holds the charge that its pop refunds.  Once
    the charges pass IP_TABLEAU_BYTES, the run stops as bound_only, as it
    does on the node or time cap.
    """
    n = params.n
    if params.d == 1:
        return IlpSolution(OPTIMAL, math.factorial(n))
    clock = (budget or SearchBudget(max_nodes=IP_NODE_CAP)).start()
    counter = held = 0
    # (-value, counter, (k, floor of x_k), bytes charged, tableau); counters
    # are unique, so heap order never compares past them.
    heap: list[tuple[Fraction, int, tuple[int, int], int, _Tableau]] = []

    def consider(tab) -> None:
        nonlocal best_value, counter, held
        value = tab.objective_value()
        branch = tab.most_fractional(n * n)
        if branch is None:
            best_value = max(best_value, math.floor(value))
            return
        if math.floor(value) > best_value:
            counter += 1
            size = tab.nbytes
            held += size
            heapq.heappush(heap, (-value, counter, branch, size, tab))

    singleton = singleton_upper(params)
    best_value = n * (singleton // n)  # the warm start
    root_status, root = _root_lp(params, clock)
    if root_status == STOPPED:
        # The relaxation's value is the Singleton bound.
        return IlpSolution(BOUND_ONLY, singleton, 1)
    # X = 0 meets every row: rhs >= 0, and the link rows are homogeneous.
    assert root_status == OPTIMAL
    status, nodes = OPTIMAL, 1
    consider(root)

    while heap:
        if clock.exhausted(nodes) or held > IP_TABLEAU_BYTES:
            status = BOUND_ONLY
            break
        neg, _, (k, fl), charge, tab = heapq.heappop(heap)
        held -= charge
        if math.floor(-neg) <= best_value:
            # Best-bound order: nothing left can beat the incumbent.
            heap.clear()
            break
        # The node is done after its two children, so the second takes
        # its tableau; the first gets a copy made before either changes.
        for bound, child in (((k, LE, fl), tab.copy()), ((k, GE, fl + 1), tab)):
            child.add_bound(*bound)
            nodes += 1
            if child.dual_optimize() == INFEASIBLE:
                continue
            consider(child)

    if status == BOUND_ONLY:
        # The heap top's floor is the largest open node's, still a candidate.
        best_value = max(best_value, math.floor(-heap[0][0]))
    return IlpSolution(status, best_value, nodes)


def export_lp(params: CodeParams) -> str:
    """Render the program in LP text format (deterministic output).

    Variables are named x_<b>_<a> with 1-based indices; constraints carry
    the names _program gives them.  A variable's bound is the tightest its
    position's covering rows allow.
    """
    n = params.n
    cover, rhs = _cover(params)
    rows, objective = _program(params)
    names = [f"x_{k // n + 1}_{k % n + 1}" for k in range(n * n)]

    def linear(coeffs: dict[int, int]) -> str:
        parts = []
        for k, coeff in coeffs.items():
            body = names[k] if abs(coeff) == 1 else f"{abs(coeff)} {names[k]}"
            sign = "-" if coeff < 0 else "+"
            parts.append(f"{sign} {body}" if parts or coeff < 0 else body)
        return " ".join(parts)

    caps = [min(rhs // c for c in column if c) for column in zip(*cover)]
    lines = [f"\\ maximum-codewords bound model, n={n} d={params.d}"]
    lines += ["Maximize", f" obj: {linear(objective)}", "Subject To"]
    lines += [f" {label}: {linear(coeffs)} {sense} {right}" for label, coeffs, sense, right in rows]
    lines.append("Bounds")
    lines += [f" 0 <= {name} <= {caps[k // n]}" for k, name in enumerate(names)]
    lines.append("General")
    lines += [f" {name}" for name in names]
    lines.append("End")
    return "\n".join(lines) + "\n"
