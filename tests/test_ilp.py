"""The integer program of (n, d): its rows, exact solving, and LP export."""

import hashlib
import heapq
import itertools
import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import full_tableau, tableau_certificate
from ulamcode.bounds import CodeParams, singleton_upper
from ulamcode.budget import BudgetClock, SearchBudget
from ulamcode.ilp import IP_NODE_CAP, export_lp, solve_ilp
from ulamcode import budget as budget_module
from ulamcode import cli, ilp, simplex
from ulamcode.simplex import EQ, GE, INFEASIBLE, LE, OPTIMAL, solve_lp


def program_rows(params):
    """The rows the solver sees, as (coefficients keyed by (b, a), sense, rhs)."""
    n = params.n
    rows, _ = ilp._program(params)
    return [({(k // n + 1, k % n + 1): c for k, c in coeffs.items()}, sense, rhs)
            for _, coeffs, sense, rhs in rows]


def satisfies(params, x):
    """Whether the point x[(b, a)] meets every row of the program."""
    for coeffs, sense, rhs in program_rows(params):
        lhs = sum(c * x[v] for v, c in coeffs.items())
        if not (lhs <= rhs if sense == LE else lhs == rhs):
            return False
    return True


class TestBuildModel:
    def test_shape(self):
        for n in range(4, 8):
            for d in range(2, n):
                p = CodeParams(n, d)
                cover, rhs = ilp._cover(p)
                assert len(cover) == n - d + 1
                assert all(len(row) == n for row in cover)
                assert rhs == math.factorial(n - 1) // math.factorial(d - 1)
                senses = [sense for _, sense, _ in program_rows(p)]
                assert senses == [LE] * (n * (n - d + 1)) + [EQ] * (n - 1)

    def test_coefficient_formula(self):
        for n, d in [(5, 3), (6, 4), (7, 2)]:
            p = CodeParams(n, d)
            cover, rhs = ilp._cover(p)
            for l, row in enumerate(cover):
                for b in range(1, n + 1):
                    assert row[b - 1] == math.comb(b - 1, l) * math.comb(n - b, n - d - l)
            # The covering rows repeat cover for each symbol a, a outer, and
            # each carries the name of its (a, l) pair.
            labels = [label for label, _, _, _ in ilp._program(p)[0]]
            covering = program_rows(p)[: n * len(cover)]
            for i, (coeffs, _, row_rhs) in enumerate(covering):
                a, l = divmod(i, len(cover))
                want = {(b, a + 1): c for b, c in enumerate(cover[l], start=1) if c}
                assert (coeffs, row_rhs) == (want, rhs)
                assert labels[i] == f"cover_a{a + 1}_l{l}"
            assert labels[len(covering):] == [f"link_b{b}" for b in range(1, n)]

    def test_worked_example_rows(self):
        # The simplified coefficient patterns of the paper's example.
        assert ilp._cover(CodeParams(5, 3)) == (
            ((6, 3, 1, 0, 0), (0, 3, 4, 3, 0), (0, 0, 1, 3, 6)), 12
        )

    def test_largest_distance_structure(self):
        # d = n - 1 keeps exactly the l = 0 and l = 1 split rows.
        assert ilp._cover(CodeParams(5, 4)) == (((4, 3, 2, 1, 0), (0, 1, 2, 3, 4)), 4)

    def test_equalities_link_neighbouring_positions(self):
        p = CodeParams(4, 2)
        coeffs, sense, rhs = program_rows(p)[len(ilp._cover(p)[0]) * 4]
        assert (sense, rhs) == (EQ, 0)
        assert coeffs == {**{(1, a): 1 for a in range(1, 5)}, **{(2, a): -1 for a in range(1, 5)}}

    def test_d1_rejected(self):
        # The program is vacuous at d = 1, so building it is an error;
        # solve_ilp answers n! itself.
        for build in (ilp._cover, export_lp):
            with pytest.raises(ValueError, match="d >= 2"):
                build(CodeParams(4, 1))
        for n in range(2, 7):
            sol = solve_ilp(CodeParams(n, 1))
            assert (sol.status, sol.objective_value, sol.nodes_explored) == (
                "optimal", math.factorial(n), 0)

    def test_var_upper_from_tightest_row(self):
        text = export_lp(CodeParams(5, 3))
        assert " 0 <= x_1_1 <= 2\n" in text   # 12 // 6
        assert " 0 <= x_3_1 <= 3\n" in text   # 12 // 4 from the middle row
        assert " 0 <= x_5_1 <= 2\n" in text

    def test_every_position_is_covered(self):
        # Every column of cover has a nonzero entry, so every variable is
        # bounded by some covering row.
        for n in range(4, 13):
            for d in range(2, n):
                cover, _ = ilp._cover(CodeParams(n, d))
                assert all(any(column) for column in zip(*cover)), (n, d)

    def test_every_row_sums_to_the_same(self):
        # Every covering row sums to C(n, d-1), so the largest constant
        # matrix the rows allow is X[b][a] = S // n, S the Singleton bound:
        # solve_ilp's warm start n * (S // n).
        for n in range(3, 31):
            for d in range(2, n):
                p = CodeParams(n, d)
                cover, rhs = ilp._cover(p)
                assert {sum(row) for row in cover} == {math.comb(n, d - 1)}, (n, d)
                assert rhs // math.comb(n, d - 1) == singleton_upper(p) // n, (n, d)


def relaxation(params):
    # The root relaxation solve_ilp starts from.
    return ilp._root_lp(params)[1].objective_value()


class TestLpRelaxation:
    def test_zero_rhs_variant(self):
        # The program's rows with every right-hand side set to 0.
        rows, objective = ilp._program(CodeParams(5, 3))
        zeroed = [(coeffs, sense, 0) for _, coeffs, sense, _ in rows]
        status, tab = solve_lp(25, zeroed, objective)
        assert (status, tab.objective_value()) == (OPTIMAL, 0)

    def test_worked_example_window_and_value(self):
        value = relaxation(CodeParams(5, 3))
        assert 5 <= value <= 6
        assert value == Fraction(6)  # frozen regression value

    def test_equals_singleton_bound(self):
        # Averaging codeword counts over the symbol index keeps every row
        # and the objective, and all row sums equal C(n, n-d+1), so the
        # relaxation collapses to the Singleton value exactly.
        for n in range(4, 9):
            for d in range(2, n):
                p = CodeParams(n, d)
                assert relaxation(p) == singleton_upper(p)

    def test_roots_are_certified(self):
        # The root tableau of every cell with n <= 8 proves its own optimum.
        for n in range(3, 9):
            for d in range(2, n):
                p = CodeParams(n, d)
                status, root = ilp._root_lp(p)
                assert status == OPTIMAL
                assert _certificate(p, (), _snapshot(root)) == (OPTIMAL, root.objective_value())


# Exact integer optima of the program itself (before the Singleton min),
# with the nodes the solver takes; regression values from this solver,
# cross-checked against the known maximum code sizes they must dominate.
# Both n = 7 cells close under IP_NODE_CAP.
FROZEN_GRID = {
    (4, 2): (6, 1),
    (4, 3): (2, 1),
    (5, 2): (24, 1),
    (5, 3): (5, 131),
    (5, 4): (2, 1),
    (6, 2): (120, 1),
    (6, 3): (24, 1),
    (6, 4): (6, 1),
    (6, 5): (2, 1),
    (7, 4): (24, 217),
    (7, 5): (6, 257),
}


class TestSolveIlp:
    def test_worked_example(self):
        sol = solve_ilp(CodeParams(5, 3))
        assert sol.status == "optimal"
        assert sol.objective_value == 5
        assert relaxation(CodeParams(5, 3)) == 6

    def test_all_ones_point_is_feasible_at_5_3(self):
        assert satisfies(CodeParams(5, 3), {(b, a): 1 for b in range(1, 6) for a in range(1, 6)})

    def test_frozen_small_grid(self):
        for (n, d), (value, nodes) in FROZEN_GRID.items():
            sol = solve_ilp(CodeParams(n, d))
            assert sol.status == "optimal"
            assert (sol.objective_value, sol.nodes_explored) == (value, nodes)
            assert nodes <= IP_NODE_CAP

    def test_deterministic_node_count(self):
        a = solve_ilp(CodeParams(5, 3))
        b = solve_ilp(CodeParams(5, 3))
        # At most the 200 nodes the benchmark gives (5,3).
        assert a.nodes_explored == b.nodes_explored == 131
        assert a.objective_value == b.objective_value

    def test_lp_dominates_ilp(self):
        for n, d in [(4, 2), (4, 3), (5, 3), (5, 4)]:
            p = CodeParams(n, d)
            sol = solve_ilp(p)
            lp = relaxation(p)
            assert lp.numerator // lp.denominator >= sol.objective_value

    def test_default_budget_is_the_node_cap(self, monkeypatch):
        # Without a budget the program gets IP_NODE_CAP nodes, read when it
        # is called; the frozen grid above settles within the real cap.
        monkeypatch.setattr(ilp, "IP_NODE_CAP", 10)
        p = CodeParams(5, 3)
        sol = solve_ilp(p)
        assert (sol.status, sol.nodes_explored) == ("bound_only", 11)
        assert sol == solve_ilp(p, SearchBudget(max_nodes=10))

    def test_budget_exhaustion_is_explicit_and_sound(self):
        sol = solve_ilp(CodeParams(5, 3), SearchBudget(max_nodes=2))
        assert sol.status == "bound_only"
        assert sol.objective_value >= 5  # never below the true optimum
        assert sol.objective_value <= 6  # never above the relaxation floor


class _Recorder:
    """Records what solve_ilp asks of the simplex: the bound path,
    dual-simplex status and final tableau of each child.  ``paths`` maps
    each tableau copied or bounded to its path of bound rows, which
    add_bound extends and copies inherit.  The dict keeps those tableaux
    alive, so no key is a freed tableau whose memory a later one reuses."""

    def __init__(self, monkeypatch):
        self.children = []  # (path, status, snapshot)
        self.dtypes = set()  # of every child's matrix
        self.paths = {}  # tableau -> its bound rows
        tab_cls = simplex._Tableau
        add_bound, dual_optimize, copy = tab_cls.add_bound, tab_cls.dual_optimize, tab_cls.copy

        def add_bound_spy(tab, var, sense, bound):
            add_bound(tab, var, sense, bound)
            self.paths[tab] = self.paths.get(tab, ()) + ((var, sense, bound),)

        def dual_optimize_spy(tab):
            status = dual_optimize(tab)
            self.dtypes.add(tab.mat.dtype)
            self.children.append((self.paths[tab], status, _snapshot(tab)))
            return status

        def copy_spy(tab):
            child = copy(tab)
            self.paths[child] = self.paths.get(tab, ())
            return child

        monkeypatch.setattr(tab_cls, "add_bound", add_bound_spy)
        monkeypatch.setattr(tab_cls, "dual_optimize", dual_optimize_spy)
        monkeypatch.setattr(tab_cls, "copy", copy_spy)


def _snapshot(tab):
    """(ncols, basis, constraint rows, their denominators, objective row,
    its denominator) of the full tableau, as nested Python ints so that ==
    compares every entry."""
    ncols, basis, mat, dens = full_tableau(tab)
    return ncols, basis, mat[:-1], dens[:-1], mat[-1], dens[-1]


def _certificate(params, path, snapshot):
    """What a tableau of the relaxation plus the bounds of path proves, by
    oracles.tableau_certificate.  It expands cover itself, X[b][a] at column
    (b-1)*n + (a-1), and writes x_k >= l as -x_k <= -l, as add_bound does."""
    n = params.n
    cover, rhs = ilp._cover(params)

    def col(b, a):
        return (b - 1) * n + a - 1

    rows = [
        ({col(b, a): c for b, c in enumerate(row, start=1)}, LE, rhs)
        for a in range(1, n + 1)
        for row in cover
    ]
    for b in range(1, n):
        link = {col(b, a): 1 for a in range(1, n + 1)}
        link.update({col(b + 1, a): -1 for a in range(1, n + 1)})
        rows.append((link, EQ, 0))
    rows += [({k: 1}, LE, bound) if sense == LE else ({k: -1}, LE, -bound)
             for k, sense, bound in path]
    _, basis, mat, dens, obj, obj_den = snapshot
    objective = {col(1, a): 1 for a in range(1, n + 1)}
    return tableau_certificate(n * n, rows, objective, basis, mat + [obj], dens + [obj_den])


class TestWarmStart:
    @pytest.mark.parametrize("cell, budget, at_least", [((5, 3), None, 100), ((7, 5), 31, 30)])
    def test_children_match_cold_solves(self, monkeypatch, cell, budget, at_least):
        params = CodeParams(*cell)
        rec = _Recorder(monkeypatch)
        solve_ilp(params, SearchBudget(max_nodes=budget) if budget else None)
        assert len(rec.children) >= at_least
        statuses = set()
        # Each child's tableau is an exact certificate of its status.
        for path, status, snapshot in rec.children:
            ncols, obj, obj_den = snapshot[0], snapshot[4], snapshot[5]
            value = Fraction(obj[ncols], obj_den) if status == OPTIMAL else None
            assert _certificate(params, path, snapshot) == (status, value)
            statuses.add(status)
        assert statuses == {OPTIMAL, INFEASIBLE}  # the oracle checks both kinds


def _solve(cell, max_nodes=None):
    budget = SearchBudget(max_nodes=max_nodes) if max_nodes else None
    sol = solve_ilp(CodeParams(*cell), budget)
    return sol.status, sol.objective_value, sol.nodes_explored


def _entry_bytes(entry):
    """What a heap entry holds besides its tableau: the 5-tuple, its
    Fraction key with the key's numerator and denominator, and the branch
    pair."""
    key, _, branch, _, _ = entry
    return sum(map(sys.getsizeof, (entry, key, key.numerator, key.denominator, branch)))


class _HeapSpy:
    """Stands in for solve_ilp's heapq.  Each entry's charge (the field
    before its tableau) must be its tableau's nbytes plus _entry_bytes when
    it is pushed and when it is popped.  The spy keeps the heap, the sum
    of its charges (held), the most that sum reached, its value at each
    pop, and the entries pushed since the last pop."""

    def __init__(self):
        self.held = self.most = 0
        self.at_pops, self.since_pop, self.heap = [], [], []

    @staticmethod
    def checked_charge(entry):
        *_, charge, tab = entry
        assert charge == tab.nbytes + _entry_bytes(entry)
        return charge

    def heappop(self, heap):
        self.at_pops.append(self.held)
        self.since_pop = []
        entry = heapq.heappop(heap)
        self.held -= self.checked_charge(entry)
        return entry

    def heappush(self, heap, entry):
        heapq.heappush(heap, entry)
        self.heap = heap
        self.since_pop.append(entry)
        self.held += self.checked_charge(entry)
        self.most = max(self.most, self.held)

    def open_bytes(self):
        """What the open nodes' tableaux and entries hold, measured again."""
        return sum(e[-1].nbytes + _entry_bytes(e) for e in self.heap)


class TestTableauMemo:
    """Every open node keeps its tableau.  Once their bytes pass
    IP_TABLEAU_BYTES, the run ends as bound_only, as it does on its node
    cap: the bound cuts the run short and changes nothing before that."""

    @pytest.mark.parametrize("cell, max_nodes, value", [((8, 6), 300, 6), ((10, 7), 150, 24)],
                             ids=["8-6-300", "10-7-150"])
    def test_a_small_bound_ends_the_run(self, monkeypatch, cell, max_nodes, value):
        # (10,7) runs in object dtype.
        bound = 1 << 20
        monkeypatch.setattr(ilp, "IP_TABLEAU_BYTES", bound)
        spy = _HeapSpy()
        monkeypatch.setattr(ilp, "heapq", spy)
        stopped = _solve(cell, max_nodes)
        status, got, nodes = stopped
        assert (status, got) == ("bound_only", value)
        assert nodes < max_nodes
        # The charges held at each pop were within the bound, and the last
        # pop's one or two children passed it.  They sum to what the open
        # tableaux hold.
        assert max(spy.at_pops) <= bound
        assert 1 <= len(spy.since_pop) <= 2
        assert spy.held - sum(e[-2] for e in spy.since_pop) <= bound < spy.held
        assert spy.most == spy.held == spy.open_bytes()
        # Without the bound, a node cap at the same node ends the run alike.
        monkeypatch.setattr(ilp, "IP_TABLEAU_BYTES", math.inf)
        assert _solve(cell, nodes) == stopped

    @pytest.mark.parametrize(
        "cell, max_nodes",
        [(cell, None) for cell in FROZEN_GRID] + [((8, 6), IP_NODE_CAP)]
        # The default bound is passed here, in object dtype.
        + [pytest.param((10, 7), None, marks=pytest.mark.slow)],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_results_do_not_depend_on_the_memo(self, monkeypatch, cell, max_nodes):
        # Under bound 0, which ends every run after its root, and under the
        # default bound, a run equals the one without the bound that a node
        # cap stops at the same node, or the same run when it is optimal.
        runs = []
        for bound in (0, ilp.IP_TABLEAU_BYTES):
            monkeypatch.setattr(ilp, "IP_TABLEAU_BYTES", bound)
            runs.append(_solve(cell, max_nodes))
        monkeypatch.setattr(ilp, "IP_TABLEAU_BYTES", math.inf)
        for run in runs:
            assert _solve(cell, run[2] if run[0] == "bound_only" else max_nodes) == run
        assert runs[0][2] == 1
        if cell == (8, 6):
            assert runs[1] == ("bound_only", 6, 501)
        if cell == (10, 7):
            assert runs[1][:2] == ("bound_only", 24) and runs[1][2] < 501

    def test_one_nbytes_read_per_pushed_node(self, monkeypatch):
        # A node's tableau is measured once, when it is pushed, and the
        # size read plus the entry's own bytes is its entry's charge; its
        # pop refunds that charge without measuring it again.
        monkeypatch.setattr(ilp, "IP_TABLEAU_BYTES", 1 << 20)
        reads, pushed, popped = [], [], []
        nbytes = simplex._Tableau.nbytes

        def read(tab):
            reads.append((tab, nbytes.fget(tab)))
            return reads[-1][1]

        monkeypatch.setattr(simplex._Tableau, "nbytes", property(read))
        monkeypatch.setattr(ilp, "heapq", SimpleNamespace(
            heappush=lambda heap, entry: (pushed.append(entry), heapq.heappush(heap, entry)),
            heappop=lambda heap: popped.append(heapq.heappop(heap)) or popped[-1],
        ))
        status, _, nodes = _solve((8, 6), 300)
        assert status == "bound_only" and nodes < 300  # stopped on bytes
        assert len(reads) == len(pushed) > len(popped) > 20
        assert all(tab is e[-1] and size + _entry_bytes(e) == e[-2]
                   for (tab, size), e in zip(reads, pushed))

    def test_a_push_is_charged_its_tableau_and_entry(self, monkeypatch):
        # Each pushed node is charged exactly its tableau's nbytes and the
        # bytes of its heap entry, measured as it is pushed.
        pushed = []
        monkeypatch.setattr(ilp, "heapq", SimpleNamespace(
            heappush=lambda heap, entry: (
                pushed.append((entry, entry[-1].nbytes + _entry_bytes(entry))),
                heapq.heappush(heap, entry)),
            heappop=heapq.heappop,
        ))
        assert _solve((5, 3)) == ("optimal", 5, 131)
        assert len(pushed) > 20
        assert all(entry[-2] == charge for entry, charge in pushed)

    def test_default_bound_fits_the_default_cap(self, monkeypatch):
        # No run that search or tables can make (n <= 9, IP_NODE_CAP nodes)
        # stops on bytes.
        for n in range(4, 10):
            for d in range(2, n):
                spy = _HeapSpy()
                monkeypatch.setattr(ilp, "heapq", spy)
                status, _, nodes = _solve((n, d), IP_NODE_CAP)
                assert spy.most <= ilp.IP_TABLEAU_BYTES
                if status == "bound_only":
                    # Stopped on the node cap, its open tableaux charged in full.
                    assert nodes == IP_NODE_CAP + 1
                    assert spy.held == spy.open_bytes()

    @pytest.mark.slow
    def test_memory_beyond_the_default_cap(self, monkeypatch):
        # 3,000 nodes at (8,6) would keep about 50 MB of tableaux.  The run
        # stops once they pass the bound, and its traced peak exceeds a
        # root-only run's by at most the bound and the tableaux of its last
        # step: the node popped and its two children.
        peaks, results = [], []
        for max_nodes in (1, 3000):
            tracemalloc.start()
            try:
                results.append(_solve((8, 6), max_nodes))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        status, value, nodes = results[1]
        assert (status, value) == ("bound_only", 6)
        assert IP_NODE_CAP < nodes < 3000
        spy = _HeapSpy()
        monkeypatch.setattr(ilp, "heapq", spy)
        assert _solve((8, 6), 3000) == results[1]
        largest = max(e[-2] for e in spy.heap)
        assert peaks[1] <= peaks[0] + ilp.IP_TABLEAU_BYTES + 3 * largest


# The ten cells of the benchmark's ipbound workload, with its node caps, and
# the root tableau of each: its basis and the SHA-256 of its full matrix and
# denominators (oracles.full_tableau).  Every root tableau is int64.
IPBOUND_CAPS = {
    (4, 3): 200, (5, 3): 200, (5, 4): 200, (6, 3): 200, (6, 4): 200,
    (6, 5): 200, (7, 4): 8, (7, 5): 8, (7, 6): 200, (8, 6): 8,
}
ROOT_TABLEAUX = {
    (4, 3): (
        [12, 11, 13, 10, 1, 7, 14, 23, 0, 2, 6],
        "d8c6d60a61d4c7218e48f12a5d65381086507f747bc6e834add8df568abaf4f9",
    ),
    (5, 3): (
        [20, 1, 11, 21, 2, 12, 22, 3, 14, 8, 4, 23, 0, 38, 39, 18, 5, 10, 19],
        "581ad4bac56268021e2181443b99a6f091e4e7e380432a18c509007bd5290326",
    ),
    (5, 4): (
        [20, 14, 19, 7, 21, 8, 18, 9, 22, 34, 0, 2, 1, 17],
        "e5eb105b3112b7d0cee4e9decdab1bfc15efc54141e930702f84aae00fc06344",
    ),
    (6, 3): (
        [30, 32, 15, 1, 6, 34, 26, 2, 19, 7, 27, 3, 33, 10, 28, 4, 29, 11, 20, 16,
         35, 57, 58, 59, 0, 31, 14, 18, 5],
        "3f078ab46e7fabd7cb3c4884a9bf4e74d9a992bbac9f910f607b53fec2189135",
    ),
    (6, 4): (
        [30, 27, 32, 20, 29, 1, 7, 3, 21, 22, 4, 28, 33, 5, 23, 9, 52, 53, 0, 8, 12,
         31, 13],
        "c1116d36a5f52cb36f49a70b012e0889334c9f1b9a161da20b3b62d7c7fe43f9",
    ),
    (6, 5): (
        [30, 1, 9, 10, 31, 22, 2, 16, 8, 17, 28, 47, 0, 23, 27, 32, 26],
        "2e65b3d1c314b55e6bfcbd3722cf36ff4b77f4f12696fd5f6baed14a0be8e708",
    ),
    (7, 4): (
        [42, 45, 15, 1, 14, 31, 3, 2, 39, 46, 20, 30, 25, 24, 41, 40, 16, 5, 12, 17,
         47, 70, 13, 7, 19, 74, 75, 76, 0, 44, 29, 4, 28, 43],
        "912614871332b81bb91ab6e099424e16cee29e01f184e92907568eec39992ba9",
    ),
    (7, 5): (
        [42, 34, 15, 43, 8, 25, 23, 3, 9, 44, 24, 4, 7, 5, 33, 45, 10, 6, 12, 68,
         69, 41, 40, 14, 38, 0, 39],
        "6e122f0a8bb34cd803f1a110e20469dcd474e7097e2c2df45af306edc785966f",
    ),
    (7, 6): (
        [42, 9, 2, 39, 10, 11, 43, 18, 32, 19, 33, 20, 44, 62, 0, 38, 34, 37, 27, 1],
        "f4941d6cf57533087434d8790d95f1adbfc2d7fa1bb96de353dbdca9bea83434",
    ),
    (8, 6): (
        [56, 58, 51, 17, 14, 10, 13, 3, 35, 36, 4, 46, 52, 47, 39, 29, 6, 53, 59, 7,
         54, 2, 86, 87, 26, 27, 16, 24, 0, 57, 25],
        "474ef0808929b077d5813c19c1167c1b6ee69eb8d25f43ce50923cb6b832c47d",
    ),
}


# SHA-256 of the root tableau of every cell with 4 <= n <= 8: its ncols,
# basis, full matrix and denominators (oracles.full_tableau).
ROOT_TABLEAU_SHA256 = {
    (4, 2): "e8a5b856581c86c9f68ff55f3cca910dce3ed066b477d0f8b0236e96c5cd5bc4",
    (4, 3): "7ee55561c11a2d66750ae510fc3b107ef2a573b728d22dea0ced5b67e28fe65c",
    (5, 2): "52f06b549e036254950a3dab50116479b19c50c35b4f249e750e0acab35c5734",
    (5, 3): "88f8b1ae144f5b6531cf17db4f633acb99afe98a464249dd037a2543d0c2fa91",
    (5, 4): "5bc1bd7c77d0e76792837aa4ec9abb84245a16613175c37e648a201ea62471da",
    (6, 2): "7a9d239d97d755752e8dc93632122f30353186f52cca34b928f374f6abcd2c0c",
    (6, 3): "4726f8264685378f378c4ea81ea15d70e493e12ecce7eda21b3afba54cfe8c04",
    (6, 4): "7ec8b41faadfc314c9a54c028286b89d511e5aa1d7d96d651f88e24d12a80614",
    (6, 5): "90ca70ee6a3ffeb55c869b82e30a2511ee92a238b1b57bd1be94ab59efd9654c",
    (7, 2): "07ff6f82ebaafe51622f278047807736f799678766a2550a64e1a01739c37e35",
    (7, 3): "69b8eae8e774ebfb396f4455aa6c0b3a895685a574a2a411e78934e8d889c460",
    (7, 4): "20e2ffc5c91ba61f061543b0b9293c680982ff614bf757c807b9bc35d6b95a23",
    (7, 5): "55f3c9108c21c8107e4554aa4f85589b85ef6d91385755cf2a6e761bae8cbb67",
    (7, 6): "bb65ba1e1b13ffcd06a35d34f38554e7b3de2f40f9c1453380cff885038035ca",
    (8, 2): "32a04ebe29cfec378187fa3d8b1db19204f41f416a32bab7413c8911a47ae160",
    (8, 3): "efc61deedc00c426467c111c793f6a76ebd62d60f488f55d7c21bc0cae93ca7b",
    (8, 4): "4430830a5ecc1708d023058fd73aeb5a6dd9f8770e2728fa519c87f53dd2a7ff",
    (8, 5): "56d881fc99a22647edd63a7344d6bd7b0c2fed4240564ea054d275a3596638d6",
    (8, 6): "65383a9b314dd902c21bff8df5ccf53290658a954496083524b5cf6d92894786",
    (8, 7): "360f1ea15f974c67e17811aff381f34bce27ca608f31f315ac550d1765bc908d",
}


class TestRootTableaux:
    """The root tableaux and pivots of the ipbound cells do not move."""

    def test_root_tableaux(self):
        for cell, (basis, digest) in ROOT_TABLEAUX.items():
            _, tab = ilp._root_lp(CodeParams(*cell))
            _, full_basis, mat, dens = full_tableau(tab)
            assert full_basis == basis, cell
            assert tab.mat.dtype == np.int64, cell
            data = repr((mat, dens)).encode()
            assert hashlib.sha256(data).hexdigest() == digest, cell

    def test_grid_digests(self):
        assert set(ROOT_TABLEAU_SHA256) == {(n, d) for n in range(4, 9) for d in range(2, n)}
        for cell, digest in ROOT_TABLEAU_SHA256.items():
            _, tab = ilp._root_lp(CodeParams(*cell))
            assert tab.mat.dtype == np.int64, cell
            data = repr(full_tableau(tab)).encode()
            assert hashlib.sha256(data).hexdigest() == digest, cell

    def test_pivot_counts(self, monkeypatch):
        pivots = []  # (row, entering column)
        pivot = simplex._Tableau.pivot
        monkeypatch.setattr(simplex._Tableau, "pivot", lambda tab, r, c: (
            pivots.append((r, tab.labels[c])), pivot(tab, r, c)))
        for cell in IPBOUND_CAPS:
            ilp._root_lp(CodeParams(*cell))
        roots = len(pivots)
        pivots.clear()
        # The programs' pivots include their roots'.
        for cell, cap in IPBOUND_CAPS.items():
            solve_ilp(CodeParams(*cell), SearchBudget(max_nodes=cap))
        assert (roots, len(pivots)) == (553, 1483)
        # Bland's rule picks every (row, column) of the sequence.
        digest = hashlib.sha256(repr(pivots).encode()).hexdigest()
        assert digest == "4b3da36bc7d82d71aacaa1b1baf4ecd2ff058f35c7412d86f7a591362150e135"

    @pytest.mark.slow
    def test_every_pivot_is_certified(self, monkeypatch):
        # After each pivot of the ten programs, the full tableau passes the
        # exact certificate B T = [A | b] for the program plus the node's
        # bound rows (about 8 s of oracle arithmetic).  Until the root's
        # last "=" row enters, some row has no basic column and no B exists.
        rec = _Recorder(monkeypatch)  # keeps each tableau's path of bound rows
        checked, pivot = [], simplex._Tableau.pivot  # bound rows per check

        def certified(tab, r, c):
            pivot(tab, r, c)
            if -1 not in tab.basis:
                path = rec.paths.get(tab, ())
                _certificate(params, path, _snapshot(tab))
                checked.append(len(path))

        monkeypatch.setattr(simplex._Tableau, "pivot", certified)
        for cell, cap in IPBOUND_CAPS.items():
            params = CodeParams(*cell)
            solve_ilp(params, SearchBudget(max_nodes=cap))
        # All but the first n - 2 link-row pivots of each root.
        assert len(checked) == 1483 - sum(n - 2 for n, _ in IPBOUND_CAPS)
        assert max(checked) > 1

    @pytest.mark.parametrize("cell, first, pivots", [((10, 7), 296, 355), ((12, 10), 155, 371)])
    def test_first_object_pivot(self, monkeypatch, cell, first, pivots):
        # The root widens to object dtype at one fixed pivot: the 2**30
        # check covers the entries and the denominators of the rows a pivot
        # computes, and never widens early or late.
        dtypes = []
        pivot = simplex._Tableau.pivot
        monkeypatch.setattr(simplex._Tableau, "pivot",
                            lambda tab, r, c: (dtypes.append(tab.mat.dtype), pivot(tab, r, c)))
        status, tab = ilp._root_lp(CodeParams(*cell))
        assert (status, len(dtypes), tab.mat.dtype) == (OPTIMAL, pivots, object)
        assert dtypes.index(object) == first
        assert set(dtypes[first:]) == {np.dtype(object)}


def test_bounds_name_basic_columns(monkeypatch):
    # solve_ilp branches only on basic columns, so add_bound needs no row
    # for a nonbasic one: on the frozen grid, the ipbound programs at their
    # caps and (11,9) in object dtype, every bound names a basic column.
    calls, add_bound = [], simplex._Tableau.add_bound

    def spy(tab, var, sense, bound):
        calls.append((var in tab.basis, tab.mat.dtype))
        add_bound(tab, var, sense, bound)

    monkeypatch.setattr(simplex._Tableau, "add_bound", spy)
    runs = [(cell, None) for cell in FROZEN_GRID] + list(IPBOUND_CAPS.items()) + [((11, 9), 10)]
    nodes = sum(solve_ilp(CodeParams(*cell), SearchBudget(max_nodes=cap) if cap else None)
                .nodes_explored for cell, cap in runs)
    # Every node but a root is a child with one bound.
    assert len(calls) == nodes - len(runs) > 600
    assert {basic for basic, _ in calls} == {True}
    assert {dtype for _, dtype in calls} == {np.dtype(np.int64), np.dtype(object)}


def ip_record(params, budget=None):
    """(value, status) of solve_ilp's record."""
    sol = solve_ilp(params, budget)
    return sol.objective_value, sol.status


class TestIpUpperBound:
    def test_worked_example(self):
        assert ip_record(CodeParams(5, 3)) == (5, "optimal")

    def test_d1_short_circuits(self):
        assert ip_record(CodeParams(4, 1)) == (24, "optimal")

    def test_4_3_consistency(self):
        value, status = ip_record(CodeParams(4, 3))
        assert value >= 2  # the true maximum size
        assert value == 2  # frozen: the program gives Singleton 2
        assert status != "bound_only"

    def test_never_exceeds_singleton(self):
        budget = SearchBudget(max_nodes=10)
        for n in range(4, 8):
            for d in range(2, n):
                p = CodeParams(n, d)
                assert solve_ilp(p, budget).objective_value <= singleton_upper(p)

    def test_budget_hit_is_reported(self):
        # (5,3) needs 131 nodes; with 10 the bound is still valid but loose.
        value, status = ip_record(CodeParams(5, 3), SearchBudget(max_nodes=10))
        assert status == "bound_only"
        assert 5 <= value <= singleton_upper(CodeParams(5, 3))

    def test_a_running_clock_is_a_budget(self):
        # A cell hands the program a copy of its clock, which solve_ilp
        # runs on as it is.
        p = CodeParams(5, 3)
        on_clock = solve_ilp(p, BudgetClock(max_nodes=10))
        assert on_clock == solve_ilp(p, SearchBudget(max_nodes=10))
        assert on_clock.nodes_explored == 11  # the root and ten children


class TestRootDeadline:
    """A time cap stops the cold root relaxation between primal pivots.
    The clock here reads one second later at every call, so a 3-second cap
    started at second 0 lets two pivots through and stops before the
    third; the root of (7,4) takes 79."""

    CELL = CodeParams(7, 4)
    NOTE = "integer program hit its budget; bound not tight"

    @pytest.fixture(autouse=True)
    def ticks(self, monkeypatch):
        ticks = itertools.count()
        monkeypatch.setattr(budget_module, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        return ticks

    @pytest.fixture
    def pivots(self, monkeypatch):
        pivots, pivot = [], simplex._Tableau.pivot

        def counting(tab, r, c):
            pivots.append((r, c))
            pivot(tab, r, c)

        monkeypatch.setattr(simplex._Tableau, "pivot", counting)
        return pivots

    def test_solve_lp_stops(self, pivots, ticks):
        res = ilp._root_lp(self.CELL, SearchBudget(max_seconds=3).start())
        assert res == (simplex.STOPPED, None)
        assert len(pivots) == 2
        assert next(ticks) == 4  # the start and three readings

    def test_primal_simplex_stops(self, pivots, ticks):
        # A 9-second cap lets the six link rows and two primal pivots
        # through; the third primal pivot is stopped.
        res = ilp._root_lp(self.CELL, SearchBudget(max_seconds=9).start())
        assert res == (simplex.STOPPED, None)
        assert len(pivots) == 6 + 2
        assert next(ticks) == 10  # the start and nine readings

    def test_a_node_cap_does_not_stop_the_root(self):
        # Not even a cap of 0: the root reads only the clock's deadline.
        status, tab = ilp._root_lp(CodeParams(5, 3), BudgetClock(max_nodes=0))
        assert status == OPTIMAL
        assert tab.objective_value() == 6

    def test_solve_ilp_gives_the_singleton_bound(self):
        sol = solve_ilp(self.CELL, SearchBudget(max_seconds=3))
        assert (sol.status, sol.objective_value, sol.nodes_explored) == ("bound_only", 24, 1)
        assert ip_record(self.CELL, SearchBudget(max_seconds=3)) == (24, "bound_only")
        assert singleton_upper(self.CELL) == 24

    def test_bounds_with_ip_is_bounded(self, capsys, pivots):
        argv = ["bounds", "--n", "7", "--d", "4", "--with-ip", "--max-seconds", "3"]
        assert cli.main(argv + ["--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "bounded"
        assert out["result"]["ip_upper"] == out["result"]["best_upper"] == 24
        assert self.NOTE in out["result"]["notes"]
        assert len(pivots) == 2


class TestTypesAtTheBoundary:
    """Values leaving the solver are Python ints and Fractions, never numpy
    scalars, whatever dtype the tableau holds."""

    @pytest.mark.parametrize("budget", [None, SearchBudget(max_nodes=10)])
    def test_solution_fields(self, budget):
        sol = solve_ilp(CodeParams(5, 3), budget)
        assert sol.status == ("optimal" if budget is None else "bound_only")
        assert type(sol.objective_value) is int
        value = relaxation(CodeParams(5, 3))
        assert type(value) is Fraction and type(value.numerator) is int
        assert type(value.denominator) is int

    def test_object_dtype_from_the_start(self, monkeypatch):
        # With no int64 headroom every tableau is object dtype from the
        # start; the search must take the same nodes to the same answer.
        monkeypatch.setattr(simplex, "_INT64_LIMIT", 0)
        rec = _Recorder(monkeypatch)
        sol = solve_ilp(CodeParams(5, 3))
        assert (sol.status, sol.objective_value, sol.nodes_explored) == ("optimal", 5, 131)
        assert type(sol.objective_value) is int
        assert rec.dtypes == {np.dtype(object)}

    def test_ip_upper_bound(self):
        value, status = ip_record(CodeParams(5, 3))
        assert (type(value), type(status)) == (int, str)

    def test_bounds_json_serializes(self, capsys):
        # At (5,3) the program's 5 is below Singleton's 6, so ip_upper is
        # the program's value.
        argv = ["bounds", "--n", "5", "--d", "3", "--with-ip", "--format", "json"]
        assert cli.main(argv + ["--threads", "1"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["ip_upper"], result["singleton_upper"]) == (5, 6)


# SHA-256 of export_lp's text for each (n, d).
EXPORT_LP_SHA256 = {
    (4, 2): "1ae8d3d074c9f42f604d672e30265fe16f194da0e3f314febf3ee1290ae76c0f",
    (4, 3): "543ab50a28eadf0f5fdb11cf66ca5330b657d6b211da49daf0fae7e51aa9f30a",
    (5, 2): "0fb42f8054d90822ec1a2cf4b7ff253b22da696573c863b0bd20104b1fd6dc56",
    (5, 3): "28bc19468ddbe2dd0e1106b926d8d5cfd7ee7dfadf744019fbc3dba1eac84e2b",
    (5, 4): "a5fc525b769f6dcf212f649f39d934461261da8a687e2f94ec4019a487873ea0",
    (6, 2): "33b40e6e2d8ec5290f5f168e4b055f6ebbab767ab892f719093e073285911c50",
    (6, 3): "91430d2222d07356586c40f4cd323630b9b9e549f384f55abb2cd347ddb409a9",
    (6, 4): "134898a0e2ff1ebf8f4cabb1f4212bc52f01f9b105daaaa94fdddb50446bf499",
    (6, 5): "94e284c8dc9e27e0746cbced9b62b20cd3b587d640814dfc459e4663635df3cc",
    (7, 2): "55fe5d9c62b2b17ee4dabe7e301fb7ddc0c0a80bb960fe87030e9aac41b16053",
    (7, 3): "2adf494dfb2317126d91c209d6cfff749e749dec5b280fd871877e32eb31ec87",
    (7, 4): "86e6ef31a6ec6fe4db699206414205921d32b9808bb13a67bcc156a9230709ff",
    (7, 5): "0b6ed3d926c7e804121a5f0a82c51848882cd95c07b4d3217d6994aaac6f15d6",
    (7, 6): "de289a37f8362326e68229410bf56b2581b0f87dad5c710a68bc21fdd7ccc3f9",
    (8, 2): "930c1578685a3eb01f02465e8151ff3c99e064d840c68c64d6d222e3a0e95fd9",
    (8, 3): "03f31bb23ace681ba7053ab9221bc280181bde4e18b823fc419d85e581efa0cf",
    (8, 4): "dab1baceb490d42b37c4b2f6d95c54347a8c2222e12a0a8a94236b3b1686690e",
    (8, 5): "e6644789ca0d4832ed91e291de1c2899a788e8a64b3bc5012b29222c8d33fc9f",
    (8, 6): "2b28d6d3d3fddd7f57e0be67fc9dbc97d55ee796fdb8184bd3fad74d9753dfc9",
    (8, 7): "d3dbb336866e6f5a60fa86a221e0ff33ccb3f71cf4f35fea8fc54c9aa898247c",
}


class TestExportLp:
    def test_contains_worked_example_row(self):
        text = export_lp(CodeParams(5, 3))
        assert "cover_a1_l0: 6 x_1_1 + 3 x_2_1 + x_3_1 <= 12" in text

    def test_deterministic(self):
        p = CodeParams(5, 3)
        assert export_lp(p) == export_lp(p)

    def test_sections_present(self):
        text = export_lp(CodeParams(4, 2))
        for section in ("Maximize", "Subject To", "Bounds", "General", "End"):
            assert section in text

    def test_grid_digests(self):
        # Byte for byte, every cell with 4 <= n <= 8 and 2 <= d <= n - 1.
        assert set(EXPORT_LP_SHA256) == {(n, d) for n in range(4, 9) for d in range(2, n)}
        for cell, digest in EXPORT_LP_SHA256.items():
            text = export_lp(CodeParams(*cell))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, cell

    def test_round_trip_resolve(self):
        # The text parses back to the program on every cell of the digest
        # grid: its rows by name, in order and with their columns in order,
        # its objective, each variable's cap from its tightest covering row,
        # and every variable integer.
        for n, d in EXPORT_LP_SHA256:
            p = CodeParams(n, d)
            objective, rows, caps, general = _parse_lp_text(export_lp(p), n)
            program, want_objective = ilp._program(p)
            assert objective == list(want_objective.items())
            assert rows == [(label, list(coeffs.items()), sense, rhs)
                            for label, coeffs, sense, rhs in program]
            cover, rhs = ilp._cover(p)
            want_caps = [min(rhs // c for c in column if c) for column in zip(*cover)]
            assert caps == [want_caps[k // n] for k in range(n * n)]
            assert general == list(range(n * n))


def _parse_lp_text(text, n):
    """Parse the dialect written by export_lp into (objective, rows, caps,
    general): linear forms as lists of (column, coefficient) with x_<b>_<a>
    read as column (b-1)*n + (a-1), rows as (name, form, sense, rhs), the
    upper bound of each column in the Bounds section, and the columns
    listed under General."""
    section = None
    objective, rows, caps, general = [], [], [], []
    for ln in text.splitlines()[1:]:
        ln = ln.strip()
        if ln in ("Maximize", "Subject To", "Bounds", "General", "End"):
            section = ln
        elif section == "Maximize":
            objective = _parse_linear(ln.split(":", 1)[1], n)
        elif section == "Subject To":
            name, rest = ln.split(":", 1)
            sense = LE if "<=" in rest else EQ
            lhs, rhs = rest.split(sense)
            rows.append((name, _parse_linear(lhs, n), sense, int(rhs)))
        elif section == "Bounds":
            var, hi = re.fullmatch(r"0 <= (\S+) <= (\d+)", ln).groups()
            assert _column(var, n) == len(caps)
            caps.append(int(hi))
        elif section == "General":
            general.append(_column(ln, n))
    return objective, rows, caps, general


def _column(name, n):
    b, a = map(int, re.fullmatch(r"x_(\d+)_(\d+)", name).groups())
    return (b - 1) * n + a - 1


def _parse_linear(expr, n):
    terms = []
    sign, pending = 1, None
    for tok in expr.split():
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
        elif tok.isdigit():
            pending = int(tok)
        else:
            terms.append((_column(tok, n), sign * (pending or 1)))
            sign, pending = 1, None
    return terms
