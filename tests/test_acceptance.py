"""Acceptance gate: every release-blocking criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from oracles import all_perms, bfs_ball_sizes, bfs_distances, rate_function_acosh
from ulamcode.ball import ball_table, lis_distribution_exact, lis_prob_mc
from ulamcode.bounds import CodeParams, rate_function, singleton_upper
from ulamcode.budget import SearchBudget
from ulamcode import ilp
from ulamcode.ilp import solve_ilp
from ulamcode.perm import ulam_distance
from ulamcode.search import (
    find_singleton_optimal,
    max_code_search,
    reproduce_tables,
)
from ulamcode.simplex import LE

KNOWN_SIZES = {
    (4, 2): 6, (4, 3): 2,
    (5, 2): 24, (5, 3): 4, (5, 4): 2,
    (6, 2): 120, (6, 3): 24, (6, 4): 4, (6, 5): 2,
}

KNOWN_VERDICTS = {
    (4, 2): "yes", (4, 3): "yes",
    (5, 2): "yes", (5, 3): "no", (5, 4): "yes",
    (6, 2): "yes", (6, 3): "yes", (6, 4): "no", (6, 5): "yes",
}


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num:2d}: PASS - {description}")


def test_01_worked_example_ip_bound():
    with criterion(1, "integer-program bound at (5,3) is 5 vs Singleton 6, <5s"):
        start = time.monotonic()
        cover, rhs = ilp._cover(CodeParams(5, 3))
        assert cover == ((6, 3, 1, 0, 0), (0, 3, 4, 3, 0), (0, 0, 1, 3, 6))
        assert rhs == 12
        assert singleton_upper(CodeParams(5, 3)) == 6
        sol = solve_ilp(CodeParams(5, 3))
        assert (sol.objective_value, sol.status) == (5, "optimal")
        assert time.monotonic() - start < 5.0


def test_02_table1_up_to_n6():
    with criterion(2, "maximum sizes for n<=6 all proven, <10 min"):
        start = time.monotonic()
        cells = reproduce_tables([4, 5, 6])
        got = {(c.n, c.d): c for c in cells}
        assert set(got) == set(KNOWN_SIZES)
        for key, size in KNOWN_SIZES.items():
            assert got[key].status == "proven", key
            assert got[key].lower == got[key].upper == size, key
        # (6,3) closes by meeting the Singleton bound, not by exhaustion.
        res = find_singleton_optimal(CodeParams(6, 3))
        assert res.status == "found" and len(res.code.words) == 24
        assert time.monotonic() - start < 600.0


def test_03_table1_n7():
    with criterion(3, "n=7: sizes 4 and 2 proven for d=5,6; d=4 finds 12"):
        start = time.monotonic()
        cells = reproduce_tables([7], [5, 6])
        got = {(c.n, c.d): c for c in cells}
        assert got[(7, 5)].status == "proven" and got[(7, 5)].lower == 4
        assert got[(7, 6)].status == "proven" and got[(7, 6)].lower == 2
        assert time.monotonic() - start < 1800.0
        # Known hard cell: the default budget must still find the size-12
        # code; full exhaustion stays behind the long-run flag.
        res = max_code_search(CodeParams(7, 4), SearchBudget(max_nodes=200_000))
        assert len(res.code.words) == 12
        assert res.code.min_distance >= 4
        assert res.optimality in ("proven_maximum", "lower_bound_only")


def test_04_table2_verdicts():
    with criterion(4, "Singleton-optimality verdicts match for n<=6 and n=7"):
        cells = reproduce_tables([4, 5, 6])
        got = {(c.n, c.d): c.singleton_optimal for c in cells}
        assert got == KNOWN_VERDICTS
        assert find_singleton_optimal(CodeParams(7, 6)).status == "found"
        assert find_singleton_optimal(CodeParams(7, 5)).status == "none_exists"
        assert find_singleton_optimal(CodeParams(7, 4)).status == "none_exists"
        # (7,3) is allowed to stop on budget; a completed run must say no.
        res = find_singleton_optimal(
            CodeParams(7, 3), SearchBudget(max_nodes=50_000)
        )
        assert res.status in ("none_exists", "budget_exhausted")


def test_05_distance_oracle_equivalence_s5():
    with criterion(5, "Ulam distance equals BFS over moves on all S_5 pairs, <1 min"):
        start = time.monotonic()
        perms = all_perms(5)
        mismatches = 0
        for sigma in perms:
            bfs = bfs_distances(sigma)
            for tau in perms:
                if ulam_distance(sigma, tau) != bfs[tau]:
                    mismatches += 1
        assert mismatches == 0
        assert time.monotonic() - start < 60.0


def test_06_ball_lis_identity():
    with criterion(6, "ball sizes equal n! P(LIS >= n-r) and the BFS oracle, n<=7"):
        assert lis_distribution_exact(3).counts == {1: 1, 2: 4, 3: 1}
        for n in range(2, 8):
            dist = lis_distribution_exact(n)
            table = ball_table(n)
            oracle = bfs_ball_sizes(n)
            for r in range(n):
                from_dist = sum(c for k, c in dist.counts.items() if k >= n - r)
                assert table[r] == from_dist == oracle[r], (n, r)


def test_07_probability_inequalities():
    with criterion(7, "tail-bound inequalities hold exactly for n<=8"):
        for n in range(2, 9):
            dist = lis_distribution_exact(n)
            sizes = ball_table(n)
            nfact = math.factorial(n)
            for delta in range(0, n - 1):
                simple = Fraction(math.comb(n, delta), math.factorial(n - delta))
                exact = Fraction(sizes[delta], nfact)
                assert exact <= simple
                if 1 <= delta <= n - 2:
                    assert exact < simple
                if 0 < delta < n - 1:
                    gv_ratio = Fraction(
                        math.factorial(n - delta), math.comb(n, delta)
                    )
                    ball = sum(c for k, c in dist.counts.items() if k >= n - delta)
                    assert gv_ratio < Fraction(nfact, ball)
                if delta % 2 == 0:
                    assert Fraction(sizes[delta // 2], nfact) <= simple
                    assert exact >= Fraction(1, math.factorial(n - delta))


def test_08_rate_function():
    with criterion(8, "rate function: zero at 2, dominance grid, forms agree"):
        assert abs(rate_function(2.0)) <= 1e-12
        for c in (2.1, 2.5, 3.0, 5.0, 10.0):
            assert rate_function(c) > 2 * c * (math.log(c) - 1)
        c = 2.0
        while c <= 50.0:
            assert abs(rate_function(c) - rate_function_acosh(c)) <= 1e-12 * max(
                1.0, abs(rate_function(c))
            )
            c += 0.5


def test_09_monte_carlo_calibration():
    with criterion(9, "MC estimate of P(LIS_6 >= 4) within 4 sigma for 5 seeds"):
        exact = float(Fraction(ball_table(6)[2], math.factorial(6)))
        for seed in range(5):
            estimate, stderr = lis_prob_mc(6, 4, 1_000_000, seed)
            assert abs(estimate - exact) <= 4 * stderr, seed


def test_10_ilp_soundness_sweep():
    with criterion(10, "IP bound sandwiched by A(n,d) and Singleton; codes feasible"):
        for (n, d), known in KNOWN_SIZES.items():
            params = CodeParams(n, d)
            bound = solve_ilp(params).objective_value
            assert known <= bound <= singleton_upper(params), (n, d)

            if d == 2:
                found = find_singleton_optimal(params)
                assert found.status == "found"
                code = found.code
            else:
                code = max_code_search(params).code
            assert len(code.words) == known, (n, d)

            # The counting argument behind the model, made executable: the
            # position-count matrix of a real code satisfies every row the
            # solver gets: each covering row, for every symbol a, and each
            # link row.
            rows, _ = ilp._program(params)
            counts = [0] * (n * n)  # X[b][a] at column (b-1)*n + (a-1)
            for word in code.words:
                for b, a in enumerate(word, start=1):
                    counts[(b - 1) * n + (a - 1)] += 1
            assert len(rows) == n * (n - d + 1) + n - 1, (n, d)
            for label, coeffs, sense, rhs in rows:
                lhs = sum(c * counts[k] for k, c in coeffs.items())
                assert lhs <= rhs if sense == LE else lhs == rhs, (n, d, label)
