"""Exact rational simplex on small hand-checked programs."""

from fractions import Fraction

import pytest

from ulamcode.simplex import EQ, GE, INFEASIBLE, LE, OPTIMAL, UNBOUNDED, solve_lp


def test_two_variable_optimum_is_exact():
    # max x + y  s.t.  x + 2y <= 4,  3x + y <= 6  ->  (8/5, 6/5), value 14/5
    res = solve_lp(
        2,
        [({0: 1, 1: 2}, LE, 4), ({0: 3, 1: 1}, LE, 6)],
        {0: 1, 1: 1},
    )
    assert res.status == OPTIMAL
    assert res.value == Fraction(14, 5)
    assert res.x == [Fraction(8, 5), Fraction(6, 5)]


def test_infeasible():
    res = solve_lp(1, [({0: 1}, LE, 1), ({0: 1}, GE, 2)], {0: 1})
    assert res.status == INFEASIBLE


def test_unbounded():
    res = solve_lp(1, [({0: 1}, GE, 1)], {0: 1})
    assert res.status == UNBOUNDED


def test_equality_constraint():
    # max x + 2y  s.t.  x + y = 3  ->  (0, 3), value 6
    res = solve_lp(2, [({0: 1, 1: 1}, EQ, 3)], {0: 1, 1: 2})
    assert res.status == OPTIMAL
    assert res.value == 6
    assert res.x == [0, 3]


def test_negative_rhs_normalization():
    # -x <= -2 means x >= 2; minimize x by maximizing -x.
    res = solve_lp(1, [({0: -1}, LE, -2), ({0: 1}, LE, 5)], {0: -1})
    assert res.status == OPTIMAL
    assert res.value == -2
    assert res.x == [2]


def test_zero_rhs_rows_give_zero():
    res = solve_lp(
        2,
        [({0: 1, 1: 1}, LE, 0), ({0: 1, 1: -1}, EQ, 0)],
        {0: 1, 1: 1},
    )
    assert res.status == OPTIMAL
    assert res.value == 0


def test_redundant_equalities_are_dropped():
    # The same equality twice forces a redundant artificial row.
    res = solve_lp(
        2,
        [({0: 1, 1: 1}, EQ, 2), ({0: 1, 1: 1}, EQ, 2), ({0: 1}, LE, 1)],
        {0: 1, 1: 1},
    )
    assert res.status == OPTIMAL
    assert res.value == 2


def test_degenerate_ratio_ties_terminate():
    # Every vertex of this polytope scores 2; any path Bland takes must
    # still terminate at that value.
    res = solve_lp(
        3,
        [
            ({0: 1, 1: 1}, LE, 1),
            ({0: 1, 2: 1}, LE, 1),
            ({0: 1}, LE, 1),
        ],
        {0: 2, 1: 1, 2: 1},
    )
    assert res.status == OPTIMAL
    assert res.value == Fraction(2)


def test_fractional_data():
    res = solve_lp(
        1,
        [({0: Fraction(1, 3)}, LE, Fraction(1, 2))],
        {0: 1},
    )
    assert res.status == OPTIMAL
    assert res.value == Fraction(3, 2)


def test_bad_sense_rejected():
    with pytest.raises(ValueError):
        solve_lp(1, [({0: 1}, "<", 1)], {0: 1})


def test_all_rows_redundant():
    # 0 = 0 is dropped after phase 1; what is left is max 0 over x >= 0.
    res = solve_lp(1, [({0: 0}, EQ, 0)], {0: 0})
    assert res.status == OPTIMAL
    assert res.value == 0
    assert res.x == [0]


def test_no_rows():
    assert solve_lp(2, [], {0: -1, 1: 0}).value == 0
    assert solve_lp(2, [], {0: -1, 1: 1}).status == UNBOUNDED
