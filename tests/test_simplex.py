"""Exact rational simplex on small hand-checked programs, and the dual
simplex that re-optimizes them under added bounds."""

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


# ---------------------------------------------------------------------------
# Warm start: a bound row added to an optimal tableau, then the dual simplex.


def _warm(num_vars, rows, objective, *bounds):
    """The optimal tableau of the program plus bounds, by the dual simplex."""
    tab = solve_lp(num_vars, rows, objective).tableau
    for bound in bounds:
        tab = tab.copy()
        tab.add_bound(*bound)
        status = tab.dual_optimize()
        if status != OPTIMAL:
            return status, tab
    return OPTIMAL, tab


def _cold(num_vars, rows, objective, *bounds):
    return solve_lp(num_vars, list(rows) + [({v: 1}, s, b) for v, s, b in bounds], objective)


def test_bound_makes_the_program_infeasible():
    # max x  s.t.  x <= 3; then x >= 4.  The bound row reads s' + s = -1.
    rows, objective = [({0: 1}, LE, 3)], {0: 1}
    status, _ = _warm(1, rows, objective, (0, GE, 4))
    assert status == INFEASIBLE
    assert _cold(1, rows, objective, (0, GE, 4)).status == INFEASIBLE


def test_bound_on_a_basic_variable():
    # The optimum (8/5, 6/5) of the first test; x <= 1 moves it to
    # (1, 3/2), value 5/2.  x is basic, so the new row is its negated row.
    rows, objective = [({0: 1, 1: 2}, LE, 4), ({0: 3, 1: 1}, LE, 6)], {0: 1, 1: 1}
    root = solve_lp(2, rows, objective).tableau
    assert 0 in root.basis
    status, tab = _warm(2, rows, objective, (0, LE, 1))
    assert status == OPTIMAL
    assert tab.objective_value() == Fraction(5, 2)
    assert tab.point(2) == [1, Fraction(3, 2)]
    assert _cold(2, rows, objective, (0, LE, 1)).value == Fraction(5, 2)


def test_bound_on_a_nonbasic_variable():
    # max 2x + y  s.t.  x + y <= 2 ends at (2, 0) with y nonbasic.  y >= 1
    # is the bare row -y + s = -1, and one dual pivot gives (1, 1), value 3.
    rows, objective = [({0: 1, 1: 1}, LE, 2)], {0: 2, 1: 1}
    root = solve_lp(2, rows, objective).tableau
    assert 1 not in root.basis
    status, tab = _warm(2, rows, objective, (1, GE, 1))
    assert status == OPTIMAL
    assert tab.objective_value() == 3
    assert tab.point(2) == [1, 1]
    # A bound the vertex already meets costs no pivot.
    status, tab = _warm(2, rows, objective, (1, LE, 5))
    assert (status, tab.objective_value(), tab.point(2)) == (OPTIMAL, 4, [2, 0])


def test_dual_ratio_tie_enters_the_smallest_column():
    # max x + y + z  s.t.  x + y + z <= 3 ends at x = 3 with y and z at
    # reduced cost 0.  x <= 1 leaves the row -y - z - s + s' = -2: y and z
    # tie at ratio 0, and Bland's rule enters y, the smaller column.
    rows, objective = [({0: 1, 1: 1, 2: 1}, LE, 3)], {0: 1, 1: 1, 2: 1}
    status, tab = _warm(3, rows, objective, (0, LE, 1))
    assert status == OPTIMAL
    assert tab.objective_value() == 3
    assert tab.point(3) == [1, 2, 0]


def test_infeasible_rows_leave_smallest_basic_index_first():
    # max x + y over the box x <= 3, y <= 3 ends at (3, 3).  x <= 2 and
    # y <= 1, added together, give the rows s4 - s2 = -1 and s5 - s3 = -2.
    # Bland's rule takes the row of s4 first, although s5's is more
    # infeasible, and enters s2 there.
    rows, objective = [({0: 1}, LE, 3), ({1: 1}, LE, 3)], {0: 1, 1: 1}
    tab = solve_lp(2, rows, objective).tableau
    tab.add_bound(0, LE, 2)
    tab.add_bound(1, LE, 1)
    assert tab.basis == [0, 1, 4, 5]
    assert [row[tab.ncols] for row in tab.rows] == [3, 3, -1, -2]
    pivots = []
    pivot = tab.pivot
    tab.pivot = lambda r, c: (pivots.append((r, c)), pivot(r, c))
    assert tab.dual_optimize() == OPTIMAL
    assert pivots == [(2, 2), (3, 3)]
    assert (tab.objective_value(), tab.point(2)) == (3, [2, 1])


def test_rebuilt_tableau_equals_the_dual_simplex_tableau():
    rows, objective = [({0: 1, 1: 2}, LE, 4), ({0: 3, 1: 1}, LE, 6)], {0: 1, 1: 1}
    bounds = [(0, LE, 1), (1, GE, 2)]
    root = solve_lp(2, rows, objective).tableau
    status, warm = _warm(2, rows, objective, *bounds)
    assert status == OPTIMAL
    assert _cold(2, rows, objective, *bounds).value == warm.objective_value() == 2
    again = root.rebuilt(bounds, warm.basis)
    assert (again.basis, again.rows, again.dens) == (warm.basis, warm.rows, warm.dens)
    assert (again.obj, again.obj_den, again.ncols) == (warm.obj, warm.obj_den, warm.ncols)
