"""Exact rational simplex on small hand-checked programs, and the dual
simplex that re-optimizes them under added bounds."""

import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    basic_point,
    bland_dual,
    bland_primal,
    full_tableau,
    lp_by_vertices,
    rank,
    tableau_certificate,
)
from ulamcode import ilp, simplex
from ulamcode.bounds import CodeParams
from ulamcode.budget import SearchBudget
from ulamcode.ilp import solve_ilp
from ulamcode.simplex import EQ, GE, INFEASIBLE, LE, OPTIMAL, UNBOUNDED, solve_lp


def _exact(v):
    """A Fraction of two Python ints, never of numpy scalars."""
    return type(v) is Fraction and type(v.numerator) is int and type(v.denominator) is int


def test_two_variable_optimum_is_exact():
    # max x + y  s.t.  x + 2y <= 4,  3x + y <= 6  ->  (8/5, 6/5), value 14/5
    status, tab = solve_lp(
        2,
        [({0: 1, 1: 2}, LE, 4), ({0: 3, 1: 1}, LE, 6)],
        {0: 1, 1: 1},
    )
    assert status == OPTIMAL
    assert tab.objective_value() == Fraction(14, 5)
    assert basic_point(tab, 2) == [Fraction(8, 5), Fraction(6, 5)]
    assert all(_exact(v) for v in [tab.objective_value(), *basic_point(tab, 2)])


def test_unbounded():
    # max x + y  s.t.  y - x <= 1,  x = 2y: the ray (2, 1) gains forever.
    res = solve_lp(2, [({0: -1, 1: 1}, LE, 1), ({0: 1, 1: -2}, EQ, 0)], {0: 1, 1: 1})
    assert res == (UNBOUNDED, None)


def test_zero_rhs_rows_give_zero():
    status, tab = solve_lp(
        2,
        [({0: 1, 1: 1}, LE, 0), ({0: 1, 1: -1}, EQ, 0)],
        {0: 1, 1: 1},
    )
    assert status == OPTIMAL
    assert tab.objective_value() == 0


def test_degenerate_ratio_ties_terminate():
    # Every vertex of this polytope scores 2; any path Bland takes must
    # still terminate at that value.
    status, tab = solve_lp(
        3,
        [
            ({0: 1, 1: 1}, LE, 1),
            ({0: 1, 2: 1}, LE, 1),
            ({0: 1}, LE, 1),
        ],
        {0: 2, 1: 1, 2: 1},
    )
    assert status == OPTIMAL
    assert tab.objective_value() == Fraction(2)


def test_bad_sense_rejected():
    with pytest.raises(ValueError):
        solve_lp(1, [({0: 1}, "<", 1)], {0: 1})


@pytest.mark.parametrize("row, message", [
    (({0: 1}, GE, 1), "'>=' with right-hand side 1"),
    (({0: 1}, LE, -1), "'<=' with right-hand side -1"),
    (({0: 1}, EQ, 2), "'=' with right-hand side 2"),
    (({0: 2, 1: 2}, EQ, 0), "'=' row depends on the '=' rows before it"),
    (({2: 1}, LE, 1), "variable index 2 out of range"),
], ids=["ge", "negative-rhs", "nonzero-eq-rhs", "dependent-eq", "index"])
def test_rejected_rows_are_named(row, message):
    # x = 0 must meet every row, and each "=" row must enter the basis.
    rows = [({0: 1, 1: 1}, EQ, 0), row]
    with pytest.raises(ValueError, match=f"^row 1: {message}"):
        solve_lp(2, rows, {0: 1})


@pytest.mark.parametrize("index", [2, -1])
def test_objective_index_out_of_range(index):
    rows, _ = TWO_VARIABLES
    with pytest.raises(ValueError, match=f"^objective index {index} out of range"):
        solve_lp(2, rows, {0: 1, index: 1})


def test_rows_take_integers():
    with pytest.raises(TypeError):
        solve_lp(1, [({0: Fraction(1, 3)}, LE, 1)], {0: 1})


def test_no_rows():
    status, tab = solve_lp(2, [], {0: -1, 1: 0})
    assert (status, tab.objective_value()) == (OPTIMAL, 0)
    # No constraint row, then the objective: two variables, the right-hand
    # side and the denominator.
    assert tab.mat.shape == (1, 4)
    assert solve_lp(2, [], {0: -1, 1: 1}) == (UNBOUNDED, None)


# ---------------------------------------------------------------------------
# Warm start: a bound row added to an optimal tableau, then the dual simplex.


def _warm(num_vars, rows, objective, *bounds):
    """The optimal tableau of the program plus bounds, by the dual simplex."""
    tab = solve_lp(num_vars, rows, objective)[1]
    for bound in bounds:
        tab = tab.copy()
        tab.add_bound(*bound)
        status = tab.dual_optimize()
        if status != OPTIMAL:
            return status, tab
    return OPTIMAL, tab


def _random_warm(rng, num_vars, rows, objective):
    """One or two random bounds, each on a basic structural column of the
    tableau it is added to (the only bounds solve_ilp adds), by _warm's
    steps: (status, tableau, the bounds added), stopping at the first bound
    that leaves no feasible point."""
    tab, status, bounds = solve_lp(num_vars, rows, objective)[1], OPTIMAL, []
    for _ in range(rng.randint(1, 2)):
        basic = sorted(k for k in tab.basis if k < num_vars)
        if status != OPTIMAL or not basic:
            break
        bounds.append((rng.choice(basic), rng.choice((LE, GE)), rng.randint(0, 3)))
        tab = tab.copy()
        tab.add_bound(*bounds[-1])
        status = tab.dual_optimize()
    return status, tab, bounds


def _vertices(num_vars, rows, objective, *bounds):
    """(status, value) of the program plus bounds, by vertex enumeration."""
    return lp_by_vertices(num_vars, rows + [({v: 1}, s, b) for v, s, b in bounds], objective)


def test_bound_makes_the_program_infeasible():
    # max x  s.t.  x <= 3; then x >= 4.  The bound row reads s' + s = -1.
    rows, objective = [({0: 1}, LE, 3)], {0: 1}
    status, _ = _warm(1, rows, objective, (0, GE, 4))
    assert status == INFEASIBLE
    assert _vertices(1, rows, objective, (0, GE, 4)) == (INFEASIBLE, None)


def test_bound_on_a_basic_variable():
    # The optimum (8/5, 6/5) of the first test; x <= 1 moves it to
    # (1, 3/2), value 5/2.  x is basic, so the new row is its negated row.
    rows, objective = [({0: 1, 1: 2}, LE, 4), ({0: 3, 1: 1}, LE, 6)], {0: 1, 1: 1}
    root = solve_lp(2, rows, objective)[1]
    assert 0 in root.basis
    status, tab = _warm(2, rows, objective, (0, LE, 1))
    assert status == OPTIMAL
    assert tab.objective_value() == Fraction(5, 2)
    assert basic_point(tab, 2) == [1, Fraction(3, 2)]
    assert _vertices(2, rows, objective, (0, LE, 1)) == (OPTIMAL, Fraction(5, 2))
    # A bound the vertex already meets costs no pivot.
    status, tab = _warm(2, rows, objective, (0, LE, 5))
    assert (status, tab.objective_value(), basic_point(tab, 2)) == (
        OPTIMAL, Fraction(14, 5), [Fraction(8, 5), Fraction(6, 5)])


def test_dual_ratio_tie_enters_the_smallest_column():
    # max x + y + z  s.t.  x + y + z <= 3 ends at x = 3 with y and z at
    # reduced cost 0.  x <= 1 leaves the row -y - z - s + s' = -2: y and z
    # tie at ratio 0, and Bland's rule enters y, the smaller column.
    rows, objective = [({0: 1, 1: 1, 2: 1}, LE, 3)], {0: 1, 1: 1, 2: 1}
    status, tab = _warm(3, rows, objective, (0, LE, 1))
    assert status == OPTIMAL
    assert tab.objective_value() == 3
    assert basic_point(tab, 3) == [1, 2, 0]


def test_infeasible_rows_leave_smallest_basic_index_first(monkeypatch):
    # max x + y over the box x <= 3, y <= 3 ends at (3, 3).  x <= 2 and
    # y <= 1, added together, give the rows s4 - s2 = -1 and s5 - s3 = -2.
    # Bland's rule takes the row of s4 first, although s5's is more
    # infeasible, and enters s2 there.
    rows, objective = [({0: 1}, LE, 3), ({1: 1}, LE, 3)], {0: 1, 1: 1}
    tab = solve_lp(2, rows, objective)[1]
    tab.add_bound(0, LE, 2)
    tab.add_bound(1, LE, 1)
    ncols, basis, nums, _ = full_tableau(tab)
    assert basis == [0, 1, 4, 5]
    assert [row[ncols] for row in nums[:-1]] == [3, 3, -1, -2]
    pivots = []  # (row, entering column)
    pivot = simplex._Tableau.pivot
    monkeypatch.setattr(simplex._Tableau, "pivot", lambda tab, r, c: (
        pivots.append((r, tab.labels[c])), pivot(tab, r, c)))
    assert tab.dual_optimize() == OPTIMAL
    assert pivots == [(2, 2), (3, 3)]
    assert (tab.objective_value(), basic_point(tab, 2)) == (3, [2, 1])


# ---------------------------------------------------------------------------
# Wide entries: the int64 matrix widens to object dtype, with the same answers.

TWO_VARIABLES = ([({0: 1, 1: 2}, LE, 4), ({0: 3, 1: 1}, LE, 6)], {0: 1, 1: 1})
# max x + 2y  s.t.  2x - y = 0,  x + y <= 3,  3x + y <= 6  ->  (1, 2),
# value 5; the "=" row's entry pivot comes first.
MIXED = ([({0: 2, 1: -1}, EQ, 0), ({0: 1, 1: 1}, LE, 3), ({0: 3, 1: 1}, LE, 6)],
         {0: 1, 1: 2})


def _scale_rows(rows, factors):
    return [
        ({j: f * v for j, v in coeffs.items()}, sense, f * b)
        for (coeffs, sense, b), f in zip(rows, factors)
    ]


@pytest.mark.parametrize("program, value, x", [
    (TWO_VARIABLES, Fraction(14, 5), [Fraction(8, 5), Fraction(6, 5)]),
    (MIXED, 5, [1, 2]),
])
@pytest.mark.parametrize("factors, first_dtype", [
    # Every entry is past 2**30 from the start.
    ((2**40, 2**40, 2**40), object),
    # Entries below 2**19 at the start; pivots take them past 2**30.
    ((65521, 65519, 65497), np.int64),
])
def test_wide_entries_give_the_unscaled_answer(monkeypatch, program, value, x,
                                               factors, first_dtype):
    rows, objective = program
    small_status, small = solve_lp(2, rows, objective)
    dtypes = []
    pivot = simplex._Tableau.pivot
    monkeypatch.setattr(
        simplex._Tableau, "pivot",
        lambda tab, r, c: (dtypes.append(tab.mat.dtype), pivot(tab, r, c)),
    )
    wide_status, wide = solve_lp(2, _scale_rows(rows, factors), objective)
    assert (wide_status, wide.objective_value(), basic_point(wide, 2)) == (
        small_status, small.objective_value(), basic_point(small, 2))
    assert (wide_status, wide.objective_value(), basic_point(wide, 2)) == (OPTIMAL, value, x)
    assert all(_exact(v) for v in [wide.objective_value(), *basic_point(wide, 2)])
    assert small.mat.dtype == np.int64
    assert dtypes[0] == first_dtype
    assert wide.mat.dtype == object
    # The widened tableau warm-starts like the narrow one.
    for tab in (small, wide):
        tab.add_bound(1, LE, 1)
        assert tab.dual_optimize() == OPTIMAL
    assert small.objective_value() == wide.objective_value()
    assert basic_point(small, 2) == basic_point(wide, 2)
    assert wide.mat.dtype == object


def test_a_denominator_alone_widens(monkeypatch):
    # max x + y  s.t.  65521 x <= 1,  65519 y <= 1.  The second pivot leaves
    # the objective row (0, 0, 65519, 65521, 131040) over 65521 * 65519 >
    # 2**32: its denominator is the one entry past 2**30, and it widens.
    dtypes = []
    pivot = simplex._Tableau.pivot
    monkeypatch.setattr(
        simplex._Tableau, "pivot",
        lambda tab, r, c: (dtypes.append(tab.mat.dtype), pivot(tab, r, c)),
    )
    status, tab = solve_lp(2, [({0: 65521}, LE, 1), ({1: 65519}, LE, 1)], {0: 1, 1: 1})
    assert (status, basic_point(tab, 2)) == (OPTIMAL, [Fraction(1, 65521), Fraction(1, 65519)])
    _, _, nums, dens = full_tableau(tab)
    assert nums[-1] + dens[-1:] == [0, 0, 65519, 65521, 131040, 65521 * 65519]
    assert dtypes == [np.int64, np.int64]
    assert tab.mat.dtype == object


@pytest.mark.parametrize("factors, dtype", [((1, 1), np.int64), ((2**40, 2**40), object)])
def test_nbytes_covers_what_the_tableau_holds(factors, dtype):
    # Past 2**30 the tableau is object dtype, and its Python ints count too.
    rows, objective = TWO_VARIABLES
    tracemalloc.start()
    try:
        _, tab = solve_lp(2, _scale_rows(rows, factors), objective)
        held = tracemalloc.get_traced_memory()[0]
        nbytes = tab.nbytes
        assert tab.mat.dtype == dtype
        del tab
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < freed <= nbytes


def test_a_tableau_has_no_instance_dict():
    # A tableau and its copies hold their four slots and nothing else.
    _, tab = solve_lp(2, *TWO_VARIABLES)
    for held in (tab, tab.copy()):
        assert not hasattr(held, "__dict__")
        with pytest.raises(AttributeError):
            held.path = ()


def test_nbytes_of_an_int64_root():
    # An int64 matrix holds its entries itself, so nbytes is the tableau
    # and its four slot values.
    _, tab = ilp._root_lp(CodeParams(5, 3))
    assert tab.mat.dtype == np.int64
    assert tab.nbytes == sum(map(sys.getsizeof, (tab, tab.mat, tab.basis, tab.labels, tab.ncols)))


# ---------------------------------------------------------------------------
# Independent oracles: vertex enumeration in Fractions, and an exact
# certificate check of the tableau itself.


def _random_lp(rng):
    """At most 4 variables and 4 rows of the shape solve_lp takes ("<="
    rows with rhs >= 0, "=" rows with rhs 0), small integers."""
    num_vars = rng.randint(1, 4)
    rows = []
    if rng.random() < 0.3:  # a box, so that more of the programs are bounded
        rows.append(({j: 1 for j in range(num_vars)}, LE, rng.randint(0, 6)))
    for _ in range(rng.randint(1, 4 - len(rows))):
        coeffs = {j: rng.randint(-3, 3) for j in range(num_vars)}
        rows.append((coeffs, EQ, 0) if rng.random() < 0.3 else (coeffs, LE, rng.randint(0, 6)))
    objective = {j: rng.randint(-3, 3) for j in range(num_vars)}
    return num_vars, rows, objective


def _independent(num_vars, rows):
    """Whether the "=" rows are linearly independent, as solve_lp needs."""
    eqs = [[c.get(j, 0) for j in range(num_vars)] for c, sense, _ in rows if sense == EQ]
    return rank(eqs) == len(eqs)


def _certified(num_vars, rows, objective, tab, bounds=()):
    """tableau_certificate of tab for rows plus the bound rows add_bound
    appended, x <= u or x >= l written as x <= u or -x <= -l."""
    rows = rows + [({v: 1}, LE, b) if s == LE else ({v: -1}, LE, -b) for v, s, b in bounds]
    return tableau_certificate(num_vars, rows, objective, *full_tableau(tab)[1:])


HOLDS = {LE: lambda u, v: u <= v, EQ: lambda u, v: u == v}


def test_agrees_with_vertex_enumeration():
    rng = random.Random(2015)
    statuses = Counter()
    for _ in range(100):
        num_vars, rows, objective = _random_lp(rng)
        if not _independent(num_vars, rows):
            with pytest.raises(ValueError, match="depends on the '=' rows before it"):
                solve_lp(num_vars, rows, objective)
            statuses["dependent"] += 1
            continue
        status, tab = solve_lp(num_vars, rows, objective)
        value = tab.objective_value() if status == OPTIMAL else None
        assert (status, value) == lp_by_vertices(num_vars, rows, objective)
        statuses[status] += 1
        if status == OPTIMAL:
            # The returned point is feasible and attains the value, and the
            # tableau proves it.
            x = basic_point(tab, num_vars)
            assert all(_exact(v) for v in [value, *x])
            assert min(x) >= 0
            for coeffs, sense, b in rows:
                assert HOLDS[sense](sum(c * x[j] for j, c in coeffs.items()), b)
            assert sum(c * x[j] for j, c in objective.items()) == value
            assert _certified(num_vars, rows, objective, tab) == (OPTIMAL, value)
        else:
            assert tab is None
    # x = 0 is feasible, so no program is infeasible.
    assert statuses[INFEASIBLE] == 0
    assert min(statuses[s] for s in (OPTIMAL, UNBOUNDED)) >= 15
    assert statuses["dependent"] >= 5


def test_warm_starts_agree_with_vertex_enumeration():
    # Random bound rows on basic structural columns of the bounded
    # programs, re-optimized from the root's tableau by the dual simplex.
    rng = random.Random(2016)
    statuses = Counter()
    for _ in range(80):
        num_vars, rows, objective = _random_lp(rng)
        if not _independent(num_vars, rows) or solve_lp(num_vars, rows, objective)[0] != OPTIMAL:
            continue
        status, tab, bounds = _random_warm(rng, num_vars, rows, objective)
        if not bounds:  # no structural column is basic
            continue
        value = tab.objective_value() if status == OPTIMAL else None
        assert (status, value) == _vertices(num_vars, rows, objective, *bounds)
        assert _certified(num_vars, rows, objective, tab, bounds) == (status, value)
        statuses[status] += 1
    assert min(statuses[s] for s in (OPTIMAL, INFEASIBLE)) >= 15


def _fractions(tab):
    """The full tableau's entries as Fractions, the objective row last."""
    _, _, nums, dens = full_tableau(tab)
    return [[Fraction(v, den) for v in row] for row, den in zip(nums, dens)]


@pytest.mark.parametrize("limit", [simplex._INT64_LIMIT, 0], ids=["int64", "object"])
def test_ratio_tests_make_blands_pivots(monkeypatch, limit):
    # On the random programs of the vertex-enumeration tests, root solves
    # and warm starts alike, every pivot that optimize and dual_optimize
    # make, and every status they return, is the plain-Python reference's
    # choice on the tableau they made it on.
    monkeypatch.setattr(simplex, "_INT64_LIMIT", limit)
    tab_cls = simplex._Tableau
    running = []  # the reference of the ratio test that is running
    zero_ratio = Counter()  # (reference, whether a zero ratio decided it)
    dtypes = set()

    def checked(run, reference):
        def spy(tab, *args):
            running.append(reference)
            status = run(tab, *args)
            running.pop()
            assert reference(_fractions(tab), tab.basis) == status
            return status
        return spy

    def pivot_spy(tab, r, c, pivot=tab_cls.pivot):
        if running:  # not an "=" row's entry pivot in solve_lp
            table, col = _fractions(tab), tab.labels[c]
            assert running[-1](table, tab.basis) == (r, col)
            ratio = table[r][-1] if running[-1] is bland_primal else table[-1][col]
            zero_ratio[running[-1].__name__, ratio == 0] += 1
            dtypes.add(tab.mat.dtype)
        pivot(tab, r, c)

    monkeypatch.setattr(tab_cls, "optimize", checked(tab_cls.optimize, bland_primal))
    monkeypatch.setattr(tab_cls, "dual_optimize", checked(tab_cls.dual_optimize, bland_dual))
    monkeypatch.setattr(tab_cls, "pivot", pivot_spy)
    for seed, count, warm in ((2015, 100, False), (2016, 80, True)):
        rng = random.Random(seed)
        for _ in range(count):
            num_vars, rows, objective = _random_lp(rng)
            if not _independent(num_vars, rows):
                continue
            if solve_lp(num_vars, rows, objective)[0] == OPTIMAL and warm:
                _random_warm(rng, num_vars, rows, objective)
    # Random programs seldom tie at a zero dual ratio; the integer
    # program's branch-and-bound mostly does.
    solve_ilp(CodeParams(5, 3), SearchBudget(max_nodes=40))
    assert dtypes == {np.dtype(np.int64 if limit else object)}
    # Both ratio tests pivot where a zero ratio decides and where none does.
    assert min(zero_ratio[name, zero] for name in ("bland_primal", "bland_dual")
               for zero in (False, True)) >= 10


def test_certificate_rejects_any_changed_entry():
    # The oracle that checks tableaux here and in test_ilp notices one
    # wrong numerator or denominator anywhere, the objective row included.
    rows, objective = MIXED
    tab = solve_lp(2, rows, objective)[1]
    _, basis, mat, dens = full_tableau(tab)
    assert tableau_certificate(2, rows, objective, basis, mat, dens) == (OPTIMAL, 5)
    for i, row in enumerate(mat):
        for k in range(len(row)):
            bad = [r[:] for r in mat]
            bad[i][k] += 1
            with pytest.raises(AssertionError):
                tableau_certificate(2, rows, objective, basis, bad, dens)
        bad = dens[:]
        bad[i] += 1
        with pytest.raises(AssertionError):
            tableau_certificate(2, rows, objective, basis, mat, bad)
