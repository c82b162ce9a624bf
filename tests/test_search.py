"""Color classes, code verification, and the exact clique searches."""

import dataclasses
import hashlib
import inspect
import itertools
import math
import random
import re
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    ReferenceCliqueSearch,
    class_partition,
    closest_pair,
    color_class,
    identity,
    lehmer_far_rows,
    move_neighbors,
    reversal,
)
from ulamcode import budget as budget_module
from ulamcode import ball, cli, ilp, search
from ulamcode.ball import _lis_lengths_batch, ball_table, sphere_packing_bounds
from ulamcode.bounds import CodeParams, bound_report, gv_lower, singleton_upper
from ulamcode.budget import BudgetClock, SearchBudget
from ulamcode.errors import CapacityError, DistanceViolation
from ulamcode.ilp import IlpSolution
from ulamcode.perm import ulam_distance
from ulamcode.search import (
    find_singleton_optimal,
    max_code_search,
    read_code_file,
    reproduce_tables,
    verify_code,
    write_code_file,
)


class TestColorClass:
    def test_identity_pattern(self):
        for n, d in [(5, 3), (6, 3), (7, 5)]:
            p = CodeParams(n, d)
            assert color_class(identity(n), p) == tuple(range(1, n - d + 2))

    def test_worked_example(self):
        assert color_class((3, 1, 4, 2, 5), CodeParams(5, 3)) == (3, 1, 2)

    def test_class_sizes_5_3(self):
        groups = class_partition(CodeParams(5, 3))
        assert len(groups) == 6
        assert all(len(members) == 20 for members in groups.values())

    def test_partition_counts(self):
        for n in range(4, 7):
            for d in range(2, n):
                groups = class_partition(CodeParams(n, d))
                size = math.factorial(n - d + 1)
                assert len(groups) == size
                expected = math.factorial(n) // size
                assert all(len(m) == expected for m in groups.values())

    def test_same_class_implies_close(self):
        # Sharing a pattern forces a common subsequence of length n-d+1.
        p = CodeParams(5, 3)
        for members in class_partition(p).values():
            for i, u in enumerate(members):
                for w in members[i + 1 :]:
                    assert ulam_distance(u, w) <= p.d - 1


class TestVerifyCode:
    def test_singleton_word(self):
        code = verify_code([identity(5)], CodeParams(5, 3))
        assert code.min_distance == 5  # convention for <= 1 word

    def test_identity_reversal(self):
        code = verify_code([identity(6), reversal(6)], CodeParams(6, 5))
        assert code.min_distance == 5

    def test_violation_names_closest_pair(self):
        with pytest.raises(DistanceViolation) as err:
            verify_code([(1, 2, 3), (1, 3, 2)], CodeParams(3, 2))
        assert err.value.distance == 1
        assert {err.value.sigma, err.value.tau} == {(1, 2, 3), (1, 3, 2)}

    def test_rejects_no_words(self):
        with pytest.raises(ValueError, match="at least one word"):
            verify_code([], CodeParams(5, 3))

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            verify_code([(1, 2, 3), (1, 2, 3, 4)], CodeParams(3, 2))

    def test_repeated_word_is_a_pair_at_distance_0(self):
        with pytest.raises(DistanceViolation) as err:
            verify_code([(1, 2, 3), (1, 2, 3), (3, 2, 1)], CodeParams(3, 2))
        assert err.value.distance == 0
        assert err.value.sigma == err.value.tau == (1, 2, 3)

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError, match="appears more than once"):
            verify_code([(1, 1, 1), (2, 2, 2), (3, 3, 3)], CodeParams(3, 2))
        with pytest.raises(ValueError, match="out of range"):
            verify_code([(1, 2, 3), (1, 2, 4)], CodeParams(3, 2))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_matches_pairwise_reference(self, n):
        # Random codes of 2-40 words, some with a repeated word, checked at
        # their own minimum distance (valid) and one above it (invalid).
        rng = random.Random(n)
        for _ in range(30):
            words = [tuple(rng.sample(range(1, n + 1), n))
                     for _ in range(rng.randint(2, 40))]
            if rng.random() < 0.2:
                words.append(rng.choice(words))
            dist, pair = closest_pair(words)
            for d in (dist, dist + 1):
                if not 1 <= d <= n - 1:
                    continue
                params = CodeParams(n, d)
                if d <= dist:
                    code = verify_code(words, params)
                    assert code.min_distance == dist
                    assert code.words == frozenset(words)
                else:
                    with pytest.raises(DistanceViolation) as err:
                        verify_code(words, params)
                    got = (err.value.distance, (err.value.sigma, err.value.tau))
                    assert got == (dist, pair)

    def test_large_search_code(self):
        # The 1,100-word (8,2) code: no pair one move apart, and its closest
        # pair, two moves apart, is found from single-move neighbourhoods.
        words = sorted(
            max_code_search(CodeParams(8, 2), SearchBudget(max_nodes=1_100)).code.words
        )
        assert len(words) == 1_100
        later = set(words)
        pair = None
        for u in words:
            later.discard(u)
            assert not move_neighbors(u) & set(words)
            if pair is None:
                two = set().union(*map(move_neighbors, move_neighbors(u)))
                if two & later:
                    pair = (u, min(two & later))
        assert verify_code(words, CodeParams(8, 2)).min_distance == 2
        with pytest.raises(DistanceViolation) as err:
            verify_code(words, CodeParams(8, 3))
        assert (err.value.distance, err.value.sigma, err.value.tau) == (2, *pair)

    def test_kernel_is_checked_against_ulam_distance(self, monkeypatch):
        monkeypatch.setattr(search, "ulam_distance", lambda u, w: 0)
        with pytest.raises(AssertionError, match="disagrees"):
            verify_code([identity(5), reversal(5)], CodeParams(5, 4))

    def test_file_round_trip(self, tmp_path):
        code = verify_code([identity(5), reversal(5)], CodeParams(5, 4))
        path = tmp_path / "code.txt"
        write_code_file(code, path)
        params, words = read_code_file(path)
        assert params == CodeParams(5, 4)
        assert verify_code(words, params).words == code.words
        assert path.read_text().splitlines()[0] == "5 4"


def space_words(space):
    """The space's words as 1-based tuples, in row order."""
    return [tuple(w) for w in (space.words + 1).tolist()]


def word_bits(space):
    """The bit of each word, in row order: the bits that are not guard bits."""
    return [b for b in range(space.classes * space.stride) if b % space.stride != space.width]


def brute_force_row(space, gi):
    words = space_words(space)
    sigma = words[space.word_row(gi)]
    row = 0
    for bit, tau in zip(word_bits(space), words):
        if ulam_distance(sigma, tau) >= space.params.d:
            row |= 1 << bit
    return row


def below_field(space, gi, row):
    """A whole far row of the word at gi cut below the word's field, as
    far_row keeps it; the whole row must have no bit in that field."""
    base = gi - gi % space.stride
    assert row >> base & ((1 << space.stride) - 1) == 0
    return row & ((1 << base) - 1)


def cut_rows(space, bits):
    """lehmer_far_rows at some bits, each cut below its word's field."""
    return [below_field(space, b, row) for b, row in zip(bits, lehmer_far_rows(space, bits))]


class TestFarRow:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_every_row_of_s5(self, d):
        space = search._SearchSpace(CodeParams(5, d))
        for gi in word_bits(space):
            assert space.far_row(gi) == below_field(space, gi, brute_force_row(space, gi))

    def test_every_row_of_s6_at_d3(self):
        space = search._SearchSpace(CodeParams(6, 3))
        for gi in word_bits(space):
            assert space.far_row(gi) == below_field(space, gi, brute_force_row(space, gi))

    @pytest.mark.parametrize("d, complement", [(3, True), (5, False)])
    def test_sampled_rows_of_s7(self, d, complement):
        # (7,3) keeps the identity's near set, (7,5) its far set.
        space = search._SearchSpace(CodeParams(7, d))
        assert space._complement is complement
        for gi in random.Random(d).sample(word_bits(space), 6):
            assert space.far_row(gi) == below_field(space, gi, brute_force_row(space, gi))

    def test_identity_row_is_whole(self):
        space = search._SearchSpace(CodeParams(6, 3))
        assert space.identity // space.stride == space.classes - 1
        assert space.far_row(space.identity) == brute_force_row(space, space.identity)

    def test_bounded_memo_changes_nothing(self, monkeypatch):
        # A (6,3) row is cut below its field, at most 23 fields of 31
        # bits, so it packs into at most 90 bytes; the memo counts those
        # bytes against the bound.
        params = CodeParams(6, 3)
        spaces = []

        class Recording(search._SearchSpace):
            def __init__(self, params):
                super().__init__(params)
                spaces.append(self)

        monkeypatch.setattr(search, "_SearchSpace", Recording)
        free = find_singleton_optimal(params)
        monkeypatch.setattr(search, "ROW_CACHE_BYTES", 3 * 90)
        bounded = find_singleton_optimal(params)
        assert bounded.code.words == free.code.words
        assert bounded.nodes_explored == free.nodes_explored > 3
        for space in spaces:
            held = [b for b, row in enumerate(space.rows) if row is not None]
            assert space._cached == sum((b - b % space.stride + 7) // 8 for b in held)
        assert spaces[0]._cached > 3 * 90 >= spaces[1]._cached > 0


@pytest.mark.parametrize("n, d, both", [(6, 3, True), (7, 4, False), (8, 6, True)])
def test_whole_rows_search_the_same_tree(monkeypatch, n, d, both):
    # The bits far_row drops are never read: on whole rows (lehmer_far_rows)
    # the Singleton phase, and the maximum phase where asked, return the
    # same clique, node count and exhaustion as on cut rows.
    params = CodeParams(n, d)
    singleton = singleton_upper(params)
    phases = [(singleton - 1, singleton)] + [(1, singleton)] * both

    def run(space):
        # Each phase settles within 2,623 nodes; the cap only stops a
        # broken row early.
        start = space.far_row(space.identity)
        return [search._clique_search(space, SearchBudget(max_nodes=20_000).start(),
                                      [space.identity], start, floor, ceiling)
                for floor, ceiling in phases]

    cut, whole = search._SearchSpace(params), search._SearchSpace(params)
    memo = {}

    def whole_row(bit):
        if bit not in memo:
            memo[bit] = lehmer_far_rows(whole, [bit])[0]
        return memo[bit]

    monkeypatch.setattr(whole, "far_row", whole_row)
    assert run(whole) == run(cut)
    assert any(row != cut.far_row(bit) for bit, row in memo.items())


class TestLexRanks:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_ranks_are_permutations_order(self, n):
        # One word per column, as _SearchSpace holds its far set.
        words = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
        ranks = search._lex_ranks(np.ascontiguousarray(words.T))
        assert np.array_equal(ranks, np.arange(math.factorial(n)))


class TestRankWeights:
    """far_row's float32 ranks against _lex_ranks, and its rows against
    rows ranked by Lehmer codes."""

    @staticmethod
    def ranks(weights, w):
        return weights @ (w[:, None] < w).ravel().astype(np.float32)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_of_sn(self, n):
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
        base = np.ascontiguousarray(perms.reshape(-1, n).T)
        weights = search._rank_weights(base)
        assert weights.dtype == np.float32 and weights.shape == (math.factorial(n), n * n)
        for w in perms[:: max(1, len(perms) // 40)]:
            ranks = self.ranks(weights, w)
            assert np.array_equal(ranks, search._lex_ranks(w.take(base)))

    @pytest.mark.parametrize("n, d", [(n, d) for n in (8, 9) for d in range(2, n)])
    def test_random_words_at_n8_and_n9(self, n, d):
        space = search._SearchSpace(CodeParams(n, d))
        for i in np.random.default_rng(10 * n + d).integers(0, len(space.words), 6):
            w = space.words[i]
            ranks = self.ranks(space._weights, w)
            assert np.array_equal(ranks, search._lex_ranks(w.take(space._base)))

    def test_every_row_of_8_6(self, monkeypatch):
        # The memo holds about 200 rows at a time, not all 40,320.
        monkeypatch.setattr(search, "ROW_CACHE_BYTES", 1 << 20)
        space = search._SearchSpace(CodeParams(8, 6))
        bits = word_bits(space)
        for i in range(0, len(bits), 512):
            chunk = bits[i : i + 512]
            assert [space.far_row(b) for b in chunk] == cut_rows(space, chunk)

    @pytest.mark.parametrize("d", [4, 5])
    def test_sampled_rows_at_n9(self, d):
        space = search._SearchSpace(CodeParams(9, d))
        bits = random.Random(d).sample(word_bits(space), 24)
        assert [space.far_row(b) for b in bits] == cut_rows(space, bits)

    def test_first_row_holds_memo_and_weights(self):
        # At (8,6) construction allocates the memo (one 8-byte slot per
        # bit, 0.32 MB), the weights (1,430 x 64 float32, 0.37 MB) and about
        # 0.54 MB besides; the first row adds its own 5 KB.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            space = search._SearchSpace(CodeParams(8, 6))
            space.far_row(space.identity)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert space._weights.nbytes == 1430 * 64 * 4
        assert retained < 1.25e6


class TestLexPermutations:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_equals_itertools_order(self, n):
        expected = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
        perms = search._lex_permutations(n)
        assert perms.dtype == np.int8
        assert np.array_equal(perms, expected.reshape(math.factorial(n), n))

    def test_n9_has_every_word_once(self):
        perms = search._lex_permutations(9)
        assert perms.shape == (math.factorial(9), 9)
        # Every row a permutation of 0..8, and their lex ranks 0..9!-1 in order.
        assert (np.sort(perms, axis=1) == np.arange(9)).all()
        ranks = search._lex_ranks(np.ascontiguousarray(perms.T))
        assert np.array_equal(ranks, np.arange(math.factorial(9)))


class TestOneCopyOfSn:
    def test_space_retains_one_int8_array(self):
        # S_8 as int8 words is 322 KB and the int32 bit positions half that;
        # int64 positions would take 0.67 MB and a tuple per word several MB.
        # The far-row memo list and the rank weights are counted apart.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            space = search._SearchSpace(CodeParams(8, 6))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained - sys.getsizeof(space.rows) - space._weights.nbytes < 0.6e6
        assert space.words.dtype == np.int8
        assert space.words.shape == (math.factorial(8), 8)

    @pytest.mark.parametrize("d", [6, 7])
    def test_build_peak_stays_small(self, d):
        # The far-set sweep runs in blocks, the class order sorts uint16
        # keys, and the int64 sort order is freed before the sweep: the
        # build's peak at n = 8 is about 1.3 MB, against 3 MB for one sweep
        # of all of S_8 beside the int64 class ranks and their negation.
        tracemalloc.start()
        try:
            search._SearchSpace(CodeParams(8, d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0e6

    def test_bit_positions_are_int32(self):
        space = search._SearchSpace(CodeParams(6, 3))
        assert space._position.dtype == np.int32
        # A permutation of the word bits: lex rank r sits at bit _position[r].
        assert np.array_equal(np.sort(space._position), word_bits(space))
        assert np.array_equal(
            np.sort(space.word_row(space._position)), np.arange(math.factorial(6))
        )
        assert space.words[space.word_row(space.identity)].tolist() == list(range(6))

    def test_int8_sweep_matches_int64(self):
        space = search._SearchSpace(CodeParams(7, 3))
        wide = space.words.astype(np.int64)
        assert np.array_equal(_lis_lengths_batch(space.words), _lis_lengths_batch(wide))


def live_count(x, lows, guards, cut):
    """The clique loop's count of x's non-empty fields, on cut masks."""
    return ((x + lows[cut]) & guards[cut]).bit_count()


class TestFieldCount:
    @pytest.mark.parametrize("width", [2, 3, 8, 64, 65])
    def test_matches_a_per_field_loop(self, width):
        # 130 fields of width bits and a guard bit make cuts of 3 fields
        # each (search.FIELD_CUTS = 64), the last one short.  At every cut
        # point, x fills the fields below it, and the masks at that cut and
        # at the one picked from x's top bit both count what a per-field
        # loop counts.
        count, stride = 130, width + 1
        span, lows, guards = search._field_masks(width, count)
        assert span == 3 * stride and len(lows) == len(guards) == 45
        full = (1 << width) - 1
        special = [0, full, 1, 1 << (width - 1)]  # empty, full, bit 0, top bit
        rng = random.Random(width)
        for cut in range(len(lows)):
            below = min(cut * span // stride, count)
            for _ in range(20):
                fields = [
                    rng.choice(special) if rng.random() < 0.5 else rng.getrandbits(width)
                    for _ in range(below)
                ]
                x = sum(f << (i * stride) for i, f in enumerate(fields))
                expected = sum(1 for f in fields if f)
                assert live_count(x, lows, guards, cut) == expected
                assert live_count(x, lows, guards, -(-x.bit_length() // span)) == expected

    def test_cut_lists_stay_bounded(self):
        # (9,3): 5,040 classes of 72 words, S_9 not built.  One cut per
        # field would hold 5,040 masks of up to 9! + 5,040 bits in each list.
        width, count = 72, 5_040
        bits = (width + 1) * count
        span, lows, guards = search._field_masks(width, count)
        assert len(lows) == len(guards) <= 65
        assert guards[-1].bit_length() == bits == math.factorial(9) + count
        assert guards[-1].bit_count() == count
        assert lows[-1].bit_count() == count * width == math.factorial(9)
        assert sum(x.bit_length() for x in lows + guards) < 70 * bits


class TestSingletonOptimal:
    def test_6_3_exists(self):
        res = find_singleton_optimal(CodeParams(6, 3))
        assert res.status == "found"
        assert len(res.code.words) == 24
        assert res.code.min_distance >= 3

    def test_5_3_does_not_exist(self):
        res = find_singleton_optimal(CodeParams(5, 3))
        assert res.status == "none_exists"

    def test_d2_exists_small(self):
        for n in (4, 5):
            res = find_singleton_optimal(CodeParams(n, 2))
            assert res.status == "found"
            assert len(res.code.words) == math.factorial(n - 1)

    def test_7_4_node_count_is_pinned(self):
        # Any change to the DFS order or the rows shows up here.
        res = find_singleton_optimal(CodeParams(7, 4))
        assert res.status == "none_exists"
        assert res.nodes_explored == 2_623

    @pytest.mark.parametrize(
        "n, d, status, nodes",
        [
            (4, 3, "found", 1),
            (5, 3, "none_exists", 8),
            (5, 4, "found", 1),
            (6, 3, "found", 341),
            (6, 4, "none_exists", 14),
            (6, 5, "found", 1),
            (7, 3, "budget_exhausted", 30_000),
            (7, 4, "none_exists", 2_623),
            (7, 5, "none_exists", 42),
            (7, 6, "found", 1),
            (8, 6, "none_exists", 132),
        ],
    )
    def test_dfs_order_is_pinned(self, n, d, status, nodes):
        # Any change to the DFS order, its pruning or the rows shows up here.
        # The n = 7 hard cells run under an explicit budget.
        budget = SearchBudget(max_nodes=30_000) if (n, d) in ((7, 3), (7, 4)) else None
        res = find_singleton_optimal(CodeParams(n, d), budget)
        assert res.status == status
        assert res.nodes_explored == nodes

    def test_budget_exhaustion_is_distinct(self):
        res = find_singleton_optimal(CodeParams(6, 3), SearchBudget(max_nodes=3))
        assert res.status == "budget_exhausted"
        assert res.code is None

    def test_search_limit(self):
        with pytest.raises(CapacityError):
            find_singleton_optimal(CodeParams(search.SEARCH_LIMIT + 1, 3))


class TestMaxSearch:
    def test_5_3(self):
        res = max_code_search(CodeParams(5, 3))
        assert res.optimality == "proven_maximum"
        assert len(res.code.words) == 4

    def test_no_search_takes_a_caller_bound(self):
        # Every ceiling a search certifies from is one it derived itself.
        public = [
            fn for name, fn in inspect.getmembers(search, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == search.__name__
        ]
        assert max_code_search in public
        for fn in public:
            assert not any("bound" in name for name in inspect.signature(fn).parameters)
        assert list(inspect.signature(max_code_search).parameters) == [
            "params", "budget", "with_ip"
        ]
        assert list(inspect.signature(reproduce_tables).parameters) == [
            "n_values", "d_values", "cell_budget", "with_ip"
        ]

    def test_result_is_frozen(self):
        res = max_code_search(CodeParams(5, 3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.upper_bound_used = 4

    def test_6_4(self):
        res = max_code_search(CodeParams(6, 4))
        assert res.optimality == "proven_maximum"
        assert len(res.code.words) == 4

    def test_4_3(self):
        res = max_code_search(CodeParams(4, 3))
        assert res.optimality == "proven_maximum"
        assert len(res.code.words) == 2

    def test_identity_fixing_loses_nothing(self):
        # The engine with every word a candidate and no word fixed finds a
        # code as large as the identity-fixed maximum search does.
        params = CodeParams(5, 3)
        space = search._SearchSpace(params)
        every_word = sum(1 << bit for bit in word_bits(space))
        best, nodes, exhausted = search._clique_search(
            space, SearchBudget().start(), [], every_word, 0, 6
        )
        assert (len(best), nodes, exhausted) == (4, 2_094, False)
        verify_code([space_words(space)[space.word_row(gi)] for gi in best], params)
        assert len(max_code_search(params).code.words) == 4

    def test_codes_reverify(self):
        for n, d in [(5, 3), (6, 4), (6, 3)]:
            res = max_code_search(CodeParams(n, d))
            verify_code(res.code.words, CodeParams(n, d))

    def test_value_between_known_bounds(self):
        for n, d in [(4, 3), (5, 3), (5, 4), (6, 4), (6, 5)]:
            p = CodeParams(n, d)
            res = max_code_search(p)
            size = len(res.code.words)
            assert size <= min(singleton_upper(p), sphere_packing_bounds(ball_table(n), d)[1])
            assert size >= gv_lower(p)

    def test_budget_gives_lower_bound_only(self):
        res = max_code_search(CodeParams(6, 3), SearchBudget(max_nodes=5))
        assert res.optimality == "lower_bound_only"
        assert res.code.min_distance >= 3

    def test_bound_meeting_stops_early(self):
        # (6,3) meets the Singleton ceiling in the Singleton phase, no
        # exhaustion needed.
        res = max_code_search(CodeParams(6, 3))
        assert res.optimality == "proven_maximum"
        assert len(res.code.words) == 24
        assert res.nodes_explored == 341

    # The ids are the ones these pins were first given.
    @pytest.mark.parametrize(
        "n, d, budget, nodes, optimality, size",
        [
            pytest.param(7, 5, None, 136, "proven_maximum", 4,
                         id="7-5-kwargs2-136-proven_maximum-4-None"),
            pytest.param(6, 3, SearchBudget(max_nodes=5_000), 5_000, "lower_bound_only", 15,
                         id="6-3-kwargs3-5000-lower_bound_only-15-None"),
            pytest.param(7, 3, SearchBudget(max_nodes=20_000), 20_000, "lower_bound_only", 56,
                         id="7-3-kwargs4-20000-lower_bound_only-56-None"),
            pytest.param(7, 4, SearchBudget(max_nodes=20_000), 20_000, "lower_bound_only", 11,
                         id="7-4-kwargs5-20000-lower_bound_only-11-None"),
        ],
    )
    def test_dfs_order_is_pinned(self, n, d, budget, nodes, optimality, size):
        # The maximum phase's order at the engine: from the identity, floor
        # 1, ceiling the Singleton bound.  Any change to the DFS order, its
        # pruning or the rows shows up here.
        params = CodeParams(n, d)
        space = search._SearchSpace(params)
        best, explored, exhausted = search._clique_search(
            space, (budget or SearchBudget()).start(), [space.identity],
            space.far_row(space.identity), 1, singleton_upper(params),
        )
        assert explored == nodes
        assert exhausted == (optimality == "lower_bound_only")
        assert len(best) == size

    @pytest.mark.parametrize(
        "n, d, size, digest",
        [(8, 3, 270, "d6d3ce422d10a212"), (8, 4, 38, "9b0e64aa624e2857")],
    )
    def test_dfs_order_is_pinned_at_n8(self, n, d, size, digest):
        # As above, under 20,000 nodes, on fields of 56 and 336 bits: wide
        # enough that the masks the live count runs on span several fields.
        # The digest is of the sorted 1-based words.
        params = CodeParams(n, d)
        space = search._SearchSpace(params)
        best, explored, exhausted = search._clique_search(
            space, SearchBudget(max_nodes=20_000).start(), [space.identity],
            space.far_row(space.identity), 1, singleton_upper(params),
        )
        assert (len(best), explored, exhausted) == (size, 20_000, True)
        rows = space.word_row(np.array(best))
        words = sorted(tuple(w) for w in (space.words[rows] + 1).tolist())
        assert hashlib.sha256(repr(words).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "n, d, max_nodes, nodes, optimality, size",
        [
            (7, 5, None, 178, "proven_maximum", 4),
            (6, 3, 5_000, 341, "proven_maximum", 24),
            (7, 3, 20_000, 40_000, "lower_bound_only", 56),
            (7, 4, 20_000, 22_623, "lower_bound_only", 11),
            (8, 2, 1_100, 2_200, "lower_bound_only", 1_100),
        ],
    )
    def test_cell_totals_are_pinned(self, n, d, max_nodes, nodes, optimality, size):
        # Both phases, each under the budget: (7,5) and (7,4) add the
        # exhausted Singleton tree (42 and 2,623 nodes) to the maximum phase.
        res = max_code_search(CodeParams(n, d), SearchBudget(max_nodes=max_nodes))
        assert res.nodes_explored == nodes
        assert res.optimality == optimality
        assert len(res.code.words) == size


def engine_words(space, clock, chosen, cand, floor, ceiling):
    """_clique_search as (sorted 1-based words, nodes, exhausted)."""
    best, nodes, exhausted = search._clique_search(space, clock, chosen, cand, floor, ceiling)
    rows = space.word_row(np.array(best, dtype=np.int64))
    return sorted(tuple(w) for w in (space.words[rows] + 1).tolist()), nodes, exhausted


class TestReferenceSearch:
    """The engine against a layout-free DFS on word indices (oracles.py):
    the same code, node count and exhaustion, so the same tree node for
    node up to every cap."""

    @pytest.mark.parametrize(
        "n, d, caps",
        [pytest.param(n, d, (1, 2, 3, 7, 50, 1_000, 3_000), id=f"{n}-{d}")
         for n in range(3, 7) for d in range(2, n)]
        + [pytest.param(7, d, (1, 2, 3, 7, 50), id=f"7-{d}") for d in range(2, 7)],
    )
    def test_both_phases_under_caps(self, n, d, caps):
        # The Singleton phase's floor and ceiling, then the maximum phase's
        # under either ceiling, from the identity as the searches start.
        params = CodeParams(n, d)
        space = search._SearchSpace(params)
        oracle = ReferenceCliqueSearch(params)
        start = identity(n)
        cand = [w for w in oracle.words if ulam_distance(start, w) >= d]
        singleton = singleton_upper(params)
        for floor, ceiling in [(singleton - 1, singleton), (1, singleton), (1, singleton - 1)]:
            for cap in caps:
                budget = SearchBudget(max_nodes=cap)
                assert engine_words(
                    space, budget.start(), [space.identity],
                    space.far_row(space.identity), floor, ceiling,
                ) == oracle.run([start], cand, floor, ceiling, budget.start())

    def test_time_budget(self, monkeypatch):
        # A fake clock one second later at every reading: both stop at
        # node 40 of the (6,3) maximum phase.
        ticks = itertools.count()
        monkeypatch.setattr(budget_module, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        params = CodeParams(6, 3)
        space = search._SearchSpace(params)
        oracle = ReferenceCliqueSearch(params)
        cand = [w for w in oracle.words if ulam_distance(identity(6), w) >= 3]
        budget = SearchBudget(max_seconds=40)
        found = engine_words(
            space, budget.start(), [space.identity], space.far_row(space.identity), 1, 24
        )
        assert found == oracle.run([identity(6)], cand, 1, 24, budget.start())
        assert found[1:] == (40, True)

    def test_no_word_fixed(self):
        # Every word a candidate, none chosen, as in
        # test_identity_fixing_loses_nothing.
        params = CodeParams(5, 3)
        space = search._SearchSpace(params)
        oracle = ReferenceCliqueSearch(params)
        every_word = sum(1 << bit for bit in word_bits(space))
        found = engine_words(space, SearchBudget().start(), [], every_word, 0, 6)
        assert found == oracle.run([], oracle.words, 0, 6, SearchBudget().start())


def test_a_root_that_cannot_beat_the_floor_is_not_searched():
    # The identity's far row reaches at most the 23 classes but its own of
    # (7,4), so 1 + 23 cannot beat a floor of 24; nor can an empty
    # candidate set beat 1.
    params = CodeParams(7, 4)
    space = search._SearchSpace(params)
    singleton = singleton_upper(params)
    for cand, floor in [(space.far_row(space.identity), singleton), (0, 1)]:
        found = search._clique_search(space, BudgetClock(), [space.identity], cand, floor, singleton)
        assert found == ([space.identity], 0, False)


@pytest.mark.parametrize("searcher", [find_singleton_optimal, max_code_search])
def test_deep_search_leaves_recursion_limit(searcher):
    # (8,2) has 5,040 classes, so a DFS level per class runs far deeper
    # than the interpreter's default recursion limit.
    limit = sys.getrecursionlimit()
    res = searcher(CodeParams(8, 2), SearchBudget(max_nodes=1_100))
    # The cell's search runs both phases under the budget.
    assert res.nodes_explored == (2_200 if searcher is max_code_search else 1_100)
    assert sys.getrecursionlimit() == limit
    if searcher is max_code_search:
        assert res.optimality == "lower_bound_only"
        assert len(res.code.words) == 1_100


class TestTables:
    def test_small_grid_matches_known_values(self):
        cells = reproduce_tables([4, 5], with_ip=False)
        table = {(c.n, c.d): c for c in cells}
        assert table[(4, 2)].lower == 6 and table[(4, 2)].status == "proven"
        assert table[(4, 3)].lower == 2 and table[(4, 3)].status == "proven"
        assert table[(5, 2)].lower == 24
        assert table[(5, 3)].lower == 4 and table[(5, 3)].status == "proven"
        assert table[(5, 4)].lower == 2

    def test_small_grid_verdicts(self):
        cells = reproduce_tables([4, 5])
        table = {(c.n, c.d): c.singleton_optimal for c in cells}
        assert table == {
            (4, 2): "yes",
            (4, 3): "yes",
            (5, 2): "yes",
            (5, 3): "no",
            (5, 4): "yes",
        }

    def test_d2_filled_by_construction(self):
        cells = reproduce_tables([8], [2])
        (cell,) = cells
        assert cell.method == "construction"
        assert cell.lower == cell.upper == math.factorial(7)
        assert cell.status == "proven"

    def test_invalid_cells_rejected(self):
        with pytest.raises(ValueError, match="n = 4 selects no cell"):
            reproduce_tables([4], [5, 6])

    @pytest.mark.parametrize("n_values, d_values, value", [
        ([4], [3, 9], "d = 9"),
        ([2, 3, 4, 5], None, "n = 2"),
        ([4, 9], [], "n = 4"),
    ], ids=["beside-a-cell", "default-d", "empty-d"])
    def test_value_selecting_no_cell_fails(self, n_values, d_values, value):
        with pytest.raises(ValueError, match=f"{value} selects no cell"):
            reproduce_tables(n_values, d_values)

    @pytest.mark.parametrize("n_values, d_values, options", [
        ([12], None, {"with_ip": True}),
        ([10, 11], [3], {"cell_budget": SearchBudget(max_nodes=5)}),
        ([8], [2], {"cell_budget": SearchBudget()}),
    ], ids=["with-ip", "budget", "unlimited"])
    def test_options_with_no_searched_cell_fail(self, n_values, d_values, options):
        with pytest.raises(ValueError, match="no requested cell is searched"):
            reproduce_tables(n_values, d_values, **options)

    def test_exhausted_singleton_search_caps_the_cell(self):
        # No Singleton-optimal code at (7,4), so A(7,4) <= 4! - 1.
        (cell,) = reproduce_tables([7], [4], cell_budget=SearchBudget(max_nodes=30_000))
        assert cell.upper == 23
        assert cell.singleton_optimal == "no"
        assert cell.status == "bounded"

    def test_budget_marks_cells(self):
        cells = reproduce_tables([6], [3], cell_budget=SearchBudget(max_nodes=2))
        (cell,) = cells
        assert cell.status == "bounded"
        assert cell.singleton_optimal == "unknown"
        assert cell.lower <= cell.upper

    def test_one_exact_distribution_per_n(self, monkeypatch):
        # Every skipped cell of an n reads one ball table, and its bounds
        # are those of sphere_packing_bounds, cell by cell.
        seen, exact = [], ball.lis_distribution_exact
        monkeypatch.setattr(ball, "lis_distribution_exact", lambda n: seen.append(n) or exact(n))
        cells = reproduce_tables([10, 11])
        assert seen == [10, 11]
        skipped = [cell for cell in cells if cell.status == "skipped"]
        assert len(skipped) == 7 + 8  # d = 3..9 and 3..10
        for cell in skipped:
            params = CodeParams(cell.n, cell.d)
            report = bound_report(params, sphere_packing_bounds(ball_table(cell.n), cell.d))
            assert (cell.lower, cell.upper) == (report.best_lower, report.best_upper)

    @pytest.mark.parametrize("n, ds", [(6, [3, 4]), (7, [5])])
    def test_ip_runs_only_for_unsettled_cells(self, monkeypatch, n, ds):
        # The searches settle these cells, so the integer program is not
        # asked for a bound it cannot improve.
        calls = []

        def ip(params, budget=None):
            calls.append(params)
            return IlpSolution("optimal", singleton_upper(params))

        monkeypatch.setattr(search, "solve_ilp", ip)
        cells = reproduce_tables([n], ds, with_ip=True)
        assert all(cell.status == "proven" for cell in cells)
        assert calls == []


@pytest.mark.parametrize("n, d", [(n, d) for n in range(4, 7) for d in range(3, n)])
def test_singleton_search_agrees_with_max_search(n, d):
    # The Singleton search and a maximum search from floor 1, which never
    # runs the Singleton phase, answer the existence question independently.
    params = CodeParams(n, d)
    singleton = find_singleton_optimal(params)
    space = search._SearchSpace(params)
    best, _, exhausted = search._clique_search(
        space, SearchBudget().start(), [space.identity],
        space.far_row(space.identity), 1, singleton_upper(params),
    )
    assert not exhausted
    assert (singleton.status == "found") == (len(best) == singleton_upper(params))
    assert len(max_code_search(params).code.words) == len(best)


@pytest.mark.parametrize("n", range(3, search.SEARCH_LIMIT + 1))
def test_sphere_bound_never_lowers_the_ceiling(n):
    # The cell's search takes the Singleton bound as its ceiling; in the
    # search range no sphere bound is below it.
    for d in range(2, n):
        params = CodeParams(n, d)
        assert sphere_packing_bounds(ball_table(n), d)[1] >= singleton_upper(params)


@pytest.mark.parametrize(
    "n, d, max_nodes, with_ip",
    [(6, 3, None, False), (7, 5, None, True), (7, 4, 3_000, True), (8, 2, 50, False)],
)
def test_one_search_space_per_cell(monkeypatch, n, d, max_nodes, with_ip):
    # The Singleton phase found, exhausted or cut, then the maximum phase
    # and the integer program: S_n is built once.
    spaces = []

    class Counting(search._SearchSpace):
        def __init__(self, params):
            super().__init__(params)
            spaces.append(params)

    def ip(params, budget=None):
        return IlpSolution("bound_only", singleton_upper(params))

    monkeypatch.setattr(search, "_SearchSpace", Counting)
    monkeypatch.setattr(search, "solve_ilp", ip)
    budget = SearchBudget(max_nodes=max_nodes)
    max_code_search(CodeParams(n, d), budget, with_ip)
    assert spaces == [CodeParams(n, d)]


class TestVerdict:
    """The Singleton-optimality verdict of max_code_search: "yes" for a code
    of Singleton size, "no" for a proven maximum or a ceiling below the
    Singleton bound, else "unknown"."""

    PROVEN = {
        (3, 2): "yes",
        (4, 2): "yes", (4, 3): "yes",
        (5, 2): "yes", (5, 3): "no", (5, 4): "yes",
        (6, 2): "yes", (6, 3): "yes", (6, 4): "no", (6, 5): "yes",
    }

    def test_ip_ceiling_below_singleton_says_no(self):
        # Five nodes leave a 4-word code unproven; the integer program's 5
        # is below the Singleton bound 6, so no Singleton-optimal code exists.
        cut = SearchBudget(max_nodes=5)
        res = max_code_search(CodeParams(5, 3), cut, with_ip=True)
        assert len(res.code.words) == 4
        assert (res.optimality, res.upper_bound_used) == ("lower_bound_only", 5)
        assert res.singleton_optimal == "no"
        res = max_code_search(CodeParams(5, 3), cut)
        assert (res.upper_bound_used, res.singleton_optimal) == (6, "unknown")

    def test_settled_verdicts_agree_with_the_table(self):
        # Under caps of 1 to 50 nodes per phase, with the integer program on
        # its default budget, every cell but (6,2) and (6,3) settles.
        settled = set()
        for (n, d), verdict in self.PROVEN.items():
            for cap in (1, 2, 3, 5, 8, 13, 21, 34, 50):
                res = max_code_search(
                    CodeParams(n, d), SearchBudget(max_nodes=cap), with_ip=True
                )
                if res.singleton_optimal != "unknown":
                    assert res.singleton_optimal == verdict, (n, d, cap)
                    settled.add((n, d))
        assert settled == set(self.PROVEN) - {(6, 2), (6, 3)}


def test_singleton_phase_stops_at_half_the_time_cap(monkeypatch):
    # A fake clock that reads one second later at every call.  Under a
    # 5-second cap at (6,3), the Singleton phase stops at half of it: on
    # its 3rd node, at second 3.  The maximum phase keeps the clock started
    # with the cell, so it stops on its 2nd node, at second 5, and the cell
    # ends within the cap.
    ticks = iter(range(1_000))
    monkeypatch.setattr(budget_module, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    engine, phases = search._clique_search, []

    def recording(*args):
        best, nodes, exhausted = engine(*args)
        phases.append((nodes, exhausted))
        return best, nodes, exhausted

    monkeypatch.setattr(search, "_clique_search", recording)
    res = max_code_search(CodeParams(6, 3), SearchBudget(max_seconds=5))
    assert phases == [(3, True), (2, True)]
    assert res.optimality == "lower_bound_only"
    assert res.nodes_explored == 3 + 2
    assert next(ticks) == 6  # the start and one reading per node


def test_singleton_only_search_runs_on_the_whole_time_cap(monkeypatch):
    # The clock of test_singleton_phase_stops_at_half_the_time_cap.
    # find_singleton_optimal (search --singleton-only) has no maximum phase
    # to leave time for, so under the same 5-second cap at (6,3) it stops
    # on its 5th node, at second 5, not on its 3rd.
    ticks = iter(range(1_000))
    monkeypatch.setattr(budget_module, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    res = find_singleton_optimal(CodeParams(6, 3), SearchBudget(max_seconds=5))
    assert (res.status, res.nodes_explored) == ("budget_exhausted", 5)
    assert next(ticks) == 6  # the start and one reading per node


class TestBudget:
    @pytest.mark.parametrize("value", [3.5, 3.0, "3"])
    def test_node_cap_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match=re.escape(f"max_nodes must be an integer, got {value!r}")):
            SearchBudget(max_nodes=value)

    def test_numpy_node_cap_stops_the_search(self):
        # Uncapped, the (7,4) Singleton tree takes 2,623 nodes.
        res = find_singleton_optimal(CodeParams(7, 4), SearchBudget(max_nodes=np.int64(3)))
        assert (res.status, res.nodes_explored) == ("budget_exhausted", 3)

    def test_start_sets_the_deadline(self, monkeypatch):
        monkeypatch.setattr(budget_module, "time", SimpleNamespace(monotonic=lambda: 100.0))
        clock = SearchBudget(max_nodes=7, max_seconds=2.5).start()
        assert clock == BudgetClock(max_nodes=7, deadline=102.5)
        assert clock.start() is clock
        assert SearchBudget().start() == BudgetClock()
        assert [f.name for f in dataclasses.fields(BudgetClock)] == ["max_nodes", "deadline"]

    def test_exhausted(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(budget_module, "time", SimpleNamespace(monotonic=lambda: now[0]))
        clock = BudgetClock(max_nodes=3, deadline=5.0)
        assert [clock.exhausted(k) for k in (0, 2, 3, 4)] == [False, False, True, True]
        now[0] = 5.0
        assert clock.exhausted() and clock.exhausted(1)
        assert not BudgetClock(max_nodes=3).exhausted()
        assert not BudgetClock().exhausted(10**9)


class TestOneRulePerCap:
    """The clique search stops on the node where BudgetClock.exhausted
    says the cap is met, for any cap a clock holds; with no node count,
    exhausted() reads the deadline alone."""

    def singleton_phase(self, clock):
        # The (7,4) Singleton phase as max_code_search starts it.
        params = CodeParams(7, 4)
        space = search._SearchSpace(params)
        singleton = singleton_upper(params)
        return search._clique_search(
            space, clock, [space.identity], space.far_row(space.identity),
            singleton - 1, singleton,
        )[1:]

    @pytest.mark.parametrize("cap, stop", [(0, 1), (1, 1), (3, 3), (3.5, 4), (10, 10), (None, None)])
    def test_stops_where_exhausted_says(self, cap, stop):
        # Uncapped, the tree takes 2,623 nodes.  Node 1 is the first that
        # can meet a cap, so caps 0 and 3.5 stop on nodes 1 and 4.
        clock = BudgetClock(max_nodes=cap)
        assert next((k for k in range(1, 2_624) if clock.exhausted(k)), None) == stop
        expected = (2_623, False) if stop is None else (stop, True)
        assert self.singleton_phase(clock) == expected

    def test_no_count_reads_only_the_deadline(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(budget_module, "time", SimpleNamespace(monotonic=lambda: now[0]))
        assert not BudgetClock(max_nodes=0).exhausted()
        assert BudgetClock(max_nodes=0).exhausted(0)
        clock = BudgetClock(max_nodes=0, deadline=5.0)
        assert not clock.exhausted()
        now[0] = 5.0
        assert clock.exhausted()


class TestBudgetRule:
    """The clock each search phase and the integer program run on in
    search and tables, and the integer program's budget in every command
    that runs it.

    The ``calls`` fixture replaces the search engine and the
    integer-program solver by recording fakes, so no search runs, bounded
    or not; the pin of the default budget's per-phase nodes runs real ones.
    A time cap is read on a fake clock frozen at ``NOW``, so each deadline
    is exact.
    """

    NOW = 100.0

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def engine(space, clock, chosen, cand, floor, ceiling):
            kind = "singleton" if floor == singleton_upper(space.params) - 1 else "max"
            calls.append((space.params.n, kind, clock))
            return list(chosen), 1, True

        def solve(model, budget=None):
            calls.append((model.n, "ip", budget))
            value = singleton_upper(CodeParams(model.n, model.d))
            return IlpSolution("optimal", value)

        monkeypatch.setattr(search, "_clique_search", engine)
        # bounds reaches the program from cli, search and tables from search.
        monkeypatch.setattr(cli, "solve_ilp", solve)
        monkeypatch.setattr(search, "solve_ilp", solve)
        monkeypatch.setattr(budget_module, "time", SimpleNamespace(monotonic=lambda: self.NOW))
        return calls

    def clocks(self, calls, n):
        return {kind: clock for m, kind, clock in calls if m == n}

    def test_default_caps_every_phase(self, calls):
        reproduce_tables([5, 6, 7], [3], with_ip=True)
        capped = BudgetClock(max_nodes=search.HARD_CELL_NODE_CAP)
        assert search.HARD_CELL_NODE_CAP == 200_000
        assert len(calls) == 9
        for n in (5, 6, 7):
            assert self.clocks(calls, n) == {
                "ip": BudgetClock(max_nodes=500), "singleton": capped, "max": capped,
            }

    def test_default_cap_binds_no_cell_outside_the_hard_ones(self, monkeypatch):
        # Per-phase nodes with no budget, on every cell up to n = 6 and the
        # n = 7 cells from d = 5: all far below HARD_CELL_NODE_CAP.
        phase_nodes = {
            (3, 2): [1], (4, 2): [5], (4, 3): [1], (5, 2): [23], (5, 3): [8, 46],
            (5, 4): [1], (6, 2): [2_629], (6, 3): [341], (6, 4): [14, 59],
            (6, 5): [1], (7, 5): [42, 136], (7, 6): [1],
        }
        engine, phases = search._clique_search, []

        def recording(*args):
            best, nodes, exhausted = engine(*args)
            phases.append(nodes)
            assert not exhausted
            return best, nodes, exhausted

        monkeypatch.setattr(search, "_clique_search", recording)
        found = {}
        for n, d in phase_nodes:
            phases.clear()
            assert max_code_search(CodeParams(n, d)).optimality == "proven_maximum"
            found[n, d] = list(phases)
        assert found == phase_nodes
        assert max(itertools.chain.from_iterable(found.values())) < 3_000

    def test_long_runs_lift_the_cap(self, calls):
        # SearchBudget() runs both search phases uncapped; the program
        # keeps its own cap.
        reproduce_tables([7], [3], cell_budget=SearchBudget(), with_ip=True)
        assert len(calls) == 3
        assert self.clocks(calls, 7) == {
            "ip": BudgetClock(max_nodes=500),
            "singleton": BudgetClock(),
            "max": BudgetClock(),
        }

    def test_explicit_budget_arrives_unchanged(self, calls):
        # Both search phases get the node cap.  The maximum phase runs on
        # the cell's clock, whose deadline is the time cap after the start;
        # the Singleton phase's comes half the time cap earlier.  The
        # program gets its own node cap and the cell's deadline.
        given = SearchBudget(max_nodes=250_000, max_seconds=60.0)
        reproduce_tables([6, 7], [3], cell_budget=given, with_ip=True)
        assert len(calls) == 6
        for n in (6, 7):
            assert self.clocks(calls, n) == {
                "singleton": BudgetClock(max_nodes=250_000, deadline=self.NOW + 30.0),
                "max": BudgetClock(max_nodes=250_000, deadline=self.NOW + 60.0),
                "ip": BudgetClock(max_nodes=ilp.IP_NODE_CAP, deadline=self.NOW + 60.0),
            }

    @pytest.mark.parametrize(
        "budget_args, expected",
        [
            ((), {"bounds": None, "ip": BudgetClock(max_nodes=500),
                  "singleton": BudgetClock(max_nodes=search.HARD_CELL_NODE_CAP),
                  "max": BudgetClock(max_nodes=search.HARD_CELL_NODE_CAP)}),
            (("--max-nodes", "8"), {"bounds": SearchBudget(max_nodes=8),
                                    "ip": BudgetClock(max_nodes=500),
                                    "singleton": BudgetClock(max_nodes=8),
                                    "max": BudgetClock(max_nodes=8)}),
            # A time cap alone also replaces the default node cap: no phase
            # has one, and the Singleton phase's deadline is half the time
            # cap earlier.  Deadlines are 100 + seconds on the fake clock.
            (("--max-seconds", "30"), {"bounds": SearchBudget(max_seconds=30.0),
                                       "ip": BudgetClock(max_nodes=500, deadline=130.0),
                                       "singleton": BudgetClock(deadline=115.0),
                                       "max": BudgetClock(deadline=130.0)}),
        ],
    )
    def test_one_ip_budget_rule_in_every_command(self, calls, capsys, budget_args, expected):
        # bounds runs only the program, so the budget is the program's, not
        # yet started (None: solve_ilp's own IP_NODE_CAP).  search and
        # tables run it on the cell's clock with IP_NODE_CAP nodes; each
        # search phase gets the budget's node cap or, without a budget, the
        # default one.
        assert ilp.IP_NODE_CAP == 500
        for command in ("bounds", "search", "tables"):
            calls.clear()
            argv = [command, "--n", "6", "--d", "3", "--with-ip", *budget_args]
            assert cli.main(argv + ["--format", "json"]) == 0
            if command == "bounds":
                assert calls == [(6, "ip", expected["bounds"])]
            else:
                assert calls == [(6, kind, expected[kind]) for kind in ("singleton", "max", "ip")]
        capsys.readouterr()

    def test_ip_gets_the_time_left_on_the_cell_clock(self, monkeypatch):
        # A fake clock that each search phase moves on 3 seconds.  Under a
        # 10- or 7-second cap, the program runs on the cell's own deadline,
        # the cap after the start, with 4 or 1 seconds left on it.  Under a
        # 6- or 5-second cap the clock has reached the deadline after the
        # phases, so the program is skipped and the Singleton bound stays
        # the ceiling.
        now = [0.0]
        monkeypatch.setattr(budget_module, "time", SimpleNamespace(monotonic=lambda: now[0]))

        def engine(space, clock, chosen, cand, floor, ceiling):
            now[0] += 3
            return list(chosen), 1, True

        given = []

        def ip_bound(params, budget):
            given.append(budget)
            return IlpSolution("optimal", singleton_upper(params) - 1)

        monkeypatch.setattr(search, "_clique_search", engine)
        monkeypatch.setattr(search, "solve_ilp", ip_bound)
        for cap, ceiling in ((10, 23), (7, 23), (6, 24), (5, 24)):
            given.clear()
            now[0] = 0.0
            res = max_code_search(CodeParams(6, 3), SearchBudget(max_seconds=cap), with_ip=True)
            assert now[0] == 6
            assert res.upper_bound_used == ceiling
            if ceiling == 23:
                assert given == [BudgetClock(max_nodes=ilp.IP_NODE_CAP, deadline=cap)]
            else:
                assert given == []
                assert (res.optimality, res.singleton_optimal) == ("lower_bound_only", "unknown")
