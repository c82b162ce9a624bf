"""Parsing, LIS/LCS, and the Ulam distance."""

import pytest

from oracles import (
    all_perms,
    bfs_distances,
    brute_lis,
    compose,
    dp_lcs,
    identity,
    move_neighbors,
    reversal,
)
from ulamcode.perm import (
    check_permutation,
    format_permutation,
    lcs_length,
    lis_length,
    parse_permutation,
    ulam_distance,
)


class TestBasics:
    def test_check_permutation_accepts_valid(self):
        assert check_permutation([2, 3, 1]) == (2, 3, 1)
        assert check_permutation([1]) == (1,)

    @pytest.mark.parametrize(
        "bad", [[], [0, 1], [1, 1], [1, 3], [2, 2, 2], [1, 2, 4], [1, True], [2.0, 1]]
    )
    def test_check_permutation_rejects(self, bad):
        with pytest.raises(ValueError):
            check_permutation(bad)

    def test_parse_rejects_blank_text(self):
        with pytest.raises(ValueError, match="empty permutation"):
            parse_permutation("  \t ")

    def test_parse_format_round_trip(self):
        assert parse_permutation("2 3 1 5 4") == (2, 3, 1, 5, 4)
        assert format_permutation((2, 3, 1)) == "2 3 1"
        with pytest.raises(ValueError, match="column 2"):
            parse_permutation("1 x 3")
        with pytest.raises(ValueError, match="more than once"):
            parse_permutation("1 2 2")


class TestLis:
    def test_identity_and_reversal(self):
        for n in range(1, 9):
            assert lis_length(identity(n)) == n
            assert lis_length(reversal(n)) == 1

    def test_frozen_example(self):
        assert brute_lis((1, 3, 5, 7, 2, 4, 6, 8)) == 5
        assert lis_length((1, 3, 5, 7, 2, 4, 6, 8)) == 5

    def test_against_brute_force(self):
        for sigma in all_perms(5):
            assert lis_length(sigma) == brute_lis(sigma)


class TestLcs:
    def test_self_and_reversal(self):
        for n in range(1, 7):
            for sigma in (identity(n), reversal(n)):
                assert lcs_length(sigma, sigma) == n
        for n in range(2, 7):
            assert lcs_length(identity(n), reversal(n)) == 1

    def test_reduction_matches_dp(self):
        # Gate for the LIS reduction: exhaustive against the textbook table.
        for sigma in all_perms(4):
            for tau in all_perms(4):
                assert lcs_length(sigma, tau) == dp_lcs(sigma, tau)

    def test_symmetry(self):
        for sigma in all_perms(4):
            for tau in all_perms(4):
                assert lcs_length(sigma, tau) == lcs_length(tau, sigma)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lcs_length((1, 2), (1, 2, 3))


class TestUlamDistance:
    def test_examples(self):
        for n in range(2, 7):
            assert ulam_distance(identity(n), identity(n)) == 0
            assert ulam_distance(identity(n), reversal(n)) == n - 1

    def test_metric_axioms_exhaustive(self):
        perms = all_perms(4)
        for a in perms:
            for b in perms:
                d_ab = ulam_distance(a, b)
                assert (d_ab == 0) == (a == b)
                assert d_ab == ulam_distance(b, a)
        for a in perms:
            for b in perms:
                d_ab = ulam_distance(a, b)
                for c in perms:
                    assert d_ab <= ulam_distance(a, c) + ulam_distance(c, b)

    def test_left_invariance(self):
        perms = all_perms(4)
        for rho in perms:
            for sigma in perms:
                for tau in perms:
                    assert ulam_distance(
                        compose(rho, sigma), compose(rho, tau)
                    ) == ulam_distance(sigma, tau)

    def test_single_move_is_distance_one(self):
        # Every move, not just a generating set: each neighbour one symbol
        # move away is at distance exactly 1.
        for sigma in all_perms(4):
            for tau in move_neighbors(sigma):
                assert ulam_distance(sigma, tau) == 1

    def test_range(self):
        for n in range(1, 6):
            for sigma in all_perms(n):
                for tau in all_perms(n):
                    assert 0 <= ulam_distance(sigma, tau) <= n - 1 if n > 1 else True

    def test_bfs_oracle_s4(self):
        # The full S_5 version runs in the acceptance suite.
        for sigma in all_perms(4):
            dist = bfs_distances(sigma)
            for tau in all_perms(4):
                assert ulam_distance(sigma, tau) == dist[tau]
