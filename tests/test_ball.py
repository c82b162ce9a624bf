"""Ball sizes, exact LIS distribution, Monte Carlo, and sphere bounds."""

import concurrent.futures
import math
import os
import statistics
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from oracles import bfs_ball_sizes, enum_lis_counts, sample_lis_reference
import ulamcode
from ulamcode import ball
from ulamcode.ball import (
    EXACT_LIMIT,
    MC_BLOCK,
    LisDistribution,
    ball_table,
    clt_samples,
    lis_distribution_exact,
    lis_prob_mc,
    sample_lis_lengths,
    sphere_packing_bounds,
)
from ulamcode.bounds import CodeParams, gv_lower
from ulamcode.errors import CapacityError
from ulamcode.perm import lis_length


class TestExactDistribution:
    def test_n1(self):
        dist = lis_distribution_exact(1)
        assert dist.counts == {1: 1}
        assert dist.total == 1

    def test_n3(self):
        dist = lis_distribution_exact(3)
        assert dist.counts == {1: 1, 2: 4, 3: 1}
        assert dist.total == 6

    def test_normalization_and_extremes(self):
        for n in range(2, 8):
            dist = lis_distribution_exact(n)
            assert sum(dist.counts.values()) == math.factorial(n)
            assert dist.counts[n] == 1
            assert dist.counts[1] == 1

    def test_matches_enumeration_oracle(self):
        for n in range(1, 9):
            assert lis_distribution_exact(n).counts == enum_lis_counts(n)

    def test_identities_up_to_limit(self):
        for n in range(1, EXACT_LIMIT + 1):
            counts = lis_distribution_exact(n).counts
            assert sum(counts.values()) == math.factorial(n)
            assert counts[1] == counts[n] == 1
            # LIS <= 2 means 123-avoiding, counted by the Catalan numbers.
            assert counts[1] + counts.get(2, 0) == math.comb(2 * n, n) // (n + 1)
            if n >= 2:
                assert counts[n - 1] == (n - 1) ** 2

    def test_capacity_error_advises_monte_carlo(self):
        with pytest.raises(CapacityError, match="Monte-Carlo"):
            lis_distribution_exact(EXACT_LIMIT + 1)

    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            LisDistribution(n=2, counts={1: 1, 2: 2}, total=2)


class TestBallSizes:
    def test_radius_zero_and_diameter(self):
        for n in range(2, 8):
            assert ball_table(n)[0] == 1
            assert ball_table(n)[n - 1] == math.factorial(n)

    def test_small_example(self):
        # BFS over S_3: everything except the reversal is within one move.
        assert ball_table(3)[1] == 5

    def test_matches_bfs_oracle(self):
        for n in range(2, 7):
            assert ball_table(n) == bfs_ball_sizes(n)

    def test_radius_one_shell_formula(self):
        for n in range(2, EXACT_LIMIT + 1):
            assert ball_table(n)[1] == 1 + (n - 1) ** 2

    def test_identity_with_distribution(self):
        for n in range(2, 8):
            dist = lis_distribution_exact(n)
            for r in range(n):
                expected = sum(c for k, c in dist.counts.items() if k >= n - r)
                assert ball_table(n)[r] == expected

    def test_strictly_increasing(self):
        for n in range(2, 8):
            sizes = ball_table(n)
            for r in range(1, n):
                assert sizes[r] > sizes[r - 1]


class TestSpherePacking:
    def test_d1(self):
        for n in (3, 5, 7):
            assert sphere_packing_bounds(ball_table(n), 1) == (
                math.factorial(n),
                math.factorial(n),
            )

    def test_5_3_frozen(self):
        lo, hi = sphere_packing_bounds(ball_table(5), 3)
        assert ball_table(5)[1] == 17  # cross-checked against BFS above
        assert (lo, hi) == (2, 120 // 17)

    def test_dominates_gv_strictly(self):
        # Exact rational comparison of the two lower-bound ratios.
        for n in range(3, 9):
            nfact = math.factorial(n)
            for d in range(2, n):
                delta = d - 1
                if not 0 < delta < n - 1:
                    continue
                gv_ratio = Fraction(math.factorial(n - delta), math.comb(n, delta))
                sphere_ratio = Fraction(nfact, ball_table(n)[delta])
                assert gv_ratio < sphere_ratio

    def test_integer_bounds_dominate_gv(self):
        for n in range(3, 9):
            for d in range(2, n):
                p = CodeParams(n, d)
                lo, hi = sphere_packing_bounds(ball_table(p.n), p.d)
                assert lo >= gv_lower(p)
                assert lo <= hi

    @pytest.mark.parametrize("n, d", [(5, 0), (5, 5)])
    def test_d_out_of_range(self, n, d):
        # CodeParams checks d: 1 <= d <= n - 1.
        with pytest.raises(ValueError, match="d must satisfy"):
            sphere_packing_bounds(ball_table(n), d)


class TestProbabilityEstimates:
    def test_l2a_even_delta(self):
        # Both halves of the even-radius sandwich, exactly, for n <= 8.
        for n in range(2, 9):
            sizes, nfact = ball_table(n), math.factorial(n)
            for delta in range(0, n - 1, 2):
                bound = Fraction(math.comb(n, delta), math.factorial(n - delta))
                assert Fraction(sizes[delta // 2], nfact) <= bound
                assert Fraction(sizes[delta], nfact) >= Fraction(
                    1, math.factorial(n - delta)
                )


class TestMonteCarlo:
    def test_k1_exact(self):
        est, err = lis_prob_mc(6, 1, 1000, 0)
        assert est == 1.0 and err == 0.0

    def test_determinism(self):
        a = lis_prob_mc(6, 4, 50_000, 7)
        b = lis_prob_mc(6, 4, 50_000, 7)
        assert a == b

    def test_seed_changes_stream(self):
        a = lis_prob_mc(6, 4, 50_000, 1)
        b = lis_prob_mc(6, 4, 50_000, 2)
        assert a != b

    def test_calibration_n6_k4(self):
        exact = float(Fraction(ball_table(6)[2], math.factorial(6)))
        est, err = lis_prob_mc(6, 4, 1_000_000, 0)
        assert abs(est - exact) <= 4 * err

    def test_pooled_over_disjoint_seeds(self):
        exact = float(Fraction(ball_table(6)[2], math.factorial(6)))
        per_seed = 100_000
        hits = 0.0
        for seed in range(10):
            est, _ = lis_prob_mc(6, 4, per_seed, seed)
            hits += est * per_seed
        pooled = hits / (10 * per_seed)
        stderr = math.sqrt(pooled * (1 - pooled) / (10 * per_seed))
        assert abs(pooled - exact) <= 4 * stderr

    def test_workers_equivalence(self):
        a = sample_lis_lengths(6, 70_000, 3, workers=1)
        b = sample_lis_lengths(6, 70_000, 3, workers=2)
        assert (a == b).all()

    def test_output_is_held_once(self, monkeypatch):
        # 200 blocks of 1,024 samples and a short one: each block lands in
        # the output as it comes, so the traced peak stays well below two
        # copies of the output, and the samples are the blocks' in order.
        # Drawing the blocks first also makes numpy's one-time allocations
        # before the trace starts.
        block, n, seed = 1024, 12, 4
        sizes = [block] * 200 + [300]
        blocks = [ball._sample_block(n, seed, b, size) for b, size in enumerate(sizes)]
        monkeypatch.setattr(ball, "MC_BLOCK", block)
        tracemalloc.start()
        try:
            got = sample_lis_lengths(n, sum(sizes), seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * got.nbytes
        assert got.dtype == np.int64
        assert np.array_equal(got, np.concatenate(blocks))

    def test_large_n_uses_scalar_path(self, monkeypatch):
        # Past n = 49,932 a uint16 chunk is too short for the kernel, and
        # from n = 65,535 on the kernel runs in int32, which needs at least
        # 200 rows to win while a chunk holds at most 32, so every chunk
        # takes the per-row loop.
        def batch(perms):
            raise AssertionError("batched kernel called")

        monkeypatch.setattr(ball, "_lis_lengths_batch", batch)
        for n in (49_933, 65_534, 65_535, 10**6):
            small = ball._kernel_dtype(n)
            assert small == (np.uint16 if n < 65_535 else np.int32)
            assert not ball._batch_wins(ball._CHUNK_BYTES // (small.itemsize * n), n)
        n = 50_000
        lengths = sample_lis_lengths(n, 8, 0)
        assert len(lengths) == 8
        assert all(1 <= v <= n for v in lengths)

    @pytest.mark.parametrize("n", [5, 32, 33, 100])
    def test_stream_matches_per_sample_reference(self, n):
        # One rng.permutation(n) per sample, as every n drew before the draw
        # was batched: no sample moved, on either side of the old n = 32
        # boundary, nor in the short last block.
        samples = MC_BLOCK + 5
        got = sample_lis_lengths(n, samples, 11)
        assert got.tolist() == sample_lis_reference(n, samples, 11, MC_BLOCK)

    def test_stream_does_not_depend_on_chunks(self, monkeypatch):
        # Chunks of 70 int16 rows take the kernel; the last 20 rows take the
        # loop.  Every chunk is drawn as one int64 slice.
        n, samples = 33, 1000
        monkeypatch.setattr(ball, "_CHUNK_BYTES", 70 * n * 2)
        got = sample_lis_lengths(n, samples, 5)
        assert got.tolist() == sample_lis_reference(n, samples, 5, MC_BLOCK)

    @pytest.mark.parametrize("slice_rows", [1, 13])
    def test_stream_does_not_depend_on_slices(self, monkeypatch, slice_rows):
        # Slices of one row, or of 13 rows, which split each 70-row kernel
        # chunk into five slices and a short one, and the 20-row loop tail
        # into 13 and 7.
        n, samples = 33, 1000
        monkeypatch.setattr(ball, "_CHUNK_BYTES", 70 * n * 2)
        monkeypatch.setattr(ball, "_SLICE_BYTES", slice_rows * n * 8)
        got = sample_lis_lengths(n, samples, 5)
        assert got.tolist() == sample_lis_reference(n, samples, 5, MC_BLOCK)

    def test_validation(self):
        with pytest.raises(ValueError):
            lis_prob_mc(5, 6, 10, 0)
        # n is checked before k, so n = 0 is not reported as a bad k.
        with pytest.raises(ValueError, match="n must be >= 1"):
            lis_prob_mc(0, 1, 10, 0)
        with pytest.raises(ValueError):
            lis_prob_mc(5, 0, 10, 0)
        with pytest.raises(ValueError):
            sample_lis_lengths(5, 0, 0)
        # k = 1 has an exact answer, but the sample count is checked first.
        with pytest.raises(ValueError, match="samples must be >= 1"):
            lis_prob_mc(5, 1, -3, 0)


class TestLisKernel:
    """The batched patience kernel against the bisect lis_length per row."""

    @staticmethod
    def per_row(perms):
        return [lis_length(row) for row in perms.tolist()]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_of_sn_in_int8(self, n):
        perms = np.array(list(permutations(range(n))), dtype=np.int8)
        assert ball._lis_lengths_batch(perms).tolist() == self.per_row(perms)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    @pytest.mark.parametrize("n", [1, 2, 33, 200, 1000])
    def test_random_rows(self, n, dtype):
        perms = np.tile(np.arange(n, dtype=dtype), (40, 1))
        np.random.default_rng(n).permuted(perms, axis=1, out=perms)
        lengths = ball._lis_lengths_batch(perms)
        assert lengths.dtype == np.int64
        assert lengths.tolist() == self.per_row(perms)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
    def test_identity_and_reversal_rows(self, dtype):
        # The identity row opens a pile at every step, so the open width
        # reaches n + 1 while the other rows stay short.
        n = 100
        rng = np.random.default_rng(0)
        rows = [np.arange(n), np.arange(n)[::-1], rng.permutation(n), rng.permutation(n)]
        perms = np.array(rows, dtype=dtype)
        lengths = ball._lis_lengths_batch(perms).tolist()
        assert lengths[:2] == [n, 1]
        assert lengths == self.per_row(perms)
        assert ball._lis_lengths_batch(perms[:2]).tolist() == [n, 1]

    def test_int8_at_its_largest_n(self):
        # n = 127 is the int8 maximum, the sentinel.  The identity row opens
        # a pile at every step, so its counts climb to 126 piles below the
        # last symbol and its length to 127.
        n = 127
        rng = np.random.default_rng(1)
        rows = [np.arange(n), np.arange(n)[::-1]] + [rng.permutation(n) for _ in range(6)]
        perms = np.array(rows, dtype=np.int8)
        lengths = ball._lis_lengths_batch(perms).tolist()
        assert lengths[:2] == [n, 1]
        assert lengths == self.per_row(perms)

    def test_uint16_rows_at_n_40000(self):
        # Symbols up to 39,999 pass int16's maximum; the uint16 sentinel
        # 65,535 exceeds them all.  The reversal row keeps one pile whose
        # top falls through every symbol.
        n = 40_000
        rng = np.random.default_rng(4)
        rows = [np.arange(n)[::-1]] + [rng.permutation(n) for _ in range(5)]
        perms = np.array(rows, dtype=np.uint16)
        lengths = ball._lis_lengths_batch(perms).tolist()
        assert lengths[0] == 1
        assert lengths == self.per_row(perms)
        cols = np.ascontiguousarray(perms.T)
        assert ball._lis_lengths_batch(cols.T).tolist() == lengths

    def test_sampler_takes_uint16_kernel_at_n_40000(self, monkeypatch):
        # An 8 MB chunk holds 104 uint16 rows there, enough for the kernel,
        # and its lengths are those of the per-sample reference.
        dtypes = []

        def spy(perms, kernel=ball._lis_lengths_batch):
            dtypes.append(perms.dtype)
            return kernel(perms)

        monkeypatch.setattr(ball, "_lis_lengths_batch", spy)
        n = 40_000
        assert ball._CHUNK_BYTES // (2 * n) == 104 and ball._batch_wins(104, n)
        got = sample_lis_lengths(n, 104, 2)
        assert dtypes == [np.uint16]
        assert got.tolist() == sample_lis_reference(n, 104, 2, MC_BLOCK)

    @pytest.mark.parametrize("n", [1, 12, 33, 1000])
    def test_column_major_input(self, n):
        # The sampler hands the kernel the transpose of an (n, rows) array.
        perms = np.tile(np.arange(n, dtype=np.int16), (50, 1))
        np.random.default_rng(n).permuted(perms, axis=1, out=perms)
        cols = np.ascontiguousarray(perms.T)
        assert np.array_equal(ball._lis_lengths_batch(cols.T), ball._lis_lengths_batch(perms))

    def test_kernel_dtype_sentinel_exceeds_every_symbol(self):
        sizes = [1, 100, 32_766, 32_767, 40_000, 65_534, 65_535, 10**6]
        dtypes = [ball._kernel_dtype(n) for n in sizes]
        assert dtypes == [np.int16] * 3 + [np.uint16] * 3 + [np.int32] * 2
        for n, dtype in zip(sizes, dtypes):
            assert np.iinfo(dtype).max > n - 1

    def test_evaluators_agree_on_one_draw(self, monkeypatch):
        # Forcing either evaluator (and so either dtype) moves no sample.
        results = []
        for batch in (True, False):
            monkeypatch.setattr(ball, "_batch_wins", lambda rows, n, batch=batch: batch)
            results.append(sample_lis_lengths(40, 500, 3))
        assert np.array_equal(*results)


def test_evaluator_rule():
    # The kernel takes chunks from the first row count below on; shorter
    # ones go to the bisect loop (see _batch_wins).
    for n, rows in [(33, 62), (1000, 63), (10_000, 65), (32_766, 69), (32_767, 79),
                    (40_000, 81), (65_534, 89), (65_535, 200)]:
        assert ball._batch_wins(rows, n) and not ball._batch_wins(rows - 1, n)
    assert ball._batch_wins(10**9, 136_160) and not ball._batch_wins(10**9, 136_161)


class TestWorkerPools:
    """Pool sizes are clamped to the task and CPU counts; no process starts."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return sizes

    @pytest.mark.parametrize("cpus, expected", [(2, 2), (16, 3)])
    def test_sampling(self, pool_sizes, monkeypatch, cpus, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        lengths = sample_lis_lengths(4, 2 * ball.MC_BLOCK + 1, 0, workers=1000)
        assert pool_sizes == [expected]
        assert (lengths == sample_lis_lengths(4, 2 * ball.MC_BLOCK + 1, 0)).all()


def test_a_pool_that_cannot_start_samples_in_process(monkeypatch):
    # Where the OS refuses the worker processes, the samples are the
    # one-worker samples.
    def refused(max_workers):
        raise OSError("no processes")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)
    samples = 2 * ball.MC_BLOCK + 1
    lengths = sample_lis_lengths(4, samples, 0, workers=2)
    assert (lengths == sample_lis_lengths(4, samples, 0)).all()


def test_import_loads_no_pool():
    # The process pool's modules load only where a pool starts.
    code = (
        "import sys, ulamcode; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(ulamcode.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout == "[]\n"


class TestCltSamples:
    def test_n1(self):
        assert clt_samples(1, 5, 0) == [-1.0, -1.0, -1.0, -1.0, -1.0]

    def test_length(self):
        assert len(clt_samples(9, 1234, 0)) == 1234

    def _mean_is_negative(self, samples):
        vals = clt_samples(10_000, samples, 0)
        mean = statistics.mean(vals)
        stderr = statistics.stdev(vals) / math.sqrt(len(vals))
        assert mean < 0
        assert mean + 5 * stderr < 0

    def test_mean_negative(self):
        self._mean_is_negative(1000)

    @pytest.mark.slow
    def test_mean_negative_full(self):
        self._mean_is_negative(100_000)

    def test_determinism(self):
        assert clt_samples(30, 100, 9) == clt_samples(30, 100, 9)
