"""Ulam ball sizes, the exact LIS-length distribution, and Monte-Carlo tails.

The ball of radius r around the identity has size n! * P(LIS >= n - r), so
everything here reduces to the distribution of the longest-increasing-
subsequence length: exact by full enumeration of S_n (bounded by an
explicit limit), or sampled.  Sampling is block-structured: the sample
stream is split into fixed-size blocks, each block draws from its own
numpy PCG64 stream derived from (seed, block index), and block results are
merged by summation.  Totals are therefore reproducible for a given seed
no matter how many workers run the blocks.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from typing import Optional

import numpy as np

from .bounds import CodeParams
from .errors import CapacityError

DEFAULT_ENUM_LIMIT = 9
MC_BLOCK = 1 << 15
# Rowwise-vectorized patience costs O(n^2) per sample; past this length the
# per-sample bisect loop wins.
_BATCH_LIS_MAX_N = 32


@dataclass(frozen=True)
class LisDistribution:
    """Counts of the LIS length over S_n (exact) or over a sample."""

    n: int
    kind: str  # "exact" | "sampled"
    counts: dict[int, int]
    total: int
    seed: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("exact", "sampled"):
            raise ValueError(f"kind must be 'exact' or 'sampled', got {self.kind!r}")
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not sum to total")

    def prob_at_least(self, k: int) -> Fraction:
        """P(LIS >= k) as an exact fraction of the recorded total."""
        hits = sum(c for length, c in self.counts.items() if length >= k)
        return Fraction(hits, self.total)


@dataclass(frozen=True)
class BallTable:
    """|B(r)| for every radius r in 0..n-1."""

    n: int
    sizes: dict[int, int]


def _pool_size(workers: int, tasks: int) -> int:
    """Worker processes worth starting: no more than tasks or CPUs."""
    return min(workers, tasks, os.cpu_count() or 1)


def _count_lis_with_prefix(n: int, first: int) -> dict[int, int]:
    """LIS counts over all permutations of [n] starting with symbol ``first``."""
    rest = [v for v in range(1, n + 1) if v != first]
    counts: dict[int, int] = {}
    for tail in permutations(rest):
        tails = [first]
        for x in tail:
            k = bisect_left(tails, x)
            if k == len(tails):
                tails.append(x)
            else:
                tails[k] = x
        length = len(tails)
        counts[length] = counts.get(length, 0) + 1
    return counts


_EXACT_MEMO: dict[int, LisDistribution] = {}


def lis_distribution_exact(
    n: int,
    limit: int = DEFAULT_ENUM_LIMIT,
    cache_dir: Optional[str | Path] = None,
    workers: int = 1,
) -> LisDistribution:
    """Exact LIS-length counts over all of S_n by full enumeration.

    Permutations are generated one at a time (O(n) live memory).  The work
    splits into n independent first-symbol ranges, so worker count never
    changes the merged counts.  Raises CapacityError above ``limit``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > limit:
        raise CapacityError(
            f"exact enumeration of S_{n} exceeds the limit {limit} "
            f"({math.factorial(n)} permutations); use the Monte-Carlo estimator "
            f"or raise the limit explicitly"
        )
    if n in _EXACT_MEMO:
        dist = _EXACT_MEMO[n]
        if cache_dir is not None:
            path = Path(cache_dir) / f"lisdist_{n}.txt"
            if not path.exists():
                os.makedirs(cache_dir, exist_ok=True)
                save_distribution(dist, path)
        return dist
    if cache_dir is not None:
        path = Path(cache_dir) / f"lisdist_{n}.txt"
        if path.exists():
            dist = load_distribution(path)
            if dist.n != n:
                raise ValueError(f"cache file {path} is for n={dist.n}, expected {n}")
            _EXACT_MEMO[n] = dist
            return dist

    if n == 1:
        counts = {1: 1}
    else:
        firsts = list(range(1, n + 1))
        if workers > 1 and math.factorial(n) >= 40320:
            try:
                with ProcessPoolExecutor(max_workers=_pool_size(workers, n)) as pool:
                    parts = list(pool.map(_count_lis_with_prefix, [n] * n, firsts))
            except OSError:
                parts = [_count_lis_with_prefix(n, f) for f in firsts]
        else:
            parts = [_count_lis_with_prefix(n, f) for f in firsts]
        counts = {}
        for part in parts:
            for k, c in part.items():
                counts[k] = counts.get(k, 0) + c

    dist = LisDistribution(n=n, kind="exact", counts=counts, total=math.factorial(n))
    _EXACT_MEMO[n] = dist
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        save_distribution(dist, Path(cache_dir) / f"lisdist_{n}.txt")
    return dist


def save_distribution(dist: LisDistribution, path: str | Path) -> None:
    """Write the plain-text cache format: "n total" then "k count" lines."""
    lines = [f"{dist.n} {dist.total}"]
    lines += [f"{k} {dist.counts[k]}" for k in sorted(dist.counts)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_distribution(path: str | Path) -> LisDistribution:
    """Read the cache format written by save_distribution (exact kind)."""
    lines = Path(path).read_text().split()
    if len(lines) < 2 or len(lines) % 2 != 0:
        raise ValueError(f"malformed distribution file {path}")
    nums = [int(tok) for tok in lines]
    n, total = nums[0], nums[1]
    counts = {nums[i]: nums[i + 1] for i in range(2, len(nums), 2)}
    return LisDistribution(n=n, kind="exact", counts=counts, total=total)


def ball_size(n: int, r: int, limit: int = DEFAULT_ENUM_LIMIT) -> int:
    """|B(r)|: permutations at Ulam distance <= r from the identity.

    Computed from the exact LIS distribution via
    |B(r)| = #{sigma : LIS(sigma) >= n - r}.
    """
    if not 0 <= r <= n - 1:
        raise ValueError(f"radius must be in 0..{n - 1}, got {r}")
    dist = lis_distribution_exact(n, limit=limit)
    return sum(c for k, c in dist.counts.items() if k >= n - r)


def ball_table(n: int, limit: int = DEFAULT_ENUM_LIMIT) -> BallTable:
    """All ball sizes for radii 0..n-1."""
    dist = lis_distribution_exact(n, limit=limit)
    sizes: dict[int, int] = {}
    running = 0
    by_k = dist.counts
    for r in range(n):
        running += by_k.get(n - r, 0)
        sizes[r] = running
    return BallTable(n=n, sizes=sizes)


def sphere_packing_bounds(
    params: CodeParams, limit: int = DEFAULT_ENUM_LIMIT
) -> tuple[int, int]:
    """(lower, upper) sphere bounds on the maximum code size.

    lower = ceil(n! / |B(d-1)|) (covering), upper = floor(n! / |B(floor((d-1)/2))|)
    (packing with the usual half-distance radius; exact for even d - 1).
    """
    n = params.n
    delta = params.delta
    nfact = math.factorial(n)
    b_delta = ball_size(n, delta, limit=limit)
    b_half = ball_size(n, delta // 2, limit=limit)
    return -(-nfact // b_delta), nfact // b_half


def _lis_lengths_batch(perms: np.ndarray) -> np.ndarray:
    """Patience lengths for every row of a (B, n) array of permutations."""
    nblock, n = perms.shape
    sentinel = np.iinfo(np.int64).max
    tails = np.full((nblock, n), sentinel, dtype=np.int64)
    lengths = np.zeros(nblock, dtype=np.int64)
    rows = np.arange(nblock)
    for j in range(n):
        x = perms[:, j]
        idx = np.sum(tails < x[:, None], axis=1)
        tails[rows, idx] = x
        np.maximum(lengths, idx + 1, out=lengths)
    return lengths


def _sample_block(n: int, seed: int, block_index: int, block_size: int) -> np.ndarray:
    """LIS lengths of ``block_size`` uniform permutations from block stream."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block_index,)))
    if n <= _BATCH_LIS_MAX_N:
        perms = np.broadcast_to(np.arange(n, dtype=np.int64), (block_size, n)).copy()
        perms = rng.permuted(perms, axis=1)
        return _lis_lengths_batch(perms)
    lengths = np.empty(block_size, dtype=np.int64)
    for s in range(block_size):
        perm = rng.permutation(n)
        tails: list[int] = []
        for x in perm.tolist():
            k = bisect_left(tails, x)
            if k == len(tails):
                tails.append(x)
            else:
                tails[k] = x
        lengths[s] = len(tails)
    return lengths


def sample_lis_lengths(
    n: int, samples: int, seed: int, workers: int = 1
) -> np.ndarray:
    """LIS lengths of ``samples`` uniform random permutations of [n]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    nblocks = -(-samples // MC_BLOCK)
    sizes = [MC_BLOCK] * (nblocks - 1) + [samples - MC_BLOCK * (nblocks - 1)]
    args = [(n, seed, i, sizes[i]) for i in range(nblocks)]
    if workers > 1 and nblocks > 1:
        try:
            with ProcessPoolExecutor(max_workers=_pool_size(workers, nblocks)) as pool:
                parts = list(pool.map(_sample_block_star, args))
        except OSError:
            parts = [_sample_block(*a) for a in args]
    else:
        parts = [_sample_block(*a) for a in args]
    return np.concatenate(parts)


def _sample_block_star(args: tuple[int, int, int, int]) -> np.ndarray:
    return _sample_block(*args)


def lis_prob_mc(
    n: int, k: int, samples: int, seed: int, workers: int = 1
) -> tuple[float, float]:
    """Monte-Carlo estimate of P(LIS >= k) with its binomial standard error."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if k == 1:
        return 1.0, 0.0
    lengths = sample_lis_lengths(n, samples, seed, workers=workers)
    hits = int(np.count_nonzero(lengths >= k))
    p = hits / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


def clt_samples(
    n: int, samples: int, seed: int, workers: int = 1
) -> list[float]:
    """Centered and scaled LIS values (L - 2 sqrt(n)) / n^(1/6), one per sample.

    Raw material for external plotting; no distribution fitting happens here.
    """
    lengths = sample_lis_lengths(n, samples, seed, workers=workers)
    center = 2.0 * math.sqrt(n)
    scale = n ** (1.0 / 6.0)
    return ((lengths - center) / scale).tolist()
