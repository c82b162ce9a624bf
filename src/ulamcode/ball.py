"""Ulam ball sizes, the exact LIS-length distribution, and Monte-Carlo tails.

The ball of radius r around the identity has size n! * P(LIS >= n - r), so
everything here reduces to the distribution of the longest-increasing-
subsequence length.  Exact counts come from Schensted's correspondence
(1961): #{sigma in S_n : LIS(sigma) = k} is the sum of (f^lambda)^2 over the
partitions lambda of n with first part k, and f^lambda comes from the
hook-length formula of Frame, Robinson and Thrall (1954); they are offered
up to n = EXACT_LIMIT.  Past that the distribution is sampled.  Sampling is
block-structured: the sample stream is split into fixed-size blocks, each
block draws from its own numpy PCG64 stream derived from (seed, block
index), and block results are merged by summation.  Totals are therefore
reproducible for a given seed no matter how many workers run the blocks.

Every n takes one draw path: a block is cut into chunks of at most
_CHUNK_BYTES in the kernel's dtype, and each chunk is drawn by
``rng.permuted`` in int64 slices of at most _SLICE_BYTES, whose rows are
exactly the draws of successive ``rng.permutation(n)`` calls, whatever the
chunking.  Where _batch_wins predicts it faster from the chunk's (rows, n),
the slices are copied one column per row into an (n, rows) array in int16
(uint16 from n = 32,767 on, int32 from n = 65,535), and the batched
patience kernel reads its transpose without a copy.  Otherwise the lengths
come row by row from ``perm.lis_length``; both read the same draw, so the
choice never moves a sample.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .bounds import CodeParams
from .errors import CapacityError
from .perm import lis_length

# One exact distribution takes about 0.17 s at n = 30 and 1.3 s at n = 40.
EXACT_LIMIT = 30
MC_BLOCK = 1 << 15
# Largest chunk one evaluator takes: 4M int16 entries (2M int32) for the
# kernel.  Every chunk is drawn in int64 slices of at most _SLICE_BYTES.
_CHUNK_BYTES = 8 << 20
_SLICE_BYTES = 1 << 20


@dataclass(frozen=True)
class LisDistribution:
    """Exact counts of the LIS length over S_n."""

    n: int
    counts: dict[int, int]
    total: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not sum to total")


def _partitions(n: int, largest: int):
    """Partitions of n into parts of at most ``largest``, parts non-increasing."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def lis_distribution_exact(n: int) -> LisDistribution:
    """Exact LIS-length counts over all of S_n from the hook-length formula.

    Raises CapacityError above EXACT_LIMIT.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXACT_LIMIT:
        raise CapacityError(
            f"exact LIS distribution of S_{n} exceeds the limit {EXACT_LIMIT}; "
            f"use the Monte-Carlo estimator"
        )
    nfact = math.factorial(n)
    counts = {k: 0 for k in range(1, n + 1)}
    for shape in _partitions(n, n):
        column = [sum(1 for row in shape if row > j) for j in range(shape[0])]
        hooks = 1
        for i, row in enumerate(shape):
            for j in range(row):
                hooks *= (row - j - 1) + (column[j] - i - 1) + 1  # arm + leg + 1
        counts[shape[0]] += (nfact // hooks) ** 2
    return LisDistribution(n=n, counts=counts, total=nfact)


def ball_table(n: int) -> dict[int, int]:
    """|B(r)|, the number of permutations with LIS >= n - r, by radius r in 0..n-1."""
    dist = lis_distribution_exact(n)
    sizes: dict[int, int] = {}
    running = 0
    for r in range(n):
        running += dist.counts[n - r]
        sizes[r] = running
    return sizes


def sphere_packing_bounds(table: dict[int, int], d: int) -> tuple[int, int]:
    """(lower, upper) sphere bounds on the maximum size of a code of length
    n = len(table) and minimum distance d, which CodeParams checks; table is
    the radius -> size dict of ball_table(n).

    lower = ceil(n! / |B(d-1)|) (covering), upper = floor(n! / |B(floor((d-1)/2))|)
    (packing with the usual half-distance radius; exact for even d - 1).
    """
    delta = CodeParams(len(table), d).delta
    nfact = math.factorial(len(table))
    return -(-nfact // table[delta]), nfact // table[delta // 2]


def _kernel_dtype(n: int) -> np.dtype:
    """Smallest dtype in which _lis_lengths_batch takes permutations of
    0..n-1: its maximum, the kernel's sentinel, must exceed every symbol."""
    return np.dtype(next((t for t in (np.int16, np.uint16) if n < np.iinfo(t).max), np.int32))


def _lis_lengths_batch(perms: np.ndarray) -> np.ndarray:
    """Patience lengths of each row of a (B, n) permutation array.

    The comparisons run in the input's dtype, whose maximum must exceed
    every entry.  Pile tops are held column-major, as (pile, row), and each
    step compares only the piles some row has opened so far.
    """
    nrows, n = perms.shape
    sentinel = np.iinfo(perms.dtype).max
    # Only the opened piles plus one empty pile are ever written.
    piles = np.empty((n + 1, nrows), dtype=perms.dtype)
    piles[0] = sentinel
    flat = piles.reshape(-1)
    rows = np.arange(nrows)
    width = 1
    for x in np.ascontiguousarray(perms.T):
        # Fewer than n piles lie below x, so the count fits the dtype.
        idx = (piles[:width] < x).sum(axis=0, dtype=perms.dtype)
        flat[np.multiply(idx, nrows, dtype=np.intp) + rows] = x
        if idx.max() == width - 1:
            piles[width] = sentinel
            width += 1
    return (piles[:width] != sentinel).sum(axis=0)


def _batch_wins(rows: int, n: int) -> bool:
    """Whether the batched kernel beats the bisect loop on a (rows, n) chunk.

    Costs are in units of the bisect loop's time per element, 0.19 us at
    n = 33 to 0.35 us at n = 6 * 10^4 on a 2-CPU machine.  A kernel step
    costs about 50 units of numpy overhead plus, per row, 0.08 + sqrt(n)/c
    units for the comparisons against the about 2 sqrt(n) open piles, with
    c = 2000 in int16, 1000 in uint16 and 450 in int32.  The kernel is
    chosen where that predicts at most 0.9 of the loop's time: from 62 rows
    at n = 33, 63 at n = 1000, 65 at n = 10^4 and 69 at n = 32,766; in
    uint16 from 79 rows at n = 32,767, so an 8 MB chunk takes it up to
    n = 49,932; in int32 from 200 rows at n = 65,535, more than a chunk then
    holds, and never past n = 136,160.  Measured against the loop, it takes
    1.17 / 0.91 / 0.64 of the time at 56 / 64 / 96 rows for n = 33,
    0.67-0.81 / 0.42 / 0.15 at 64 / 128 / 1024 rows for n = 1000,
    0.78-1.06 / 0.71 / 0.51 at 64 / 72 / 128 rows for n = 10^4, and
    0.85 / 0.76 at 64 / 96 rows for n = 3 * 10^4; in uint16, to which c is
    fitted, 0.91 / 0.74 / 0.67 at 96 / 104 / 128 rows for n = 4 * 10^4 and
    1.13 / 0.68 at 69 / 128 rows for n = 6 * 10^4 (int32: 0.95 at 104 rows).
    """
    c = {"int16": 2000, "uint16": 1000}.get(_kernel_dtype(n).name, 450)
    return rows * (0.82 - math.sqrt(n) / c) > 50


def _sample_block(n: int, seed: int, block_index: int, block_size: int) -> np.ndarray:
    """LIS lengths of ``block_size`` uniform permutations from block stream."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block_index,)))
    small = _kernel_dtype(n)
    step = max(1, _SLICE_BYTES // (8 * n))
    parts = []
    done = 0
    while done < block_size:
        rows = min(block_size - done, max(1, _CHUNK_BYTES // (small.itemsize * n)))
        batch = _batch_wins(rows, n)
        cols = np.empty((n, rows), dtype=small) if batch else None
        lengths = []
        # numpy shuffles 8-byte items fastest, so each slice is drawn in
        # int64; the kernel's chunk is filled one column per row.
        for start in range(0, rows, step):
            tile = np.empty((min(step, rows - start), n), dtype=np.int64)
            tile[:] = np.arange(n)
            rng.permuted(tile, axis=1, out=tile)
            if batch:
                cols[:, start : start + len(tile)] = tile.T
            else:
                lengths += [lis_length(row) for row in tile.tolist()]
        parts.append(_lis_lengths_batch(cols.T) if batch else np.array(lengths, dtype=np.int64))
        done += rows
    return np.concatenate(parts)


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
    columns = ([n] * nblocks, [seed] * nblocks, range(nblocks), sizes)
    lengths = np.empty(samples, dtype=np.int64)

    def fill(blocks) -> None:
        # Each block lands in place, so the output is held once.
        for start, block in zip(range(0, samples, MC_BLOCK), blocks):
            lengths[start : start + len(block)] = block

    if workers > 1 and nblocks > 1:
        # Imported here: a process that starts no pool never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        cpus = os.cpu_count() or 1
        try:
            with ProcessPoolExecutor(max_workers=min(workers, nblocks, cpus)) as pool:
                fill(pool.map(_sample_block, *columns))
        except OSError:
            fill(map(_sample_block, *columns))
    else:
        fill(map(_sample_block, *columns))
    return lengths


def lis_prob_mc(
    n: int, k: int, samples: int, seed: int, workers: int = 1
) -> tuple[float, float]:
    """Monte-Carlo estimate of P(LIS >= k) with its binomial standard error."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
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
