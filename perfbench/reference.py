"""Reference values the benchmark checks the program's outputs against.

Nothing here imports ulamcode.  The LIS-length distribution comes from
Schensted's correspondence with the hook-length formula (Frame, Robinson
and Thrall), an algorithm unrelated to the program's enumeration:

    #{sigma in S_n : LIS(sigma) = k} = sum over partitions lambda of n
                                       with first part k of (f^lambda)^2.
"""

from __future__ import annotations

import math
from functools import lru_cache

# A(n, d) for every cell the program proves by default, with the verdict on
# whether a Singleton-optimal code exists.
KNOWN_CELLS = {
    (4, 2): (6, "yes"), (4, 3): (2, "yes"),
    (5, 2): (24, "yes"), (5, 3): (4, "no"), (5, 4): (2, "yes"),
    (6, 2): (120, "yes"), (6, 3): (24, "yes"), (6, 4): (4, "no"), (6, 5): (2, "yes"),
    (7, 2): (720, "yes"), (7, 5): (4, "no"), (7, 6): (2, "yes"),
    (8, 6): (4, "no"), (8, 7): (2, "yes"),
}
# Code sizes the program's bounded search has already found on the cells it
# cannot settle; any valid upper bound is at least these.
FOUND_SIZES = {(7, 3): 56, (7, 4): 12}


def best_known_size(n: int, d: int) -> int:
    """Largest code size known at (n, d): exact where proven, else found."""
    if (n, d) in KNOWN_CELLS:
        return KNOWN_CELLS[(n, d)][0]
    return FOUND_SIZES[(n, d)]


def singleton(n: int, d: int) -> int:
    return math.factorial(n - d + 1)


def gv(n: int, d: int) -> int:
    return -(-math.factorial(n - d + 1) // math.comb(n, d - 1))


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _standard_tableaux(shape: tuple[int, ...]) -> int:
    """f^lambda by the hook-length formula."""
    conjugate = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (conjugate[j] - i - 1) + 1
    return math.factorial(sum(shape)) // hooks


@lru_cache(maxsize=None)
def lis_counts(n: int) -> dict[int, int]:
    """Number of permutations of [n] with each LIS length k (k = 1..n)."""
    counts = {k: 0 for k in range(1, n + 1)}
    for shape in _partitions(n, n):
        counts[shape[0]] += _standard_tableaux(shape) ** 2
    return counts


def ball_sizes(n: int) -> dict[int, int]:
    """|B(r)| = #{sigma : LIS(sigma) >= n - r} for r = 0..n-1."""
    counts = lis_counts(n)
    return {r: sum(counts[k] for k in range(n - r, n + 1)) for r in range(n)}


def sphere_bounds(n: int, d: int) -> tuple[int, int]:
    """(covering lower, packing upper) sphere bounds on A(n, d)."""
    sizes = ball_sizes(n)
    nfact = math.factorial(n)
    return -(-nfact // sizes[d - 1]), nfact // sizes[(d - 1) // 2]


def prob_lis_at_least(n: int, k: int) -> float:
    counts = lis_counts(n)
    return sum(counts[j] for j in range(k, n + 1)) / math.factorial(n)


def mean_lis_estimate(n: int) -> float:
    """Leading terms of E[LIS] for a uniform permutation (Baik-Deift-Johansson)."""
    return 2.0 * math.sqrt(n) - 1.7711 * n ** (1.0 / 6.0)
