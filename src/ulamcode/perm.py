"""Permutations in one-line notation: parsing, LIS/LCS, and the Ulam distance.

Permutations live in one-line notation as tuples of 1-based symbols:
``(s1, ..., sn)`` means the map sending position ``i`` to symbol ``si``.
All operations are pure functions on these tuples; nothing here holds
mutable state, so everything is safe to call from multiple threads.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

Perm = tuple[int, ...]


def check_permutation(entries: Sequence[int]) -> Perm:
    """Validate one-line notation and return it as a tuple.

    Raises ValueError naming the offending value when ``entries`` is not a
    bijection on 1..n.
    """
    n = len(entries)
    if n < 1:
        raise ValueError("permutation must have length >= 1")
    seen = [False] * (n + 1)
    for x in entries:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"permutation entries must be integers, got {x!r}")
        if not 1 <= x <= n:
            raise ValueError(f"symbol {x} out of range 1..{n}")
        if seen[x]:
            raise ValueError(f"symbol {x} appears more than once")
        seen[x] = True
    return tuple(entries)


def lis_length(sigma: Sequence[int]) -> int:
    """Length of a longest strictly increasing subsequence (patience piles).

    O(n log n): keep the smallest possible tail of an increasing subsequence
    of each length and binary-search the pile for every symbol.
    """
    tails: list[int] = []
    for x in sigma:
        k = bisect_left(tails, x)
        if k == len(tails):
            tails.append(x)
        else:
            tails[k] = x
    return len(tails)


def lcs_length(sigma: Perm, tau: Perm) -> int:
    """Length of a longest common subsequence of two same-length permutations.

    Reduces to an LIS: read sigma's symbols through tau's position table,
    i.e. lcs(sigma, tau) = lis(inverse(tau) * sigma).
    """
    if len(sigma) != len(tau):
        raise ValueError(
            f"cannot compare permutations of lengths {len(sigma)} and {len(tau)}"
        )
    pos = [0] * (len(tau) + 1)
    for i, v in enumerate(tau):
        pos[v] = i + 1
    return lis_length([pos[v] for v in sigma])


def ulam_distance(sigma: Perm, tau: Perm) -> int:
    """Ulam distance: minimum number of translocations from sigma to tau.

    Equals n minus the length of a longest common subsequence.
    """
    return len(sigma) - lcs_length(sigma, tau)


def parse_permutation(text: str) -> Perm:
    """Parse "2 3 1 5 4" (space-separated 1-based symbols on one line)."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty permutation")
    entries = []
    for col, tok in enumerate(tokens, start=1):
        try:
            entries.append(int(tok))
        except ValueError:
            raise ValueError(f"token {tok!r} at column {col} is not an integer") from None
    return check_permutation(entries)


def format_permutation(sigma: Perm) -> str:
    """Inverse of parse_permutation."""
    return " ".join(str(v) for v in sigma)

