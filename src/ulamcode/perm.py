"""Permutation arithmetic, translocations, LIS/LCS, and the Ulam distance.

Permutations live in one-line notation as tuples of 1-based symbols:
``(s1, ..., sn)`` means the map sending position ``i`` to symbol ``si``.
All operations are pure functions on these tuples; nothing here holds
mutable state, so everything is safe to call from multiple threads.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def identity(n: int) -> Perm:
    """The identity permutation of length n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(range(1, n + 1))


def reversal(n: int) -> Perm:
    """The order-reversing permutation [n, n-1, ..., 1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(range(n, 0, -1))


def compose(sigma: Perm, tau: Perm) -> Perm:
    """Product sigma*tau: the permutation sending i to sigma(tau(i))."""
    if len(sigma) != len(tau):
        raise ValueError(
            f"cannot compose permutations of lengths {len(sigma)} and {len(tau)}"
        )
    return tuple(sigma[t - 1] for t in tau)


def inverse(sigma: Perm) -> Perm:
    """The inverse permutation: inverse(sigma)[v-1] is the position of v."""
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v - 1] = i + 1
    return tuple(inv)


@dataclass(frozen=True)
class Translocation:
    """Move one symbol of a one-line word to a new position.

    ``kind`` is "right" or "left" with indices 1 <= i < j <= n.  A right
    translocation picks up the symbol at position i and re-inserts it so it
    lands at position j; a left translocation picks up the symbol at
    position j and re-inserts it at position i.  Adjacent moves (j = i + 1)
    coincide for both kinds.
    """

    kind: str
    i: int
    j: int

    def __post_init__(self):
        if self.kind not in ("right", "left"):
            raise ValueError(f"kind must be 'right' or 'left', got {self.kind!r}")
        if not 1 <= self.i < self.j:
            raise ValueError(f"need 1 <= i < j, got i={self.i}, j={self.j}")

    def inverse(self) -> "Translocation":
        other = "left" if self.kind == "right" else "right"
        return Translocation(other, self.i, self.j)

    def one_line(self, n: int) -> Perm:
        """Materialize this move as a length-n permutation.

        Composing on the right (``compose(sigma, t.one_line(n))``) performs
        the move on sigma's one-line word.
        """
        return apply_translocation(identity(n), self)


def apply_translocation(sigma: Perm, t: Translocation) -> Perm:
    """Apply one translocation to sigma (equals compose(sigma, t.one_line(n)))."""
    n = len(sigma)
    if t.j > n:
        raise ValueError(f"translocation index j={t.j} out of range for n={n}")
    word = list(sigma)
    if t.kind == "right":
        sym = word.pop(t.i - 1)
        word.insert(t.j - 1, sym)
    else:
        sym = word.pop(t.j - 1)
        word.insert(t.i - 1, sym)
    return tuple(word)


def all_translocations(n: int) -> list[Translocation]:
    """Every distinct single move on words of length n.

    Right moves with i < j plus left moves with i < j - 1 (adjacent left
    moves duplicate adjacent right moves), giving (n-1)^2 generators.
    """
    ts = [Translocation("right", i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    ts += [Translocation("left", i, j) for i in range(1, n) for j in range(i + 2, n + 1)]
    return ts


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


def random_permutation(n: int, seed: int) -> Perm:
    """Uniform random permutation of 1..n, deterministic in the seed.

    Fisher-Yates shuffle driven by random.Random(seed).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    word = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        k = rng.randrange(i + 1)
        word[i], word[k] = word[k], word[i]
    return tuple(word)


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


def iter_symmetric_group(n: int) -> Iterable[Perm]:
    """Yield all of S_n in lexicographic order, one tuple at a time."""
    return itertools.permutations(range(1, n + 1))
