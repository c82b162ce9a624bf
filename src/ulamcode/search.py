"""Exact maximum-code search in the Ulam metric.

Vertices are permutations, adjacency means distance >= d, and codes are
cliques.  The search space collapses through color classes: the class of a
permutation is the relative order of the symbols 1..n-d+1 in its one-line
word, any valid code uses each class at most once, and a Singleton-optimal
code uses every class exactly once.  Left-invariance lets the identity be
fixed as the representative of its own class without losing generality.

Both questions asked of a cell, whether a Singleton-optimal code exists
and how large the largest code is, run one branch-and-bound: it looks for
a clique larger than a floor and stops at a ceiling.  The Singleton phase
sets the floor one below the number of classes, so a child survives only
while every class still to fill has a candidate; the maximum phase starts
the floor at the size of its starting clique (the identity).

Candidate sets are bitmasks over S_n laid out class-major: each class owns
a field of M = n!/(n-d+1)! consecutive bits, its members in lex order, and
an always-zero guard bit above them, so a DFS level's whole state is one
int.  Two words of one class are within d-1 of each other, so a far row
never meets its own class: a child, the level's candidates ANDed with a
far row, lies below the level's field, and the number of classes it still
reaches is three bigint operations (add, AND, popcount) on per-field masks
that the search space cuts once.  The DFS keeps each level in flat
per-depth slots and tries a level's members in an inner loop.  The
distance-at-least-d row of sigma is computed on demand, cut below sigma's
field, and memoized, so the pairwise graph is never materialized.  One LIS
sweep over S_n per cell, in blocks, finds the identity's far set; by
left-invariance the row of sigma is that set relabeled by sigma, ranked
back into bit positions by one float32 matrix-vector product.

max_code_search answers a cell, for ``search`` and ``tables`` alike: on one
S_n, the Singleton phase, then, if it finds no code, the maximum phase
under the Singleton bound, or one below it once the Singleton tree is
exhausted; then, if asked for and still needed, the integer-program bound;
and the Singleton-optimality verdict.  A cell starts one clock and every
engine runs on it or a copy: each search phase gets the budget's node cap
(HARD_CELL_NODE_CAP without one), the Singleton phase a deadline half the
time cap earlier, and the integer program IP_NODE_CAP nodes.

Everything returned is certified: codes re-verify by exact pairwise
distance, "proven maximum" means the tree was exhausted or the code meets
a certified upper bound (no entry point takes one from its caller), and
budget exhaustion is always an explicit status.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .ball import EXACT_LIMIT, _kernel_dtype, _lis_lengths_batch, ball_table, sphere_packing_bounds
from .bounds import CodeParams, bound_report, singleton_upper
from .budget import BudgetClock, SearchBudget
from .errors import CapacityError, DistanceViolation
from .ilp import IP_NODE_CAP, solve_ilp
from .perm import (
    Perm,
    check_permutation,
    format_permutation,
    parse_permutation,
    ulam_distance,
)

# Largest n a search accepts, checked before S_n is built: S_9 has 362,880
# words, and one far row of it is at most 45 KB.  far_row's float32 ranks are
# exact while n! <= 2^24; the (n-d+1)! <= (n-1)! classes (d >= 2) fit uint16.
SEARCH_LIMIT = 9
assert math.factorial(SEARCH_LIMIT) < 2**24 and math.factorial(SEARCH_LIMIT - 1) <= 2**16
# Rows per call of the far-set LIS sweep: the kernel's temporaries take
# 17 MB on all of S_9 at once, 0.44 MB on 8,192 rows.
SWEEP_BLOCK = 1 << 13
# Node cap of each phase of a search given no budget.  Only the cells with
# no desk-scale proof (n >= 7 and d <= n - 3) reach it; every other cell
# settles each phase within 2,860 nodes ((8,6) takes 567 in all, (9,7)
# 3,289).  Any budget replaces it: --max-nodes or --max-seconds on the
# command line, SearchBudget() for no cap at all.
HARD_CELL_NODE_CAP = 200_000
# Byte bound on the packed far rows in a search's memo (each cut below its
# word's field, at most n!/8 bytes); a row that would push the memo past it
# empties the memo first.  Rows are pure, so this changes time, never results.
ROW_CACHE_BYTES = 256 << 20

FOUND = "found"
NONE_EXISTS = "none_exists"
BUDGET_EXHAUSTED = "budget_exhausted"
PROVEN_MAXIMUM = "proven_maximum"
LOWER_BOUND_ONLY = "lower_bound_only"


@dataclass(frozen=True)
class Code:
    params: CodeParams
    words: frozenset[Perm]
    min_distance: int


@dataclass(frozen=True)
class SearchResult:
    code: Code
    optimality: str  # "proven_maximum" | "lower_bound_only"
    upper_bound_used: int
    nodes_explored: int
    singleton_optimal: str  # "yes" | "no" | "unknown"


@dataclass
class SingletonSearchResult:
    status: str  # "found" | "none_exists" | "budget_exhausted"
    code: Optional[Code]
    nodes_explored: int


def verify_code(words: Sequence[Perm] | frozenset[Perm], params: CodeParams) -> Code:
    """Check all pairwise distances and return a certified Code.

    Words must be permutations of 1..n (ValueError otherwise).  Raises
    DistanceViolation naming the closest pair, the first in sorted order,
    when some pair sits at distance < d; a repeated word is a pair at
    distance 0.  min_distance is n for codes with <= 1 word.

    The LCS of words u and w is the LIS of w relabeled by u's inverse, so
    each word's distances to the later words are one call of the batched
    patience kernel.  The closest pair's distance is recomputed by
    ulam_distance; a mismatch is an internal error.
    """
    wordlist = sorted(words)
    if not wordlist:
        raise ValueError("a code needs at least one word")
    n = params.n
    for w in wordlist:
        if len(w) != n:
            raise ValueError(f"word {format_permutation(w)} of length {len(w)} in a "
                             f"length-{n} code")
        check_permutation(w)
    dtype = _kernel_dtype(n)
    arr = np.array(wordlist, dtype=dtype) - 1
    min_d = n
    closest: Optional[tuple[Perm, Perm]] = None
    for i in range(len(wordlist) - 1):
        lcs = _lis_lengths_batch(np.argsort(arr[i]).astype(dtype)[arr[i + 1 :]])
        j = int(np.argmax(lcs))
        if n - int(lcs[j]) < min_d:
            min_d = n - int(lcs[j])
            closest = (wordlist[i], wordlist[i + 1 + j])
    if closest is not None and ulam_distance(*closest) != min_d:
        raise AssertionError(
            f"batched distance {min_d} disagrees with ulam_distance at {closest}"
        )
    if min_d < params.d:
        assert closest is not None
        raise DistanceViolation(closest[0], closest[1], min_d, params.d)
    return Code(params=params, words=frozenset(wordlist), min_distance=min_d)


def _lex_ranks(words: np.ndarray) -> np.ndarray:
    """Lex rank of each column of words among the permutations of its
    entries; words is a (k, count) array, one word per column.

    From the Lehmer code: the sum of c_i (k-1-i)!, where c_i counts the
    later entries smaller than entry i, summed by Horner's rule.  Each
    count runs down a column, over the k rows of one contiguous array.
    """
    k = words.shape[0]
    ranks = np.zeros(words.shape[1], dtype=np.int64)
    for i in range(k - 1):
        ranks *= k - i
        ranks += (words[i + 1 :] < words[i]).sum(axis=0, dtype=np.int8)
    return ranks


# Cuts per _field_masks call.  Its two lists hold about FIELD_CUTS / 2
# masks of up to n! + (n-d+1)! bits each, about 3 MB in all at n = 9.
FIELD_CUTS = 64


def _field_masks(width: int, count: int) -> tuple[int, list[int], list[int]]:
    """(span, lows, guards): per-field masks over count fields of width
    bits and a guard bit each, cut at every span bits.

    Field c holds bits [c (width+1), c (width+1) + width) and its guard bit
    c (width+1) + width.  lows[j] holds the width low bits and guards[j] the
    guard bit of each field below bit j*span, with j from 0 up to the cut
    that covers every field; at most FIELD_CUTS + 1 cuts.  For x < 2^(j*span)
    with every guard bit clear, the number of non-empty fields of x is
    ((x + lows[j]) & guards[j]).bit_count(): a field plus its low bits stays
    below 2^(width+1), so no carry leaves the field, and reaches the guard
    bit iff the field had a bit set.  Masks cut just above x cost as much as
    x, not n!.
    """
    stride = width + 1
    ones = int(("0" * width + "1") * count, 2)
    low, guard = ones * ((1 << width) - 1), ones << width
    span = stride * -(-count // FIELD_CUTS)
    ends = [min(j * span, stride * count) for j in range(-(-count * stride // span) + 1)]
    cuts = [(1 << e) - 1 for e in ends]
    return span, [low & cut for cut in cuts], [guard & cut for cut in cuts]


def _rank_weights(words: np.ndarray) -> np.ndarray:
    """(count, k^2) float32 weights whose product with (w[:, None] < w),
    flattened, for a word w of 0..k-1 is _lex_ranks(w.take(words)): the lex
    rank of each column of the (k, count) words relabeled by w.

    The Lehmer term (k-1-i)! of entry i of a column counts once for each
    later entry a that w maps below the entry b at i: it sits at a k + b.
    Every partial sum is an integer below k! <= 2^24, exact in float32.
    """
    k, count = words.shape
    words = words.astype(np.intp)
    weights = np.zeros((count, k * k), dtype=np.float32)
    columns = np.arange(count)
    for i in range(k - 1):
        weights[columns, words[i + 1 :] * k + words[i]] = math.factorial(k - 1 - i)
    return weights


def _lex_permutations(n: int) -> np.ndarray:
    """S_n as an (n!, n) int8 array of 0-based words in lex order.

    The block of S_k with first symbol f is S_(k-1) relabeled by
    p -> p + (p >= f), an order-preserving map onto the other symbols.
    """
    perms = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        rows = len(perms)
        out = np.empty((k * rows, k), dtype=np.int8)
        for f in range(k):
            block = out[f * rows : (f + 1) * rows]
            block[:, 0] = f
            block[:, 1:] = perms + (perms >= f)
        perms = out
    return perms


class _SearchSpace:
    """S_n laid out class-major, with memoized distance->=d bit rows.

    With S classes of M = n!/(n-d+1)! words each, the class whose pattern
    has lex rank c owns field f = S-1-c: bits [f (M+1), f (M+1) + M) and an
    always-zero guard bit above them, so the next class in lex order is the
    highest non-empty field; its members keep lex order from the field's
    low bit up.  ``words``, the only copy of S_n, is one (n!, n) int8 array
    of 0-based words in field order, row f M + j the word at bit
    f (M+1) + j; ``word_row`` maps bits back to rows.  The identity is
    member 0 of its own class, at bit ``identity``.

    Rows come from left-invariance, d(sigma, sigma*pi) = d(e, pi): one LIS
    sweep over S_n, in blocks, finds the far set F = {pi : LIS(pi) <= n - d},
    and the row of sigma is F relabeled by sigma.  Only the smaller of F and
    its complement is kept, as an (n, k) array with one word per column.
    Construction turns it into (k, n^2) float32 rank weights, so a row is
    the n^2 compares of sigma's symbols with each other, one matrix-vector
    product for the k lex ranks, and a scatter of k bits.  A row never
    meets its own class: two words of one class share the order of symbols
    1..n-d+1, so they are within d-1 of each other.  A level on field f
    reads its members' rows below f only, so ``rows`` memoizes rows cut
    there, one slot per bit.  ``field_lows`` and ``field_guards`` are the
    clique search's per-field masks (_field_masks): entry f is cut at field
    f's first bit, and the last entry covers every field.
    """

    def __init__(self, params: CodeParams):
        if params.d < 2:
            raise ValueError("search needs d >= 2; A(n, 1) = n! holds trivially")
        if params.n > SEARCH_LIMIT:
            raise CapacityError(
                f"search over S_{params.n} exceeds the limit {SEARCH_LIMIT}"
            )
        self.params = params
        n, m = params.n, params.n - params.d + 1
        size = math.factorial(n)
        lex = _lex_permutations(n)
        self.classes = math.factorial(m)
        self.width = size // self.classes
        self.stride = self.width + 1
        # A word's class is the lex rank of its symbols < m in order; a
        # stable sort (a radix sort) of the uint16 key classes - 1 - class
        # keeps each class's members in lex order.
        key = _lex_ranks(np.ascontiguousarray(lex[lex < m].reshape(size, m).T))
        key = (self.classes - 1 - key).astype(np.uint16)
        order = np.argsort(key, kind="stable")
        self.words = lex[order]
        del lex, key
        # lex rank -> bit; int32 holds the bits of S_n up to n = 12.
        row_ids = np.arange(size, dtype=np.int32)
        self._position = np.empty(size, dtype=np.int32)
        self._position[order] = row_ids + row_ids // self.width
        self.identity = int(self._position[0])
        del order, row_ids
        far = np.concatenate([_lis_lengths_batch(self.words[i : i + SWEEP_BLOCK]) <= n - params.d
                              for i in range(0, size, SWEEP_BLOCK)])
        self._complement = 2 * int(np.count_nonzero(far)) > size
        kept = ~far if self._complement else far
        self._base = np.ascontiguousarray(self.words[kept].T)
        self._weights = _rank_weights(self._base)
        self._nbits = self.classes * self.stride
        self.rows: list[Optional[int]] = [None] * self._nbits
        self._cached = 0  # bytes of the rows in the memo
        span, lows, guards = _field_masks(self.width, self.classes)
        cuts = [-(-f * self.stride // span) for f in range(self.classes + 1)]
        self.field_lows, self.field_guards = [lows[c] for c in cuts], [guards[c] for c in cuts]

    def word_row(self, bit):
        """Row of ``words`` at a bit (an int or an array of them)."""
        return bit - bit // self.stride

    def far_row(self, bit: int) -> int:
        """Bitmask of the words at distance >= d from the word at bit, below its field."""
        rows = self.rows
        row = rows[bit]
        if row is None:
            w = self.words[self.word_row(bit)]
            ranks = self._weights @ (w[:, None] < w).ravel().astype(np.float32)
            bits = np.zeros(self._nbits, dtype=bool)
            bits[self._position[ranks.astype(np.intp)]] = True
            bits = bits[: bit - bit % self.stride]
            if self._complement:
                np.logical_not(bits, out=bits)
                bits[self.width :: self.stride] = False
            packed = np.packbits(bits, bitorder="little")
            row = int.from_bytes(packed.tobytes(), "little")
            if self._cached + packed.nbytes > ROW_CACHE_BYTES:
                rows[:] = [None] * self._nbits
                self._cached = 0
            rows[bit] = row
            self._cached += packed.nbytes
        return row


def _clique_search(
    space: _SearchSpace,
    clock: BudgetClock,
    chosen: list[int],
    cand: int,
    floor: int,
    ceiling: int,
) -> tuple[list[int], int, bool]:
    """Branch-and-bound for a clique larger than ``floor`` extending chosen.

    chosen and cand are bits of space.  Classes are filled in the space's
    order, each from the candidates in cand: a level tries each member of
    its class, then skips the class.  A child is kept only while
    len(chosen) + 1 + (classes it still reaches) beats floor; each clique
    found raises floor to its size, and one of size ``ceiling`` stops the
    search.  Returns (best, nodes, exhausted): the bits of the largest
    clique found (chosen itself if none beat floor), the nodes tried, and
    whether the budget ran out.
    """
    stride, far_row, rows = space.stride, space.far_row, space.rows
    # A level on field f counts its children on the masks cut at f's first bit.
    field_lows, field_guards = space.field_lows, space.field_guards
    cap = sys.maxsize if clock.max_nodes is None else clock.max_nodes
    timed = clock.deadline is not None
    exhausted = clock.exhausted
    best = list(chosen)
    # Level t fills the top class of rest, the candidates it was opened on,
    # from bit base: todo holds the members left (as rest >> base) and live
    # the classes rest reaches.  The current level lives in locals; while a
    # deeper level runs, levels[t] holds (rest, base, todo, live, low, guard)
    # and picks[t] the member whose child opened level t + 1.
    levels, picks = [None] * space.classes, [0] * space.classes
    size = len(chosen)  # the clique a child of the current level extends
    rest, nodes, t = cand, 0, 0
    live = ((rest + field_lows[-1]) & field_guards[-1]).bit_count()
    if not (live and size + live > floor):
        return best, nodes, False
    while True:
        # Open a level on rest's top class.  A row never meets its own
        # class, so every child lies below base and is counted on masks
        # cut there.
        f = (rest.bit_length() - 1) // stride
        base = f * stride
        todo = rest >> base
        low, guard = field_lows[f], field_guards[f]
        while True:
            while todo:
                bit = todo & -todo
                todo ^= bit
                nodes += 1
                if nodes >= cap or timed and exhausted():
                    return best, nodes, True
                b = base + bit.bit_length() - 1
                row = rows[b]
                child = rest & (far_row(b) if row is None else row)
                reach = ((child + low) & guard).bit_count()
                if size + 1 + reach <= floor:
                    continue
                picks[t] = b
                if size + 1 > floor:
                    best = chosen + picks[: t + 1]
                    floor = len(best)
                    if floor >= ceiling:
                        return best, nodes, False
                # The child beat floor, or raised it to size + 1: it can
                # still grow iff it reaches a class.
                if reach:
                    levels[t] = rest, base, todo, live, low, guard
                    t, size, rest, live = t + 1, size + 1, child, reach
                    break
            else:
                # The class is done: close the level and resume its
                # parent's members if the classes left cannot beat floor,
                # else skip the class on the same level.
                live -= 1
                if not (live and size + live > floor):
                    if not t:
                        return best, nodes, False
                    t -= 1
                    size -= 1
                    rest, base, todo, live, low, guard = levels[t]
                    continue
                rest &= (1 << base) - 1
            break


def _start_clock(budget: Optional[SearchBudget]) -> BudgetClock:
    """A cell's clock; without a budget, HARD_CELL_NODE_CAP nodes per phase."""
    return (budget or SearchBudget(max_nodes=HARD_CELL_NODE_CAP)).start()


def _search_from_identity(
    space: _SearchSpace, clock: BudgetClock, floor: int, ceiling: int
) -> tuple[Code, int, bool]:
    """(verified best code, nodes, exhausted) of _clique_search from the
    identity; the node count, and so the node cap, is this phase's alone.
    """
    best, nodes, exhausted = _clique_search(
        space, clock, [space.identity], space.far_row(space.identity),
        floor, ceiling,
    )
    rows = space.word_row(np.array(best))
    words = [tuple(w) for w in (space.words[rows] + 1).tolist()]
    return verify_code(words, space.params), nodes, exhausted


def _singleton_phase(space: _SearchSpace, clock: BudgetClock) -> SingletonSearchResult:
    # With floor one below the class count, a child is kept only while
    # every class still to fill has a candidate.
    singleton = singleton_upper(space.params)
    code, nodes, exhausted = _search_from_identity(
        space, clock, singleton - 1, singleton
    )
    if exhausted or len(code.words) < singleton:
        status = BUDGET_EXHAUSTED if exhausted else NONE_EXISTS
        return SingletonSearchResult(status, None, nodes)
    return SingletonSearchResult(FOUND, code, nodes)


def find_singleton_optimal(
    params: CodeParams,
    budget: Optional[SearchBudget] = None,
) -> SingletonSearchResult:
    """Search for a code meeting the Singleton bound: one word per class.

    Exhausting the tree proves non-existence; running out of budget is the
    distinct status "budget_exhausted".  Without an explicit budget, the
    search gets HARD_CELL_NODE_CAP nodes.
    """
    return _singleton_phase(_SearchSpace(params), _start_clock(budget))


def max_code_search(
    params: CodeParams,
    budget: Optional[SearchBudget] = None,
    with_ip: bool = False,
) -> SearchResult:
    """Best code of a cell, by branch-and-bound over classes (at most one
    word each) on one S_n, and its Singleton-optimality verdict.

    The Singleton phase runs first; a code it finds is a proven maximum.
    Otherwise the maximum phase runs under a certified ceiling: the
    Singleton bound, or one below it once the Singleton tree is exhausted.
    With ``with_ip``, a code that phase leaves below the ceiling when its
    budget runs out gets the integer-program bound, which becomes the
    ceiling if lower; a bound below the verified code's size is an
    AssertionError.  Optimality is "proven_maximum" when the tree is
    exhausted or the code meets the ceiling, else "lower_bound_only".  The
    verdict is "yes" for a code of Singleton size, "no" for a proven
    maximum or a ceiling below the Singleton bound, else "unknown".

    Once S_n is built, the cell starts one clock.  The Singleton phase runs
    on a copy with a deadline half of ``budget.max_seconds`` earlier, so a
    hard cell's maximum phase, on the clock itself, gets at least the other
    half; the program runs on a copy with IP_NODE_CAP nodes, or not at all
    once the deadline has passed.  ``budget.max_nodes`` (HARD_CELL_NODE_CAP
    without a budget) caps each search phase; ``nodes_explored`` counts both.
    """
    space = _SearchSpace(params)
    singleton = singleton_upper(params)
    clock = _start_clock(budget)
    cap = budget and budget.max_seconds
    half = replace(clock, deadline=clock.deadline - cap / 2) if cap else clock
    first = _singleton_phase(space, half)
    nodes = first.nodes_explored
    if first.status == FOUND:
        code, exhausted, ceiling = first.code, False, singleton
    else:
        ceiling = singleton - 1 if first.status == NONE_EXISTS else singleton
        code, phase_nodes, exhausted = _search_from_identity(space, clock, 1, ceiling)
        nodes += phase_nodes
    size = len(code.words)
    if with_ip and exhausted and size < ceiling and not clock.exhausted():
        ip = solve_ilp(params, replace(clock, max_nodes=IP_NODE_CAP)).objective_value
        if ip < size:
            raise AssertionError(
                f"integer-program bound {ip} is below the verified code's size {size}"
            )
        ceiling = min(ceiling, ip)
    proven = not exhausted or size == ceiling
    if size == singleton:
        verdict = "yes"
    else:
        verdict = "no" if proven or ceiling < singleton else "unknown"
    optimality = PROVEN_MAXIMUM if proven else LOWER_BOUND_ONLY
    return SearchResult(code, optimality, ceiling, nodes, verdict)


def write_code_file(code: Code, path: str | Path) -> None:
    """Write the canonical code file: "n d" then one word per line."""
    lines = [f"{code.params.n} {code.params.d}"]
    lines += [format_permutation(w) for w in sorted(code.words)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_code_file(path: str | Path) -> tuple[CodeParams, list[Perm]]:
    """Read the code file format; verification is the caller's job.  A bad
    line or an (n, d) out of range is named as path:line, blank lines counted."""
    lines = [(i, ln) for i, ln in enumerate(Path(path).read_text().splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError(f"empty code file {path}")
    head = f"{path}:{lines[0][0]}"
    try:
        n, d = map(int, lines[0][1].split())
    except ValueError:
        raise ValueError(f'{head}: first line must be "n d"') from None
    try:
        params = CodeParams(n, d)
    except ValueError as exc:
        raise ValueError(f"{head}: {exc}") from None
    words = []
    for i, ln in lines[1:]:
        try:
            words.append(parse_permutation(ln))
        except ValueError as exc:
            raise ValueError(f"{path}:{i}: {exc}") from None
    return params, words


@dataclass
class TableCell:
    """One (n, d) entry of the size / Singleton-optimality tables."""

    n: int
    d: int
    lower: int
    upper: int
    status: str  # "proven" | "bounded" | "skipped"
    singleton_optimal: str  # "yes" | "no" | "unknown"
    method: str  # "construction" | "search" | "bounds"
    nodes: int = 0


def reproduce_tables(
    n_values: Sequence[int],
    d_values: Optional[Sequence[int]] = None,
    cell_budget: Optional[SearchBudget] = None,
    with_ip: bool = False,
) -> list[TableCell]:
    """Computed A(n, d) values (or bounds) and Singleton-optimality verdicts.

    The cells are the pairs with 2 <= d <= n-1, d from ``d_values`` or
    every such d; a value of either list that selects no cell is a
    ValueError.  d = 2 cells come from the known construction (size
    (n-1)!, always Singleton-optimal), cells past SEARCH_LIMIT report their
    bounds as "skipped", and every other cell is max_code_search's answer
    under ``cell_budget``, which replaces the default node cap
    (SearchBudget() runs uncapped).  Cells whose budget runs out are
    explicitly "bounded", never silently wrong.
    ``with_ip`` and ``cell_budget`` reach searched cells only, so setting
    either when no requested cell is searched is a ValueError.
    """
    ns = sorted(set(n_values))
    ds = sorted(set(d_values)) if d_values is not None else range(2, max(ns, default=0))
    pairs = [(n, d) for n in ns for d in ds if 2 <= d <= n - 1]
    for name, values, k in (("n", ns, 0), ("d", ds, 1)):
        for value in values:
            if all(pair[k] != value for pair in pairs):
                raise ValueError(f"{name} = {value} selects no cell with 2 <= d <= n-1")
    if (with_ip or cell_budget is not None) and all(d == 2 or n > SEARCH_LIMIT for n, d in pairs):
        raise ValueError(
            f"no requested cell is searched (d = 2 is a construction, n > {SEARCH_LIMIT} is "
            "skipped), so with_ip and cell_budget (--with-ip, --max-nodes, --max-seconds) "
            "would be dropped"
        )
    cells: list[TableCell] = []
    ball_tables = functools.cache(ball_table)  # one LIS distribution per n
    for n, d in pairs:
        params = CodeParams(n, d)
        if d == 2:
            size = math.factorial(n - 1)
            cells.append(
                TableCell(n=n, d=d, lower=size, upper=size, status="proven",
                          singleton_optimal="yes", method="construction")
            )
        elif n > SEARCH_LIMIT:
            sphere = sphere_packing_bounds(ball_tables(n), d) if n <= EXACT_LIMIT else None
            report = bound_report(params, sphere)
            cells.append(
                TableCell(n=n, d=d, lower=report.best_lower,
                          upper=report.best_upper, status="skipped",
                          singleton_optimal="unknown", method="bounds")
            )
        else:
            res = max_code_search(params, cell_budget, with_ip)
            size = len(res.code.words)
            proven = res.optimality == PROVEN_MAXIMUM
            cells.append(
                TableCell(n=n, d=d, lower=size,
                          upper=size if proven else res.upper_bound_used,
                          status="proven" if proven else "bounded",
                          singleton_optimal=res.singleton_optimal,
                          method="search", nodes=res.nodes_explored)
            )
    return cells
