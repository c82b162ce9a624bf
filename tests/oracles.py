"""Independent test oracles: brute force, dynamic programming, BFS, vertex
enumeration, Bland's rule by plain scans, and a clique search on Python
sets.

Everything here is deliberately dumb and separate from the library's
algorithms so the two sides can disagree when one is wrong.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from ulamcode.perm import Perm, lis_length
from ulamcode.search import _lex_ranks


def brute_lis(sigma) -> int:
    """LIS by trying every subsequence, longest first (tiny inputs only)."""
    n = len(sigma)
    for length in range(n, 0, -1):
        for picks in combinations(range(n), length):
            vals = [sigma[i] for i in picks]
            if all(a < b for a, b in zip(vals, vals[1:])):
                return length
    return 0


def dp_lcs(a, b) -> int:
    """Textbook O(n^2) longest-common-subsequence table."""
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[n][m]


def move_neighbors(sigma: Perm) -> set[Perm]:
    """All permutations one symbol-move away from sigma."""
    n = len(sigma)
    out: set[Perm] = set()
    for i in range(n):
        rest = list(sigma[:i]) + list(sigma[i + 1 :])
        for j in range(n):
            if j == i:
                continue
            cand = rest[:j] + [sigma[i]] + rest[j:]
            out.add(tuple(cand))
    out.discard(sigma)
    return out


def bfs_distances(source: Perm) -> dict[Perm, int]:
    """Graph distance from source to all of S_n under single symbol moves."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        for nxt in move_neighbors(cur):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def bfs_ball_sizes(n: int) -> dict[int, int]:
    """|B(r)| for all r, straight from BFS around the identity."""
    dist = bfs_distances(identity(n))
    sizes: dict[int, int] = {}
    for r in range(n):
        sizes[r] = sum(1 for v in dist.values() if v <= r)
    return sizes


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def reversal(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def all_perms(n: int) -> list[Perm]:
    return [tuple(p) for p in permutations(range(1, n + 1))]


def compose(sigma: Perm, tau: Perm) -> Perm:
    """Product sigma*tau: the permutation sending i to sigma(tau(i))."""
    return tuple(sigma[t - 1] for t in tau)


def enum_lis_counts(n: int) -> dict[int, int]:
    """LIS-length counts over S_n: the LCS with the identity of every permutation."""
    e = identity(n)
    counts: dict[int, int] = {}
    for sigma in all_perms(n):
        k = dp_lcs(sigma, e)
        counts[k] = counts.get(k, 0) + 1
    return counts


def color_class(sigma: Perm, params) -> Perm:
    """Class pattern of sigma: its symbols <= n-d+1 in order of appearance."""
    return tuple(v for v in sigma if v <= params.n - params.d + 1)


def class_partition(params) -> dict[Perm, list[Perm]]:
    """All of S_n grouped by class pattern; patterns and members in lex order."""
    groups: dict[Perm, list[Perm]] = {}
    for sigma in all_perms(params.n):
        groups.setdefault(color_class(sigma, params), []).append(sigma)
    return dict(sorted(groups.items()))


def rate_function_acosh(c: float) -> float:
    """The acosh form 2c acosh(c/2) - 2 sqrt(c^2 - 4) of the LIS rate function."""
    return 2.0 * c * math.acosh(c / 2.0) - 2.0 * math.sqrt(c * c - 4.0)


def lehmer_far_rows(space, bits) -> list[int]:
    """The far rows of the words at some bits of a search space, by Lehmer
    codes: the space's kept far set (or its complement) relabeled by each
    word with ``take``, lex-ranked by _lex_ranks, and scattered to bits."""
    words = space.words[space.word_row(np.asarray(bits))]
    n, k = space._base.shape
    relabeled = words.take(space._base, axis=1)  # (len(bits), n, k)
    ranks = _lex_ranks(relabeled.transpose(1, 0, 2).reshape(n, -1)).reshape(len(bits), k)
    out = np.zeros((len(bits), space._nbits), dtype=bool)
    np.put_along_axis(out, space._position[ranks], True, axis=1)
    if space._complement:
        np.logical_not(out, out=out)
        out[:, space.width :: space.stride] = False
    packed = np.packbits(out, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def sample_lis_reference(n: int, samples: int, seed: int, block: int) -> list[int]:
    """LIS lengths of one ``rng.permutation(n)`` per sample, ``block`` samples
    per stream, stream b seeded by SeedSequence(seed, spawn_key=(b,))."""
    lengths: list[int] = []
    for b in range(-(-samples // block)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        for _ in range(min(block, samples - b * block)):
            lengths.append(lis_length(rng.permutation(n).tolist()))
    return lengths


def closest_pair(words) -> tuple[int, tuple[Perm, Perm] | None]:
    """(minimum distance, first pair in sorted order at it) over every pair
    of the sorted words, from the dp_lcs table; (n, None) for one word."""
    ws = sorted(words)
    n = len(ws[0])
    best, pair = n, None
    for i, u in enumerate(ws):
        for w in ws[i + 1 :]:
            dist = n - dp_lcs(u, w)
            if dist < best:
                best, pair = dist, (u, w)
    return best, pair


def _solve_square(a, b):
    """The solution of the square system a x = b by Fraction Gaussian
    elimination, or None when a is singular."""
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(a, b)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col] / m[col][col]
                m[i] = [u - f * v for u, v in zip(m[i], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _best_vertex(num_vars, rows, objective):
    """Largest objective value over the vertices of {x >= 0 : rows}, or None
    when there is none: every choice of num_vars constraints (rows and
    x_j >= 0) held with equality, solved, and kept when feasible."""
    dense = [([coeffs.get(j, 0) for j in range(num_vars)], sense, rhs)
             for coeffs, sense, rhs in rows]
    planes = [(a, rhs) for a, _, rhs in dense]
    planes += [([int(j == k) for j in range(num_vars)], 0) for k in range(num_vars)]
    holds = {"<=": lambda u, v: u <= v, ">=": lambda u, v: u >= v, "=": lambda u, v: u == v}
    best = None
    for pick in combinations(planes, num_vars):
        x = _solve_square([a for a, _ in pick], [r for _, r in pick])
        if x is None or min(x) < 0:
            continue
        if all(holds[s](sum(c * v for c, v in zip(a, x)), r) for a, s, r in dense):
            value = sum(Fraction(c) * x[j] for j, c in objective.items())
            best = value if best is None else max(best, value)
    return best


def lp_by_vertices(num_vars, rows, objective):
    """(status, value) of max objective . x over x >= 0 and rows, each row
    (coefficients by variable, "<=" | ">=" | "=", rhs), by enumerating
    vertices.  The feasible set has a vertex whenever it is not empty, and
    the program is unbounded exactly when some ray d >= 0, sum d = 1, of its
    recession cone has objective . d > 0; that set is a polytope too."""
    best = _best_vertex(num_vars, rows, objective)
    if best is None:
        return "infeasible", None
    cone = [(coeffs, sense, 0) for coeffs, sense, _ in rows]
    cone.append(({j: 1 for j in range(num_vars)}, "=", 1))
    ray = _best_vertex(num_vars, cone, objective)
    if ray is not None and ray > 0:
        return "unbounded", None
    return "optimal", best


def rank(rows) -> int:
    """Rank of an integer matrix by exact elimination: each pivot row clears
    its first nonzero column from the rows left, which are then divided by
    the gcd of their entries, so that every entry stays a Python int."""
    rows = [list(row) for row in rows if any(row)]
    count = 0
    while rows:
        pivot = rows.pop()
        col = next(k for k, v in enumerate(pivot) if v)
        count += 1
        left = []
        for row in rows:
            row = [pivot[col] * u - row[col] * v for u, v in zip(row, pivot)]
            if any(row):
                g = math.gcd(*row)
                left.append([u // g for u in row])
        rows = left
    return count


def full_tableau(tab):
    """(ncols, basis, numerators, denominators) of a condensed simplex
    tableau written out in full, as nested Python ints: numerators[i][k] /
    denominators[i] is entry k of row i over every column, the right-hand
    side at k = ncols, the constraint rows and then the objective row.  A
    column in a slot takes that slot's entries; basic column basis[i] is
    denominators[i] in row i and 0 in every other row.  Asserts that the
    slots and the basic columns are every column once."""
    ncols, basis = tab.ncols, list(tab.basis)
    assert sorted(tab.labels + [col for col in basis if col >= 0]) == list(range(ncols))
    numerators, denominators = [], []
    for i, (*slots, rhs, den) in enumerate(tab.mat.tolist()):
        row = [0] * ncols + [rhs]
        for col, v in zip(tab.labels, slots):
            row[col] = v
        if i < len(basis) and basis[i] >= 0:
            row[basis[i]] = den
        numerators.append(row)
        denominators.append(den)
    return ncols, basis, numerators, denominators


def basic_point(tab, num_vars):
    """The first num_vars coordinates of a simplex tableau's basic solution,
    as Fractions, from full_tableau: basic column basis[i] takes row i's
    right-hand side over its denominator, and every other column is 0."""
    ncols, basis, numerators, denominators = full_tableau(tab)
    x = [Fraction(0)] * num_vars
    for i, col in enumerate(basis):
        if 0 <= col < num_vars:
            x[col] = Fraction(numerators[i][ncols], denominators[i])
    return x


def tableau_certificate(num_vars, rows, objective, basis, mat, dens):
    """(status, value) that a simplex tableau proves for max objective . x
    over x >= 0 and rows, each (integer coefficients by variable, "<=" |
    "=", rhs).  Every "<=" row has its own slack column, from num_vars on in
    row order, so the program reads A x = b over ncols columns.  ``mat``
    and ``dens`` are nested Python ints, the constraint rows and then the
    objective row: T[i][k] = mat[i][k] / dens[i], the right-hand side at
    k = ncols.

    Asserts, in exact integers, that B T = [A | b] for B = A[:, basis],
    that T[:, basis] = I, that B is nonsingular and that the objective row
    is c_B T - c.  Then the signs give the status: "optimal", with value
    c_B T[:, ncols], when no right-hand side and no reduced cost is
    negative; "infeasible" when some row has a negative right-hand side
    and no negative entry; else (None, None)."""
    ncols = len(mat[0]) - 1
    m = len(basis)
    assert len(mat) == len(dens) == m + 1 == len(rows) + 1
    assert min(dens) > 0
    a = []
    slacks = iter(range(num_vars, ncols))
    for coeffs, sense, rhs in rows:
        row = [0] * (ncols + 1)
        for j, v in coeffs.items():
            row[j] = v
        if sense == "<=":
            row[next(slacks)] = 1
        else:
            assert sense == "="
        row[ncols] = rhs
        a.append(row)
    assert next(slacks, None) is None  # one slack per "<=" row, and no more
    for i, col in enumerate(basis):
        assert [mat[r][col] for r in range(m)] == [dens[r] * (r == i) for r in range(m)]
    # B T = [A | b], times the lcm of the row denominators.
    lcm = math.lcm(*dens[:m])
    scaled = np.array([[a[i][col] * (lcm // dens[r]) for r, col in enumerate(basis)]
                       for i in range(m)], dtype=object).reshape(m, m)
    product = scaled @ np.array(mat[:m], dtype=object).reshape(m, ncols + 1)
    assert product.tolist() == [[lcm * v for v in row] for row in a]
    assert rank([[row[col] for col in basis] for row in a]) == m
    costs = [Fraction(objective.get(k, 0)) for k in range(ncols)] + [Fraction(0)]
    reduced = [-c for c in costs]
    for r, col in enumerate(basis):
        if costs[col]:
            for k in range(ncols + 1):
                reduced[k] += costs[col] * Fraction(mat[r][k], dens[r])
    assert [Fraction(v, dens[m]) for v in mat[m]] == reduced
    rhs = [row[ncols] for row in mat[:m]]
    if min(rhs, default=0) >= 0 and min(mat[m][:ncols], default=0) >= 0:
        return "optimal", reduced[ncols]
    if any(row[ncols] < 0 and min(row[:ncols], default=0) >= 0 for row in mat[:m]):
        return "infeasible", None
    return None, None


def bland_primal(table, basis):
    """Bland's primal pivot on a tableau of Fractions, by a plain scan.
    ``table`` holds the constraint rows and then the objective row of
    reduced costs, the right-hand side last; ``basis`` names each
    constraint row's basic column.  The smallest column with a negative
    reduced cost enters; of the rows with a positive entry there, the one
    with the smallest ratio rhs / entry leaves, ties to the smallest basic
    index.  (row, column), or "optimal" or "unbounded"."""
    *rows, obj = table
    ncols = len(obj) - 1
    enter = next((j for j in range(ncols) if obj[j] < 0), None)
    if enter is None:
        return "optimal"
    ratios = [(row[ncols] / row[enter], basis[i], i)
              for i, row in enumerate(rows) if row[enter] > 0]
    if not ratios:
        return "unbounded"
    return min(ratios)[2], enter


def bland_dual(table, basis):
    """Bland's dual pivot on a tableau laid out as for bland_primal: of the
    rows with a negative right-hand side, the one with the smallest basic
    index leaves; of its columns with a negative entry, the one with the
    smallest ratio reduced cost / -entry enters, ties to the smallest
    column.  (row, column), or "optimal" or "infeasible"."""
    *rows, obj = table
    ncols = len(obj) - 1
    negative = [i for i, row in enumerate(rows) if row[ncols] < 0]
    if not negative:
        return "optimal"
    leave = min(negative, key=lambda i: basis[i])
    ratios = [(obj[j] / -rows[leave][j], j) for j in range(ncols) if rows[leave][j] < 0]
    if not ratios:
        return "infeasible"
    return leave, min(ratios)[1]


class _Stop(Exception):
    def __init__(self, exhausted: bool):
        self.exhausted = exhausted


class ReferenceCliqueSearch:
    """The clique search's branch-and-bound on word indices and Python sets
    instead of bit fields.

    Words are S_n in lex order, classes come in class_partition order and
    members in lex order.  A level takes the first class with a candidate,
    tries each of its candidates as a child (one node each), then skips the
    class.  A child is kept while len(chosen) + 1 + (classes it still
    reaches) beats floor; a clique larger than floor raises floor to its
    size, and one of size ceiling stops the search.  The budget is asked
    ``clock.exhausted(nodes)`` at every node.  Rows come from
    left-invariance: the far set of sigma is sigma composed with the
    permutations whose LIS is at most n - d; they are kept across runs.
    """

    def __init__(self, params):
        self.words = all_perms(params.n)
        self.index = {w: i for i, w in enumerate(self.words)}
        self.classes = [
            {self.index[w] for w in members} for members in class_partition(params).values()
        ]
        self.far_of_identity = [
            w for w in self.words if lis_length(w) <= params.n - params.d
        ]
        self.rows: dict[int, set[int]] = {}

    def far(self, i: int) -> set[int]:
        if i not in self.rows:
            sigma = self.words[i]
            self.rows[i] = {
                self.index[tuple(sigma[p - 1] for p in pi)] for pi in self.far_of_identity
            }
        return self.rows[i]

    def live(self, rest: set[int]) -> int:
        """The number of classes with a member in rest, one class at a time."""
        return sum(1 for members in self.classes if not rest.isdisjoint(members))

    def run(self, chosen, cand, floor: int, ceiling: int, clock):
        """(sorted best words, nodes, exhausted) of the search for a clique
        larger than floor extending the words chosen, from the words cand."""
        clique = [self.index[w] for w in chosen]
        state = {"nodes": 0, "floor": floor, "best": list(clique)}

        def level(rest):
            while True:
                members = next(m for m in self.classes if not rest.isdisjoint(m))
                others = rest - members
                for j in sorted(rest & members):
                    state["nodes"] += 1
                    if clock.exhausted(state["nodes"]):
                        raise _Stop(True)
                    child = others & self.far(j)
                    reach = self.live(child)
                    if len(clique) + 1 + reach <= state["floor"]:
                        continue
                    clique.append(j)
                    if len(clique) > state["floor"]:
                        state["best"] = list(clique)
                        state["floor"] = len(clique)
                        if state["floor"] >= ceiling:
                            raise _Stop(False)
                    if reach and len(clique) + reach > state["floor"]:
                        level(child)
                    clique.pop()
                rest = others
                left = self.live(rest)
                if not (left and len(clique) + left > state["floor"]):
                    return

        rest = {self.index[w] for w in cand}
        live = self.live(rest)
        exhausted = False
        try:
            if live and len(clique) + live > floor:
                level(rest)
        except _Stop as stop:
            exhausted = stop.exhausted
        return sorted(self.words[i] for i in state["best"]), state["nodes"], exhausted
