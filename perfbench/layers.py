"""Per-layer metrics from the spans of one traced pass.

Self time is a span's duration minus the durations of its child spans
(calls are nested and single-threaded, so children never overlap).  Sums
of durations count only the outermost of nested spans of one function.
A metric that reads a binding the tracer could not wrap is left out.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# name -> (unit, better, bindings the metric reads)
SEARCH_SPANS = ("search:find_singleton_optimal", "search:max_code_search")
SEARCH_CHILDREN = ("search:_lis_lengths_batch", "search:ulam_distance",
                   "search:sphere_packing_bounds")
KERNEL = ("search:_lis_lengths_batch", "ball:_lis_lengths_batch")
PER_LAYER = {
    "search.singleton_nodes": ("count", "lower", ("search:find_singleton_optimal",)),
    "search.max_nodes": ("count", "lower", ("search:max_code_search",)),
    "search.singleton_s": ("s", "lower", ("search:find_singleton_optimal",)),
    "search.max_s": ("s", "lower", ("search:max_code_search",)),
    "search.nodes_per_s": ("1/s", "higher", SEARCH_SPANS),
    "search.self_s": ("s", "lower", SEARCH_SPANS + SEARCH_CHILDREN),
    "search.rows": ("count", "lower", ("search:_lis_lengths_batch",)),
    "search.row_ms.n7": ("ms", "lower", ("search:_lis_lengths_batch",)),
    "search.row_ms.n8": ("ms", "lower", ("search:_lis_lengths_batch",)),
    "search.rows_per_knode": ("count", "lower", SEARCH_SPANS + ("search:_lis_lengths_batch",)),
    "search.singleton_nodes.7_3": ("count", "lower", ("search:find_singleton_optimal",)),
    "search.singleton_nodes.7_4": ("count", "lower", ("search:find_singleton_optimal",)),
    "search.nodes.8_6": ("count", "lower", SEARCH_SPANS),
    "ball.kernel_s": ("s", "lower", KERNEL),
    "ball.kernel_perms": ("count", "lower", KERNEL),
    "ball.kernel_cmps_per_s": ("1/s", "higher", KERNEL),
    "ball.kernel_share": ("ratio", "lower", KERNEL),
    "ball.exact_s": ("s", "lower", ("ball:lis_distribution_exact",)),
    "ball.exact_calls": ("count", "lower", ("ball:lis_distribution_exact",)),
    "ball.exact_share": ("ratio", "lower", ("ball:lis_distribution_exact",)),
    "ball.sphere_s": ("s", "lower", ("search:sphere_packing_bounds",)),
    "ball.mc_samples_per_s.n12": ("1/s", "higher", ("ball:sample_lis_lengths",)),
    "ball.mc_samples_per_s.n100": ("1/s", "higher", ("ball:sample_lis_lengths",)),
    "ball.mc_samples_per_s.n1000": ("1/s", "higher", ("ball:sample_lis_lengths",)),
    "ilp.build_s": ("s", "lower", ()),
    "ilp.solve_s": ("s", "lower", ()),
    "ilp.self_s": ("s", "lower", ("ilp:solve_lp",)),
    "ilp.nodes": ("count", "lower", ()),
    "ilp.nodes.5_3": ("count", "lower", ()),
    "ilp.lp_calls": ("count", "lower", ("ilp:solve_lp",)),
    "ilp.lp_calls.5_3": ("count", "lower", ("ilp:solve_lp",)),
    "ilp.tightened_ratio": ("ratio", "higher", ()),
    "simplex.lp_s": ("s", "lower", ("ilp:solve_lp",)),
    "simplex.lp_ms_p50": ("ms", "lower", ("ilp:solve_lp",)),
    "simplex.lp_ms_p90": ("ms", "lower", ("ilp:solve_lp",)),
    "simplex.rows_p50": ("count", "lower", ("ilp:solve_lp",)),
    "perm.distance_calls": ("count", "lower", ("search:ulam_distance",)),
    "perm.distance_s": ("s", "lower", ("search:ulam_distance",)),
    "cli.self_s": ("s", "lower", ("cli:main",)),
    "trace.wall_s": ("s", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
}


class _Spans:
    def __init__(self, spans: list[list]):
        self.by_id = {s[0]: s for s in spans}
        self.spans = spans
        self.child_s: dict[int, float] = defaultdict(float)
        for s in spans:
            if s[1] is not None:
                self.child_s[s[1]] += s[6] - s[5]

    def named(self, *names: str) -> list[list]:
        return [s for s in self.spans if s[3].rpartition(":")[2] in names
                or s[3] in names]

    def total_s(self, *names: str) -> float:
        """Summed duration of the outermost spans of these names."""
        chosen = self.named(*names)
        ids = {s[0] for s in chosen}
        total = 0.0
        for s in chosen:
            parent = s[1]
            while parent is not None and parent not in ids:
                parent = self.by_id[parent][1]
            if parent is None:
                total += s[6] - s[5]
        return total

    def self_s(self, layer: str) -> float:
        return sum(s[6] - s[5] - self.child_s[s[0]] for s in self.spans if s[4] == layer)

    def enclosing(self, span: list, name: str) -> list | None:
        parent = span[1]
        while parent is not None:
            p = self.by_id[parent]
            if p[3].rpartition(":")[2] == name:
                return p
            parent = p[1]
        return None


def _attr_sum(spans: list[list], key: str, where=lambda a: True) -> int:
    return sum(s[7][key] for s in spans if s[7] is not None and where(s[7]))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], missing: list[str], wall_s: float) -> dict[str, float]:
    """Every PER_LAYER metric except the trace.* ones, from one traced pass
    whose operations took ``wall_s`` in total."""
    t = _Spans(spans)
    m: dict[str, float] = {}

    singleton, maximum = t.named("search:find_singleton_optimal"), t.named("search:max_code_search")
    m["search.singleton_nodes"] = _attr_sum(singleton, "nodes")
    m["search.max_nodes"] = _attr_sum(maximum, "nodes")
    m["search.singleton_s"] = t.total_s("search:find_singleton_optimal")
    m["search.max_s"] = t.total_s("search:max_code_search")
    nodes = m["search.singleton_nodes"] + m["search.max_nodes"]
    m["search.nodes_per_s"] = _ratio(nodes, m["search.singleton_s"] + m["search.max_s"])
    m["search.self_s"] = t.self_s("search")
    rows = t.named("search:_lis_lengths_batch")
    m["search.rows"] = len(rows)
    for n in (7, 8):
        ms = [1000.0 * (s[6] - s[5]) for s in rows if s[7] and s[7]["n"] == n]
        m[f"search.row_ms.n{n}"] = statistics.fmean(ms) if ms else 0.0
    m["search.rows_per_knode"] = _ratio(len(rows), nodes / 1000.0)
    for n, d in ((7, 3), (7, 4)):
        m[f"search.singleton_nodes.{n}_{d}"] = _attr_sum(
            singleton, "nodes", lambda a: (a["n"], a["d"]) == (n, d))
    m["search.nodes.8_6"] = _attr_sum(
        singleton + maximum, "nodes", lambda a: (a["n"], a["d"]) == (8, 6))

    kernel = t.named("_lis_lengths_batch")
    m["ball.kernel_s"] = t.total_s("_lis_lengths_batch")
    m["ball.kernel_perms"] = _attr_sum(kernel, "rows")
    cmps = sum(s[7]["rows"] * s[7]["n"] ** 2 for s in kernel if s[7])
    m["ball.kernel_cmps_per_s"] = _ratio(cmps, m["ball.kernel_s"])
    m["ball.kernel_share"] = _ratio(m["ball.kernel_s"], wall_s)
    m["ball.exact_s"] = t.total_s("lis_distribution_exact")
    m["ball.exact_calls"] = len(t.named("lis_distribution_exact"))
    m["ball.exact_share"] = _ratio(m["ball.exact_s"], wall_s)
    m["ball.sphere_s"] = t.total_s("sphere_packing_bounds")
    samples = t.named("ball:sample_lis_lengths")
    for n in (12, 100, 1000):
        at_n = [s for s in samples if s[7] and s[7]["n"] == n]
        m[f"ball.mc_samples_per_s.n{n}"] = _ratio(
            _attr_sum(at_n, "samples"), sum(s[6] - s[5] for s in at_n))

    solves = t.named("solve_ilp")
    lps = t.named("ilp:solve_lp")
    m["ilp.build_s"] = t.total_s("build_model")
    m["ilp.solve_s"] = t.total_s("solve_ilp")
    m["ilp.self_s"] = t.self_s("ilp")
    m["ilp.nodes"] = _attr_sum(solves, "nodes")
    m["ilp.nodes.5_3"] = _attr_sum(solves, "nodes", lambda a: (a["n"], a["d"]) == (5, 3))
    m["ilp.lp_calls"] = len(lps)
    m["ilp.lp_calls.5_3"] = sum(
        1 for s in lps
        if (p := t.enclosing(s, "solve_ilp")) and p[7] and (p[7]["n"], p[7]["d"]) == (5, 3))
    tightened = [s for s in solves
                 if s[7] and s[7]["value"] < math.factorial(s[7]["n"] - s[7]["d"] + 1)]
    m["ilp.tightened_ratio"] = _ratio(len(tightened), len(solves))
    lp_ms = [1000.0 * (s[6] - s[5]) for s in lps]
    m["simplex.lp_s"] = t.total_s("ilp:solve_lp")
    m["simplex.lp_ms_p50"] = statistics.median(lp_ms) if lp_ms else 0.0
    m["simplex.lp_ms_p90"] = _quantile(lp_ms, 0.9)
    lp_rows = [s[7]["rows"] for s in lps if s[7]]
    m["simplex.rows_p50"] = statistics.median(lp_rows) if lp_rows else 0

    distance = t.named("search:ulam_distance")
    m["perm.distance_calls"] = len(distance)
    m["perm.distance_s"] = t.total_s("search:ulam_distance")
    m["cli.self_s"] = t.self_s("cli")

    return {k: v for k, v in m.items() if not set(PER_LAYER[k][2]) & set(missing)}


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
