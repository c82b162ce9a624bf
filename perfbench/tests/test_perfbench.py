"""Tests of the benchmark itself: its reference values, its output checks,
its tracing and its result contract.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import copy
import importlib
import json
import math
import shutil
import subprocess
import sys
from bisect import bisect_left
from itertools import permutations
from pathlib import Path

import pytest

import layers
import reference
import run
import spans
import workloads
from ulamcode import cli

ROOT = Path(__file__).resolve().parents[2]


def _lis(perm) -> int:
    tails = []
    for x in perm:
        k = bisect_left(tails, x)
        tails[k:k + 1] = [x]
    return len(tails)


@pytest.mark.parametrize("n", range(1, 8))
def test_hook_length_counts_match_brute_force(n):
    counts = {k: 0 for k in range(1, n + 1)}
    for perm in permutations(range(n)):
        counts[_lis(perm)] += 1
    assert reference.lis_counts(n) == counts


def test_sphere_bounds_from_counts():
    # |B(1)| at n = 9 is 1 + (n - 1)^2 = 65: one symbol moved.
    assert reference.ball_sizes(9)[1] == 65
    assert reference.sphere_bounds(9, 3) == (-(-math.factorial(9) // 1578), math.factorial(9) // 65)


def test_operations_depend_on_seed_only_where_sampled():
    assert workloads.operations("tables", 1) == workloads.operations("tables", 2)
    assert workloads.operations("ipbound", 1) == workloads.operations("ipbound", 2)
    lis1, lis2 = workloads.operations("lis", 1), workloads.operations("lis", 2)
    assert lis1 == workloads.operations("lis", 1)
    assert [a for a in lis1 if "--seed" not in a] == [a for a in lis2 if "--seed" not in a]
    assert all(a[a.index("--seed") + 1] == "2" for a in lis2 if "--seed" in a)
    with pytest.raises(ValueError):
        workloads.operations("nope", 1)


# Small versions of every operation kind the workloads run, so that the
# checks see real program output.
SMALL_OPS = [
    ["tables", "--n", "4..6"],
    ["bounds", "--n", "5", "--d", "4", "--with-ip", "--max-nodes", "200"],
    ["bounds", "--n", "7", "--d", "5", "--with-sphere"],
    ["lisdist", "--n", "7"],
    ["ball", "--n", "7"],
    ["mc", "--n", "10", "--k", "6", "--samples", "4000", "--seed", "3"],
    ["mc", "--n", "100", "--k", "20", "--samples", "2000", "--seed", "3"],
    ["clt", "--n", "100", "--samples", "2000", "--seed", "3"],
]


@pytest.fixture(scope="module")
def small_results(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ops")
    results = []
    for i, argv in enumerate(SMALL_OPS):
        out = tmp / f"{i}.json"
        assert cli.main(argv + ["--format", "json", "--threads", "1", "--out", str(out)]) == 0
        results.append(json.loads(out.read_text())["result"])
    return results


def test_real_outputs_pass_every_check(small_results):
    errors, summary = workloads.check_pass(SMALL_OPS, small_results)
    assert errors == [None] * len(SMALL_OPS)
    lo, hi = reference.sphere_bounds(7, 5)
    best_lower, best_upper = max(lo, 2), min(hi, reference.singleton(7, 5))
    # Nine proven table cells, the tight IP bound at (5,4), the (7,5) report.
    assert summary.cells_proven == 9 + 1 + (best_lower == best_upper)
    assert summary.bound_gap == best_upper - best_lower


def _tamper(results, index, change):
    bad = copy.deepcopy(results)
    change(bad[index])
    return bad


def _cell(result, n, d):
    return next(c for c in result["cells"] if (c["n"], c["d"]) == (n, d))


def _bump_cell(result):
    cell = _cell(result, 6, 4)
    cell["lower"] += 1
    cell["upper"] += 1


def _perturb_count(result):
    result["counts"]["3"] += 1
    result["counts"]["4"] -= 1


def _drop_sample(result):
    result["values"] = result["values"][:-1]


@pytest.mark.parametrize("index, change", [
    (0, _bump_cell),
    (0, lambda r: _cell(r, 5, 3).update(singleton_optimal="yes")),
    (1, lambda r: r.update(ip_upper=r["ip_upper"] - 1)),
    (2, lambda r: r.update(sphere_upper=r["sphere_upper"] + 1)),
    (3, _perturb_count),
    (4, lambda r: r["sizes"].update({"2": r["sizes"]["2"] + 1})),
    (5, lambda r: r.update(estimate=r["estimate"] + 0.05)),
    (6, lambda r: r.update(estimate=r["estimate"] + 1 / 2000)),
    (7, _drop_sample),
    (7, lambda r: r.update(values=[v + 1.0 for v in r["values"]])),
])
def test_wrong_answer_counts_as_one_failed_operation(small_results, index, change):
    errors, _ = workloads.check_pass(SMALL_OPS, _tamper(small_results, index, change))
    assert errors[index] is not None
    assert sum(1 for e in errors if e) == 1


def test_missing_or_malformed_result_fails():
    errors, _ = workloads.check_pass(SMALL_OPS[:2], [None, {"params": {}}])
    assert all(errors)


def test_failed_operation_counts_in_a_worker_pass(tmp_path):
    ops = [["lisdist", "--n", "6"], ["lisdist", "--n", "0"]]
    record = run.run_pass(tmp_path, 0, ops, traced=True)
    assert (record["attempted"], record["failed"]) == (2, 1)
    assert record["layers"]["ball.exact_calls"] == 2
    assert record["layers"]["cli.self_s"] > 0


@pytest.fixture
def restore_bindings(monkeypatch):
    """Let monkeypatch put back every binding the tracer replaces."""
    for module_name, names in spans.TARGETS.items():
        module = importlib.import_module(module_name)
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, getattr(module, name))
    for name, value in list(vars(cli).items()):
        if callable(value):
            monkeypatch.setattr(cli, name, value)
    return monkeypatch


def test_missing_binding_degrades_to_missing_metric(restore_bindings, tmp_path):
    search = importlib.import_module("ulamcode.search")
    restore_bindings.delattr(search, "_lis_lengths_batch")
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.missing == ["search:_lis_lengths_batch"]
    assert cli.main(["lisdist", "--n", "5", "--format", "json",
                     "--out", str(tmp_path / "o.json")]) == 0
    metrics = layers.layer_metrics(tracer.spans, tracer.missing, 1.0)
    for name in ("search.rows", "search.row_ms.n7", "ball.kernel_s", "search.self_s"):
        assert name not in metrics
    assert metrics["ball.exact_calls"] == 1
    assert metrics["ilp.nodes"] == 0


def test_self_time_subtracts_children_and_totals_skip_nesting():
    # [sid, parent, run, name, layer, t0, t1, attrs]
    fake = [
        [0, None, 0, "cli:main", "cli", 0.0, 10.0, None],
        [1, 0, 0, "cli:lis_distribution_exact", "ball", 1.0, 4.0, {"n": 5}],
        [2, 1, 0, "ball:lis_distribution_exact", "ball", 2.0, 3.0, {"n": 5}],
        [3, 0, 0, "cli:solve_ilp", "ilp", 5.0, 9.0,
         {"n": 5, "d": 3, "nodes": 2, "value": 5}],
        [4, 3, 0, "ilp:solve_lp", "simplex", 5.5, 6.5, {"rows": 4}],
        [5, 3, 0, "ilp:solve_lp", "simplex", 7.0, 8.0, {"rows": 6}],
    ]
    m = layers.layer_metrics(fake, [], 10.0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["ball.exact_s"] == pytest.approx(3.0)
    assert m["ball.exact_calls"] == 2
    assert m["ilp.self_s"] == pytest.approx(2.0)
    assert m["simplex.lp_s"] == pytest.approx(2.0)
    assert (m["ilp.lp_calls"], m["ilp.lp_calls.5_3"], m["ilp.nodes.5_3"]) == (2, 2, 2)
    assert m["ilp.tightened_ratio"] == 1.0
    assert m["simplex.rows_p50"] == 5


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        k: v[:2] for k, v in layers.PER_LAYER.items()}


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
