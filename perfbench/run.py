"""Benchmark entry point.

    python3 perfbench/run.py --workload {tables,ipbound,lis} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every pass of the workload runs in a
fresh interpreter (``worker.py``) that imports ``ulamcode`` from the
checkout's ``src`` and drives ``ulamcode.cli.main`` with ``--threads 1``
and JSON to ``--out``.  Passes repeat, back to back, while another one
fits in ``--seconds``; outputs are checked after each pass, outside its
timed region.

``--trace 0`` reports the end-to-end metrics, as medians over untraced
passes.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics from the traced ones, with the tracing overhead.
Each metric is printed on its own line with its unit; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Timed interpreter start-ups per run, besides one per pass.
SETUP_PROBES = 5
# A whole run must end well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cells_proven": "count",
    "bound_gap": "count",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(tmp: Path, tag: str, spec: dict | None) -> dict:
    out = tmp / f"{tag}.result.json"
    spec_args = []
    if spec is not None:
        spec_path = tmp / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        spec_args.append(str(spec_path))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), repr(time.time()), str(out)] + spec_args,
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {tag} timed out") from exc
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"worker {tag} exited with code {proc.returncode}")
    return json.loads(out.read_text())


def run_pass(tmp: Path, index: int, ops: list[list[str]], traced: bool) -> dict:
    """Run one pass in a fresh worker and check its outputs."""
    outs = [tmp / f"p{index}.op{i}.json" for i in range(len(ops))]
    argvs = [argv + ["--format", "json", "--threads", "1", "--out", str(out)]
             for argv, out in zip(ops, outs)]
    res = _worker(tmp, f"p{index}", {"ops": argvs, "trace": traced})
    results = []
    for rec, out in zip(res["ops"], outs):
        ok = rec["rc"] == 0 and out.is_file()
        results.append(json.loads(out.read_text())["result"] if ok else None)
        if rec["error"]:
            print(rec["error"], file=sys.stderr)
    errors, summary = workloads.check_pass(ops, results)
    for argv, error in zip(ops, errors):
        if error:
            print(f"FAILED {' '.join(argv)}: {error}", file=sys.stderr)
    wall_s = res["ops"][-1]["t1"] - res["ops"][0]["t0"]
    record = {
        "traced": traced,
        "setup_s": res["setup_s"],
        "wall_s": wall_s,
        "rss_mb": res["rss_mb"],
        "attempted": len(ops),
        "failed": sum(1 for e in errors if e),
        "cells_proven": summary.cells_proven,
        "bound_gap": summary.bound_gap,
    }
    if traced:
        record["layers"] = layers.layer_metrics(res["spans"], res["missing"], wall_s)
    return record


def run(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    ops = workloads.operations(workload, seed)
    _worker(tmp, "warmup", None)  # writes the bytecode caches; not timed
    setups = [_worker(tmp, f"setup{i}", None)["setup_s"] for i in range(SETUP_PROBES)]

    passes: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_pass(tmp, len(passes), ops, traced))
        durations.append(time.perf_counter() - t0)
        if trace and len(passes) < 2:
            continue
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        traced = [p for p in passes if p["traced"]]
        for name in traced[0]["layers"]:
            metrics[name] = (statistics.median(p["layers"][name] for p in traced),
                             layers.PER_LAYER[name][0])
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (
            traced_wall - statistics.median(p["wall_s"] for p in plain), "s")
    else:
        values = {
            "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
            "cells_proven": statistics.median(p["cells_proven"] for p in plain),
            "bound_gap": statistics.median(p["bound_gap"] for p in plain),
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _terminate(signum, frame):
    # Raising lets subprocess.run kill and reap the worker, and the
    # finally clause below remove the scratch directory.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "ulamcode" / "__init__.py").is_file():
        print(f"run.py: no ulamcode sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()
    print(f"workload {args.workload} seed {args.seed}: "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
