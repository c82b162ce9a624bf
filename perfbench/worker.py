"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py SPAWN_TIME RESULT_JSON [SPEC_JSON]

SPAWN_TIME is the parent's ``time.time()`` just before it started this
process, so set-up time runs from interpreter start until ``import
ulamcode`` returns.  Without SPEC_JSON the worker only measures set-up.
The spec lists the CLI argument lists to run in order and whether to
record spans.  The result holds set-up time, per-operation exit codes and
times, peak RSS and the spans.  Checking outputs is the parent's job, so
it stays outside the timed operations.
"""

import sys
import time


def main() -> int:
    spawn_time = float(sys.argv[1])
    import ulamcode

    setup_s = time.time() - spawn_time

    import json
    import resource
    import traceback
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src" / "ulamcode"
    if Path(ulamcode.__file__).resolve().parent != src:
        print(f"worker: imported ulamcode from {ulamcode.__file__}, not {src}", file=sys.stderr)
        return 2
    result: dict = {"setup_s": setup_s}
    if len(sys.argv) > 3:
        spec = json.loads(Path(sys.argv[3]).read_text())
        tracer = None
        if spec["trace"]:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        from ulamcode import cli

        records = []
        for run, argv in enumerate(spec["ops"]):
            if tracer is not None:
                tracer.run = run
            error = None
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # an operation that raises is a failed operation
                rc, error = None, traceback.format_exc()
            t1 = time.perf_counter()
            records.append({"rc": rc, "t0": t0, "t1": t1, "error": error})
        result["ops"] = records
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["spans"] = tracer.spans
            result["missing"] = tracer.missing
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
