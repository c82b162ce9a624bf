"""Command-line front end.

Every subcommand emits a reproducibility header (tool version, seed,
budgets, thread count) and supports text and JSON output; the four whose
result is a table (tables, ball, lisdist, clt) also write CSV.  JSON runs
are wrapped in a stable envelope described by data/cli-output.schema.json;
identical configurations produce byte-identical JSON apart from the
elapsed-seconds field.

A subcommand takes only the common options it reads (--seed on mc and
clt, --max-nodes and --max-seconds on bounds, search and tables) and
--threads, which perfbench/run.py passes to all ten; header fields it has
no option for are null, and option combinations that would drop one exit 1.

main builds the argument parser of the subcommand it runs only, because
most of a run's fixed cost is in building parsers; a first argument that
is not a subcommand gets the parser of all ten, so usage, help and error
texts are those of the whole parser.

Exit codes: 0 success (budget-exhausted results included, with status
"bounded"), 1 usage or data error, 2 capacity error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from typing import Iterable, Optional, Sequence

from . import __version__
from .ball import (
    ball_table,
    clt_samples,
    lis_distribution_exact,
    lis_prob_mc,
    sphere_packing_bounds,
)
from .bounds import (
    CodeParams,
    asymptotic_lower_log,
    bound_report,
    kim_rate_log,
    rate_function,
    singleton_upper,
)
from .budget import SearchBudget
from .errors import CapacityError
from .ilp import BOUND_ONLY, export_lp, solve_ilp
from .perm import format_permutation, lcs_length, parse_permutation
from .search import (
    BUDGET_EXHAUSTED,
    LOWER_BOUND_ONLY,
    find_singleton_optimal,
    max_code_search,
    read_code_file,
    reproduce_tables,
    verify_code,
    write_code_file,
)


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors (default is 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser(command: Optional[str] = None) -> _Parser:
    """The parser of every subcommand, or with ``command`` of that one only;
    a subcommand's options and help do not depend on the others."""
    parser = _Parser(prog="ulamcode", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"ulamcode {__version__}")
    # The envelope's budget fields exist for every subcommand.
    parser.set_defaults(max_nodes=None, max_seconds=None)
    sub = parser.add_subparsers(dest="command", required=True)

    tabular = ("text", "json", "csv")

    def add(name: str, summary: str, formats=("text", "json"), budgeted=False,
            seeded=False) -> Optional[argparse.ArgumentParser]:
        """The subparser of ``name`` with the common options it reads, or
        None if this parser leaves it out."""
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="FILE", default=None)
        p.add_argument("--threads", type=int, default=None)
        if budgeted:
            p.add_argument("--max-nodes", type=int, default=None)
            p.add_argument("--max-seconds", type=float, default=None)
        if seeded:
            p.add_argument("--seed", type=int, default=None)
        return p

    if p := add("distance", "Ulam distance between two permutations"):
        p.add_argument("sigma", help='first permutation, e.g. "2 3 1 5 4"')
        p.add_argument("tau", help="second permutation")

    if p := add("bounds", "bound report for (n, d)", budgeted=True):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--with-ip", action="store_true")
        p.add_argument("--with-sphere", action="store_true")
        p.add_argument("--show-asymptotics", action="store_true",
                       help="append the constant-c log-scale bound lines")

    if p := add("search", "exact code search", budgeted=True):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        phases = p.add_mutually_exclusive_group()
        phases.add_argument("--singleton-only", action="store_true",
                            help="only decide whether a Singleton-optimal code exists")
        phases.add_argument("--with-ip", action="store_true",
                            help="bound a cell the searches leave open with the integer "
                                 "program")
        p.add_argument("--save-code", metavar="FILE", default=None,
                       help="also write the found code in the code-file format")

    if p := add("verify", "verify a code file"):
        p.add_argument("file", help='code file: first line "n d", one word per line')

    if p := add("tables", "reproduce the size and Singleton-optimality tables", tabular,
                budgeted=True):
        p.add_argument("--n", required=True, help="range, e.g. 4..6 or 5")
        p.add_argument("--d", default=None, help="range, e.g. 2..5 (default: all valid)")
        p.add_argument("--with-ip", action="store_true")

    if p := add("ball", "Ulam ball sizes", tabular):
        p.add_argument("--n", type=int, required=True)

    if p := add("lisdist", "exact LIS-length distribution over S_n", tabular):
        p.add_argument("--n", type=int, required=True)

    if p := add("mc", "Monte-Carlo estimate of P(LIS >= k)", seeded=True):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--samples", type=int, default=100_000)

    if p := add("clt", "emit centered/scaled LIS samples, one per line", tabular,
                seeded=True):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--samples", type=int, default=100_000)

    if p := add("export-lp", "write the (n, d) integer program in LP format"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)

    return parser


def _parse_range(text: str) -> list[int]:
    values: list[int] = []
    for part in map(str.strip, text.split(",")):
        if not part:
            continue
        try:
            lo, hi = map(int, part.split("..")) if ".." in part else (int(part),) * 2
        except ValueError:
            raise ValueError(f"bad range part {part!r}") from None
        if lo > hi:
            raise ValueError(f"empty range {part!r}")
        values.extend(range(lo, hi + 1))
    if not values:
        raise ValueError(f"empty range {text!r}")
    return values


def _budget(args) -> Optional[SearchBudget]:
    if args.max_nodes is None and args.max_seconds is None:
        return None  # the solvers' default node caps
    return SearchBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)


def _seed(args) -> Optional[int]:
    """--seed of mc and clt, 0 if not given; None for the subcommands that
    draw no random numbers."""
    if "seed" not in args:
        return None
    if args.seed is not None and args.seed < 0:
        raise ValueError("--seed must be >= 0")
    return 0 if args.seed is None else args.seed


def _threads(args) -> Optional[int]:
    """--threads if given; else the CPU count for mc and clt, which start a
    worker pool, and None for the subcommands that start none."""
    if args.threads is not None:
        if args.threads < 1:
            raise ValueError("--threads must be >= 1")
        return args.threads
    return (os.cpu_count() or 1) if args.command in ("mc", "clt") else None


class _Run:
    """Collects everything the output envelope needs."""

    def __init__(self, args):
        self.args = args
        self.command = args.command
        self.seed = _seed(args)
        self.threads = _threads(args)
        self.budget = _budget(args)
        self.started = time.monotonic()
        self.status = "ok"

    def header_lines(self) -> list[str]:
        b = self.args
        return [
            f"# ulamcode {__version__}",
            f"# command: {self.command}",
            f"# seed: {'-' if self.seed is None else self.seed}",
            f"# threads: {'-' if self.threads is None else self.threads}",
            f"# budgets: max_nodes={b.max_nodes if b.max_nodes is not None else 'none'}"
            f" max_seconds={b.max_seconds if b.max_seconds is not None else 'none'}",
        ]

    def envelope(self, result: dict) -> dict:
        return {
            "tool": "ulamcode",
            "version": __version__,
            "command": self.command,
            "seed": self.seed,
            "threads": self.threads,
            "budgets": {
                "max_nodes": self.args.max_nodes,
                "max_seconds": self.args.max_seconds,
            },
            "status": self.status,
            "elapsed_seconds": round(time.monotonic() - self.started, 6),
            "result": result,
        }

    def emit(self, result: dict, text_body: Optional[str] = None,
             columns: Sequence[str] = (), rows: Iterable[Sequence] = (),
             raw_text: bool = False) -> int:
        """Write the run in the requested format.

        A table's subcommand passes its column names and its rows, which
        only CSV and text read: CSV writes them comma-separated, and text
        writes the rows space-separated unless a text body is given.
        """
        args = self.args
        if args.format == "json":
            payload = json.dumps(self.envelope(result), indent=2) + "\n"
        elif raw_text:
            payload = text_body
        else:
            if args.format == "csv":
                body = "\n".join(",".join(map(str, row)) for row in (columns, *rows))
            elif text_body is None:
                body = "\n".join(" ".join(map(str, row)) for row in rows)
            else:
                body = text_body
            payload = "\n".join(self.header_lines()) + "\n" + body
            if not payload.endswith("\n"):
                payload += "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return 0


def _cmd_distance(run: _Run) -> int:
    args = run.args
    sigma = parse_permutation(args.sigma)
    tau = parse_permutation(args.tau)
    lcs = lcs_length(sigma, tau)
    result = {"n": len(sigma), "lcs_length": lcs, "distance": len(sigma) - lcs}
    text = f"n {len(sigma)}\nlcs_length {lcs}\ndistance {len(sigma) - lcs}"
    return run.emit(result, text)


def _cmd_bounds(run: _Run) -> int:
    args = run.args
    if run.budget is not None and not args.with_ip:
        raise ValueError("--max-nodes and --max-seconds budget the integer program; "
                         "they need --with-ip")
    params = CodeParams(args.n, args.d)
    sphere = sphere_packing_bounds(ball_table(params.n), params.d) if args.with_sphere else None
    ip = solve_ilp(params, run.budget) if args.with_ip else None
    report = bound_report(params, sphere, ip.objective_value if ip else None)
    if ip and ip.status == BOUND_ONLY:
        run.status = "bounded"
        report.notes.append("integer program hit its budget; bound not tight")
    result = report.to_dict()
    text = report.to_text()
    if args.show_asymptotics:
        # The constant-c regime reads d - 1 = n - c sqrt(n).
        c = (params.n - params.delta) / math.sqrt(params.n)
        asym: dict = {"c": c, "lower_log": asymptotic_lower_log(c, params.n)}
        lines = [
            f"asymptotic_c {c:.6f}",
            f"asymptotic_lower_log {asym['lower_log']:.6f}",
        ]
        if c >= 2.0:
            asym["rate_function"] = rate_function(c)
            lines.append(f"rate_function {asym['rate_function']:.6f}")
        if 2.0 < c <= 2.05:
            asym["kim_rate_log_approximate"] = kim_rate_log(c, params.n)
            lines.append(
                f"kim_rate_log {asym['kim_rate_log_approximate']:.6f} (approximate)"
            )
        result["asymptotics"] = asym
        text = text + "\n" + "\n".join(lines)
    return run.emit(result, text)


def _cmd_search(run: _Run) -> int:
    args = run.args
    params = CodeParams(args.n, args.d)
    if args.singleton_only:
        res = find_singleton_optimal(params, run.budget)
        code, bounded = res.code, res.status == BUDGET_EXHAUSTED
        result = {
            "n": params.n,
            "d": params.d,
            "singleton_status": res.status,
            "target_size": singleton_upper(params),
            "size": len(code.words) if code else 0,
        }
        lines = [f"singleton_status {res.status}"]
    else:
        res = max_code_search(params, run.budget, args.with_ip)
        code, bounded = res.code, res.optimality == LOWER_BOUND_ONLY
        result = {
            "n": params.n,
            "d": params.d,
            "size": len(code.words),
            "min_distance": code.min_distance,
            "optimality": res.optimality,
            "upper_bound_used": res.upper_bound_used,
        }
        lines = [f"{key} {result[key]}" for key in list(result)[2:]]
    if bounded:
        run.status = "bounded"
    if args.save_code and code is None:
        print(f"ulamcode: no code found ({res.status}); {args.save_code} not written",
              file=sys.stderr)
    elif args.save_code:
        write_code_file(code, args.save_code)
    result["nodes_explored"] = res.nodes_explored
    result["words"] = sorted(format_permutation(w) for w in code.words) if code else []
    text = "\n".join(lines + [f"nodes {res.nodes_explored}"] + result["words"])
    return run.emit(result, text)


def _cmd_verify(run: _Run) -> int:
    args = run.args
    params, words = read_code_file(args.file)
    code = verify_code(words, params)
    result = {
        "n": params.n,
        "d": params.d,
        "size": len(code.words),
        "min_distance": code.min_distance,
        "valid": True,
    }
    text = (
        f"valid code: {len(code.words)} words, "
        f"min_distance {code.min_distance} >= d = {params.d}"
    )
    return run.emit(result, text)


def _cmd_tables(run: _Run) -> int:
    args = run.args
    n_values = _parse_range(args.n)
    d_values = _parse_range(args.d) if args.d is not None else None
    cells = reproduce_tables(n_values, d_values, run.budget, args.with_ip)
    if any(cell.status in ("bounded", "skipped") for cell in cells):
        run.status = "bounded"
    result = {"cells": [dataclasses.asdict(c) for c in cells]}
    columns = ("n", "d", "lower", "upper", "status", "singleton_optimal", "method")
    return run.emit(result, _render_tables_text(cells), columns=columns,
                    rows=([getattr(c, k) for k in columns] for c in cells))


def _cell_label(cell) -> str:
    if cell.status == "proven":
        return f"{cell.lower}="
    if cell.status == "skipped":
        return "?"
    if cell.lower >= 2:
        return f">={cell.lower}"
    return f"<={cell.upper}"


def _render_tables_text(cells) -> str:
    ns = sorted({c.n for c in cells})
    ds = sorted({c.d for c in cells})
    by_pos = {(c.n, c.d): c for c in cells}
    width = max(
        [len(_cell_label(c)) for c in cells] + [len(str(d)) for d in ds] + [3]
    )
    head = "  n\\d " + " ".join(f"{d:>{width}}" for d in ds)
    lines = []
    for title, label in (("maximum code sizes", _cell_label),
                         ("singleton-optimal codes", lambda c: c.singleton_optimal)):
        lines += [title, head]
        for n in ns:
            row = [f"{n:>5} "]
            for d in ds:
                cell = by_pos.get((n, d))
                row.append(f"{label(cell) if cell else '--':>{width}}")
            lines.append(" ".join(row))
    return "\n".join(lines)


def _cmd_ball(run: _Run) -> int:
    args = run.args
    sizes = sorted(ball_table(args.n).items())
    result = {"n": args.n, "sizes": {str(r): s for r, s in sizes}}
    return run.emit(result, columns=("r", "size"), rows=sizes)


def _cmd_lisdist(run: _Run) -> int:
    args = run.args
    dist = lis_distribution_exact(args.n)
    counts = {str(k): dist.counts[k] for k in sorted(dist.counts)}
    result = {"n": dist.n, "total": dist.total, "counts": counts}
    return run.emit(result, columns=("k", "count"), rows=counts.items())


def _cmd_mc(run: _Run) -> int:
    args = run.args
    estimate, stderr = lis_prob_mc(
        args.n, args.k, args.samples, run.seed, workers=run.threads
    )
    result = {
        "n": args.n,
        "k": args.k,
        "samples": args.samples,
        "estimate": estimate,
        "stderr": stderr,
    }
    text = f"estimate {estimate!r}\nstderr {stderr!r}"
    return run.emit(result, text)


def _cmd_clt(run: _Run) -> int:
    args = run.args
    values = clt_samples(args.n, args.samples, run.seed, workers=run.threads)
    result = {"n": args.n, "samples": args.samples, "values": values}
    return run.emit(result, columns=("value",), rows=([v] for v in values))


def _cmd_export_lp(run: _Run) -> int:
    args = run.args
    text = export_lp(CodeParams(args.n, args.d))
    result = {"n": args.n, "d": args.d, "lp": text}
    # Raw text keeps the output a valid .lp file; the JSON envelope carries
    # the reproducibility header instead.
    return run.emit(result, text, raw_text=True)


_DISPATCH = {
    "distance": _cmd_distance,
    "bounds": _cmd_bounds,
    "search": _cmd_search,
    "verify": _cmd_verify,
    "tables": _cmd_tables,
    "ball": _cmd_ball,
    "lisdist": _cmd_lisdist,
    "mc": _cmd_mc,
    "clt": _cmd_clt,
    "export-lp": _cmd_export_lp,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only -h, --help and --version may come before the command, and each
    # prints the whole parser's text; so a known first argument is the
    # command, and any other first argument gets the whole parser.
    parser = build_parser(argv[0] if argv and argv[0] in _DISPATCH else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # (n - d + 1)! passes CPython's 4,300-digit int-to-str limit from
    # n - d + 1 = 1,559 on, so a command runs without the limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    try:
        # An output path that cannot be written fails before any work.
        for path in filter(None, (args.out, getattr(args, "save_code", None))):
            if os.path.isdir(path):
                raise ValueError(f"cannot write {path}: it is a directory")
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"cannot write {path}: no directory {os.path.dirname(path)}")
        run = _Run(args)
        if limit:
            sys.set_int_max_str_digits(0)
        return _DISPATCH[args.command](run)
    except CapacityError as exc:
        print(f"ulamcode: capacity error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"ulamcode: error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"ulamcode: internal invariant violation: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
