"""The benchmark's workloads and the checks on their outputs.

Each workload is a fixed list of ``ulamcode`` CLI operations run back to
back by one client (a closed loop).  The workload seed sets every
``--seed`` of ``mc`` and ``clt``; the ``tables`` and ``ipbound`` inputs do
not depend on it, because their hard cells are the load.  README.md says
why each workload was chosen.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import reference

WORKLOADS = ("tables", "ipbound", "lis")

# Integer-program node budgets.  The cells in IP_SOLVED close within
# IP_SOLVED_NODES ((5,3) needs 107 nodes); the three in IP_CAPPED stop on
# budget whatever it is, at 150-300 ms per LP, so they get a small one.
IP_SOLVED = ((4, 3), (5, 3), (5, 4), (6, 3), (6, 4), (6, 5), (7, 6))
IP_CAPPED = ((7, 4), (7, 5), (8, 6))
IP_SOLVED_NODES = 200
IP_CAPPED_NODES = 8

# Monte-Carlo sample counts, sized so that the exact n = 9 enumeration is
# about a quarter to a third of a ``lis`` pass.  The n = 100 and n = 1000
# counts keep the standard error of the sample mean below 0.09, a fifth of
# the margin the mean check leaves.
MC_SAMPLES = {12: 200_000, 100: 10_000, 1000: 1_000}
MC_K = {12: 7, 100: 20, 1000: 60}
CLT_NS = (100, 1000)
# Allowed distance of a sample mean from 2 sqrt(n) - 1.7711 n^(1/6).
MEAN_TOLERANCE = 1.0
# Allowed distance of an n = 12 estimate from the exact tail, in standard errors.
MC_SIGMAS = 5.0


def operations(workload: str, seed: int) -> list[list[str]]:
    """CLI argument lists of one pass, without the output options."""
    if workload == "tables":
        return [["tables", "--n", "4..7"], ["tables", "--n", "8", "--d", "6..7"]]
    if workload == "ipbound":
        cells = sorted(
            [(cell, IP_SOLVED_NODES) for cell in IP_SOLVED]
            + [(cell, IP_CAPPED_NODES) for cell in IP_CAPPED]
        )
        return [
            ["bounds", "--n", str(n), "--d", str(d), "--with-ip", "--max-nodes", str(k)]
            for (n, d), k in cells
        ]
    if workload == "lis":
        ops = [["lisdist", "--n", "8"], ["lisdist", "--n", "9"], ["ball", "--n", "9"]]
        ops += [["bounds", "--n", "9", "--d", str(d), "--with-sphere"] for d in range(3, 9)]
        ops += [
            ["mc", "--n", str(n), "--k", str(MC_K[n]), "--samples", str(s), "--seed", str(seed)]
            for n, s in MC_SAMPLES.items()
        ]
        ops += [
            ["clt", "--n", str(n), "--samples", str(MC_SAMPLES[n]), "--seed", str(seed)]
            for n in CLT_NS
        ]
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _option(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _int_range(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


@dataclass
class Summary:
    """The outcome metrics a pass adds up over its operations."""

    cells_proven: int = 0
    bound_gap: int = 0


def _check_tables(argv, result, summary: Summary) -> None:
    ns = _int_range(_option(argv, "--n"))
    d_text = _option(argv, "--d")
    wanted = {
        (n, d)
        for n in ns
        for d in (_int_range(d_text) if d_text else range(2, n))
        if 2 <= d <= n - 1
    }
    cells = {(c["n"], c["d"]): c for c in result["cells"]}
    _expect(set(cells) == wanted, f"cells {sorted(cells)} != requested {sorted(wanted)}")
    for (n, d), c in sorted(cells.items()):
        lo, hi, cap = c["lower"], c["upper"], reference.singleton(n, d)
        where = f"({n},{d})"
        _expect(c["status"] in ("proven", "bounded"), f"{where} status {c['status']}")
        _expect(2 <= lo <= hi <= cap, f"{where} bounds {lo}..{hi} outside 2..{cap}")
        if c["status"] == "proven":
            _expect(lo == hi, f"{where} proven with lower {lo} != upper {hi}")
            summary.cells_proven += 1
        if (n, d) in reference.KNOWN_CELLS:
            size, verdict = reference.KNOWN_CELLS[(n, d)]
            _expect(lo <= size <= hi, f"{where} range {lo}..{hi} misses A = {size}")
            if c["status"] == "proven":
                _expect(c["singleton_optimal"] == verdict,
                        f"{where} verdict {c['singleton_optimal']} != {verdict}")
        if (n, d) in reference.FOUND_SIZES:
            found = reference.FOUND_SIZES[(n, d)]
            _expect(hi >= found, f"{where} upper {hi} below a found code of {found}")
        if c["singleton_optimal"] == "yes":
            _expect(lo == cap, f"{where} Singleton-optimal but lower {lo} < {cap}")
        summary.bound_gap += hi - lo


def _check_bounds(argv, result, summary: Summary) -> None:
    n, d = int(_option(argv, "--n")), int(_option(argv, "--d"))
    where = f"({n},{d})"
    cap = reference.singleton(n, d)
    _expect(result["params"] == {"n": n, "d": d}, f"{where} params {result['params']}")
    _expect(result["singleton_upper"] == cap, f"{where} Singleton {result['singleton_upper']}")
    _expect(result["gv_lower"] == reference.gv(n, d), f"{where} GV {result['gv_lower']}")
    lowers, uppers = [reference.gv(n, d), 2], [cap]
    if "--with-sphere" in argv:
        lo, hi = reference.sphere_bounds(n, d)
        got = (result["sphere_lower"], result["sphere_upper"])
        _expect(got == (lo, hi), f"{where} sphere bounds {got} != {(lo, hi)}")
        lowers.append(lo)
        uppers.append(hi)
    if "--with-ip" in argv:
        ip, known = result["ip_upper"], reference.best_known_size(n, d)
        _expect(known <= ip <= cap, f"{where} IP bound {ip} outside {known}..{cap}")
        if (n, d) == (5, 3):
            _expect(ip == 5, f"(5,3) IP bound {ip} != 5")
        uppers.append(ip)
        summary.bound_gap += ip - known
        summary.cells_proven += (n, d) in reference.KNOWN_CELLS and ip == known
    else:
        summary.bound_gap += result["best_upper"] - result["best_lower"]
        summary.cells_proven += result["best_upper"] == result["best_lower"]
    _expect(result["best_lower"] == max(lowers), f"{where} best lower {result['best_lower']}")
    _expect(result["best_upper"] == min(uppers), f"{where} best upper {result['best_upper']}")


def _check_lisdist(argv, result, summary: Summary) -> None:
    n = int(_option(argv, "--n"))
    want = {str(k): c for k, c in reference.lis_counts(n).items() if c}
    _expect(result["counts"] == want, f"LIS counts at n={n} differ from the hook-length sum")
    _expect(result["total"] == math.factorial(n), f"total {result['total']} != {n}!")


def _check_ball(argv, result, summary: Summary) -> None:
    n = int(_option(argv, "--n"))
    want = {str(r): s for r, s in reference.ball_sizes(n).items()}
    _expect(result["sizes"] == want, f"ball sizes at n={n} differ from the reference")


def _check_mc(argv, result, summary: Summary) -> None:
    n, k, samples = (int(_option(argv, o)) for o in ("--n", "--k", "--samples"))
    _expect((result["n"], result["k"], result["samples"]) == (n, k, samples), "mc echo")
    est = result["estimate"]
    _expect(0.0 <= est <= 1.0, f"mc estimate {est} outside [0, 1]")
    if n <= 20:
        p = reference.prob_lis_at_least(n, k)
        sigma = math.sqrt(p * (1.0 - p) / samples)
        _expect(abs(est - p) <= MC_SIGMAS * sigma,
                f"mc n={n} k={k}: {est} is more than {MC_SIGMAS} sigma from {p}")


def clt_lengths(n: int, values: list[float]) -> list[int]:
    """Recover the integer LIS lengths behind centered, scaled CLT values."""
    center, scale = 2.0 * math.sqrt(n), n ** (1.0 / 6.0)
    raw = [v * scale + center for v in values]
    lengths = [round(x) for x in raw]
    _expect(all(abs(x - L) < 1e-6 and 1 <= L <= n for x, L in zip(raw, lengths)),
            f"clt n={n}: a value is not a centered, scaled LIS length")
    return lengths


def _check_clt(argv, result, summary: Summary) -> None:
    n, samples = int(_option(argv, "--n")), int(_option(argv, "--samples"))
    _expect(len(result["values"]) == samples, f"clt n={n}: {len(result['values'])} values")
    mean = statistics.fmean(clt_lengths(n, result["values"]))
    want = reference.mean_lis_estimate(n)
    _expect(abs(mean - want) <= MEAN_TOLERANCE,
            f"clt n={n}: sample mean {mean:.3f} is more than {MEAN_TOLERANCE} from {want:.3f}")


_CHECKS = {
    "tables": _check_tables,
    "bounds": _check_bounds,
    "lisdist": _check_lisdist,
    "ball": _check_ball,
    "mc": _check_mc,
    "clt": _check_clt,
}


def _cross_check_mc(ops, results, errors) -> dict[int, str]:
    """An mc and a clt run on the same n, seed and sample count share one
    sample stream, so the mc estimate must equal the tail fraction of a clt
    output that passed its own check."""
    found: dict[int, str] = {}
    clt = {
        (_option(a, "--n"), _option(a, "--samples"), _option(a, "--seed")): r
        for a, r, e in zip(ops, results, errors)
        if a[0] == "clt" and e is None
    }
    for i, (argv, res) in enumerate(zip(ops, results)):
        if argv[0] != "mc" or res is None:
            continue
        key = (_option(argv, "--n"), _option(argv, "--samples"), _option(argv, "--seed"))
        if key not in clt:
            continue
        n, k = int(key[0]), int(_option(argv, "--k"))
        lengths = clt_lengths(n, clt[key]["values"])
        tail = sum(1 for L in lengths if L >= k) / len(lengths)
        if tail != res["estimate"]:
            found[i] = f"mc n={n} k={k}: estimate {res['estimate']} != clt tail {tail}"
    return found


def check_pass(ops: list[list[str]], results: list[dict | None]) -> tuple[list[str | None], Summary]:
    """Check every operation's result; ``None`` marks an operation that
    failed to produce one.  Returns one error (or None) per operation."""
    summary = Summary()
    errors: list[str | None] = []
    for argv, result in zip(ops, results):
        if result is None:
            errors.append("no result")
            continue
        try:
            _CHECKS[argv[0]](argv, result, summary)
        except CheckFailed as exc:
            errors.append(str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"malformed result: {exc!r}")
        else:
            errors.append(None)
    for i, message in _cross_check_mc(ops, results, errors).items():
        errors[i] = errors[i] or message
    return errors, summary
