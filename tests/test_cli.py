"""Command-line behavior: output formats, schema, determinism, exit codes."""

import argparse
import contextlib
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from ulamcode import __version__, cli, search
from ulamcode.ball import EXACT_LIMIT
from ulamcode.bounds import CodeParams
from ulamcode.ilp import IlpSolution
from ulamcode.perm import ulam_distance


DROPPED_BY_TABLES = "(--with-ip, --max-nodes, --max-seconds) would be dropped"
NOT_A_TABLE = "invalid choice: 'csv' (choose from 'text', 'json')"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# Minimal JSON-schema checker covering the subset the envelope schema uses.

def check_schema(instance, schema, path="$"):
    if "const" in schema:
        assert instance == schema["const"], f"{path}: const mismatch"
    if "enum" in schema:
        assert instance in schema["enum"], f"{path}: {instance!r} not in enum"
    stype = schema.get("type")
    if stype is not None:
        types = stype if isinstance(stype, list) else [stype]
        assert any(_is_type(instance, t) for t in types), (
            f"{path}: {type(instance).__name__} not in {types}"
        )
    if "minimum" in schema and isinstance(instance, (int, float)):
        assert instance >= schema["minimum"], f"{path}: below minimum"
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            assert key in instance, f"{path}: missing required {key}"
        props = schema.get("properties", {})
        for key, value in instance.items():
            if key in props:
                check_schema(value, props[key], f"{path}.{key}")
            elif schema.get("additionalProperties") is False:
                raise AssertionError(f"{path}: unexpected property {key}")


def _is_type(value, name):
    return {
        "object": lambda v: isinstance(v, dict),
        "array": lambda v: isinstance(v, list),
        "string": lambda v: isinstance(v, str),
        "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "null": lambda v: v is None,
        "boolean": lambda v: isinstance(v, bool),
    }[name](value)


@pytest.fixture(scope="module")
def envelope_schema():
    ref = resources.files("ulamcode").joinpath("data/cli-output.schema.json")
    return json.loads(ref.read_text())


def strip_elapsed(obj):
    return {k: v for k, v in obj.items() if k != "elapsed_seconds"}


class TestDistance:
    def test_reversal(self, capsys):
        code, out, _ = run_cli(capsys, "distance", "1 2 3", "3 2 1")
        assert code == 0
        assert "distance 2" in out

    def test_equal(self, capsys):
        data = run_json(capsys, "distance", "1 2 3", "1 2 3")
        assert data["result"]["distance"] == 0

    def test_matches_library_on_random_pair(self, capsys):
        sigma, tau = (3, 1, 2, 5, 4), (3, 4, 1, 5, 2)
        data = run_json(
            capsys, "distance", " ".join(map(str, sigma)), " ".join(map(str, tau))
        )
        assert data["result"]["distance"] == ulam_distance(sigma, tau)

    def test_parse_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "distance", "1 2 x", "1 2 3")
        assert code == 1
        assert "column 3" in err

    def test_bijection_violation_named(self, capsys):
        code, _, err = run_cli(capsys, "distance", "1 2 2", "1 2 3")
        assert code == 1
        assert "2" in err

    def test_different_lengths_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "distance", "1 2 3", "1 2 3 4")
        assert code == 1
        assert "lengths 3 and 4" in err


class TestBounds:
    def test_worked_example_with_ip(self, capsys):
        data = run_json(capsys, "bounds", "--n", "5", "--d", "3", "--with-ip")
        result = data["result"]
        assert result["singleton_upper"] == 6
        assert result["ip_upper"] == 5

    def test_ip_closes_7_5_within_the_default_budget(self, capsys):
        data = run_json(capsys, "bounds", "--n", "7", "--d", "5", "--with-ip")
        assert data["status"] == "ok"
        assert data["result"]["ip_upper"] == 6
        assert data["result"]["notes"] == []

    def test_6_3(self, capsys):
        data = run_json(capsys, "bounds", "--n", "6", "--d", "3")
        assert data["result"]["gv_lower"] == 2
        assert data["result"]["singleton_upper"] == 24

    def test_d1_degenerate(self, capsys):
        data = run_json(capsys, "bounds", "--n", "4", "--d", "1")
        assert data["result"]["best_lower"] == 24
        assert data["result"]["best_upper"] == 24
        # The program is vacuous at d = 1; solve_ilp answers it with n!.
        data = run_json(capsys, "bounds", "--n", "4", "--d", "1", "--with-ip")
        assert (data["status"], data["result"]["ip_upper"]) == ("ok", 24)

    def test_sphere_past_enumeration_size(self, capsys):
        # |B(1)| = 1 + 11^2 = 122 at n = 12.
        data = run_json(capsys, "bounds", "--n", "12", "--d", "3", "--with-sphere")
        assert data["result"]["sphere_upper"] == math.factorial(12) // 122

    def test_sphere_odd_delta_flagged(self, capsys):
        data = run_json(capsys, "bounds", "--n", "6", "--d", "4", "--with-sphere")
        assert any("odd" in note for note in data["result"]["notes"])

    def test_asymptotics_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "100", "--d", "71", "--show-asymptotics"
        )
        assert code == 0
        assert "rate_function" in out  # c = 3 here, inside the c >= 2 branch

    def test_kim_line_just_above_c_2(self, capsys):
        # c = (2500 - 2399) / 50 = 2.02, inside Kim's 2 < c <= 2.05 window.
        argv = ("bounds", "--n", "2500", "--d", "2400", "--show-asymptotics")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert re.search(r"^kim_rate_log \S+ \(approximate\)$", out, re.M)
        asym = run_json(capsys, *argv)["result"]["asymptotics"]
        assert asym["c"] == pytest.approx(2.02)
        assert asym["kim_rate_log_approximate"] > 0


@contextlib.contextmanager
def unlimited_digits():
    """Lift CPython's int-to-str digit limit, where it has one, for parsing
    and printing the test's own copies of huge values."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class TestDigitLimit:
    """1559! has 4,303 digits, past CPython's default limit of 4,300 on
    int-to-str conversion; main prints it exactly and leaves the limit as
    it found it."""

    def run(self, capsys, *argv):
        before = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(capsys, *argv)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == before
        assert code == 0, err
        return out

    def test_bounds_json(self, capsys):
        out = self.run(capsys, "bounds", "--n", "1560", "--d", "2", "--format", "json")
        with unlimited_digits():
            result = json.loads(out)["result"]
        assert result["singleton_upper"] == math.factorial(1559)

    def test_bounds_text(self, capsys):
        out = self.run(capsys, "bounds", "--n", "1560", "--d", "2")
        (line,) = [ln for ln in out.splitlines() if ln.startswith("singleton_upper ")]
        with unlimited_digits():
            assert line.split()[1] == str(math.factorial(1559))

    def test_tables_construction_cell(self, capsys):
        out = self.run(capsys, "tables", "--n", "1560", "--d", "2", "--format", "json")
        with unlimited_digits():
            (cell,) = json.loads(out)["result"]["cells"]
        assert cell["lower"] == cell["upper"] == math.factorial(1559)
        assert cell["method"] == "construction"


class TestSearchAndVerify:
    def test_search_write_verify_round_trip(self, capsys, tmp_path):
        path = tmp_path / "code.txt"
        data = run_json(
            capsys, "search", "--n", "5", "--d", "3", "--save-code", str(path)
        )
        assert data["result"]["size"] == 4
        assert data["result"]["optimality"] == "proven_maximum"
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert "valid code: 4 words" in out

    def test_singleton_only(self, capsys):
        data = run_json(capsys, "search", "--n", "5", "--d", "3", "--singleton-only")
        assert data["result"]["singleton_status"] == "none_exists"

    def test_verify_rejects_bad_code(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n1 2 3\n1 3 2\n")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert "distance 1" in err

    @pytest.mark.parametrize("body, message", [
        ("1 2 3\n1 2 3\n3 2 1\n", "distance 0 < 2: 1 2 3 vs 1 2 3"),
        ("1 2 3\n1 1 2\n", "symbol 1 appears more than once"),
        ("1 2 3\n1 2\n", "word 1 2 of length 2 in a length-3 code"),
    ])
    def test_verify_rejects_repeated_and_malformed_words(
        self, capsys, tmp_path, body, message
    ):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n" + body)
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out) == (1, "")
        assert message in err

    @pytest.mark.parametrize("text, message", [
        ("4 2\n1 2 3 4\n\n2 1 4 3\n2 1 x 3\n", "5: token 'x' at column 3 is not an integer"),
        ("\n4 x\n1 2 3 4\n", '2: first line must be "n d"'),
        ("4 2 1\n1 2 3 4\n", '1: first line must be "n d"'),
        ("5 9\n1 2 3 4 5\n", "1: d must satisfy 1 <= d <= n - 1 = 4, got 9"),
    ])
    def test_verify_names_the_line_of_a_malformed_line(self, capsys, tmp_path, text, message):
        # Line numbers count the blank lines the reader skips.
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out) == (1, "")
        assert f"error: {path}:{message}\n" in err

    def test_verify_rejects_a_file_of_blank_lines(self, capsys, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("\n  \n\n")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out) == (1, "")
        assert f"error: empty code file {path}\n" in err

    def test_verify_cross_check_failure_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(search, "ulam_distance", lambda u, w: 0)
        path = tmp_path / "code.txt"
        path.write_text("3 2\n1 2 3\n3 2 1\n")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 3
        assert "internal invariant violation" in err

    def test_singleton_only_without_a_code_writes_no_file(self, capsys, tmp_path):
        path = tmp_path / "code.txt"
        code, out, err = run_cli(
            capsys, "search", "--n", "5", "--d", "3", "--singleton-only",
            "--save-code", str(path),
        )
        assert code == 0
        assert "singleton_status none_exists" in out
        assert f"no code found (none_exists); {path} not written" in err
        assert not path.exists()

    def test_ip_bound_below_the_code_exits_3(self, capsys, monkeypatch):
        # The search keeps a verified 5-word code; a bound of 1 contradicts it.
        monkeypatch.setattr(search, "solve_ilp",
                            lambda params, budget: IlpSolution("optimal", 1))
        code, out, err = run_cli(
            capsys, "search", "--n", "6", "--d", "3", "--max-nodes", "5", "--with-ip"
        )
        assert (code, out) == (3, "")
        assert "integer-program bound 1 is below the verified code's size 5" in err

    def test_budget_exhaustion_exits_zero_with_bounded_status(self, capsys):
        data = run_json(
            capsys, "search", "--n", "6", "--d", "3", "--max-nodes", "4"
        )
        assert data["status"] == "bounded"
        assert data["result"]["optimality"] == "lower_bound_only"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-nodes", "0", "max_nodes must be >= 1"),
            ("--max-nodes", "-5", "max_nodes must be >= 1"),
            ("--max-seconds", "-1", "max_seconds must be > 0"),
            ("--max-seconds", "inf", "max_seconds must be > 0 and finite, got inf"),
            ("--max-seconds", "nan", "max_seconds must be > 0 and finite, got nan"),
        ],
    )
    def test_unmeetable_budget_rejected(self, capsys, flag, value, message):
        code, out, err = run_cli(capsys, "search", "--n", "5", "--d", "3", flag, value)
        assert code == 1
        assert out == ""
        assert message in err

    def test_past_search_limit_exits_2_before_searching(self, capsys):
        # S_31 could never be held in memory; the fixed limit stops it first.
        code, out, err = run_cli(capsys, "search", "--n", "31", "--d", "3", "--max-nodes", "1")
        assert code == 2
        assert out == ""
        assert "exceeds the limit 9" in err

    def test_search_limit_is_not_an_option(self, capsys):
        code, _, err = run_cli(capsys, "search", "--n", "6", "--d", "3", "--search-limit", "10")
        assert code == 1
        assert "--search-limit" in err


class TestTables:
    def test_first_rows(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--n", "4..6")
        assert code == 0
        assert "6=" in out and "24=" in out and "120=" in out
        assert "no" in out and "yes" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--n", "4", "--format", "csv")
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "n,d,lower,upper,status,singleton_optimal,method"
        assert "4,2,6,6,proven,yes,construction" in lines
        assert "4,3,2,2,proven,yes,search" in lines

    def test_with_ip_and_a_large_node_budget(self, capsys):
        # A run without the default node cap; the header records its budget.
        data = run_json(
            capsys, "tables", "--n", "5", "--d", "3", "--with-ip", "--max-nodes", "1000000000"
        )
        (cell,) = data["result"]["cells"]
        assert cell["status"] == "proven"
        assert cell["lower"] == 4
        assert data["budgets"] == {"max_nodes": 1_000_000_000, "max_seconds": None}

    def test_past_search_limit_is_skipped(self, capsys):
        data = run_json(capsys, "tables", "--n", "10", "--d", "3")
        (cell,) = data["result"]["cells"]
        assert cell["status"] == "skipped"
        assert cell["method"] == "bounds"
        assert data["status"] == "bounded"


    def test_skipped_cells_report_the_bounds(self, capsys):
        data = run_json(capsys, "tables", "--n", "10..12")
        skipped = [c for c in data["result"]["cells"] if c["status"] == "skipped"]
        assert len(skipped) == 7 + 8 + 9  # d = 3..n-1
        for cell in skipped:
            report = run_json(
                capsys, "bounds", "--n", str(cell["n"]), "--d", str(cell["d"]),
                "--with-sphere",
            )["result"]
            assert (cell["lower"], cell["upper"]) == (
                report["best_lower"], report["best_upper"]
            )
        (cell,) = [c for c in skipped if (c["n"], c["d"]) == (10, 3)]
        assert cell["lower"] == 1_395  # the covering bound

    # Each request, and the first value in it that selects no cell; the
    # last three fail beside values that do select one.
    NO_CELL = {
        ("--n", "0"): "n = 0",
        ("--n", "-3"): "n = -3",
        ("--n", "1..2"): "n = 1",
        ("--n", "4", "--d", "9"): "n = 4",
        ("--n", "4", "--d", "3,9"): "d = 9",
        ("--n", "2..5"): "n = 2",
        ("--n", "4,5", "--d", "2..5"): "d = 5",
    }

    @pytest.mark.parametrize("argv", NO_CELL)
    def test_request_with_no_cell_fails(self, capsys, argv):
        code, out, err = run_cli(capsys, "tables", *argv)
        assert (code, out) == (1, "")
        assert "selects no cell" in err and "2 <= d <= n-1" in err
        assert f"error: {self.NO_CELL[argv]} selects no cell" in err

    @pytest.mark.parametrize("argv, part", [
        (("--n", "6..5,4"), "'6..5'"),
        (("--n", "4", "--d", "3..2,2"), "'3..2'"),
        (("--n", "6..5"), "'6..5'"),
        (("--n", "4", "--d", ""), "''"),
    ])
    def test_reversed_range_fails(self, capsys, argv, part):
        # A reversed part fails the request even beside parts that select
        # cells, and an empty --d is not read as "every d".
        code, out, err = run_cli(capsys, "tables", *argv)
        assert (code, out) == (1, "")
        assert f"error: empty range {part}" in err

    @pytest.mark.parametrize("part", ["4..x", "4..6..8", "4.."])
    def test_malformed_range_part_is_named(self, capsys, part):
        code, out, err = run_cli(capsys, "tables", "--n", f"{part},5")
        assert (code, out) == (1, "")
        assert f"error: bad range part {part!r}\n" in err

    def test_options_reach_the_searched_cells_of_a_mixed_request(self, capsys):
        data = run_json(capsys, "tables", "--n", "5,10", "--d", "3", "--with-ip")
        by_cell = {(c["n"], c["d"]): c for c in data["result"]["cells"]}
        assert (by_cell[(5, 3)]["status"], by_cell[(5, 3)]["lower"]) == ("proven", 4)
        assert by_cell[(10, 3)]["status"] == "skipped"

    def test_every_value_selects_a_cell(self, capsys):
        cells = run_json(
            capsys, "tables", "--n", "4..7", "--d", "3..5", "--max-nodes", "5"
        )["result"]["cells"]
        assert {c["n"] for c in cells} == {4, 5, 6, 7}
        assert {c["d"] for c in cells} == {3, 4, 5}

    @pytest.mark.parametrize("argv, expected", [
        (("--n", "4", "--d", "3,3"), [(4, 3)]),
        (("--n", "4,4", "--d", "3"), [(4, 3)]),
        (("--n", "5,4,5", "--d", "3..4,3"), [(4, 3), (5, 3), (5, 4)]),
    ])
    def test_repeated_values_compute_a_cell_once(self, capsys, argv, expected):
        cells = run_json(capsys, "tables", *argv)["result"]["cells"]
        assert [(c["n"], c["d"]) for c in cells] == expected

    def test_with_ip_changes_no_settled_cell(self, capsys):
        plain = run_json(capsys, "tables", "--n", "5..6")
        with_ip = run_json(capsys, "tables", "--n", "5..6", "--with-ip")
        assert with_ip["result"] == plain["result"]
        assert with_ip["status"] == plain["status"]

    def test_program_keeps_its_own_node_cap(self, capsys):
        # Five nodes per search phase leave (5,3) at 4 words; the program
        # still gets its own 500 nodes, which prove 5 < Singleton's 6.
        argv = ("--n", "5", "--d", "3", "--max-nodes", "5", "--with-ip")
        (cell,) = run_json(capsys, "tables", *argv)["result"]["cells"]
        assert (cell["lower"], cell["upper"], cell["status"]) == (4, 5, "bounded")
        assert cell["singleton_optimal"] == "no"
        res = run_json(capsys, "search", *argv)["result"]
        assert (res["size"], res["upper_bound_used"]) == (4, 5)
        assert res["optimality"] == "lower_bound_only"


class TestSearchIsATablesCell:
    """search answers a cell exactly as tables does."""

    @pytest.mark.parametrize(
        "n, d, budget",
        [
            pytest.param(n, d, (), id=f"{n}-{d}")
            for n, d in [(n, d) for n in range(4, 7) for d in range(3, n)]
            + [(7, 5), (7, 6), (8, 6)]
        ]
        + [pytest.param(7, 4, ("--max-nodes", "30000"), id="7-4-max-nodes-30000")],
    )
    def test_agrees_with_tables(self, capsys, n, d, budget):
        cell_args = ("--n", str(n), "--d", str(d)) + budget
        res = run_json(capsys, "search", *cell_args)["result"]
        (cell,) = run_json(capsys, "tables", *cell_args)["result"]["cells"]
        assert res["size"] == cell["lower"]
        assert (res["optimality"] == "proven_maximum") == (cell["status"] == "proven")
        assert res["nodes_explored"] == cell["nodes"]
        if cell["status"] == "bounded":
            assert res["upper_bound_used"] == cell["upper"]

    @pytest.mark.parametrize(
        "n, d, max_nodes, size, optimality, upper, nodes",
        [
            # The Singleton search finds these codes; the maximum search
            # alone ran out of budget at 104 and 15 words.
            (6, 2, 10_000, 120, "proven_maximum", 120, 2_629),
            (6, 3, 5_000, 24, "proven_maximum", 24, 341),
            # 2,623 Singleton nodes prove A(7,4) <= 4! - 1, then 30,000
            # maximum-search nodes.
            (7, 4, 30_000, 11, "lower_bound_only", 23, 32_623),
        ],
    )
    def test_singleton_search_runs_first(
        self, capsys, n, d, max_nodes, size, optimality, upper, nodes
    ):
        argv = ("--n", str(n), "--d", str(d), "--max-nodes", str(max_nodes))
        res = run_json(capsys, "search", *argv)["result"]
        assert (res["size"], res["optimality"]) == (size, optimality)
        assert (res["upper_bound_used"], res["nodes_explored"]) == (upper, nodes)


class TestBoundsCalledByName:
    """The commands reach each bound through its one public function,
    called by the name they import, so a wrapper on that name sees every
    call and its arguments."""

    @staticmethod
    def spy(monkeypatch, module, name):
        calls, fn = [], getattr(module, name)

        def recording(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        return calls

    def test_bounds_calls_solve_ilp(self, capsys, monkeypatch):
        calls = self.spy(monkeypatch, cli, "solve_ilp")
        run_json(capsys, "bounds", "--n", "5", "--d", "3", "--with-ip")
        assert [args[0] for args in calls] == [CodeParams(5, 3)]

    def test_skipped_cells_call_sphere_packing_bounds(self, capsys, monkeypatch):
        spheres = self.spy(monkeypatch, search, "sphere_packing_bounds")
        tables = self.spy(monkeypatch, search, "ball_table")
        cells = run_json(capsys, "tables", "--n", "10", "--d", "3..4")["result"]["cells"]
        assert [cell["status"] for cell in cells] == ["skipped"] * 2
        assert [(len(table), d) for table, d in spheres] == [(10, 3), (10, 4)]
        assert tables == [(10,)]  # one LIS distribution per n


class TestBallAndDist:
    def test_lisdist_n3(self, capsys):
        code, out, _ = run_cli(capsys, "lisdist", "--n", "3")
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert code == 0
        assert body == ["1 1", "2 4", "3 1"]

    def test_ball_capacity_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "ball", "--n", str(EXACT_LIMIT + 1))
        assert code == 2
        assert "Monte-Carlo" in err


class TestMcAndClt:
    def test_mc_deterministic(self, capsys):
        a = run_json(capsys, "mc", "--n", "6", "--k", "4", "--samples", "20000")
        b = run_json(capsys, "mc", "--n", "6", "--k", "4", "--samples", "20000")
        assert a["result"]["estimate"] == b["result"]["estimate"]
        assert a["seed"] == 0  # implicit default

    @pytest.mark.parametrize("cmd", [("mc", "--k", "1", "--seed", "-1"),
                                     ("clt", "--seed", "-2")])
    def test_negative_seed_exits_1(self, capsys, cmd):
        # The seed check refuses the run before any draw, even where every
        # sampled length passes k = 1.
        code, out, err = run_cli(capsys, cmd[0], "--n", "5", "--samples", "3", *cmd[1:])
        assert (code, out) == (1, "")
        assert "error: --seed must be >= 0" in err

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_mc_negative_sample_count_exits_1(self, capsys, k):
        code, out, err = run_cli(capsys, "mc", "--n", "5", "--k", k, "--samples", "-3")
        assert (code, out) == (1, "")
        assert "samples must be >= 1" in err

    @pytest.mark.parametrize("cmd", [("mc", "--k", "1"), ("clt",)])
    def test_mc_and_clt_check_n_first(self, capsys, cmd):
        code, out, err = run_cli(capsys, cmd[0], "--n", "0", *cmd[1:])
        assert (code, out) == (1, "")
        assert "n must be >= 1" in err

    def test_clt_text_one_value_per_line(self, capsys):
        code, out, _ = run_cli(capsys, "clt", "--n", "1", "--samples", "3")
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert code == 0
        assert body == ["-1.0", "-1.0", "-1.0"]

    def test_clt_out_file(self, capsys, tmp_path):
        path = tmp_path / "samples.txt"
        code, out, _ = run_cli(
            capsys, "clt", "--n", "9", "--samples", "5", "--seed", "3",
            "--out", str(path),
        )
        assert code == 0
        assert out == ""
        body = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert len(body) == 5


class TestExportLp:
    def test_contains_worked_row(self, capsys):
        code, out, _ = run_cli(capsys, "export-lp", "--n", "5", "--d", "3")
        assert code == 0
        assert "6 x_1_1 + 3 x_2_1 + x_3_1 <= 12" in out
        assert out.startswith("\\")  # stays a valid .lp file, no # header

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "model.lp"
        code, _, _ = run_cli(
            capsys, "export-lp", "--n", "4", "--d", "2", "--out", str(path)
        )
        assert code == 0
        assert path.read_text().endswith("End\n")

    def test_d1_rejected(self, capsys):
        code, out, err = run_cli(capsys, "export-lp", "--n", "4", "--d", "1")
        assert (code, out) == (1, "")
        assert "d >= 2" in err


def csv_header(command):
    return (f"# ulamcode {__version__}\n# command: {command}\n# seed: -\n# threads: -\n"
            "# budgets: max_nodes=none max_seconds=none\n")


class TestTableCsv:
    @pytest.mark.parametrize("argv, rows", [
        (("ball", "--n", "5"), "r,size\n0,1\n1,17\n2,78\n3,119\n4,120\n"),
        (("lisdist", "--n", "5"), "k,count\n1,1\n2,41\n3,61\n4,16\n5,1\n"),
        (("tables", "--n", "4..5"),
         "n,d,lower,upper,status,singleton_optimal,method\n"
         "4,2,6,6,proven,yes,construction\n"
         "4,3,2,2,proven,yes,search\n"
         "5,2,24,24,proven,yes,construction\n"
         "5,3,4,4,proven,no,search\n"
         "5,4,2,2,proven,yes,search\n"),
    ])
    def test_bytes(self, capsys, argv, rows):
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out == csv_header(argv[0]) + rows

    def test_clt_csv_is_its_text_under_a_column_name(self, capsys):
        argv = ("clt", "--n", "33", "--samples", "40", "--seed", "3", "--threads", "1")
        _, text, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        lines = text.splitlines(keepends=True)  # five header lines, then values
        assert out == "".join(lines[:5] + ["value\n"] + lines[5:])


class TestEnvelope:
    def test_schema_across_commands(self, capsys, envelope_schema, tmp_path):
        runs = [
            ("distance", "1 2 3", "2 1 3"),
            ("bounds", "--n", "5", "--d", "3"),
            ("lisdist", "--n", "4"),
            ("ball", "--n", "4"),
            ("mc", "--n", "5", "--k", "3", "--samples", "100"),
            ("clt", "--n", "4", "--samples", "4"),
            ("tables", "--n", "4"),
            ("search", "--n", "4", "--d", "3"),
            ("export-lp", "--n", "4", "--d", "3"),
        ]
        for argv in runs:
            data = run_json(capsys, *argv)
            check_schema(data, envelope_schema, path=argv[0])

    def test_threads_reported_only_where_a_pool_runs(self, capsys, monkeypatch):
        # Only mc and clt start workers; the other subcommands report null,
        # whatever the host's CPU count.
        argv = ("tables", "--n", "4", "--format", "json")
        _, native, _ = run_cli(capsys, *argv)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        _, patched, _ = run_cli(capsys, *argv)
        assert '"threads": null' in patched
        elapsed = re.compile(r'^  "elapsed_seconds": .*\n', re.M)
        assert elapsed.sub("", patched) == elapsed.sub("", native)
        _, text, _ = run_cli(capsys, "tables", "--n", "4")
        assert "# threads: -\n" in text
        mc = run_json(capsys, "mc", "--n", "5", "--k", "3", "--samples", "100")
        assert mc["threads"] == 64
        given = run_json(capsys, "tables", "--n", "4", "--threads", "3")
        assert given["threads"] == 3

    def test_byte_identical_modulo_elapsed(self, capsys):
        argv = ("mc", "--n", "6", "--k", "4", "--samples", "5000", "--seed", "9")
        a = run_json(capsys, *argv)
        b = run_json(capsys, *argv)
        assert json.dumps(strip_elapsed(a)) == json.dumps(strip_elapsed(b))

    @pytest.mark.parametrize("argv, message", [
        # Options a subcommand does not read.
        (("tables", "--n", "5", "--seed", "7"), "unrecognized arguments: --seed"),
        (("bounds", "--n", "5", "--d", "3", "--strict"), "unrecognized arguments: --strict"),
        (("search", "--n", "5", "--d", "3", "--seed", "1"), "unrecognized arguments: --seed"),
        (("ball", "--n", "5", "--max-nodes", "3"), "unrecognized arguments: --max-nodes"),
        (("lisdist", "--n", "5", "--max-seconds", "1"), "unrecognized arguments"),
        (("distance", "1 2", "2 1", "--strict"), "unrecognized arguments: --strict"),
        (("verify", "code.txt", "--max-nodes", "3"), "unrecognized arguments"),
        (("mc", "--n", "5", "--k", "2", "--max-nodes", "3"), "unrecognized arguments"),
        (("clt", "--n", "5", "--max-seconds", "1"), "unrecognized arguments"),
        (("export-lp", "--n", "4", "--d", "3", "--seed", "1"), "unrecognized arguments"),
        # Combinations that would drop an option.
        (("search", "--n", "6", "--d", "3", "--singleton-only", "--with-ip"),
         "not allowed with argument"),
        # tables --long-runs is gone: any budget replaces the default node cap.
        (("tables", "--n", "5", "--long-runs", "--max-nodes", "10"),
         "unrecognized arguments: --long-runs"),
        (("tables", "--n", "5", "--long-runs", "--max-seconds", "10"),
         "unrecognized arguments: --long-runs"),
        (("bounds", "--n", "5", "--d", "3", "--max-nodes", "8"), "need --with-ip"),
        (("bounds", "--n", "5", "--d", "3", "--max-seconds", "1"), "need --with-ip"),
        # CSV only where the result is a table; the other five are last.
        (("export-lp", "--n", "4", "--d", "3", "--format", "csv"), NOT_A_TABLE),
        # tables requests whose every cell is a d = 2 construction or
        # skipped past the search limit.
        (("tables", "--n", "12", "--with-ip", "--max-nodes", "5"), DROPPED_BY_TABLES),
        (("tables", "--n", "10..12", "--with-ip"), DROPPED_BY_TABLES),
        (("tables", "--n", "10", "--d", "3", "--max-seconds", "1"), DROPPED_BY_TABLES),
        (("tables", "--n", "8", "--d", "2", "--max-nodes", "1000000000"), DROPPED_BY_TABLES),
        # Options that are gone: ball prints every radius, and the header
        # prints the seed.
        (("ball", "--n", "9", "--r", "3"), "unrecognized arguments: --r"),
        (("mc", "--n", "6", "--k", "4", "--strict"), "unrecognized arguments: --strict"),
        (("clt", "--n", "6", "--strict", "--seed", "5"), "unrecognized arguments: --strict"),
        (("distance", "1 2", "2 1", "--format", "csv"), NOT_A_TABLE),
        (("bounds", "--n", "5", "--d", "3", "--format", "csv"), NOT_A_TABLE),
        (("search", "--n", "4", "--d", "3", "--format", "csv"), NOT_A_TABLE),
        (("verify", "code.txt", "--format", "csv"), NOT_A_TABLE),
        (("mc", "--n", "5", "--k", "2", "--format", "csv"), NOT_A_TABLE),
    ])
    def test_dropped_options_and_combinations_rejected(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (("mc", "--n", "5", "--k", "2", "--threads", "0"), "--threads must be >= 1"),
        (("lisdist", "--n", "0"), "n must be >= 1"),
        (("search", "--n", "5", "--d", "1"), "search needs d >= 2"),
    ])
    def test_out_of_range_values_exit_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert f"ulamcode: error: {message}" in err

    def test_usage_error_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "--n", "5")  # missing --d
        assert code == 1
        code, _, _ = run_cli(capsys, "nonsense")
        assert code == 1

    @pytest.mark.parametrize("argv, option", [
        (("search", "--n", "8", "--d", "5"), "--save-code"),
        (("search", "--n", "8", "--d", "5"), "--out"),
        (("tables", "--n", "8", "--d", "5"), "--out"),
    ])
    @pytest.mark.parametrize("where, message", [
        ("missing/c.txt", "no directory"),
        (".", "it is a directory"),
    ])
    def test_unwritable_output_fails_before_any_work(self, capsys, monkeypatch, tmp_path,
                                                     argv, option, where, message):
        def never(*args):
            raise AssertionError("called")

        for name in ("max_code_search", "reproduce_tables"):
            monkeypatch.setattr(cli, name, never)
        path = tmp_path / where
        code, out, err = run_cli(capsys, *argv, option, str(path))
        assert (code, out) == (1, "")
        assert f"ulamcode: error: cannot write {path}: {message}" in err

    def test_invalid_params_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "5", "--d", "5")
        assert code == 1
        assert "d must satisfy" in err


def test_long_options_of_every_subcommand():
    # Adding or dropping a flag has to change this list.
    common = {"--format", "--out", "--threads", "--help"}
    seeded = {"--seed"}
    budgeted = {"--max-nodes", "--max-seconds"}
    own = {
        "distance": set(),
        "bounds": {"--n", "--d", "--with-ip", "--with-sphere", "--show-asymptotics"}
        | budgeted,
        "search": {"--n", "--d", "--singleton-only", "--with-ip", "--save-code"}
        | budgeted,
        "verify": set(),
        "tables": {"--n", "--d", "--with-ip"} | budgeted,
        "ball": {"--n"},
        "lisdist": {"--n"},
        "mc": {"--n", "--k", "--samples"} | seeded,
        "clt": {"--n", "--samples"} | seeded,
        "export-lp": {"--n", "--d"},
    }
    (subparsers,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    found = {
        name: {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--")
        }
        for name, parser in subparsers.choices.items()
    }
    assert found == {name: common | options for name, options in own.items()}


class TestParserPerCommand:
    """main builds the parser of the command it runs; what it prints is
    the whole parser's text."""

    COMMANDS = ("distance", "bounds", "search", "verify", "tables", "ball", "lisdist",
                "mc", "clt", "export-lp")

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def whole_parser(capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(list(argv))
        captured = capsys.readouterr()
        return int(exc.value.code or 0), captured.out, captured.err

    def test_dispatch_knows_every_command(self):
        assert tuple(cli._DISPATCH) == self.COMMANDS

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_equals_the_whole_parsers(self, capsys, monkeypatch, command):
        built = []
        build_parser = cli.build_parser

        def spy(*args):
            built.append(args)
            return build_parser(*args)

        monkeypatch.setattr(cli, "build_parser", spy)
        ran = run_cli(capsys, command, "--help")
        assert built == [(command,)]
        assert ran == self.whole_parser(capsys, command, "--help")

    @pytest.mark.parametrize("argv", [
        ("nonsense",),
        (),
        ("--format", "json", "bounds", "--n", "5", "--d", "3"),
    ])
    def test_top_level_errors_name_every_command(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == self.whole_parser(capsys, *argv)
        assert code == 1 and out == ""
        usage, _, error = err.partition("ulamcode: error: ")
        assert set(self.COMMANDS) <= set(re.findall(r"[\w-]+", usage))
        if argv:
            assert "invalid choice" in error
            named = set(re.findall(r"[\w-]+", error.partition("choose from")[2]))
            assert set(self.COMMANDS) <= named
        else:
            assert "required: command" in error

    @pytest.mark.parametrize("argv", [("--help",), ("-h", "bounds"), ("--help", "mc", "--n")])
    def test_top_level_help_lists_every_command(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == self.whole_parser(capsys, *argv)
        assert code == 0 and err == ""
        assert all(f"\n    {command} " in out for command in self.COMMANDS)

    def test_version(self, capsys):
        assert run_cli(capsys, "--version") == (0, f"ulamcode {__version__}\n", "")

    def test_python_dash_m_runs_main(self):
        # From a checkout that is not installed, as from an installed one.
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "ulamcode", "--version"],
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout) == (0, f"ulamcode {__version__}\n")
