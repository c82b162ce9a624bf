"""Golden outputs: fast commands whose output must not move.

Each command runs with ``--format json --threads 1``; its output, less the
``elapsed_seconds`` line, must equal tests/golden/<name>.json byte for
byte.  ``mc``, ``clt`` and ``--show-asymptotics`` are left out: their
floats depend on the numpy random stream and on libm.  The ``--help`` text
of ulamcode and of each subcommand, 80 columns wide, must equal
tests/golden/help/<name>.txt.

After a deliberate output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import re
from pathlib import Path
from unittest import mock

import pytest

from ulamcode import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "tables_n4-6": ["tables", "--n", "4..6"],
    "tables_n7_d5-6": ["tables", "--n", "7", "--d", "5..6"],
    "tables_n7_d3-4": ["tables", "--n", "7", "--d", "3..4"],
    "tables_n10_d3-4": ["tables", "--n", "10", "--d", "3..4"],
    "tables_n5-6_with_ip": ["tables", "--n", "5..6", "--with-ip"],
    "search_7_4_max_nodes": ["search", "--n", "7", "--d", "4", "--max-nodes", "20000"],
    "search_6_3_singleton_only": ["search", "--n", "6", "--d", "3", "--singleton-only"],
    "search_5_3_with_ip": ["search", "--n", "5", "--d", "3", "--with-ip"],
    "search_6_3_max_nodes_5": ["search", "--n", "6", "--d", "3", "--max-nodes", "5"],
    "bounds_5_3_ip_sphere": ["bounds", "--n", "5", "--d", "3", "--with-ip", "--with-sphere"],
    "bounds_7_5_ip_max_nodes": ["bounds", "--n", "7", "--d", "5", "--with-ip", "--max-nodes", "8"],
    # The largest ipbound operation, and a program in object dtype from its
    # root through every dual solve.
    "bounds_8_6_ip_max_nodes": ["bounds", "--n", "8", "--d", "6", "--with-ip", "--max-nodes", "8"],
    "bounds_11_9_ip_max_nodes": ["bounds", "--n", "11", "--d", "9", "--with-ip",
                                 "--max-nodes", "10"],
    # Its open tableaux pass IP_TABLEAU_BYTES within the default node cap.
    "bounds_10_7_ip": ["bounds", "--n", "10", "--d", "7", "--with-ip"],
    "ball_7": ["ball", "--n", "7"],
    "lisdist_7": ["lisdist", "--n", "7"],
    "distance": ["distance", "2 3 1 5 4", "1 2 3 4 5"],
    "export-lp_4_3": ["export-lp", "--n", "4", "--d", "3"],
}


def json_output(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", "json", "--threads", "1"])
    assert code == 0
    return re.sub(r'^  "elapsed_seconds": .*\n', "", out.getvalue(), flags=re.M)


HELP = ("ulamcode", *cli._DISPATCH)


def help_output(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = cli.main(["--help"] if name == "ulamcode" else [name, "--help"])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", COMMANDS)
def test_output_is_golden(name):
    assert json_output(COMMANDS[name]) == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", HELP)
def test_help_is_golden(name):
    assert help_output(name) == (GOLDEN / "help" / f"{name}.txt").read_text()


if __name__ == "__main__":
    (GOLDEN / "help").mkdir(parents=True, exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.json").write_text(json_output(argv))
    for name in HELP:
        (GOLDEN / "help" / f"{name}.txt").write_text(help_output(name))
