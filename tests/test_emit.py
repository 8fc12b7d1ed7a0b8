"""JSON bytes of the report commands, and one parser reused across calls.

`cli._emit` splices the row framing around one C-encoded dump; its oracle
is the plain `json.dumps(payload, indent=2)` that it replaces.  `main`
builds its parser once per process, so a call must leave nothing behind
that the next one reads.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quditcost
from quditcost import __version__, cli
from quditcost.costmodel import LcuRow, PfRow, ResourceReport


def indent_2_dump(args, rows):
    options = vars(args)
    meta = {"tool": "quditcost", "version": __version__, "command": args.command}
    meta.update((key, options[key]) for key in cli.META_KEYS if key in options)
    return json.dumps({"meta": meta, "rows": [row._asdict() for row in rows]}, indent=2) + "\n"


def lines(text):
    """`text` cut after each newline: equal lists are equal bytes, and a
    mismatch is reported by line index without diffing megabytes of text."""
    return text.splitlines(keepends=True)


def emitted(args, rows, capsys, tmp_path):
    """What _emit writes for `rows`, to stdout and through --out; both must agree."""
    cli._emit(argparse.Namespace(**{**vars(args), "out": None}), rows)
    out = capsys.readouterr().out
    path = tmp_path / "rows.json"
    cli._emit(argparse.Namespace(**{**vars(args), "out": str(path)}), rows)
    assert capsys.readouterr().out == ""
    assert lines(path.read_text()) == lines(out)
    return out


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-ratio", "--d-min", "5", "--d-max", "5"],
        ["scan-ratio", "--t", "3000", "--d-max", "8001"],
        ["lcu-table", "--phi-max", "2.5", "--d-max", "101", "--eps-sim", "1e-12"],
        ["pf-thresholds", "--all-odd", "--d-max", "41", "--eps", "1e-9"],
    ],
    ids=["one-row-scan", "4000-row-scan", "lcu-table", "pf-thresholds"],
)
def test_json_equals_the_indent_2_dump(capsys, tmp_path, argv):
    args = cli._build_parser().parse_args([*argv, "--format", "json"])
    model = cli._load_model()
    rows = [args.row(args, d, model) for d in cli._d_values(args)]
    expected = lines(indent_2_dump(args, rows))
    assert lines(emitted(args, rows, capsys, tmp_path)) == expected
    assert cli.main([*argv, "--format", "json"]) == 0
    assert lines(capsys.readouterr().out) == expected
    if argv[0] == "pf-thresholds":
        assert {row.favorable for row in rows} == {True, False}


def test_json_of_extreme_values_equals_the_indent_2_dump(capsys, tmp_path):
    scan = argparse.Namespace(
        command="scan-ratio", format="json", phi_max=1e300, eps_sim=1e-300, t=0.0, k=2,
        prime_only=False,
    )
    rows = [
        ResourceReport(3, 2, 1e-300, 1e300, 5e-324, 1.7976931348623157e308, 108, 116.5,
                       1e300, 1e-300, 0.1, -2.5e-300, -1e300),
        ResourceReport(5, 3, 0.0, -0.0, 1.0, 2.0, 3, 4.0, 5.0, 6.0, 7.0, -0.0, -123.456),
    ]
    assert emitted(scan, rows, capsys, tmp_path) == indent_2_dump(scan, rows)
    lcu = argparse.Namespace(
        command="lcu-table", format="json", phi_max=1.0, eps_sim=1e-6, t=0.1, prime_only=True,
    )
    rows = [LcuRow(3, 1e-300, 1e300), LcuRow(100000000000031, 2.0174617e-13, 0.681767037)]
    assert emitted(lcu, rows, capsys, tmp_path) == indent_2_dump(lcu, rows)
    pf = argparse.Namespace(
        command="pf-thresholds", format="json", phi_max=1.0, eps=1e-300, prime_only=False,
    )
    rows = [PfRow(3, 1e300, 1e-300, True), PfRow(7, 0.841840228, 0.841840228, False)]
    assert emitted(pf, rows, capsys, tmp_path) == indent_2_dump(pf, rows)


def fresh_process_stdout(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(quditcost.__file__).parents[1])}
    env.pop(cli.CONFIG_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-m", "quditcost.cli", *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built = []
    build = cli._build_parser

    def counted_build():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", counted_build)
    assert cli.main(["pf-thresholds", "--d-max", "7"]) == 0
    assert cli.main(["scan-ratio", "--d-max", "7"]) == 0
    capsys.readouterr()
    assert len(built) == 1 and cli._PARSER is built[0]


def test_reused_parser_carries_no_state_between_calls(capsys, tmp_path):
    out = tmp_path / "k3.json"
    argv = ["scan-ratio", "--k", "3", "--primes", "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    assert json.loads(out.read_text())["meta"]["k"] == 3
    assert capsys.readouterr().out == ""
    assert cli.main(["scan-ratio"]) == 0
    assert lines(capsys.readouterr().out) == lines(fresh_process_stdout("scan-ratio"))


def test_a_call_that_argparse_rejects_leaves_the_parser_as_it_was(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan-ratio", "--k", "3", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(["scan-ratio"]) == 0
    assert lines(capsys.readouterr().out) == lines(fresh_process_stdout("scan-ratio"))
