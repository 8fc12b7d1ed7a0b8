"""Report bytes of the report commands, and one parser reused across calls.

`cli._row_format` formats each row with one % template per row type and
output format, and `cli._emit` frames the rows under the meta header.  The
oracle of JSON is the plain `json.dumps(payload, indent=2)` of the row
dicts; the oracle of CSV joins the rows value by value through `fmt`, as
the CLI once did.  An int column prints by %s, which would print a
float there as it is, so the report passes are checked to hold an int in
each such column.  `main` builds its parser once per process, so a call
must leave nothing behind that the next one reads.
"""

import argparse
import json
import math
import typing

import numpy as np
import pytest
from helpers import fresh_process_stdout, main_stdout

from quditcost import __version__, cli
from quditcost.costmodel import (
    LcuRow,
    PfRow,
    ResourceReport,
    lcu_fixed_encoding_thresholds,
    pf_thresholds,
    ratio_and_budget,
)


def header(args):
    options = vars(args)
    meta = {"tool": "quditcost", "version": __version__, "command": args.command}
    meta.update((key, options[key]) for key in cli.META_KEYS if key in options)
    return meta


def indent_2_dump(args, rows):
    return json.dumps({"meta": header(args), "rows": [row._asdict() for row in rows]}, indent=2) + "\n"


def fmt(value):
    """A CSV value as the CLI once printed it: true or false, str of an int, 9 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value) if isinstance(value, int) else format(value, ".9g")


def fmt_joined_csv(args, rows):
    lines = [f"# {key}={val if isinstance(val, str) else fmt(val)}" for key, val in header(args).items()]
    lines.append(",".join(type(rows[0])._fields))
    lines += [",".join(fmt(value) for value in row) for row in rows]
    return "\n".join(lines) + "\n"


def lines(text):
    """`text` cut after each newline: equal lists are equal bytes, and a
    mismatch is reported by line index without diffing megabytes of text."""
    return text.splitlines(keepends=True)


def emitted(args, rows, capsys, tmp_path):
    """What _emit writes for `rows` as _row_format formats them, to stdout and through --out; both must agree."""
    row_type = type(rows[0])
    text = [cli._row_format(row_type, args.format)(*row) for row in rows]
    cli._emit(argparse.Namespace(**{**vars(args), "row_type": row_type, "out": None}), text)
    out = capsys.readouterr().out
    path = tmp_path / "rows.json"
    cli._emit(argparse.Namespace(**{**vars(args), "row_type": row_type, "out": str(path)}), text)
    assert capsys.readouterr().out == ""
    assert lines(path.read_text()) == lines(out)
    return out


REPORTS = pytest.mark.parametrize(
    "argv",
    [
        ["scan-ratio", "--d-min", "5", "--d-max", "5"],
        ["scan-ratio", "--t", "3000", "--d-max", "8001"],
        ["lcu-table", "--phi-max", "2.5", "--d-max", "101", "--eps", "1e-12"],
        ["pf-thresholds", "--all-odd", "--d-max", "41", "--eps", "1e-9"],
    ],
    ids=["one-row-scan", "4000-row-scan", "lcu-table", "pf-thresholds"],
)


def emitted_and_printed(capsys, tmp_path, argv):
    """The rows of `argv`, and its report as _emit writes it and as main prints it; both must agree."""
    args = cli._build_parser().parse_args(argv)
    model = cli._load_model()
    ds = cli._d_values(args.d_min, args.d_max, args.prime_only, "")
    rows = args.report(args, ds, model, args.row_type)
    out = emitted(args, rows, capsys, tmp_path)
    assert cli.main(argv) == 0
    assert lines(capsys.readouterr().out) == lines(out)
    if argv[0] == "pf-thresholds":
        assert {row.favorable for row in rows} == {True, False}
    return args, rows, out


@REPORTS
def test_json_equals_the_indent_2_dump(capsys, tmp_path, argv):
    args, rows, out = emitted_and_printed(capsys, tmp_path, [*argv, "--format", "json"])
    assert lines(out) == lines(indent_2_dump(args, rows))


@REPORTS
def test_csv_equals_the_fmt_joined_rows(capsys, tmp_path, argv):
    args, rows, out = emitted_and_printed(capsys, tmp_path, argv)
    assert lines(out) == lines(fmt_joined_csv(args, rows))


def extreme_reports(fmt):
    """(args, rows) of each report type, with extreme floats, ints in float columns, and
    floats whose repr has an exponent or a trailing .0 (1e-07, 1e+16, 1234.0).

    Only the CSV rows hold inf, -inf and nan: no command prints a non-finite
    value, and the JSON rows print floats by repr, not as json's Infinity or NaN."""
    nonfinite = (math.inf, -math.inf, math.nan) if fmt == "csv" else (2.0, -2.0, 0.5)
    scan = argparse.Namespace(
        command="scan-ratio", format=fmt, phi_max=1e300, eps_sim=1e-300, t=0.0, k=2,
        prime_only=False,
    )
    lcu = argparse.Namespace(
        command="lcu-table", format=fmt, phi_max=1.0, eps_sim=1e-6, t=0.1, prime_only=True,
    )
    pf = argparse.Namespace(
        command="pf-thresholds", format=fmt, phi_max=1.0, eps=1e-300, prime_only=False,
    )
    return [
        (scan, [
            ResourceReport(3, 2, 1e-300, 1e300, 5e-324, 1.7976931348623157e308, 108, 116.5,
                           1e300, 1e-300, 0.1, -2.5e-300, -1e300),
            ResourceReport(5, 3, 0.0, -0.0, 1.0, 2.0, 3, 4.0, 5.0, 6.0, 7.0, -0.0, -123.456),
            ResourceReport(7, 3, *nonfinite, 1e-310, 2.5e-8, 123456789.5,
                           0.30000000000000004, 1e16, 9.99999999e-5, 1234567890.0, 5e-324),
            ResourceReport(9, 4, 1e-07, 1e16, 1234.0, 0.1, 412.0, -1234.5, 1.7976931348623157e308,
                           2.5e-300, -0.0, 1e-07, 1234.0),
        ]),
        (lcu, [LcuRow(3, 1e-300, 1e300), LcuRow(100000000000031, 2.0174617e-13, 0.681767037),
               LcuRow(5, 1e-07, 1234.0)]),
        (pf, [PfRow(3, 1e300, 1e-300, True), PfRow(7, 0.841840228, 0.841840228, False),
              PfRow(5, 1e16, 1234.0, True)]),
    ]


def test_json_of_extreme_values_equals_the_indent_2_dump(capsys, tmp_path):
    for args, rows in extreme_reports("json"):
        assert emitted(args, rows, capsys, tmp_path) == indent_2_dump(args, rows)


def test_csv_of_extreme_values_equals_the_fmt_joined_rows(capsys, tmp_path):
    for args, rows in extreme_reports("csv"):
        assert emitted(args, rows, capsys, tmp_path) == fmt_joined_csv(args, rows)


PASSES = {
    PfRow: lambda ds: pf_thresholds(ds, 1e-9),
    LcuRow: lambda ds: lcu_fixed_encoding_thresholds(2.5, ds, 3000.0, 1e-6),
    ResourceReport: lambda ds: ratio_and_budget(2.5, ds, 3000.0, 1e-6),
}
# odd d across costmodel.ONE_NORM_SERIES_D and a change of n_b
DIMENSIONS = range(95, 133, 2)


@pytest.mark.parametrize("given", ["range", "tuple", "np.int64"])
@pytest.mark.parametrize("row_type", list(PASSES), ids=lambda row_type: row_type.__name__)
def test_every_int_column_holds_an_int_at_the_source(row_type, given):
    ds = {"range": DIMENSIONS, "tuple": tuple(DIMENSIONS), "np.int64": tuple(map(np.int64, DIMENSIONS))}[given]
    hints = typing.get_type_hints(row_type)
    ints = [i for i, kind in enumerate(hints.values()) if kind is int]
    names = [name for name, kind in hints.items() if kind is int]
    rows = PASSES[row_type](ds)
    assert [row.d for row in rows] == list(DIMENSIONS)
    assert all(type(row[i]) is int for row in rows for i in ints)
    # d and n_b print as integers, with no "." that a float there would print
    csv, as_json = cli._row_format(row_type, "csv"), cli._row_format(row_type, "json")
    for row in rows:
        assert all(csv(*row).split(",")[i].isdigit() for i in ints)
        printed = json.loads(as_json(*row).rstrip().rstrip(","))
        assert all(type(printed[name]) is int for name in names)


@pytest.mark.usefixtures("fresh_caches")
def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built = []
    build = cli._build_parser

    def counted_build():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "_build_parser", counted_build)
    assert cli.main(["pf-thresholds", "--d-max", "7"]) == 0
    assert cli.main(["scan-ratio", "--d-max", "7"]) == 0
    capsys.readouterr()
    assert len(built) == 1 and cli._PARSER is built[0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["scan-ratio", "lcu-table"])
def test_a_third_call_prints_the_bytes_of_a_fresh_process(command, fmt):
    # the parser is reused; every row is priced again and formatted from fresh templates
    argv = [command, "--phi-max", "2.5", "--d-max", "257", "--t", "37.5", "--format", fmt]
    want = fresh_process_stdout("-m", "quditcost.cli", *argv)
    assert [main_stdout(argv) for _ in range(3)] == [want] * 3


def test_reused_parser_carries_no_state_between_calls(capsys, tmp_path):
    out = tmp_path / "k3.json"
    argv = ["scan-ratio", "--k", "3", "--primes", "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    assert json.loads(out.read_text())["meta"]["k"] == 3
    assert capsys.readouterr().out == ""
    assert cli.main(["scan-ratio"]) == 0
    assert lines(capsys.readouterr().out) == lines(fresh_process_stdout("-m", "quditcost.cli", "scan-ratio"))


def test_a_call_that_argparse_rejects_leaves_the_parser_as_it_was(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan-ratio", "--k", "3", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(["scan-ratio"]) == 0
    assert lines(capsys.readouterr().out) == lines(fresh_process_stdout("-m", "quditcost.cli", "scan-ratio"))
