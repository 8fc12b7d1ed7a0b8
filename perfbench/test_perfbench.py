"""Tests of the benchmark itself: span arithmetic, coverage, checks, inputs.

Run with: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer, aggregate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(SRC))
    from quditcost.cli import main
    return main


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def _stdout(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli(argv) == 0
    return out.getvalue()


def test_self_time_subtracts_direct_children_only():
    names = ["a", "b", "c"]
    spans = [
        [0, 0.0, 10.0, -1, None],  # a
        [1, 1.0, 4.0, 0, 5],       # b inside a
        [2, 2.0, 3.0, 1, None],    # c inside b
        [1, 5.0, 9.0, 0, 7],       # b again inside a
    ]
    stats = aggregate(names, spans)
    assert stats["a"]["self_s"] == pytest.approx(3.0)
    assert stats["b"] == {"calls": 2, "total_s": pytest.approx(7.0), "self_s": pytest.approx(6.0),
                          "d_sum": 12, "d2_sum": 74}
    assert stats["c"]["self_s"] == pytest.approx(1.0)
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(10.0)


def test_wrapped_calls_nest_and_self_times_add_up():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda x: x + 1)
    outer = tracer.wrap("m.outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    stats = aggregate(tracer.names, tracer.spans)
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert stats["m.inner"]["calls"] == 2
    assert stats["m.outer"]["self_s"] + stats["m.inner"]["self_s"] == pytest.approx(
        stats["m.outer"]["total_s"], abs=1e-12)


def test_function_imported_by_name_is_counted(tmp_path):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import f\n")
    (pkg / "a.py").write_text("def f(x):\n    return x + 1\n")
    (pkg / "b.py").write_text("from .a import f\n\ndef g(x):\n    return f(x) + f(x)\n")
    sys.path.insert(0, str(tmp_path))
    try:
        import toypkg.b
        tracer = Tracer()
        assert tracer.install("toypkg") == ["a.f", "b.g"]
        assert toypkg.b.g(1) == 4 and toypkg.f(0) == 1
    finally:
        sys.path.remove(str(tmp_path))
        for name in [n for n in sys.modules if n.split(".")[0] == "toypkg"]:
            del sys.modules[name]
    stats = aggregate(tracer.names, tracer.spans)
    assert stats["a.f"]["calls"] == 3 and stats["b.g"]["calls"] == 1


PROFILE_COUNT = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
from tracer import Tracer, aggregate
import quditcost.cli
tracer = Tracer()
tracer.install("quditcost")
originals, imported = {}, []
for name, module in list(sys.modules.items()):
    if name.startswith("quditcost."):
        for value in vars(module).values():
            fn = getattr(value, "__wrapped__", None)
            if fn is not None:
                originals[fn.__code__] = fn.__module__.split(".", 1)[1] + "." + fn.__name__
                if fn.__module__ != name:
                    imported.append(originals[fn.__code__])
profiled = {}
def profile(frame, event, arg):
    if event == "call" and frame.f_code in originals:
        profiled[originals[frame.f_code]] = profiled.get(originals[frame.f_code], 0) + 1
sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()):
    quditcost.cli.main(["scan-ratio", "--d-max", "9"])
sys.setprofile(None)
traced = {n: s["calls"] for n, s in aggregate(tracer.names, tracer.spans).items()}
print(json.dumps({"traced": traced, "profiled": profiled,
                  "imported_and_called": sorted({n for n in imported if n in traced})}))
"""


def test_every_call_of_the_program_is_counted_whatever_name_it_used():
    """The tracer's call counts equal an independent count from a profile hook."""
    proc = subprocess.run([sys.executable, "-c", PROFILE_COUNT, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout)
    assert result["traced"] == result["profiled"]
    assert result["imported_and_called"], "no called function is also held under an imported name"


def test_report_counts_of_a_tiny_scan(tmp_path):
    ops = [["scan-ratio", "--d-max", "9"]]
    (tmp_path / "ops.json").write_text(json.dumps(ops))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(SRC), str(tmp_path / "ops.json"),
                    str(tmp_path / "out.jsonl"), "1"], check=True, timeout=120)
    lines = (tmp_path / "out.jsonl").read_text().splitlines()
    sample = json.loads(lines[-1])
    sample["ops"] = [json.loads(line) for line in lines[:-1]]
    values, program = run.layer_values(sample, ops)
    assert values["pauli.beta_closed_form.calls"] == program["pauli.beta_closed_form"]["calls"]
    assert values["endtoend.expansions_per_report"] == values["pauli.beta_closed_form.calls"] / 4
    assert values["grid.make_grid.levels"] == 3 + 5 + 7 + 9
    assert values["cli._emit.bytes"] == len(sample["ops"][0]["stdout"])


def test_correct_outputs_pass(cli, reference):
    for argv in (["scan-ratio", "--d-max", "21", "--t", "37.5", "--format", "json"],
                 ["scan-ratio", "--phi-max", "2.5", "--d-max", "21", "--t", "3000"],
                 ["lcu-table", "--phi-max", "2.5", "--d-max", "31", "--t", "0.7"],
                 ["pf-thresholds", "--all-odd", "--d-max", "257", "--eps", "1e-9"]):
        assert workloads.check(argv, 0, _stdout(cli, argv), reference) is None, argv


def test_corrupted_outputs_fail(cli, reference):
    argv = ["scan-ratio", "--d-max", "21", "--t", "37.5", "--format", "json"]
    good = _stdout(cli, argv)
    payload = json.loads(good)
    payload["rows"][3]["ratio"] *= 1 + 1e-11
    assert "ratio" in workloads.check(argv, 0, json.dumps(payload), reference)
    payload = json.loads(good)
    del payload["rows"][-1]
    assert "rows" in workloads.check(argv, 0, json.dumps(payload), reference)
    assert workloads.check(argv, 1, good, reference) == "exit code 1"
    assert workloads.check(argv, 0, good[:100], reference).startswith("unreadable")

    csv_argv = ["lcu-table", "--d-max", "31", "--t", "0.7"]
    lines = _stdout(cli, csv_argv).splitlines()
    d, a_max, a_rz = lines[-1].split(",")
    lines[-1] = ",".join([d, a_max, f"{float(a_rz) * (1 + 3e-8):.9g}"])
    assert "a_rz_lcu" in workloads.check(csv_argv, 0, "\n".join(lines), reference)

    verify = reference["verify"].replace("pass", "FAIL", 1)
    assert "FAIL" in workloads.check(["verify"], 0, verify, reference)
    assert "no pass line" in workloads.check(["verify"], 0, reference["verify"].split("\n", 1)[1], reference)


def test_one_unit_in_the_ninth_digit_is_the_csv_tolerance():
    assert workloads._close(1.23456789, 1.234567885, 1.234567885, "csv")
    assert workloads._close(1.23456790, 1.23456789, 1.23456789, "csv")
    assert not workloads._close(1.23456791, 1.23456789, 1.23456789, "csv")
    assert workloads._close(1.0 + 0.9e-12, 1.0, 1.0, "json")
    assert not workloads._close(1.0 + 2e-12, 1.0, 1.0, "json")


def test_a_corrupted_operation_counts_as_failed(monkeypatch, cli, reference):
    ops = workloads.operations("sweep-small", 3)[:4]
    outputs = [{"rc": 0, "stdout": _stdout(cli, argv), "stderr": ""} for argv in ops]
    outputs[1]["stdout"] = outputs[1]["stdout"].replace("\n3,", "\n5,", 1)
    monkeypatch.setattr(run, "operations", lambda workload, seed: ops)
    monkeypatch.setattr(run, "run_sample", lambda path, trace, index: {
        "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_kb": 1024, "ops": outputs})
    result = run.measure("sweep-small", 3, 0.0, 0, reference)
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert "lcu-table" in result["failures"][0]


def test_same_seed_same_argv_lists():
    first = workloads.operations("sweep-small", 11)
    assert first == workloads.operations("sweep-small", 11)
    assert first != workloads.operations("sweep-small", 12)
    assert len(first) == 200
    times = {float(argv[argv.index("--t") + 1]) for argv in first if "--t" in argv}
    assert len(times) == 48 and all(0.1 <= t <= 3000.0 for t in times)
    assert workloads.operations("scan-large", 1) == workloads.operations("scan-large", 2)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan-large", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
