"""Benchmark of the quditcost command line, end to end and per module.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of scan-large, sweep-small, verify-default, or ``all`` for
every workload in turn.  Each sample runs the workload's operations in a
fresh Python process (worker.py) that imports the program from ``src/``;
no cache carries over between samples.  Samples repeat until about
--seconds have passed.  Every output is checked (workloads.py); an
operation that exits nonzero, prints a FAIL line or differs from the
reference counts as failed.

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json:
the median operation time of a sample, the median import time of the
program in a fresh process, and the median peak RSS of a sample.  With
--trace 1 untraced and traced samples alternate and the result carries the
per-layer metrics of BENCHMARK.json, taken from the spans of the traced
samples (tracer.py).  The last line of stdout is the result as one JSON
object; the line before it records the provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import aggregate
from workloads import WORKLOADS, check, load_reference, operations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_RUNS = 11
SAMPLE_TIMEOUT_S = 170
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import quditcost.cli; print(time.perf_counter() - t)"
)
REPORT_COMMANDS = ("scan-ratio", "lcu-table")


def _child_env() -> dict:
    """The caller's environment without settings that would change the program's output."""
    env = dict(os.environ)
    env.pop("QUDITCOST_CONFIG", None)
    env.pop("PYTHONPATH", None)
    return env


def measure_setup() -> float:
    """Seconds to import quditcost.cli (and numpy) in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], env=_child_env(),
                          capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S, check=True)
    return float(proc.stdout)


def run_sample(ops_path: Path, trace: int, index: int) -> dict:
    """One fresh worker process; returns its summary with the per-operation outputs under "ops"."""
    result_path = WORK / f"sample-{os.getpid()}-{index}.jsonl"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(SRC), str(ops_path), str(result_path), str(trace)],
            env=_child_env(), capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
        if proc.returncode != 0:
            return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        lines = result_path.read_text().splitlines()
    except subprocess.TimeoutExpired:
        return {"error": f"worker ran longer than {SAMPLE_TIMEOUT_S} s"}
    finally:
        result_path.unlink(missing_ok=True)
    summary = json.loads(lines[-1])
    summary["ops"] = [json.loads(line) for line in lines[:-1]]
    return summary


def measure(workload: str, seed: int, seconds: float, trace: int, reference: dict) -> dict:
    """Samples of one workload for about ``seconds``, each checked for correctness.

    Untraced runs also time SETUP_RUNS imports, spread over the run so that
    they see the same machine as the samples; one warm-up import comes first.
    """
    ops = operations(workload, seed)
    WORK.mkdir(parents=True, exist_ok=True)
    ops_path = WORK / f"ops-{os.getpid()}.json"
    ops_path.write_text(json.dumps(ops))
    runs = {0: [], 1: []}
    setup: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    start = time.perf_counter()
    rounds = 0
    try:
        if not trace:
            measure_setup()
        while True:
            for mode in (0, 1) if trace else (0,):
                sample = run_sample(ops_path, mode, len(runs[0]) + len(runs[1]))
                attempted += len(ops)
                if "error" in sample:
                    failed += len(ops)
                    failures.append(sample["error"])
                    continue
                for argv, op in zip(ops, sample["ops"]):
                    reason = check(argv, op["rc"], op["stdout"], reference)
                    if reason:
                        failed += 1
                        failures.append(f"{' '.join(argv)}: {reason} {op['stderr'].strip()[-300:]}")
                if mode:
                    # keep the per-layer values; only the last traced sample's spans stay, on disk
                    sample["layers"] = layer_values(sample, ops)
                    (WORK / f"spans-{workload}-seed{seed}.json").write_text(
                        json.dumps({"names": sample.pop("names"), "spans": sample.pop("spans")}))
                del sample["ops"]
                runs[mode].append(sample)
            rounds += 1
            elapsed = time.perf_counter() - start
            done = elapsed + 0.5 * elapsed / rounds > seconds
            while not trace and len(setup) < (SETUP_RUNS if done else SETUP_RUNS * elapsed / seconds):
                setup.append(measure_setup())
            if done:
                break
    finally:
        ops_path.unlink(missing_ok=True)
    return {"ops": ops, "untraced": runs[0], "traced": runs[1], "setup": setup,
            "attempted": attempted, "failed": failed, "failures": failures}


def end_to_end(run: dict) -> dict[str, float]:
    samples = run["untraced"]
    return {
        "wall_s": median([s["wall_s"] for s in samples]),
        "setup_s": median(run["setup"]),
        "peak_rss_mb": median([s["peak_rss_kb"] / 1024.0 for s in samples]),
    }


def _report_rows(argv: list[str], stdout: str) -> int:
    if argv[0] not in REPORT_COMMANDS:
        return 0
    if "json" not in argv:
        return max(0, sum(1 for line in stdout.splitlines() if not line.startswith("#")) - 1)
    try:
        return len(json.loads(stdout)["rows"])
    except (ValueError, KeyError, TypeError):
        return 0


def layer_values(sample: dict, ops: list[list[str]]) -> tuple[dict[str, float], dict]:
    """Per-layer values of one traced sample, and its per-function statistics."""
    names, spans = sample["names"], sample["spans"]
    stats = aggregate(names, spans)
    program = {n: s for n, s in stats.items() if not n.startswith("op.")}
    values: dict[str, float] = {"traced.wall_s": sample["wall_s"],
                                "traced.self_s": sum(s["self_s"] for s in program.values())}
    for name, st in program.items():
        module = name.split(".", 1)[0]
        values[f"{module}.self_s"] = values.get(f"{module}.self_s", 0.0) + st["self_s"]
        for key in ("calls", "self_s", "total_s"):
            values[f"{name}.{key}"] = st[key]
    values["pauli.beta_closed_form.terms"] = stats.get("pauli.beta_closed_form", {}).get("d_sum", 0)
    values["grid.make_grid.levels"] = stats.get("grid.make_grid", {}).get("d_sum", 0)
    values["pauli.beta_dft_oracle.kernel_bytes"] = 16 * stats.get("pauli.beta_dft_oracle", {}).get("d2_sum", 0)

    reports = sum(_report_rows(argv, op["stdout"]) for argv, op in zip(ops, sample["ops"]))
    expansions = values.get("pauli.beta_closed_form.calls", 0)
    values["endtoend.expansions_per_report"] = expansions / reports if reports else 0.0

    # output bytes of the operations whose printing went through cli._emit
    root: list[int] = []
    for index, span in enumerate(spans):
        root.append(index if span[3] < 0 else root[span[3]])
    op_of_root = {index: k for k, index in enumerate(i for i, s in enumerate(spans) if s[3] < 0)}
    emit_id = names.index("cli._emit") if "cli._emit" in names else -2
    emitting = {op_of_root[root[i]] for i, s in enumerate(spans) if s[0] == emit_id}
    values["cli._emit.bytes"] = sum(len(sample["ops"][k]["stdout"].encode()) for k in emitting)
    return values, program


def per_layer(run: dict, wanted: list[str]) -> tuple[dict[str, float], list[str], dict]:
    """Median over traced samples of each wanted per-layer metric; names of absent functions."""
    traced = [s["layers"] for s in run["traced"]]
    wall = median([s["wall_s"] for s in run["untraced"]])
    wrapped = set(run["traced"][0]["wrapped"])
    values, absent = {}, set()
    for metric in wanted:
        if metric == "error_rate":
            values[metric] = run["failed"] / run["attempted"]
        elif metric == "process.cpu_s":
            values[metric] = median([s["cpu_s"] for s in run["untraced"]])
        elif metric == "tracing.overhead_s":
            values[metric] = median([v["traced.wall_s"] for v, _ in traced]) - wall
        else:
            function = metric.rsplit(".", 1)[0]
            if function.count(".") == 1 and function not in wrapped:
                absent.add(function)
            values[metric] = median([v.get(metric, 0) for v, _ in traced])
    return values, sorted(absent), traced[-1][1]


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "quditcost").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload: str, seed: int, seconds: float, run: dict) -> dict:
    first = (run["untraced"] or run["traced"] or [{}])[0]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "ops_per_sample": len(run["ops"]),
        "samples": len(run["untraced"]),
        "sample_wall_s": [round(s["wall_s"], 4) for s in run["untraced"]],
        "traced_samples": len(run["traced"]),
        "setup_runs": len(run["setup"]),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "openblas": first.get("openblas"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def bench(workload: str, seed: int, seconds: float, trace: int, spec: dict, reference: dict) -> dict | None:
    """Run one workload, print its report lines and return its result, or None if no sample ran."""
    run = measure(workload, seed, seconds, trace, reference)
    for failure in run["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    if not run["untraced"] or (trace and not run["traced"]):
        return None
    if trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        values, absent, program = per_layer(run, wanted)
        total = sum(s["self_s"] for s in program.values())
        print(f"{workload}: traced self time {total:.3f} s over {len(program)} functions")
        for name, st in sorted(program.items(), key=lambda kv: -kv[1]["self_s"])[:10]:
            print(f"  {name:<45} calls={st['calls']:<9} self_s={st['self_s']:.4f} "
                  f"share={st['self_s'] / total:.1%}")
        if absent:
            print(f"absent: {', '.join(absent)}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(run)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(json.dumps({"provenance": provenance(workload, seed, seconds, run)}))
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so that subprocess.run kills and reaps a running sample.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "quditcost" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'quditcost' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = load_reference()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = bench(name, args.seed, args.seconds, args.trace, spec, reference)
        if result is None:
            print(f"error: no sample of {name} completed", file=sys.stderr)
            return 1
        results[name] = result
    if args.workload == "all" and not args.trace:
        columns = [*results[names[0]]["metrics"], "error_rate"]
        print(f"{'workload':<16}" + "".join(f"{c:>24}" for c in columns))
        for name, result in results.items():
            cells = [f"{m['value']:.4g} {m['unit']}" for m in result["metrics"].values()]
            cells.append(f"{result['failed'] / result['attempted']:.4g} ({result['failed']}/{result['attempted']})")
            print(f"{name:<16}" + "".join(f"{c:>24}" for c in cells))
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
