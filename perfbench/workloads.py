"""Benchmark workloads: the CLI operations each one runs, and their checks.

Every operation is an argv list for ``quditcost.cli.main``.  Its output is
correct when the command exits 0 and prints what the reference predicts:

* ``verify`` prints no FAIL line and a pass line for every suite of the
  reference run.
* ``scan-ratio`` and ``lcu-table`` rows are rebuilt from the one-norms
  that the reference stores per (phi_max, d) and from the cost chain the
  README states: Q = alpha t + log2(1/eps), eps_be = eps / Q, the qubit
  call 32 b_r + 24 n_b - 116, the hybrid qudit call L (0.57 log2(L/eps_be)
  + 8.83) + 4 n_b with L = 2 (2^n_b - 1) + n_b, totals Q times the call,
  their ratio, difference and per-switch budget.  The rebuild repeats the
  program's floating-point operations, so on the commit that wrote the
  reference it reproduces every printed value bit for bit
  (make_reference.py checks this); it checks all columns of every seed.
* ``pf-thresholds`` rows are compared with the reference rows.

Rows, integer and boolean columns must match exactly.  JSON floats must lie
within 1e-12 of the expected value relative to it, CSV floats within one
unit in its 9th significant digit.  For the two differences of totals,
``delta_tot`` and ``budget_per_switch``, the 1e-12 is taken relative to the
qubit total they derive from, because cancellation makes their own
magnitude arbitrary.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import random
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference" / "reference.json.gz"

DEFAULT_SEED = 0

WORKLOADS = ("scan-large", "sweep-small", "verify-default")

SCAN_COLUMNS = [
    "d", "n_b", "alpha_qb", "alpha_qd", "q_qb", "q_qd", "per_call_qb", "per_call_qd",
    "t_tot_qb", "t_tot_qd", "ratio", "delta_tot", "budget_per_switch",
]
EXACT_COLUMNS = {"d", "n_b", "per_call_qb", "favorable"}
SCALED_COLUMNS = {"delta_tot", "budget_per_switch"}

# sweep-small: one crossover plot over the odd d <= SWEEP_D_MAX
SWEEP_PHI_MAX = ("1", "2.5")
SWEEP_T_COUNT = 48
SWEEP_T_RANGE = (0.1, 3000.0)
SWEEP_EPS = ("1e-3", "1e-6", "1e-9", "1e-12")
SWEEP_D_MAX = 257

SCAN_LARGE = ["scan-ratio", "--t", "3000", "--d-max", "4001"]

# The synthesis model the program uses when QUDITCOST_CONFIG is unset.
RZ_SLOPE, RZ_INTERCEPT = 0.57, 8.83

JSON_RTOL = 1e-12


def operations(workload: str, seed: int) -> list[list[str]]:
    """The argv lists one sample of ``workload`` runs, in order."""
    if workload == "scan-large":
        return [list(SCAN_LARGE)]
    if workload == "verify-default":
        return [["verify"]]
    if workload != "sweep-small":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    lo, hi = (math.log(v) for v in SWEEP_T_RANGE)
    times = [repr(math.exp(rng.uniform(lo, hi))) for _ in range(SWEEP_T_COUNT)]
    ops = []
    for phi_max in SWEEP_PHI_MAX:
        common = ["--phi-max", phi_max, "--d-max", str(SWEEP_D_MAX)]
        for t in times:
            ops.append(["scan-ratio", *common, "--t", t, "--format", "json"])
            ops.append(["lcu-table", *common, "--t", t])
        for eps in SWEEP_EPS:
            ops.append(["pf-thresholds", *common, "--all-odd", "--eps", eps])
    return ops


def load_reference(path: Path = REFERENCE) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def parse_options(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--phi-max", type=float, default=1.0)
    parser.add_argument("--t", type=float, default=0.1)
    parser.add_argument("--eps", type=float, default=1e-6)
    parser.add_argument("--d-max", type=int, default=19)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--format", default="csv")
    parser.add_argument("--all-odd", action="store_true")
    return parser.parse_known_args(argv)[0]


def check(argv: list[str], rc: int, stdout: str, reference: dict) -> str | None:
    """None when the operation's output is correct, else why it is not."""
    if rc != 0:
        return f"exit code {rc}"
    command, opts = argv[0], parse_options(argv[1:])
    try:
        if command == "verify":
            return _check_verify(stdout, reference["verify"])
        if command == "pf-thresholds":
            return _check_pf(opts, stdout, reference["pf_thresholds"])
        onenorms = reference["onenorms"][number_key(opts.phi_max)]
        if command == "scan-ratio":
            return _check_scan(opts, stdout, onenorms)
        if command == "lcu-table":
            return _check_lcu(opts, stdout, onenorms)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"unreadable output or no reference: {exc!r}"
    return f"no check for command {command!r}"


def number_key(value: float) -> str:
    return format(value, "g")


def _check_verify(stdout: str, reference: str) -> str | None:
    lines = stdout.splitlines()
    for line in lines:
        if "FAIL" in line:
            return f"verify: {line.strip()}"
    passed = {line.split()[0] for line in lines if line.split()[1:2] == ["pass"]}
    for line in reference.splitlines():
        if line.split()[0] not in passed:
            return f"verify: no pass line for suite {line.split()[0]}"
    return None


def _table(stdout: str, fmt: str) -> tuple[list[str], list[dict]]:
    """Columns and rows of a CSV or JSON report; CSV values stay strings."""
    if fmt == "json":
        rows = json.loads(stdout)["rows"]
        return (list(rows[0]) if rows else []), rows
    lines = [line for line in stdout.splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    return columns, [dict(zip(columns, line.split(","))) for line in lines[1:]]


def _compare(columns: list[str], rows: list[dict], expected: list[dict], fmt: str) -> str | None:
    if [row.get("d") for row in rows] != [str(e["d"]) if fmt == "csv" else e["d"] for e in expected]:
        return f"rows: got d = {[row.get('d') for row in rows][:8]}..., expected {len(expected)} rows"
    for row, want in zip(rows, expected):
        for column in columns:
            got, value = row[column], want[column]
            if column in EXACT_COLUMNS:
                ok = _exact(got, value, fmt)
            else:
                scale = abs(want["t_tot_qb"]) if column in SCALED_COLUMNS else abs(value)
                ok = _close(float(got), value, scale, fmt)
            if not ok:
                return f"d={want['d']} {column}: got {got!r}, expected {value!r}"
    return None


def _exact(got, value, fmt: str) -> bool:
    if isinstance(value, bool):
        return got == (("true" if value else "false") if fmt == "csv" else value)
    return float(got) == value and (fmt == "csv" or type(got) is type(value))


def _close(got: float, value: float, scale: float, fmt: str) -> bool:
    tolerance = JSON_RTOL * scale
    if fmt == "csv" and value != 0.0:
        tolerance = max(tolerance, 10.0 ** (math.floor(math.log10(abs(value))) - 8) * (1.0 + 1e-6))
    return abs(got - value) <= tolerance


def _odd(d_max: int) -> list[int]:
    return list(range(3, d_max + 1, 2))


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def _rz_cost(delta: float) -> float:
    return RZ_SLOPE * math.log2(1.0 / delta) + RZ_INTERCEPT


def expected_scan_row(d: int, t: float, eps: float, k: int, alpha_qb: float, alpha_qd: float) -> dict:
    """One scan-ratio row rebuilt from the two one-norms, in the program's operation order."""
    n_b = (d - 1).bit_length()
    q_qb = alpha_qb * t + math.log2(1.0 / eps)
    q_qd = alpha_qd * t + math.log2(1.0 / eps)
    b_r = math.ceil(0.5 * math.log2(9.0 * math.pi**2 / (2.0 * (eps / q_qb))))
    per_call_qb = float(32 * b_r + 24 * n_b - 116)
    rotations = 2 * (2**n_b - 1) + n_b
    per_call_qd = rotations * _rz_cost(eps / q_qd / rotations) + 4 * n_b
    t_tot_qb = q_qb * per_call_qb
    t_tot_qd = q_qd * per_call_qd
    delta = t_tot_qb - t_tot_qd
    return {
        "d": d, "n_b": n_b, "alpha_qb": alpha_qb, "alpha_qd": alpha_qd,
        "q_qb": q_qb, "q_qd": q_qd, "per_call_qb": per_call_qb, "per_call_qd": per_call_qd,
        "t_tot_qb": t_tot_qb, "t_tot_qd": t_tot_qd, "ratio": t_tot_qb / t_tot_qd,
        "delta_tot": delta, "budget_per_switch": delta / (q_qd * k),
    }


def expected_lcu_row(d: int, t: float, eps: float, alpha_qb: float, alpha_qd: float) -> dict:
    """One lcu-table row: fixed-encoding prefactors with the bound L = 3d - 3."""
    scan = expected_scan_row(d, t, eps, 2, alpha_qb, alpha_qd)
    eps_be = eps / scan["q_qd"]
    rotations = 3 * d - 3
    log_term = math.log2(rotations / eps_be)
    return {
        "d": d,
        "a_max_lcu": scan["t_tot_qb"] / (scan["q_qd"] * rotations * log_term),
        "a_rz_lcu": _rz_cost(eps_be / rotations) / log_term,
        "t_tot_qb": scan["t_tot_qb"],
    }


def _check_scan(opts: argparse.Namespace, stdout: str, onenorms: dict) -> str | None:
    columns, rows = _table(stdout, opts.format)
    if columns != SCAN_COLUMNS:
        return f"scan-ratio columns {columns}"
    expected = [expected_scan_row(d, opts.t, opts.eps, opts.k, *onenorms[str(d)]) for d in _odd(opts.d_max)]
    return _compare(columns, rows, expected, opts.format)


def _check_lcu(opts: argparse.Namespace, stdout: str, onenorms: dict) -> str | None:
    columns, rows = _table(stdout, opts.format)
    if columns != ["d", "a_max_lcu", "a_rz_lcu"]:
        return f"lcu-table columns {columns}"
    expected = [expected_lcu_row(d, opts.t, opts.eps, *onenorms[str(d)])
                for d in _odd(opts.d_max) if is_prime(d)]
    return _compare(columns, rows, expected, opts.format)


def _check_pf(opts: argparse.Namespace, stdout: str, reference: dict) -> str | None:
    columns, rows = _table(stdout, opts.format)
    ref_columns, ref_rows = _table(reference[number_key(opts.eps)], "csv")
    if columns != ref_columns:
        return f"pf-thresholds columns {columns}"
    expected = [{c: (int(v) if c == "d" else v == "true" if c == "favorable" else float(v))
                 for c, v in row.items()} for row in ref_rows]
    return _compare(columns, rows, expected, opts.format)
