"""Write reference/reference.json.gz from the program in ../src.

Usage: python3 perfbench/make_reference.py

The reference holds what the checks in workloads.py need and cannot derive:
the one-norms alpha_qb and alpha_qd per (phi_max, d), the pf-thresholds
rows of sweep-small, and the verify report.  Before writing, the script
proves that the rebuilt rows reproduce the program's scan-large CSV and the
sweep-small outputs of the default seed exactly, and that every operation
of the three workloads passes its check.  Run it only on a commit whose
outputs are trusted; the stored file was written at commit 3549b03.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _run(main, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return out.getvalue()


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else format(value, ".9g")


def _csv_body(rows: list[dict], columns: list[str]) -> str:
    return "".join(",".join(_fmt(row[c]) for c in columns) + "\n" for row in rows)


def _data(stdout: str) -> str:
    """A CSV report without its header line and meta comments."""
    lines = [line for line in stdout.splitlines() if not line.startswith("#")]
    return "".join(line + "\n" for line in lines[1:])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from quditcost.cli import main as cli

    onenorms = {}
    for phi_max, d_max in (("1", 4001), ("2.5", workloads.SWEEP_D_MAX)):
        argv = ["scan-ratio", "--phi-max", phi_max, "--t", "1", "--d-max", str(d_max), "--format", "json"]
        rows = json.loads(_run(cli, argv))["rows"]
        onenorms[phi_max] = {str(r["d"]): [r["alpha_qb"], r["alpha_qd"]] for r in rows}

    pf = {}
    for argv in workloads.operations("sweep-small", workloads.DEFAULT_SEED):
        if argv[0] == "pf-thresholds":
            text = "".join(line + "\n" for line in _run(cli, argv).splitlines() if not line.startswith("#"))
            if pf.setdefault(workloads.number_key(float(argv[-1])), text) != text:
                raise SystemExit(f"pf-thresholds rows depend on phi_max: {argv}")
    reference = {
        "onenorms": onenorms,
        "pf_thresholds": pf,
        "verify": _run(cli, ["verify"]),
    }

    # The rebuild must reproduce the program's own outputs bit for bit.
    large = _run(cli, workloads.SCAN_LARGE)
    opts = workloads.parse_options(workloads.SCAN_LARGE[1:])
    rebuilt = [workloads.expected_scan_row(d, opts.t, opts.eps, opts.k, *onenorms["1"][str(d)])
               for d in range(3, opts.d_max + 1, 2)]
    if _data(large) != _csv_body(rebuilt, workloads.SCAN_COLUMNS):
        raise SystemExit("rebuilt scan-large rows differ from the program's CSV")
    for argv in workloads.operations("sweep-small", workloads.DEFAULT_SEED):
        opts = workloads.parse_options(argv[1:])
        norms = onenorms[workloads.number_key(opts.phi_max)]
        stdout = _run(cli, argv)
        if argv[0] == "scan-ratio":
            rows = [workloads.expected_scan_row(d, opts.t, opts.eps, opts.k, *norms[str(d)])
                    for d in range(3, opts.d_max + 1, 2)]
            if json.loads(stdout)["rows"] != rows:
                raise SystemExit(f"rebuilt rows differ: {argv}")
        elif argv[0] == "lcu-table":
            rows = [workloads.expected_lcu_row(d, opts.t, opts.eps, *norms[str(d)])
                    for d in range(3, opts.d_max + 1, 2) if workloads.is_prime(d)]
            if _data(stdout) != _csv_body(rows, ["d", "a_max_lcu", "a_rz_lcu"]):
                raise SystemExit(f"rebuilt rows differ: {argv}")

    for name in workloads.WORKLOADS:
        for argv in workloads.operations(name, workloads.DEFAULT_SEED):
            failure = workloads.check(argv, 0, _run(cli, argv), reference)
            if failure:
                raise SystemExit(f"{argv}: {failure}")

    path = workloads.REFERENCE
    path.parent.mkdir(exist_ok=True)
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(reference, sort_keys=True).encode())
    print(f"wrote {path.relative_to(ROOT)} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
