"""Byte-for-byte stdout of the three report commands.

The files in golden/ pin the meta header, the column order, the
9-significant-digit CSV floats and the JSON layout.  Each was written by
the command beside it; regenerate one only for an intended output change.
"""

from pathlib import Path

import pytest

from quditcost.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "pf_thresholds.csv": ["pf-thresholds", "--d-max", "41"],
    "pf_thresholds_all_odd.json": [
        "pf-thresholds", "--all-odd", "--d-max", "41", "--eps", "1e-9", "--format", "json",
    ],
    "lcu_table.csv": ["lcu-table", "--phi-max", "2.5", "--t", "3000", "--all-odd", "--d-max", "41"],
    "lcu_table.json": ["lcu-table", "--d-max", "41", "--eps", "1e-8", "--format", "json"],
    "scan_ratio.csv": ["scan-ratio", "--t", "3000", "--d-max", "41"],
    "scan_ratio_primes_k3.json": [
        "scan-ratio", "--primes", "--k", "3", "--t", "37.5", "--d-max", "41", "--format", "json",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_stdout_matches_golden_bytes(capsys, name):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
