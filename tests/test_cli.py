import ast
import json
import math
import os
import subprocess
import sys

import pytest
from helpers import fresh_env, fresh_process, fresh_process_stdout
from oracles import is_prime_trial_division

import quditcost
from quditcost.cli import CENSUS_CAP, CONFIG_ENV_VAR, DIM_CAP, PRIME_TEST_BOUND, is_prime, main
from quditcost.costmodel import MAX_D, SynthesisModel, ratio_and_budget
from quditcost.simverify import MAX_NUMERATOR_D


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def suite_lines(out):
    """The six suite lines of verify's stdout, below the seven "# key=value" lines of its meta header."""
    lines = out.splitlines()
    keys = ["tool", "version", "command", "phi_max", "d_max", "census_max", "inject_angle_error"]
    assert [line.split("=", 1)[0] for line in lines[:7]] == [f"# {key}" for key in keys]
    assert len(lines) == 13
    return lines[7:]


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append(dict(zip(header, line.split(","))))
    return rows


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_equals_trial_division_below_1e5():
    assert [n for n in range(-3, 10**5) if is_prime(n) != is_prime_trial_division(n)] == []


@pytest.mark.parametrize(
    "n,factors",
    [
        # strong pseudoprimes to the bases 2..7 and 2..23, with no factor below 43
        (3215031751, (151, 751, 28351)),
        (3825123056546413051, (149491, 747451, 34233211)),
        ((2**31 - 1) ** 2, (2**31 - 1, 2**31 - 1)),
        ((2**61 - 1) * (2**19 - 1), (2**61 - 1, 2**19 - 1)),
    ],
)
def test_is_prime_rejects_composites_without_small_factors(n, factors):
    assert math.prod(factors) == n
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2**31 - 1, 100000000000031, 2**61 - 1])
def test_is_prime_accepts_large_primes(n):
    assert is_prime(n)


def test_prime_test_bound_is_sharp():
    # the bound is the smallest strong pseudoprime to all 13 bases: the test calls it prime
    assert 1287836182261 * 2575672364521 == PRIME_TEST_BOUND
    assert is_prime(PRIME_TEST_BOUND)


def test_prime_scan_at_the_prime_test_bound_is_config_error(capsys):
    bound = str(PRIME_TEST_BOUND)
    code, out, err = run_cli(capsys, "scan-ratio", "--primes", "--d-min", bound, "--d-max", bound)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and f"--d-max={bound} " in err
    code, out, _ = run_cli(capsys, "scan-ratio", "--d-min", bound, "--d-max", bound)
    assert code == 0 and parse_csv(out)[0]["d"] == bound


def test_lcu_table_row_at_a_14_digit_prime(capsys):
    d = "100000000000031"
    code, out, _ = run_cli(capsys, "lcu-table", "--t", "3000", "--d-min", d, "--d-max", d)
    assert code == 0
    assert out.splitlines()[-1] == "100000000000031,2.0174617e-13,0.681767037"


def test_pf_thresholds_default_rows(capsys):
    code, out, _ = run_cli(capsys, "pf-thresholds")
    assert code == 0
    rows = {int(r["d"]): r for r in parse_csv(out)}
    assert sorted(rows) == [3, 5, 7, 11, 13, 17, 19]
    assert float(rows[3]["a_max_pf"]) == pytest.approx(1.51, abs=0.01)
    assert float(rows[5]["a_max_pf"]) == pytest.approx(1.48, abs=0.01)
    assert float(rows[7]["a_max_pf"]) == pytest.approx(0.96, abs=0.01)
    assert [d for d, r in sorted(rows.items()) if r["favorable"] == "true"] == [3, 5]


def test_pf_thresholds_all_odd_includes_nonprime(capsys):
    code, out, _ = run_cli(capsys, "pf-thresholds", "--all-odd", "--d-max", "9")
    assert code == 0
    assert [int(r["d"]) for r in parse_csv(out)] == [3, 5, 7, 9]


def test_empty_scan_range_is_config_error(capsys):
    code, _, err = run_cli(capsys, "scan-ratio", "--d-min", "10", "--d-max", "9")
    assert code == 2
    assert "empty scan range" in err


@pytest.mark.parametrize(
    "argv,named",
    [
        (["scan-ratio", "--d-min", "10", "--d-max", "9"], "--d-min=10 and --d-max=9 hold no odd d"),
        (["lcu-table", "--d-min", "24", "--d-max", "28"], "--d-min=24 and --d-max=28 hold no odd prime d"),
        (["verify", "--d-max", "2"], "--d-max=2 "),
        (["verify", "--census-max", "1"], "--census-max=1 "),
    ],
)
def test_empty_scan_range_names_the_input_at_fault(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: empty scan range: {named}" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--d-max", "2"], "--d-max=2 holds no odd d >= 3"),
        (["verify", "--census-max", "1"], "--census-max=1 holds no odd d >= 3"),
        (["scan-ratio", "--d-min", "10", "--d-max", "9"], "--d-min=10 and --d-max=9 hold no odd d >= 3"),
    ],
)
def test_empty_scan_range_reads_right_for_one_flag_or_two(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: empty scan range: {message}\n")


def test_scan_ratio_golden_row(capsys):
    code, out, _ = run_cli(capsys, "scan-ratio", "--t", "0.1", "--d-min", "3", "--d-max", "7")
    assert code == 0
    rows = {int(r["d"]): r for r in parse_csv(out)}
    assert float(rows[3]["ratio"]) == pytest.approx(2.033787, rel=1e-6)
    assert float(rows[5]["ratio"]) == pytest.approx(1.006205, rel=1e-6)
    assert float(rows[7]["ratio"]) == pytest.approx(0.999963, rel=1e-6)


def test_scan_ratio_t_zero_well_defined(capsys):
    code, out, _ = run_cli(capsys, "scan-ratio", "--t", "0", "--d-max", "5")
    assert code == 0
    for row in parse_csv(out):
        assert float(row["ratio"]) > 0


def test_scan_ratio_csv_schema(capsys):
    _, out, _ = run_cli(capsys, "scan-ratio", "--d-max", "5")
    header = [ln for ln in out.splitlines() if not ln.startswith("#")][0]
    assert header == (
        "d,n_b,alpha_qb,alpha_qd,q_qb,q_qd,per_call_qb,per_call_qd,"
        "t_tot_qb,t_tot_qd,ratio,delta_tot,budget_per_switch"
    )


def test_scan_ratio_rows_reproducible_from_library(capsys):
    _, out, _ = run_cli(capsys, "scan-ratio", "--t", "3000", "--d-min", "3", "--d-max", "11")
    for row in parse_csv(out):
        (report,) = ratio_and_budget(1.0, [int(row["d"])], 3000.0, 1e-6, k=2)
        for column in ("ratio", "t_tot_qb", "t_tot_qd", "budget_per_switch"):
            assert float(row[column]) == pytest.approx(getattr(report, column), rel=1e-8)


def test_scan_ratio_rows_keyed_by_dimension(capsys):
    _, out, _ = run_cli(capsys, "scan-ratio", "--d-min", "4", "--d-max", "11", "--format", "json")
    rows = json.loads(out)["rows"]
    assert [row["d"] for row in rows] == [5, 7, 9, 11]
    for row, report in zip(rows, ratio_and_budget(1.0, [5, 7, 9, 11], 0.1, 1e-6)):
        assert row == report._asdict()


def test_output_determinism(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["scan-ratio", "--t", "3000", "--d-max", "23", "--out", str(first)]) == 0
    assert main(["scan-ratio", "--t", "3000", "--d-max", "23", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["scan-ratio", "lcu-table", "pf-thresholds"])
def test_an_empty_out_path_is_config_error(capsys, command, fmt):
    # an empty path names no file; the report goes nowhere, not to stdout
    code, out, err = run_cli(capsys, command, "--d-max", "3", "--format", fmt, "--out", "")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_lcu_table_t3000_values(capsys):
    code, out, _ = run_cli(capsys, "lcu-table", "--t", "3000", "--d-max", "23")
    assert code == 0
    rows = {int(r["d"]): r for r in parse_csv(out)}
    assert float(rows[19]["a_max_lcu"]) == pytest.approx(1.339724, rel=1e-5)
    assert float(rows[23]["a_max_lcu"]) < float(rows[23]["a_rz_lcu"])


def test_lcu_table_json_meta(capsys):
    code, out, _ = run_cli(capsys, "lcu-table", "--format", "json", "--d-max", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "lcu-table"
    assert payload["meta"]["version"]
    assert payload["meta"]["t"] == 0.1
    assert [row["d"] for row in payload["rows"]] == [3, 5]
    # JSON carries full-precision floats
    a_max = payload["rows"][0]["a_max_lcu"]
    assert a_max == pytest.approx(2.56, abs=0.01)
    assert isinstance(a_max, float)


@pytest.mark.parametrize(
    "command,options",
    [
        ("scan-ratio", {"--phi-max": "1.00000000001", "--eps-sim": "1.234567891234e-07", "--t": "0.1234567891234"}),
        ("lcu-table", {"--phi-max": "2.718281828459045", "--eps-sim": "9.87654321012e-05", "--t": "3000.0000001"}),
        ("pf-thresholds", {"--phi-max": "1.00000000001", "--eps": "1.234567891234e-07"}),
    ],
)
def test_csv_header_floats_read_back_as_passed(capsys, command, options):
    # each value needs more than 9 significant digits, which a row would round to
    argv = [command, "--d-max", "5", *(item for pair in options.items() for item in pair)]
    code, csv_out, _ = run_cli(capsys, *argv)
    assert code == 0
    _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    meta = json.loads(json_out)["meta"]
    header = dict(line[2:].split("=", 1) for line in csv_out.splitlines() if line.startswith("# "))
    for flag, text in options.items():
        key = flag[2:].replace("-", "_")
        assert float(header[key]) == float(text) == meta[key], key


def test_closed_stdout_exits_141_and_prints_nothing():
    # stdout is a pipe whose reader is gone, as in `quditcost ... | head -0`;
    # with and without buffering the error surfaces inside main
    env = fresh_env()
    for argv in (["scan-ratio", "--d-max", "5"], ["verify", "--d-max", "5", "--census-max", "5"]):
        for unbuffered in ("1", ""):
            read, write = os.pipe()
            os.close(read)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "quditcost.cli", *argv], stdout=write, stderr=subprocess.PIPE,
                    env={**env, "PYTHONUNBUFFERED": unbuffered}, timeout=60,
                )
            finally:
                os.close(write)
            assert (proc.returncode, proc.stderr) == (141, b""), (argv, unbuffered)


def test_verify_prints_the_meta_header_of_the_reports(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--phi-max", "2.5", "--d-max", "9", "--census-max", "15",
        "--inject-angle-error", "0.1",
    )
    assert code == 1
    assert out.splitlines()[:7] == [
        "# tool=quditcost",
        f"# version={quditcost.__version__}",
        "# command=verify",
        "# phi_max=2.5",
        "# d_max=9",
        "# census_max=15",
        "# inject_angle_error=0.1",
    ]
    assert len(suite_lines(out)) == 6
    # at the default caps; a value that 9 digits do not read back prints in full, as in a report
    code, out, _ = run_cli(capsys, "verify", "--phi-max", "0.30000000000000004")
    assert code == 0
    assert out.splitlines()[3:7] == [
        "# phi_max=0.30000000000000004", f"# d_max={DIM_CAP}", f"# census_max={CENSUS_CAP}", "# inject_angle_error=0",
    ]


def test_verify_passes_quickly(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--d-max", "9", "--census-max", "15"
    )
    assert code == 0
    assert out.count("pass") == 6
    assert "FAIL" not in out


def test_verify_detects_injected_angle_error(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--d-max", "9", "--census-max", "15",
        "--inject-angle-error", "1e-3",
    )
    assert code == 1
    assert any("select-schedule" in ln and "FAIL" in ln for ln in out.splitlines())


def test_verify_injected_angle_error_moves_only_the_select_schedule_line(capsys):
    argv = ["verify", "--d-max", "9", "--census-max", "15"]
    _, clean, _ = run_cli(capsys, *argv)
    code, bent, _ = run_cli(capsys, *argv, "--inject-angle-error", "1e-3")
    assert code == 1
    # the header differs in the injected error alone
    assert bent.splitlines()[:6] == clean.splitlines()[:6]
    assert (clean.splitlines()[6], bent.splitlines()[6]) == ("# inject_angle_error=0", "# inject_angle_error=0.001")
    clean, bent = suite_lines(clean), suite_lines(bent)
    assert bent[1].split()[:2] == ["select-schedule", "FAIL"]
    assert bent[:1] + bent[2:] == clean[:1] + clean[2:]


@pytest.mark.parametrize("flag", ["--d-max", "--census-max"])
def test_verify_rejects_a_cap_beyond_the_exact_numerators(capsys, flag):
    # 4 d^2 must fit in int64; no array is allocated before the check
    code, out, err = run_cli(capsys, "verify", flag, "10000000000000")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag}=10000000000000 is too large")
    assert len(err.splitlines()) == 1


# below 3 no odd d is left; above MAX_NUMERATOR_D the exact numerators 4 d^2 overflow int64
@pytest.mark.parametrize("cap", [1, 2, 10**13, MAX_NUMERATOR_D + 2])
@pytest.mark.parametrize("flag", ["--d-max", "--census-max"])
def test_verify_rejects_a_cap_outside_the_odd_d_it_can_check(capsys, flag, cap):
    # the other cap is valid, so only the cap at fault can be named
    other = "--census-max" if flag == "--d-max" else "--d-max"
    code, out, err = run_cli(capsys, "verify", other, "9", flag, str(cap))
    assert code == 2
    assert out == ""
    named = f"empty scan range: {flag}={cap} " if cap < 3 else f"{flag}={cap} is too large"
    assert err.startswith(f"error: {named}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_verify_rejects_a_nonfinite_injected_error(capsys, bad):
    code, out, err = run_cli(
        capsys, "verify", "--d-max", "5", "--census-max", "5", "--inject-angle-error", bad
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "--inject-angle-error" in err


def test_verify_lines_say_how_many_cases_and_where_the_worst_error_sits(capsys):
    code, out, _ = run_cli(capsys, "verify", "--d-max", "5", "--census-max", "5")
    assert code == 0
    lines = [line.split() for line in suite_lines(out)]
    # the name, the verdict and max_error keep their columns
    assert [fields[:2] for fields in lines] == [
        ["trotter-schedule", "pass"],
        ["select-schedule", "pass"],
        ["prep-schedule", "pass"],
        ["projector-diag", "pass"],
        ["dft-oracle", "pass"],
        ["select-census", "pass"],
    ]
    assert all(fields[2].startswith("max_error=") for fields in lines)
    # the projector checks both extreme odd d of each width n_b = 2 .. 8,
    # all exactly, so its worst (zero) error is first seen at d = 3
    assert [fields[3] for fields in lines] == ["cases=2"] * 3 + ["cases=14"] + ["cases=2"] * 2
    assert lines[3][4] == "worst_d=3"
    for fields in lines[:3] + lines[4:]:
        assert fields[4] in ("worst_d=3", "worst_d=5")


def test_verify_passes_at_census_cap_2049(capsys):
    code, out, _ = run_cli(capsys, "verify", "--census-max", "2049")
    assert code == 0
    assert [line.split()[1] for line in suite_lines(out)] == ["pass"] * 6


def test_verify_passes_at_phi_max_10(capsys):
    # the coefficient bounds are relative to phi_max^2, so a correct closed
    # form passes at any amplitude scale
    code, out, _ = run_cli(capsys, "verify", "--phi-max", "10")
    assert code == 0
    assert [line.split()[1] for line in suite_lines(out)] == ["pass"] * 6


def test_verify_passes_at_phi_max_100(capsys):
    # the step angles come from an exact integer cubic, so their roundoff
    # stays a few ulp of t phi_max^2 d at the default dense cap
    code, out, _ = run_cli(capsys, "verify", "--phi-max", "100")
    assert code == 0
    assert [line.split()[1] for line in suite_lines(out)] == ["pass"] * 6


def test_verify_rejects_an_overflowing_step_phase(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--phi-max", "6e153", "--d-max", "9", "--census-max", "9"
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "phi_max" in err


def test_verify_rejects_step_angles_past_the_float_spacing_limit(capsys):
    # beta_0 is finite here, but every step angle at t = 0.1 is about 1.7e304,
    # where a reduced angle is rounding noise and the step check would read
    # its maximum 2 whatever the schedule
    code, out, err = run_cli(capsys, "verify", "--phi-max", "5e152")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: phi_max=5e+152 with t=0.1 is too large: the step angles 2 t sum(lambda^2 - mu) "
        "reach 1.67e+304, where the float spacing is at least their 4 pi period"
    ]


@pytest.mark.parametrize("tiny_phi", ["1e-155", "1e-200"])
def test_verify_rejects_a_phi_max_with_subnormal_coefficients(capsys, tiny_phi):
    # phi_max^2 would make the smallest coefficient at d = 513 subnormal
    code, out, err = run_cli(capsys, "verify", "--phi-max", tiny_phi)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert f"phi_max={float(tiny_phi)}" in err and "513" in err


def test_verify_passes_at_phi_max_1e_150(capsys):
    # just above the subnormal threshold, about 9.8e-151 at the default caps
    code, out, _ = run_cli(capsys, "verify", "--phi-max", "1e-150")
    assert code == 0
    assert [line.split()[1] for line in suite_lines(out)] == ["pass"] * 6


@pytest.mark.parametrize("bad_phi", ["nan", "inf"])
def test_scan_ratio_nonfinite_phi_max_is_config_error(capsys, bad_phi):
    code, out, err = run_cli(capsys, "scan-ratio", "--phi-max", bad_phi)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "phi_max" in err


def test_verify_passes_with_dense_cap_above_64(capsys):
    # the dense suites are O(d) per schedule and have no ceiling
    code, out, _ = run_cli(capsys, "verify", "--d-max", "129", "--census-max", "129")
    assert code == 0
    lines = suite_lines(out)
    assert [line.split()[1] for line in lines] == ["pass"] * 6
    assert [line.split()[3] for line in lines[:3]] == ["cases=64"] * 3


def test_eps_flag_synonyms(capsys):
    _, out_a, _ = run_cli(capsys, "pf-thresholds", "--eps", "1e-4", "--d-max", "5")
    _, out_b, _ = run_cli(capsys, "pf-thresholds", "--eps-sim", "1e-4", "--d-max", "5")
    assert out_a == out_b


def test_config_file_overrides_model(tmp_path, capsys, monkeypatch):
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"rz_slope": 0.0, "rz_intercept": 1.0}))
    monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
    _, out, _ = run_cli(capsys, "pf-thresholds", "--d-max", "3")
    row = parse_csv(out)[0]
    # with a flat unit-cost model the break-even prefactor is L_qb / (L_qd log2(L_qd/eps))
    assert float(row["a_max_pf"]) == pytest.approx(3 / (2 * 20.93156857), rel=1e-6)


def test_config_file_missing_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv(CONFIG_ENV_VAR, "/nonexistent/config.json")
    code, _, err = run_cli(capsys, "pf-thresholds")
    assert code == 2
    assert "config" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--format", "json"],
        ["verify", "--out", "x"],
        ["pf-thresholds", "--t", "1"],
        ["lcu-table", "--k", "3"],
        ["scan-ratio", "--eps", "1e-4", "--eps-sim", "1e-4"],
        ["pf-thresholds", "--eps-sim", "1e-4", "--eps", "1e-5"],
        ["pf-thresholds", "--primes", "--all-odd"],
        ["scan-ratio", "--all-odd", "--primes"],
    ],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "content,named",
    [
        ("[1, 2]", None),
        ('{"rz_slop": 0.5}', "rz_slop"),
        ('{"rz_slope": null}', "rz_slope"),
        ('{"rz_slope": "nan"}', "rz_slope"),
        ('{"rz_intercept": NaN}', "rz_intercept"),
        ('{"rz_intercept": -50}', "rz_intercept"),
        ('{"rz_slope": 0, "rz_intercept": 0}', "rz_intercept"),
        ('{"qudit_prefactor": 0}', "qudit_prefactor"),
        # not a model field: any value is an unknown key
        ('{"qudit_prefactor": 1000}', "unknown key 'qudit_prefactor'"),
    ],
)
def test_bad_config_is_config_error(tmp_path, capsys, monkeypatch, content, named):
    config = tmp_path / "model.json"
    config.write_text(content)
    monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
    code, out, err = run_cli(capsys, "scan-ratio", "--d-max", "5")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert str(config) in err
    if named:
        assert named in err


def test_config_file_that_is_not_utf8_is_named(tmp_path, capsys, monkeypatch):
    config = tmp_path / "model.json"
    config.write_bytes(b'{"rz_slope": 1.0\xff}')
    monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
    code, out, err = run_cli(capsys, "scan-ratio", "--d-max", "5")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read config file {config}: 'utf-8' codec can't decode")


def test_config_file_with_a_duplicate_key_is_rejected(tmp_path, capsys, monkeypatch):
    config = tmp_path / "model.json"
    config.write_text('{"rz_slope": 1, "rz_slope": 2}')
    monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
    code, out, err = run_cli(capsys, "scan-ratio", "--d-max", "5")
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: config file {config}: duplicate key 'rz_slope'"


OVERFLOWING_ROW = ["--t", "1.2e299", "--eps", "0.5", "--d-min", "8388609", "--d-max", "8388609", "--all-odd"]
OVERFLOW_NAMED = "d=8388609, t=1.2e+299 and eps_sim=0.5 "


@pytest.mark.parametrize(
    "argv,named",
    [
        (["scan-ratio", "--t", "nan"], "evolution time t"),
        (["scan-ratio", "--t", "inf"], "evolution time t"),
        (["lcu-table", "--t", "-1"], "evolution time t"),
        (["scan-ratio", "--eps", "0.9"], "eps_sim=0.9"),
        (["pf-thresholds", "--phi-max", "nan"], "phi_max"),
        (["pf-thresholds", "--eps", "2"], "target accuracy"),
        (["lcu-table", "--eps-sim", "0"], "eps_sim"),
        (["scan-ratio", "--t", "1e305", "--d-max", "5"], "t=1e+305"),
        (["lcu-table", "--t", "1e305", "--d-max", "5"], "t=1e+305"),
        (["scan-ratio", "--phi-max", "1e200", "--d-max", "5"], "phi_max=1e+200"),
        (["lcu-table", "--phi-max", "1e160", "--d-max", "5"], "phi_max=1e+160"),
        (["pf-thresholds", "--eps", "1e-320", "--d-max", "5"], "eps=1e-320"),
        # eps / (d - 1) = 1e-309 is subnormal; this row used to print 0,nan
        (
            ["pf-thresholds", "--all-odd", "--eps", "1e-300", "--d-min", "999999999", "--d-max", "999999999"],
            "d=999999999 ",
        ),
        # the qudit total overflows: this row printed t_tot_qd=inf, ratio=0,
        # budget_per_switch=-inf, and JSON Infinity, which is not JSON
        (["scan-ratio", *OVERFLOWING_ROW], OVERFLOW_NAMED),
        (["scan-ratio", *OVERFLOWING_ROW, "--format", "json"], OVERFLOW_NAMED),
        # the break-even denominator Q L log2(L / eps_be) overflows: a_max_lcu=0
        (["lcu-table", *OVERFLOWING_ROW], OVERFLOW_NAMED),
        # Q_qd * k overflows, which would make budget_per_switch 0
        (["scan-ratio", "--d-max", "3", "--k", str(10**308)], "k=1e+308 "),
    ],
)
def test_bad_value_is_named_at_the_boundary(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert named in err
    assert "per-call accuracy" not in err


def test_lcu_table_splits_its_budget_over_the_fixed_encoding_rotations_only(capsys):
    # 3d - 3 = 50331648 rotations leave 2.6e-308 each, above the floor; the
    # hybrid call's 2 (2^25 - 1) + 25 = 67108887 would not, and scan-ratio,
    # which prints that call, exits 2 naming d
    argv = ["--t", "0", "--eps", "1.3e-297", "--d-min", "16777217", "--d-max", "16777217", "--all-odd"]
    code, out, err = run_cli(capsys, "lcu-table", *argv)
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "16777217,3.21153568e-07,0.57864191"
    code, out, err = run_cli(capsys, "scan-ratio", *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "d=16777217 " in err


@pytest.mark.parametrize(
    "command,named",
    [
        ("pf-thresholds", "d=3 and eps=1e-06 "),
        ("lcu-table", "d=3, t=0.1 and eps_sim=1e-06 "),
        ("scan-ratio", "d=3, t=0.1 and eps_sim=1e-06 "),
    ],
)
def test_an_overflowing_synthesis_cost_is_named(tmp_path, capsys, monkeypatch, command, named):
    # each rotation costs about 1e308 * log2(1 / delta): inf
    config = tmp_path / "model.json"
    config.write_text('{"rz_slope": 1e308}')
    monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
    code, out, err = run_cli(capsys, command, "--d-max", "5")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and named in err


@pytest.mark.parametrize("command", ["pf-thresholds", "lcu-table", "scan-ratio"])
def test_every_dimension_prints_finite_rows_or_is_named(capsys, command):
    # the largest accepted d is odd, one below MAX_D; rows cost O(1) in d
    code, out, err = run_cli(capsys, command, "--all-odd", "--d-min", str(MAX_D - 1), "--d-max", str(MAX_D))
    assert code == 0 and err == ""
    (row,) = parse_csv(out)
    assert row["d"] == str(MAX_D - 1)
    assert all(value in ("true", "false") or math.isfinite(float(value)) for value in row.values())
    code, out, err = run_cli(capsys, command, "--all-odd", "--d-min", str(MAX_D + 1), "--d-max", str(MAX_D + 1))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and f"d={MAX_D + 1} " in err


@pytest.mark.parametrize("command", ["pf-thresholds", "lcu-table", "scan-ratio"])
def test_a_range_past_max_d_fails_before_its_first_row(command):
    # the range holds about 10^154 dimensions up to MAX_D, so a run that
    # priced them before it reached the first d above MAX_D would not end;
    # in a subprocess, the timeout fails the test instead of hanging it, and
    # ends such a run while its growing row list is still small
    d_max = 10**200
    proc = fresh_process("-m", "quditcost.cli", command, "--all-odd", "--d-max", str(d_max), timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        f"error: d={d_max - 1} is too large: (d - 1)^2 overflows a float above d = {MAX_D:.3g}"
    ]


@pytest.mark.parametrize(
    "argv,prime_only",
    [
        (["pf-thresholds"], "true"),
        (["pf-thresholds", "--all-odd"], "false"),
        (["lcu-table"], "true"),
        (["lcu-table", "--all-odd"], "false"),
        (["scan-ratio"], "false"),
        (["scan-ratio", "--primes"], "true"),
    ],
)
def test_prime_only_default_per_command(capsys, argv, prime_only):
    code, out, _ = run_cli(capsys, *argv, "--d-max", "9")
    assert code == 0
    assert f"# prime_only={prime_only}" in out.splitlines()
    ds = [int(r["d"]) for r in parse_csv(out)]
    assert ds == ([3, 5, 7] if prime_only == "true" else [3, 5, 7, 9])


def test_verify_ignores_the_synthesis_model_config(tmp_path, capsys, monkeypatch):
    config = tmp_path / "model.json"
    config.write_text("[1, 2]")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
    code, out, err = run_cli(capsys, "verify", "--d-max", "5", "--census-max", "5")
    assert code == 0 and err == ""
    assert out.count("pass") == 6
    code, _, err = run_cli(capsys, "scan-ratio", "--d-max", "5")
    assert code == 2
    assert str(config) in err


def test_k_without_a_finite_float_value_is_rejected(capsys):
    # without a float value of k, no switch count Q_qd * k can be formed
    with pytest.raises(SystemExit) as exc:
        main(["scan-ratio", "--d-max", "3", "--k", str(10**309)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --k: " in captured.err and "finite float" in captured.err


# The report commands import the stdlib only; numpy and the verify suites
# load when `verify` runs.  Nor do they load dataclasses, or the inspect,
# ast and dis chain behind it, beyond what a bare interpreter loads.
LOADED = 'print(sorted(name for name in ("dataclasses", "inspect") if name in sys.modules))'
REPORTS_IN_A_FRESH_PROCESS = """
import json, sys
from quditcost.cli import main
for command in ("scan-ratio", "lcu-table", "pf-thresholds"):
    out = f"{sys.argv[1]}/{command}.json"
    assert main([command, "--format", "json", "--primes", "--d-max", "103", "--out", out]) == 0
    with open(out) as fh:
        assert json.load(fh)["rows"][-1]["d"] == 103
    out = f"{sys.argv[1]}/{command}.csv"
    assert main([command, "--primes", "--d-max", "103", "--out", out]) == 0
    with open(out) as fh:
        assert fh.read().splitlines()[-1].startswith("103,")
print(sorted(name for name in ("numpy", "quditcost.simverify") if name in sys.modules))
""" + LOADED


# The quditcost modules a process has loaded: the report commands load the
# report path alone, and verify adds the verify module and nothing else.
PACKAGE_LOADED = 'print(sorted(name for name in sys.modules if name.split(".")[0] == "quditcost"))'
REPORT_PATH = ["quditcost", "quditcost.cli", "quditcost.costmodel"]
VERIFY_IN_A_FRESH_PROCESS = """
import sys
from quditcost.cli import main
assert main(["verify", "--d-max", "5", "--census-max", "5"]) == 0
""" + PACKAGE_LOADED


def test_report_commands_load_neither_numpy_nor_the_verify_suites(tmp_path):
    bare = fresh_process_stdout("-c", "import sys; " + LOADED)
    reports = fresh_process_stdout("-c", REPORTS_IN_A_FRESH_PROCESS + "\n" + PACKAGE_LOADED, str(tmp_path))
    assert reports == "[]\n" + bare + f"{REPORT_PATH}\n"
    verify = fresh_process_stdout("-c", VERIFY_IN_A_FRESH_PROCESS).splitlines()
    assert verify[-1] == str([*REPORT_PATH, "quditcost.simverify"])


# json loads only where a run reads it, for JSON output or a config file,
# and __future__ never: each line is which of the two the process has loaded,
# after the import, after CSV reports and verify, and after a JSON report.
STARTUP_LOADED = 'print(sorted(name for name in ("json", "__future__") if name in sys.modules))'
CSV_THEN_JSON_IN_A_FRESH_PROCESS = """
import contextlib, io, sys
from quditcost.cli import main
""" + STARTUP_LOADED + """
for command in ("scan-ratio", "lcu-table", "pf-thresholds"):
    assert main([command, "--d-max", "11", "--out", f"{sys.argv[1]}/{command}.csv"]) == 0
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "--d-max", "5", "--census-max", "5"]) == 0
""" + STARTUP_LOADED + """
assert main(["pf-thresholds", "--format", "json", "--out", f"{sys.argv[1]}/pf-thresholds.json"]) == 0
""" + STARTUP_LOADED
CONFIG_IN_A_FRESH_PROCESS = """
import sys
from quditcost.cli import main
assert main(["scan-ratio", "--d-max", "11", "--out", sys.argv[1]]) == 0
""" + STARTUP_LOADED


def test_json_loads_only_for_json_output_or_a_config_file(tmp_path):
    bare = fresh_process_stdout("-c", "import sys; " + STARTUP_LOADED)
    with_json = str(sorted({*ast.literal_eval(bare), "json"})) + "\n"
    runs = fresh_process_stdout("-c", CSV_THEN_JSON_IN_A_FRESH_PROCESS, str(tmp_path))
    assert runs == bare + bare + with_json
    config = tmp_path / "default-model.json"
    config.write_text(json.dumps(SynthesisModel()._asdict()))
    out = tmp_path / "with-config.csv"
    assert fresh_process_stdout("-c", CONFIG_IN_A_FRESH_PROCESS, str(out), config=str(config)) == with_json
    assert out.read_text() == (tmp_path / "scan-ratio.csv").read_text()


def test_every_exported_name_resolves():
    assert len(quditcost.__all__) == 7
    for name in quditcost.__all__:
        assert getattr(quditcost, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute 'levels'"):
        quditcost.levels
