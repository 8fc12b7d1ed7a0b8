"""Command-line front end: threshold tables, cost-ratio scans, the verify report."""

import argparse
import os
import sys
import typing

from . import __version__
from .costmodel import (
    LcuRow,
    PfRow,
    ResourceReport,
    SynthesisModel,
    check_phi_max,
    lcu_fixed_encoding_thresholds,
    pf_thresholds,
    ratio_and_budget,
)

CONFIG_ENV_VAR = "QUDITCOST_CONFIG"
MODEL_KEYS = SynthesisModel._fields

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
# 128 + SIGPIPE: stdout was closed before the output was written
EXIT_BROKEN_PIPE = 141

# Default caps of `verify`: the largest d of the dense schedule suites, and
# of the coefficient and census suites.
DIM_CAP = 64
CENSUS_CAP = 513
# Most odd d in the range of one run, ten times the largest documented scan:
# a report holds every row until it prints the last
MAX_RANGE_D = 10**7

# Options a report header prints, in order, where the command defines them,
# and the options that the header of verify prints.
META_KEYS = ("phi_max", "eps", "eps_sim", "t", "k", "prime_only")
VERIFY_META_KEYS = ("phi_max", "d_max", "census_max", "inject_angle_error")


class ConfigError(Exception):
    """Invalid command-line or config-file input."""


# The first 13 primes.  Trial division by them settles every n < 43**2; as
# Miller-Rabin bases they decide every n below PRIME_TEST_BOUND, the
# smallest strong pseudoprime to all of them.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact for every n < PRIME_TEST_BOUND: trial division, then deterministic Miller-Rabin."""
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return n > 1
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for base in SMALL_PRIMES:
        x = pow(base, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _load_model() -> SynthesisModel:
    """Synthesis model defaults, optionally overridden by a JSON config file.

    The only environment hook is CONFIG_ENV_VAR naming the config path.
    The file must hold UTF-8 JSON: one object whose keys are among
    MODEL_KEYS, none repeated, and whose values are numbers that
    SynthesisModel accepts.
    """
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return SynthesisModel()
    # a config file and JSON output load json; a CSV report never does
    import json

    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"config file {path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    # ValueError covers both malformed JSON and bytes that are not UTF-8
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=unique_keys)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for key, value in raw.items():
        if key not in MODEL_KEYS:
            raise ConfigError(
                f"config file {path}: unknown key {key!r} (known: {', '.join(MODEL_KEYS)})"
            )
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config file {path}: {key} must be a number, got {json.dumps(value)}")
    try:
        return SynthesisModel(**{key: float(value) for key, value in raw.items()})
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc


def _d_values(d_min: int, d_max: int, prime_only: bool, *flags: str) -> typing.Sequence[int]:
    """The odd d >= 3 from d_min to d_max, primes only if prime_only; flags name the bounds in an error.

    A range, or the tuple of its primes.  More than MAX_RANGE_D odd d raise
    before any prime test.
    """
    lo = max(d_min, 3) | 1
    if prime_only and d_max >= PRIME_TEST_BOUND:
        raise ConfigError(
            f"--d-max={d_max} is too large for --primes: the prime test is exact "
            f"only below {PRIME_TEST_BOUND}"
        )
    bounds = " and ".join(flags) + (" holds" if len(flags) == 1 else " hold")
    values = range(lo, d_max + 1, 2)
    # (d_max - lo) // 2 + 1 odd d, where len(values) overflows past sys.maxsize
    if (d_max - lo) // 2 >= MAX_RANGE_D:
        raise ConfigError(f"too many dimensions: {bounds} more than {MAX_RANGE_D} odd d")
    if prime_only:
        values = tuple(filter(is_prime, values))
    if not values:
        raise ConfigError(f"empty scan range: {bounds} no {'odd prime' if prime_only else 'odd'} d >= 3")
    return values


def _header_text(value) -> str:
    """A CSV header value: as in a row, unless a float needs more than 9 digits to read back."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if not isinstance(value, float):
        return str(value)
    text = format(value, ".9g")
    return repr(value) if float(text) != value else text


# The % conversion of an int and of a float column, per output format: in
# CSV str and 9 significant digits, in JSON json's, float.__repr__.  An int
# column takes %s, str of the value, which prints any int in full, where %d
# would truncate a float; the report passes hold an int in each int column
_FIELD_SPECS = {"csv": {int: "%s", float: "%.9g"}, "json": {int: "%s", float: "%r"}}


def _row_format(row_type: type, fmt: str) -> typing.Callable[..., str]:
    """The text of one report row in fmt ("csv" or "json") from its columns, with its newline.

    Each call builds two % templates from the declared column types, each
    of the columns other than the bool one, which it takes in order: a CSV
    row is its fields joined by commas, a JSON row an object of indent 2
    inside the rows list, and a comma.  A bool column prints true or false,
    so it is literal text, false in the first template and true in the
    second; a row type has at most one, and without one the two are equal.
    The appended newline copies the % result into a str of its exact size;
    a held % result keeps the spare bytes of its writer.
    """
    kinds = list(row_type.__annotations__.values())
    templates = []
    for text in ("false", "true"):
        fields = [text if kind is bool else _FIELD_SPECS[fmt][kind] for kind in kinds]
        if fmt == "csv":
            templates.append(",".join(fields))
        else:
            pairs = ",\n      ".join(f'"{name}": {field}' for name, field in zip(row_type._fields, fields))
            templates.append(f"    {{\n      {pairs}\n    }},")
    false, true = templates
    flag = kinds.index(bool) if bool in kinds else None
    if flag is None:
        return lambda *columns: false % columns + "\n"
    return lambda *columns: (true if columns[flag] else false) % (columns[:flag] + columns[flag + 1:]) + "\n"


def _meta(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    """The meta header of a run: the tool, its version, the command and each option in keys it defines."""
    options = vars(args)
    meta = {"tool": "quditcost", "version": __version__, "command": args.command}
    meta.update((key, options[key]) for key in keys if key in options)
    return meta


def _meta_lines(meta: dict) -> list[str]:
    """The meta header as the "# key=value" lines of a CSV report."""
    return [f"# {key}={_header_text(val)}\n" for key, val in meta.items()]


def _emit(args: argparse.Namespace, rows: list[str]) -> None:
    """Print report rows, formatted by _row_format for args.row_type, under a meta header."""
    meta = _meta(args, META_KEYS)
    if args.format == "json":
        # JSON output and a config file load json; a CSV report never does
        import json

        # the bytes of json.dumps({"meta": meta, "rows": dicts}, indent=2), as no
        # row holds json's Infinity or NaN: costmodel raises on a non-finite value
        head = json.dumps({"meta": meta}, indent=2)[:-2] + ',\n  "rows": [\n'
        # each row ends in ",\n", but the last one takes no comma
        lines = [head, *rows[:-1], rows[-1][:-2] + "\n  ]\n}\n"]
    else:
        lines = _meta_lines(meta)
        lines.append(",".join(args.row_type._fields) + "\n")
        lines += rows
    # line by line, so that the text of the rows is not held a second time, joined
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def cmd_report(args: argparse.Namespace) -> int:
    model = _load_model()
    ds = _d_values(args.d_min, args.d_max, args.prime_only, f"--d-min={args.d_min}", f"--d-max={args.d_max}")
    rows = args.report(args, ds, model, _row_format(args.row_type, args.format))
    _emit(args, rows)
    return EXIT_OK


def _pf_report(args: argparse.Namespace, ds: typing.Sequence[int], model: SynthesisModel, row) -> list:
    # pf-thresholds rows do not depend on phi_max, but its header prints it
    check_phi_max(args.phi_max)
    return pf_thresholds(ds, args.eps, model, row)


def cmd_verify(args: argparse.Namespace) -> int:
    # the verify side needs numpy; the report commands never load it
    from .simverify import run_suites

    caps = (("--d-max", args.d_max), ("--census-max", args.census_max))
    ranges = [_d_values(3, cap, False, f"{flag}={cap}") for flag, cap in caps]
    results = run_suites(args.phi_max, *ranges, args.inject_angle_error)
    # the header follows the suites, so that an error leaves stdout empty
    sys.stdout.writelines(_meta_lines(_meta(args, VERIFY_META_KEYS)))
    for result in results:
        line = (
            f"{result.name:<17} {'pass' if result.ok else 'FAIL'}  max_error={result.worst:.3e}"
            f"  cases={result.cases} worst_d={result.worst_d}"
        )
        if result.detail:
            line += f"  {result.detail}"
        print(line)
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY_FAILED


def _add_report_flags(
    parser: argparse.ArgumentParser, *, t: bool, k: bool, prime_only: bool
) -> None:
    """Flags of the report commands; --t and --k only where the command reads them.

    prime_only is the command's default for scanning prime dimensions only.
    """
    parser.add_argument("--phi-max", type=float, default=1.0, help="field amplitude bound")
    # the accuracy of a time evolution (commands with --t) is eps_sim
    dest = "eps_sim" if t else "eps"
    accuracy = parser.add_mutually_exclusive_group()
    accuracy.add_argument("--eps", type=float, default=1e-6, dest=dest, help="target accuracy")
    accuracy.add_argument(
        "--eps-sim", type=float, default=1e-6, dest=dest,
        help="simulation accuracy (synonym of --eps)",
    )
    if t:
        parser.add_argument("--t", type=float, default=0.1, help="evolution time")
    parser.add_argument("--d-min", type=int, default=3, help="smallest local dimension")
    parser.add_argument("--d-max", type=int, default=19, help="largest local dimension")
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--all-odd", action="store_false", dest="prime_only", help="scan every odd dimension"
    )
    group.add_argument(
        "--primes", action="store_true", dest="prime_only", help="restrict scan to primes"
    )
    parser.set_defaults(prime_only=prime_only)
    if k:
        parser.add_argument("--k", type=int, default=2, help="directional switches per query")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditcost",
        description=(
            "Non-Clifford cost comparison of d-level vs binary-register "
            "implementations of the diagonal evolution exp(-i t phi^2)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pf-thresholds", help="product-formula break-even prefactors (primes by default)")
    _add_report_flags(p, t=False, k=False, prime_only=True)
    p.set_defaults(func=cmd_report, row_type=PfRow, report=_pf_report)

    p = sub.add_parser("lcu-table", help="fixed-encoding block-encoding thresholds (primes by default)")
    _add_report_flags(p, t=True, k=False, prime_only=True)
    p.set_defaults(
        func=cmd_report,
        row_type=LcuRow,
        report=lambda a, ds, model, row: lcu_fixed_encoding_thresholds(a.phi_max, ds, a.t, a.eps_sim, model, row),
    )

    p = sub.add_parser("scan-ratio", help="end-to-end totals, ratio, and switch budget (all odd d by default)")
    _add_report_flags(p, t=True, k=True, prime_only=False)
    p.set_defaults(
        func=cmd_report,
        row_type=ResourceReport,
        report=lambda a, ds, model, row: ratio_and_budget(a.phi_max, ds, a.t, a.eps_sim, a.k, model, row),
    )

    p = sub.add_parser("verify", help="run the decomposition and coefficient oracle suites")
    p.add_argument("--phi-max", type=float, default=1.0, help="field amplitude bound")
    p.add_argument(
        "--d-max", type=int, default=DIM_CAP,
        help="largest dimension for the dense schedule suites",
    )
    p.add_argument(
        "--census-max", type=int, default=CENSUS_CAP,
        help="largest dimension for the coefficient and census suites",
    )
    p.add_argument(
        "--inject-angle-error", type=float, default=0.0,
        help="test mode: perturb one selection-schedule angle to demonstrate sensitivity",
    )
    p.set_defaults(func=cmd_verify)
    return parser


# main's parser, built on its first call and reused by every later one.  It
# serves only repeated calls in one process, which the benchmark's sweep-small
# makes and a CLI run never does; it goes with ROADMAP item 19 once item 1
# step 3 reworks that workload
_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        # a reader that closed stdout shows here, not in the interpreter's exit flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # as `| head` does: the exit flush then writes to the null device, and
        # the code is the one a shell reports for a process that SIGPIPE ended
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
