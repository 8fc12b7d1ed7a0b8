"""One benchmark sample: a fresh process that runs a list of CLI operations.

Usage: python3 worker.py SRC_DIR OPS_JSON RESULT_JSONL TRACE

Imports ``quditcost.cli`` from SRC_DIR (and nowhere else) and runs every
argv list in OPS_JSON through ``quditcost.cli.main`` with stdout and stderr
captured.  RESULT_JSONL gets one line per operation with what it printed,
written between operations so that no output piles up in memory, and a
last line with the summed operation time, the CPU time and the peak
resident set of this process, and the versions of numpy and OpenBLAS.  With TRACE=1 every
module-level function of the package is wrapped first (see tracer.py) and
the last line carries the spans too.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import re
import resource
import sys
import time
import traceback

from tracer import Tracer

# Functions whose spans also record the local dimension they work on.
SIZED = frozenset({"pauli.beta_closed_form", "pauli.beta_dft_oracle", "grid.make_grid"})


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_kb() -> int:
    """Peak resident set of this process.

    VmHWM belongs to the process's own address space.  ru_maxrss is not
    used: Linux carries it over from the parent across fork and exec, so it
    would report the harness's peak whenever that is larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded, if any."""
    info = {"library": None, "config": None, "threads": None}
    with open("/proc/self/maps") as fh:
        paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    if not paths:
        return info
    lib = ctypes.CDLL(paths[0])
    info["library"] = os.path.basename(paths[0])
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                info["threads"] = threads()
                info["config"] = config().decode()
                return info
    return info


def main() -> int:
    src, ops_path, result_path, trace = sys.argv[1:5]
    with open(ops_path) as fh:
        ops = json.load(fh)
    sys.path.insert(0, src)
    import quditcost.cli  # noqa: E402
    if not os.path.realpath(quditcost.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"quditcost was imported from {quditcost.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    import numpy

    tracer = Tracer(SIZED) if trace == "1" else None
    wrapped = tracer.install("quditcost") if tracer else []
    wall_s = 0.0
    cpu_s = 0.0
    with open(result_path, "w") as sink:
        for argv in ops:
            out, err = io.StringIO(), io.StringIO()
            run = tracer.wrap(f"op.{argv[0]}", quditcost.cli.main) if tracer else quditcost.cli.main
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                cpu_begin = _cpu_s()
                begin = time.perf_counter()
                try:
                    rc = run(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    rc = -1
                    traceback.print_exc()
                wall_s += time.perf_counter() - begin
                cpu_s += _cpu_s() - cpu_begin
            json.dump({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}, sink)
            sink.write("\n")
        result = {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_kb": _peak_rss_kb(),
            "numpy": numpy.__version__,
            "openblas": _openblas(),
        }
        if tracer:
            result.update(wrapped=wrapped, names=tracer.names, spans=tracer.spans)
        json.dump(result, sink)
    return 0


if __name__ == "__main__":
    sys.exit(main())
