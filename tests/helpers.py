"""What several test modules share, defined once.

* `entered`, the one profiler hook: the calls that a callable makes;
* `main_stdout`, what `cli.main` prints in this process;
* `fresh_env`, `fresh_process` and `fresh_process_stdout`, a Python run in
  a new process;
* `closed_phases`, the selection phases of the closed form at phi_max = 1.

The fixture `fresh_caches`, which empties main's parser cache `cli._PARSER`,
the one per-process cache, is in conftest.py.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import quditcost
from quditcost import cli
from quditcost.simverify import beta_closed_form, irreducibility_floor, select_diag_phases


def entered(call, codes=None):
    """The result of call() and the calls it entered, in order, as (code object, arguments) pairs.

    With codes, only the calls of functions whose code object is in codes;
    the arguments are a copy of the frame's locals on entry.  The profile
    function in place before is restored.
    """
    calls = []

    def hook(frame, event, arg):
        if event == "call" and (codes is None or frame.f_code in codes):
            calls.append((frame.f_code, dict(frame.f_locals)))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return result, calls


def main_stdout(argv):
    """What cli.main(argv) prints in this process; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


def fresh_env(config=None):
    """The environment of a new process that imports quditcost from this tree, with config as its config file."""
    env = {key: value for key, value in os.environ.items() if key != cli.CONFIG_ENV_VAR}
    env["PYTHONPATH"] = str(Path(quditcost.__file__).resolve().parents[1])
    if config is not None:
        env[cli.CONFIG_ENV_VAR] = config
    return env


def fresh_process(*args, config=None, timeout=60):
    """`python *args` in a new process (fresh_env); the timeout ends a run that would not finish."""
    return subprocess.run([sys.executable, *args], env=fresh_env(config),
                          capture_output=True, text=True, timeout=timeout)


def fresh_process_stdout(*args, config=None, timeout=60):
    """The stdout of fresh_process(*args), which must exit 0."""
    proc = fresh_process(*args, config=config, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def closed_phases(d):
    """The d selection phases of the closed form at phi_max = 1."""
    n = np.arange(d)
    return select_diag_phases(irreducibility_floor(1.0, d), d, n, beta_closed_form(1.0, d, n)[1])
