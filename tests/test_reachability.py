"""Every function and method in src/quditcost serves a command.

Runs the four commands in-process at small caps under a profiler hook and
checks that each function whose code lives in a quditcost module was
called.  Functions are matched by code-object identity, which works on
every supported Python (co_qualname needs 3.11).  The commands start from
empty per-process caches (fresh_caches), so that each cache is built again
by the function that fills it.
"""

import pkgutil
import types
from importlib import import_module

import pytest
from helpers import entered, main_stdout

import quditcost

COMMANDS = [
    ["pf-thresholds", "--d-max", "7"],
    ["lcu-table", "--d-max", "7", "--format", "json"],
    ["scan-ratio", "--d-max", "7", "--k", "3"],
    # crosses costmodel.ONE_NORM_SERIES_D, where the one-norm switches to its series in 1/d
    ["scan-ratio", "--d-min", "99", "--d-max", "103"],
    ["verify", "--d-max", "5", "--census-max", "5"],
]


def _functions(namespace, module):
    """Functions whose code is in `module`'s file, in a module or class namespace."""
    for value in list(vars(namespace).values()):
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        elif isinstance(value, property):
            value = value.fget
        if isinstance(value, types.FunctionType):
            if value.__code__.co_filename == module.__file__:
                yield value
        elif isinstance(value, type) and value.__module__ == module.__name__:
            yield from _functions(value, module)


def library_functions():
    """Map code object -> module-qualified name for every function of the package."""
    found = {}
    for info in pkgutil.iter_modules(quditcost.__path__):
        module = import_module(f"quditcost.{info.name}")
        for func in _functions(module, module):
            found[func.__code__] = f"{info.name}.{func.__qualname__}"
    return found


def test_library_functions_are_found():
    # one of each kind: module function, method
    names = set(library_functions().values())
    assert {"cli.main", "costmodel.SynthesisModel.__new__"} <= names


@pytest.mark.usefixtures("fresh_caches")
def test_every_library_function_serves_a_command():
    functions = library_functions()
    _, calls = entered(lambda: [main_stdout(argv) for argv in COMMANDS])
    seen = {code for code, _ in calls}
    uncalled = sorted(name for code, name in functions.items() if code not in seen)
    assert uncalled == []
