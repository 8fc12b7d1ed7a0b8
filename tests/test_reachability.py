"""Every function and method in src/quditcost serves a command.

Runs the four commands in-process at small caps under a profiler hook and
checks that each function whose code lives in a quditcost module was
called.  Functions are matched by code-object identity, which works on
every supported Python (co_qualname needs 3.11).
"""

import contextlib
import io
import pkgutil
import sys
import types
from importlib import import_module

import quditcost
from quditcost import cli, costmodel
from quditcost.cli import main

COMMANDS = [
    ["pf-thresholds", "--d-max", "7"],
    ["lcu-table", "--d-max", "7", "--format", "json"],
    ["scan-ratio", "--d-max", "7", "--k", "3"],
    # crosses costmodel.ONE_NORM_CLOSED_FORM_D, where the one-norm switches to its closed form
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


def called_code_objects():
    # main reuses a parser, and the cached one-norm sums, dimension terms,
    # prime lists and row templates, that an earlier test may have built:
    # build them again here
    cli._PARSER = None
    costmodel._HALF_WEIGHT_SUMS.clear()
    costmodel._DIMENSION_TERMS.clear()
    cli._PRIMES.clear()
    cli._TEMPLATES.clear()
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in COMMANDS]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(COMMANDS)
    return seen


def test_library_functions_are_found():
    # one of each kind: module function, method
    names = set(library_functions().values())
    assert {"cli.main", "costmodel.SynthesisModel.__new__"} <= names


def test_every_library_function_serves_a_command():
    functions = library_functions()
    seen = called_code_objects()
    uncalled = sorted(name for code, name in functions.items() if code not in seen)
    assert uncalled == []
