"""Spans around the calls into every module-level function of a package.

The tracer works from outside the program: it replaces each module-level
function of every submodule with a wrapper that records a span, and it
puts the wrapper into every module of the package that holds the original
object.  A call site that imported the function by name
(``from .pauli import beta_closed_form``) is therefore counted as well.

Spans stay in memory as ``[name_id, start, end, parent, d]`` lists in start
order; ``parent`` is the index of the enclosing span or -1, and ``d`` is the
local dimension of the call for the functions named in ``sized``.  The
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time


class Tracer:
    def __init__(self, sized: frozenset[str] = frozenset()) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.sized = sized
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span called ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sized = name in self.sized

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1,
                    _dimension(args, kwargs) if sized else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, package: str) -> list[str]:
        """Wrap every module-level function of ``package``'s submodules.

        Returns the span names wrapped, ``<module>.<function>`` with the
        package prefix dropped.
        """
        root = importlib.import_module(package)
        for info in pkgutil.iter_modules(root.__path__):
            importlib.import_module(f"{package}.{info.name}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrappers = {}
        wrapped = set()
        for module in modules:
            short = module.__name__[len(package) + 1:]
            if not short:
                continue
            for obj in list(vars(module).values()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{short}.{obj.__name__}"
                    wrappers[id(obj)] = (obj, self.wrap(name, obj))
                    wrapped.add(name)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    setattr(module, attr, found[1])
        return sorted(wrapped)


def _dimension(args: tuple, kwargs: dict) -> int | None:
    """The local dimension a call works on: a ``d`` argument or the ``.d`` of one."""
    if "d" in kwargs:
        return kwargs["d"]
    for arg in args:
        if isinstance(arg, int) and not isinstance(arg, bool):
            return arg
        d = getattr(arg, "d", None)
        if isinstance(d, int):
            return d
    return None


def aggregate(names: list[str], spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, and sums of d and d^2.

    A span's self time is its duration minus the durations of its direct
    children; spans of one process never overlap except by nesting.
    """
    child = [0.0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict] = {}
    for index, (name_id, start, end, parent, d) in enumerate(spans):
        st = stats.setdefault(names[name_id], {
            "calls": 0, "total_s": 0.0, "self_s": 0.0, "d_sum": 0, "d2_sum": 0})
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += end - start - child[index]
        if d is not None:
            st["d_sum"] += d
            st["d2_sum"] += d * d
    return stats
