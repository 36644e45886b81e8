"""Spans around calls into whitneyforms' public functions, kept in memory.

The tracer replaces each public function of the traced modules, in the
namespace of every whitneyforms module that holds it (so both
``whitneyforms.forms.pullback`` and the ``pullback`` that ``derham`` and
``characterize`` imported), by a wrapper that records one span per call:
name, start, end, parent span and operation id. Public methods of classes
defined in those modules are wrapped on the class itself, and a class whose
module defines its own ``__init__`` (``linalg.LinearSolver``) gets a span for
construction. Click command callbacks in ``cli`` are wrapped too.

``simplicial`` is deliberately not traced: ``AffineFunction`` and ``Fraction``
arithmetic run millions of times per operation, a wrapper there would swamp
the measurement, and their cost already shows in the callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "whitneyforms"
MODULES = ("cli", "verify", "characterize", "whitney", "derham", "forms", "linalg")


class Tracer:
    """Records spans in parallel lists; nothing is written until ``dump``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.op = -1
        self._stack = [-1]

    def wrap(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public names of every traced module of the package."""
        import click

        for short in MODULES:
            importlib.import_module(f"{PACKAGE}.{short}")
        namespaces = [
            vars(mod)
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, click.Command):
                    if not isinstance(obj, click.Group) and _defined_in(obj.callback, mod):
                        obj.callback = self.wrap(f"{short}.{obj.callback.__name__}", obj.callback)
                elif inspect.isclass(obj):
                    if obj.__module__ == mod.__name__:
                        self._wrap_class(f"{short}.{attr}", obj, mod)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    wrapper = self.wrap(f"{short}.{attr}", obj)
                    for namespace in namespaces:
                        for key, value in list(namespace.items()):
                            if value is obj:
                                namespace[key] = wrapper

    def _wrap_class(self, name: str, cls: type, mod) -> None:
        for attr, member in list(vars(cls).items()):
            if attr == "__init__" and _defined_in(member, mod):
                setattr(cls, attr, self.wrap(name, member))
            elif attr.startswith("_"):
                continue
            elif isinstance(member, (classmethod, staticmethod)):
                if _defined_in(member.__func__, mod):
                    kind = type(member)
                    setattr(cls, attr, kind(self.wrap(f"{name}.{attr}", member.__func__)))
            elif inspect.isfunction(member) and _defined_in(member, mod):
                setattr(cls, attr, self.wrap(f"{name}.{attr}", member))

    def summary(self) -> dict[str, float]:
        return summarize(self.names, self.starts, self.ends, self.parents)

    def dump(self, path) -> None:
        """Write one tab-separated line per span: op, parent, name, start, end."""
        with open(path, "w") as out:
            out.write("op\tparent\tname\tstart\tend\n")
            for row in zip(self.ops, self.parents, self.names, self.starts, self.ends):
                out.write("%d\t%d\t%s\t%.9f\t%.9f\n" % row)


def _defined_in(fn, mod) -> bool:
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == mod.__file__


def summarize(names, starts, ends, parents) -> dict[str, float]:
    """Per function ``.calls`` and inclusive ``.s``; per module ``.self_s``.

    A span's self time is its duration minus the durations of its direct
    children (spans nest, one thread). A function's inclusive time counts
    only its outermost spans, so recursion is not counted twice.
    """
    covered = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    out: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        duration = ends[i] - starts[i]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name.split('.', 1)[0]}.self_s"] += duration - covered[i]
        parent = parents[i]
        while parent >= 0 and names[parent] != name:
            parent = parents[parent]
        if parent < 0:
            out[f"{name}.s"] += duration
    return dict(out)
