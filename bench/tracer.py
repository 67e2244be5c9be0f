"""Span tracer for the public functions of a package's modules.

The tracer wraps every public function a module defines and rebinds the
wrapper wherever the package holds the original: in each module namespace
(``from .x import f`` copies the binding) and in module-level dicts such as a
registry of runners.  Each wrapped call is a span.  When it closes, its
duration is added to the function's total time (outermost activation only, so
recursion is not counted twice), and its duration minus the time of the spans
it opened is added to its self time.  Spans are folded into per-function
aggregates as they close instead of being stored one by one, which keeps the
cost per call to two clock reads and a few list operations.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable


@dataclass(slots=True)
class Stat:
    """Aggregated spans of one function."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    active: int = 0
    work: dict = field(default_factory=dict)


# counter(tracer, stat, args, kwargs, result) runs after a successful call and
# adds work counts to ``stat.work``; its own cost lands in the caller's span.
Counter = Callable[["Tracer", Stat, tuple, dict, object], None]


class Tracer:
    """Wraps public functions of ``modules`` while installed.

    ``modules`` maps a short layer name (``"bestofn"``) to the module object;
    every module in it is also searched for bindings to rebind.  ``counters``
    maps ``"layer.function"`` to a :data:`Counter`.
    """

    def __init__(
        self,
        modules: dict[str, ModuleType],
        counters: dict[str, Counter] | None = None,
        clock: Callable[[], float] = time.perf_counter,
        extra_namespaces: tuple[ModuleType, ...] = (),
    ):
        self.modules = dict(modules)
        self.counters = dict(counters or {})
        self.clock = clock
        self.namespaces = tuple(self.modules.values()) + tuple(extra_namespaces)
        self.stats: dict[str, Stat] = {}
        self.counter_errors: set[str] = set()  # counters that could not read a call
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _public_functions(self, layer: str, module: ModuleType):
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                yield f"{layer}.{name}", obj

    def _wrap(self, fn, stat: Stat, counter: Counter | None):
        stack = self._stack
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            stat.active += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat.active -= 1
                stat.self_s += elapsed - children
                if not stat.active:
                    stat.total_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                counter(tracer, stat, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for layer, module in self.modules.items():
            for key, fn in self._public_functions(layer, module):
                stat = self.stats.setdefault(key, Stat())
                wrappers[id(fn)] = self._wrap(fn, stat, self.counters.get(key))
        for ns in self.namespaces:
            for name, value in list(vars(ns).items()):
                if name.startswith("__"):
                    continue
                if id(value) in wrappers and inspect.isfunction(value):
                    self._restore.append((ns, name, value))
                    setattr(ns, name, wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and id(v) in wrappers:
                            self._restore.append((value, k, v))
                            value[k] = wrappers[id(v)]

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def is_open(self, key: str) -> bool:
        """Whether a span of ``key`` is open right now."""
        stat = self.stats.get(key)
        return stat is not None and stat.active > 0

    def get(self, key: str) -> Stat | None:
        """Aggregates of ``key``, or None when the program has no such function."""
        return self.stats.get(key)

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer."""
        out = {layer: 0.0 for layer in self.modules}
        for key, stat in self.stats.items():
            out[key.split(".", 1)[0]] += stat.self_s
        return out
