"""Outside-in instrumentation of pinnctl: a span recorder and a step clock.

Nothing here edits the library.  Both tools replace function bindings in the
namespaces of the already imported ``pinnctl`` modules, so every caller that
looks a name up at call time (``objectives`` calls ``segment_unitaries``
through its own module globals, ``cli`` calls ``analysis.discretization_sweep``
through the module object) reaches the wrapper.  ``Patches.restore`` puts the
original bindings back.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types

LAYERS = (
    "spins", "targets", "network", "propagation", "objectives",
    "optimizer", "grape", "analysis", "fileio", "cli",
)
# Public methods traced besides the module-level functions: (module, class, method).
METHODS = (("optimizer", "AdamState", "update"),)


def pinnctl_modules() -> list[types.ModuleType]:
    """The package and every imported submodule, in a stable order."""
    return [sys.modules[name] for name in sorted(sys.modules)
            if name == "pinnctl" or name.startswith("pinnctl.")]


class Patches:
    """Bindings replaced in pinnctl namespaces, restorable in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _public_functions():
    """Yield (owner namespace, bound name, function, 'layer.function') for every
    binding of a public pinnctl function, in every pinnctl namespace."""
    for mod in pinnctl_modules():
        for name, obj in list(vars(mod).items()):
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__.startswith("pinnctl.")):
                layer = obj.__module__.split(".", 1)[1]
                yield mod, name, obj, f"{layer}.{obj.__name__}"
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules.get(f"pinnctl.{layer}"), cls_name, None)
        if cls is not None and meth in vars(cls):
            yield cls, meth, vars(cls)[meth], f"{layer}.{cls_name}.{meth}"


class Tracer:
    """Records one span (name, start, end, parent) per call of a traced function.

    Spans stay in flat lists in memory until ``layer_metrics`` or ``write``; the
    self time of a span is its duration minus the durations of its children.
    ``counters`` maps a span name to a function of (args, kwargs, result)
    whose value is summed per name, so counts are taken where the work is.
    """

    def __init__(self, counters: dict | None = None):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: dict[str, float] = {}
        self.counters = counters or {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = self.counters.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if counter is not None:
                self.counts[name] = self.counts.get(name, 0) + counter(args, kwargs, result)
            return result

        return traced

    def install(self, patches: Patches) -> None:
        """Wrap every binding of every public pinnctl function once per function."""
        wrappers: dict[int, object] = {}
        for owner, bound, fn, name in _public_functions():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(name, fn)
            patches.set(owner, bound, wrappers[id(fn)])

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def top_level(self, idx: int, group: set[str]) -> bool:
        """True if no ancestor of span idx is itself named in group."""
        p = self.parent[idx]
        while p >= 0:
            if self.names[p] in group:
                return False
            p = self.parent[p]
        return True

    def write(self, path) -> None:
        """Spans as tab-separated rows: index, parent, name, start_s, end_s."""
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (n, s, e, p) in enumerate(zip(self.names, self.start, self.end, self.parent)):
                fh.write(f"{i}\t{p}\t{n}\t{s!r}\t{e!r}\n")


class StepClock:
    """Start and end timestamps of the calls that mark a workload's steps.

    ``mark(module, name, mode)`` replaces one binding only.  In "interval"
    mode (ascent loops) a step is the time between consecutive calls, so it
    covers the gradient and the optimizer update; the first call of the
    sequence is the loop's initial evaluation.  In "call" mode a step is the
    duration of one call, or of one ``step`` block.  With mode None the calls
    are not steps and the binding only taps results.  ``keep`` maps a marked call's
    result to the value kept for output checks (the fidelity, not the
    gradient).  After each marked call the speed probe, if any, may run.
    """

    def __init__(self, probe=None):
        self.calls: dict[str, list[tuple[float, float]]] = {}
        self.results: dict[str, list] = {}
        self.modes: dict[str, str] = {}
        self.probe = probe

    def mark(self, patches: Patches, module: str, name: str, mode: str, keep=None) -> None:
        owner = sys.modules[f"pinnctl.{module}"]
        fn = getattr(owner, name)
        key = f"{module}.{name}"
        calls = self.calls.setdefault(key, [])
        results = self.results.setdefault(key, [])
        self.modes[key] = mode
        clock = time.perf_counter
        probe = self.probe

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            t1 = clock()
            calls.append((t0, t1))
            if keep is not None:
                results.append(keep(result))
            if probe is not None:
                probe.poll(t1)
            return result

        patches.set(owner, name, marked)

    @contextlib.contextmanager
    def step(self, key: str):
        """Time the enclosed block as one step (a step no pinnctl call marks)."""
        self.modes[key] = "call"
        t0 = time.perf_counter()
        yield
        t1 = time.perf_counter()
        self.calls.setdefault(key, []).append((t0, t1))
        if self.probe is not None:
            self.probe.poll(t1)

    def steps(self) -> list[tuple[float, float]]:
        """(start, end) of every step, in marker order."""
        out: list[tuple[float, float]] = []
        for key, calls in self.calls.items():
            if self.modes[key] == "interval":
                out += [(a[0], b[0]) for a, b in zip(calls, calls[1:])]
            elif self.modes[key] == "call":
                out += calls
        return out
