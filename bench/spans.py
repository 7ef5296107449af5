"""Span recorder for the traced benchmark run.

Every public function of the library modules is replaced, for the length of
the traced passes, by a wrapper that opens a span (name, start, end, parent)
around the call.  Spans are aggregated per (name, parent) call site so that
memory stays bounded however often a hot function (``fraction_record`` runs
once per emitted row) is called; only the first ``raw_cap`` spans are kept
individually for the record file.

A hook may be attached to a function to derive work counts from its
arguments and result (result None when it raised); hooks run outside the
function's span.

A span's self time is its duration minus the part covered by its child
spans, so the self times of all spans under a pass add up to the pass.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field

LAYERS = ("arith", "scatterset", "counting", "hyperbolic", "lfunction", "cli")


@dataclass
class SiteStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    failures: int = 0


@dataclass
class _Frame:
    name: str
    start: float
    child_s: float = 0.0


@dataclass
class Recorder:
    raw_cap: int = 5000
    sites: dict = field(default_factory=dict)
    raw: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def enter(self, name: str) -> None:
        self._stack.append(_Frame(name, time.perf_counter()))

    def exit(self, failed: bool = False) -> float:
        end = time.perf_counter()
        frame = self._stack.pop()
        dur = end - frame.start
        parent = self._stack[-1].name if self._stack else ""
        if self._stack:
            self._stack[-1].child_s += dur
        site = self.sites.get((frame.name, parent))
        if site is None:
            site = self.sites[(frame.name, parent)] = SiteStats()
        site.calls += 1
        site.total_s += dur
        site.self_s += dur - frame.child_s
        site.failures += failed
        if len(self.raw) < self.raw_cap:
            self.raw.append((frame.name, frame.start, end, parent))
        return dur

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # Aggregates over call sites ------------------------------------------

    def by_name(self, name: str) -> SiteStats:
        out = SiteStats()
        for (n, _), s in self.sites.items():
            if n == name:
                out.calls += s.calls
                out.total_s += s.total_s
                out.self_s += s.self_s
                out.failures += s.failures
        return out

    def entry_calls(self, names, layer: str) -> SiteStats:
        """Calls to any of `names` made from outside `layer` (no double
        counting of nested calls such as asymptotic_report -> total_roots)."""
        out = SiteStats()
        for (n, parent), s in self.sites.items():
            if n in names and not parent.startswith(layer + "."):
                out.calls += s.calls
                out.total_s += s.total_s
                out.self_s += s.self_s
        return out

    def layer_self(self, layer: str) -> float:
        return sum(s.self_s for (n, _), s in self.sites.items()
                   if n.split(".", 1)[0] == layer)


def _wrap(rec: Recorder, name: str, fn, hook):
    if inspect.isgeneratorfunction(fn):
        # One span per resumption, so the work done while producing each item
        # is charged to the generator, not to whoever iterates it.
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    rec.exit()
                    return
                except BaseException:
                    rec.exit(failed=True)
                    raise
                rec.exit()
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.exit(failed=True)
            if hook is not None:
                hook(rec, args, kwargs, None)
            raise
        rec.exit()
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return wrapper


def public_functions(module):
    return [
        (n, obj) for n, obj in vars(module).items()
        if not n.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


class Instrumentation:
    """Installs span wrappers on every public function of the given modules
    and on the package namespace that re-exports them; `remove` restores the
    originals."""

    def __init__(self, rec: Recorder, package, modules, hooks):
        self._saved = []
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, fn in public_functions(module):
                full = f"{layer}.{name}"
                wrapped = _wrap(rec, full, fn, hooks.get(full))
                self._replace(module, name, wrapped)
                if getattr(package, name, None) is fn:
                    self._replace(package, name, wrapped)

    def _replace(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()
