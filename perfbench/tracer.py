"""In-memory spans around the public calls of the zklab modules.

The benchmark measures each layer from outside: ``Tracer.instrument``
replaces every public function of a module, and every public method of a
class defined there, by a wrapper that records one span per call.  A span
is ``[id, parent_id, name, start_ns, end_ns, rss_delta_mib]``; parent 0
means "no parent".  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import time
from contextlib import contextmanager

ID, PARENT, NAME, START, END, RSS = range(6)

# Spans whose resident-memory growth is recorded (one /proc read each side).
RSS_SPANS = frozenset({"dynamics.Stepper.__init__"})


def current_rss_mib() -> float:
    """Resident set size of this process, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [0]
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        rec = [len(self.spans) + 1, self._stack[-1], name, time.perf_counter_ns(), 0, 0.0]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        rss = name in RSS_SPANS

        def traced(*args, **kwargs):
            rss0 = current_rss_mib() if rss else 0.0
            rec = [len(spans) + 1, stack[-1], name, clock(), 0, 0.0]
            spans.append(rec)
            stack.append(rec[ID])
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if rss:
                    rec[RSS] = current_rss_mib() - rss0

        return functools.update_wrapper(traced, fn)

    # -- instrumentation ---------------------------------------------------

    def instrument(self, layers: dict, namespaces: list) -> int:
        """Wrap the public callables of each layer module.

        ``layers`` maps a layer name to its module.  Functions are wrapped
        once and the wrapper is installed under every name in
        ``namespaces`` (modules) that refers to the same function object,
        so ``from .x import f`` aliases are traced too.  Methods are wrapped
        on their class.  Returns the number of wrapped callables.
        """
        replaced = {}
        count = 0
        for layer, module in layers.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, tuple)):
                    count += self._instrument_class(layer, obj)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in replaced:
                    self._set(ns, name, replaced[id(obj)])
        return count + len(replaced)

    def _instrument_class(self, layer: str, cls) -> int:
        before = len(self._undo)
        for attr, val in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in ("__init__", "__call__")
            if not public or (attr == "__init__" and dataclasses.is_dataclass(cls)):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(val):
                self._set(cls, attr, self.wrap(name, val))
            elif isinstance(val, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, val.__func__)))
            elif isinstance(val, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(name, val.__func__)))
        return len(self._undo) - before

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstrument(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["id", "parent", "name", "start_ns", "end_ns",
                                          "rss_delta_mib"],
                       "spans": self.spans}, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# span analysis

class SpanIndex:
    """Durations, self times and ancestry over a finished span list."""

    def __init__(self, spans: list):
        self.spans = spans
        self.by_id = {s[ID]: s for s in spans}
        self.child_ns = dict.fromkeys(self.by_id, 0)
        for s in spans:
            if s[PARENT]:
                self.child_ns[s[PARENT]] += s[END] - s[START]

    @staticmethod
    def duration_ns(s) -> int:
        return s[END] - s[START]

    def self_ns(self, s) -> int:
        return s[END] - s[START] - self.child_ns[s[ID]]

    def named(self, name: str) -> list:
        return [s for s in self.spans if s[NAME] == name]

    def root_of(self, s) -> list:
        while s[PARENT]:
            s = self.by_id[s[PARENT]]
        return s

    def under(self, roots: list) -> list:
        """All spans whose root is one of ``roots`` (roots included)."""
        ids = {r[ID] for r in roots}
        return [s for s in self.spans if self.root_of(s)[ID] in ids]
