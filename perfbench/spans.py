"""Outside-in span tracing: wrap a package's bindings without editing it.

``Tracer.install`` wraps every public module-level function of the package,
and ``Tracer.patch`` wraps any other attribute (a method, a numpy function).
A function bound under several names (``from .field import mat_mul`` copies
the binding into the importing module) gets one wrapper, rebound everywhere
the original appears.  Each call records a span: name, start, end and the
enclosing span.  Spans stay in flat arrays in memory until ``summary`` or
``arrays`` reads them; ``restore`` puts every original binding back.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list = []  # (owner, attribute, original)
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.raised = Counter()  # span name -> calls that raised
        self.counters = Counter()  # filled by ``after`` hooks

    def reset(self) -> None:
        """Drop recorded spans and counters; keep the wrappers installed."""
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        self._stack.clear()
        self.raised.clear()
        self.counters.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, idx: int) -> tuple:
        """(name, parent name or None, duration) of a recorded span."""
        parent = self._parent[idx]
        return (
            self.names[self._name[idx]],
            None if parent < 0 else self.names[self._name[parent]],
            self._end[idx] - self._start[idx],
        )

    def wrap(self, fn, name: str, after=None):
        """Wrapper recording one span per call of ``fn``.

        ``after(tracer, idx, args, kwargs, result)`` runs once the span has
        closed, to count work the span's arguments or result show.
        """
        nid = self._name_id(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        raised = self.raised
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                raised[name] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if after is not None:
                after(self, idx, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, package: str, hooks=None) -> int:
        """Wrap every public function defined in ``package``'s loaded modules.

        Returns the number of bindings replaced.
        """
        hooks = hooks or {}
        mods = sorted(
            (n, m)
            for n, m in sys.modules.items()
            if m is not None and (n == package or n.startswith(package + "."))
        )
        wrappers = {}
        for modname, mod in mods:
            layer = modname[len(package) + 1 :]
            for attr, val in vars(mod).items():
                if (
                    isinstance(val, types.FunctionType)
                    and val.__module__ == modname
                    and val.__name__ == attr
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}" if layer else attr
                    wrappers[id(val)] = (val, self.wrap(val, name, hooks.get(name)))
        count = 0
        for _, mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self.patch(mod, attr, hit[1])
                    count += 1
        return count

    def restore(self) -> bool:
        """Put every original binding back; True if all are back in place."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        return all(vars(owner)[attr] is original for owner, attr, original in patches)

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays (name id, parent index, times)."""
        return {
            "name": np.frombuffer(self._name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.intc).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per-name call counts and self times, plus the total of root spans.

        A span's self time is its duration minus the durations of its child
        spans, so the self times of all spans sum to the root spans' total.
        """
        if self._stack:
            raise RuntimeError("summary taken while spans are still open")
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names)},
            "raised": dict(self.raised),
            "counters": dict(self.counters),
            "spans": int(dur.size),
            "root_s": float(dur[~nested].sum()),
            "self_total_s": float(own.sum()),
            "min_self_s": float(own.min()) if own.size else 0.0,
        }
