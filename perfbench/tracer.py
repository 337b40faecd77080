"""In-memory spans and counters around the public calls of each diagsync layer.

The tracer patches module attributes from the outside, so the program is
measured unmodified.  A wrapper is bound under every name a caller looks it
up by: ``pipeline`` imports ``max_clique`` and friends by name, so replacing
only ``search.max_clique`` would miss every call the pipeline makes.

Three kinds of instrumentation, by call frequency:

* spans (name, start, end, parent) for coarse calls, kept in a list and
  written out when the run ends;
* timed leaves for hot calls (``ClassUnionGraph.neighbors``,
  ``PSL2.conjugacy_classes``): counted and timed, their time credited to the
  enclosing span as child time, but not stored one by one;
* bare counters for the hottest calls (``PSL2.mul``, ``Field.mul``).

Work done in forked search workers is not seen by the parent's counters;
node counts come from the certificates the workers hand back.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent, child_time]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []
        self._ticks: dict[str, itertools.count] = {}

    # -- recording ------------------------------------------------------------

    def span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
                if rec[3] >= 0:
                    spans[rec[3]][4] += rec[2] - rec[1]
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    def leaf(self, name, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        calls, secs = name + "_calls", name + "_s"

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                counts[calls] += 1
                counts[secs] += dt
                if stack:
                    spans[stack[-1]][4] += dt

        return wrapper

    def counter(self, name, method):
        """Count calls of a two-argument method, the cheapest way found."""
        ticks = itertools.count()
        self._ticks[name] = ticks
        tick = ticks.__next__

        @functools.wraps(method)
        def wrapper(self, a, b):
            tick()
            return method(self, a, b)

        return wrapper

    # -- installation ---------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace owner.attr, and every same-object binding in the package."""
        original = getattr(owner, attr)
        targets = [owner]
        if not isinstance(owner, type):
            package = owner.__name__.rpartition(".")[0]
            targets += [m for name, m in sorted(sys.modules.items())
                        if name.startswith(package + ".") and m is not owner
                        and getattr(m, attr, None) is original]
        for target in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()
        for name, ticks in self._ticks.items():
            self.counts[name] = next(ticks)     # counts from 0: the calls so far
        self._ticks.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, less the part covered by child spans/leaves."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, child in self.spans:
            out[name] += (end - start) - child
        return out

    def totals(self) -> dict[str, float]:
        """Seconds per span name counting outermost spans of that name only."""
        out: dict[str, float] = defaultdict(float)
        spans = self.spans
        for name, start, end, parent, _ in spans:
            nested = False
            p = parent
            while p >= 0:
                if spans[p][0] == name:
                    nested = True
                    break
                p = spans[p][3]
            if not nested:
                out[name] += end - start
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, child) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "child_s": child}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
