"""In-memory spans for the traced run.

A span records a name, start, end and the index of the span open around it
(its parent).  Spans are recorded by the benchmark around its calls into
the library; they stay in memory and are written out once, at exit.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def duration(self, idx: int) -> float:
        _, start, end, _ = self.spans[idx]
        return end - start

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus its children's.

        Spans come from one thread, so children never overlap and the part
        of a span its children cover is the sum of their durations.
        """
        totals: dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals

    def dump(self, path, extra: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["self_time_s"] = self.self_times()
        doc["spans"] = [[name, start - t0, end - t0, parent]
                        for name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
