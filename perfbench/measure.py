"""Timing summaries and the benchmark-side span tracer."""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with at least ``TAIL_BEYOND`` samples beyond it.

    ``None`` below 100 samples, where even p90 has fewer than ten beyond.
    """
    best = None
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= TAIL_BEYOND - 1e-9:
            best = pct
    return best


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, tail (by :func:`tail_percentile`) and sample count."""
    data = np.asarray(values, dtype=float)
    summary: Dict[str, object] = {"n": int(data.size)}
    if data.size:
        summary["p50"] = float(np.percentile(data, 50))
        pct = tail_percentile(int(data.size))
        if pct is not None:
            summary["tail_pct"] = pct
            summary["tail"] = float(np.percentile(data, pct))
    return summary


class Tracer:
    """In-memory spans recorded around calls into each layer.

    A span has a name, start and end (``perf_counter`` seconds), the span
    that caused it and the request it belongs to.  Disabled, :meth:`span`
    records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append({
                "id": span_id, "parent": parent, "request": request,
                "name": name, "start": start, "end": time.perf_counter(),
            })

    def record(self, name: str, start: float, end: float, request: Optional[str] = None) -> None:
        """A span timed elsewhere (the load generator's threads)."""
        if self.enabled:
            self.spans.append({
                "id": next(self._ids), "parent": None, "request": request,
                "name": name, "start": start, "end": end,
            })

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                    span["end"] - span["start"])
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)
