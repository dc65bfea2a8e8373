"""Statistics helper of the perfbench benchmark.

Every metric carries its unit and the number of samples behind it. Timings
are summarised by their median and by a tail: the highest percentile that
still has at least ten samples beyond it, taken per block of 1000 samples
in long runs (see blocked_tail). CPU time per job is summarised by its
floor: the mean of the fastest 1% of the samples (see floor). Span self
time is the span's duration minus the part of its interval that its child
spans cover; the children may overlap each other (worker threads of one
sweep), so the covered part is the length of the union of the children's
intervals.

Run the tests with ``python3 -m unittest discover -s perfbench -p 'test_*.py'``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

TAIL_BEYOND = 10
TAIL_BLOCK = 1000
FLOOR_SHARE = 0.01
FLOOR_LEAST = 3


@dataclass(frozen=True)
class Metric:
    """One reported number: value, unit and the sample count behind it."""

    name: str
    value: float
    unit: str
    n: int
    note: str = ""

    def as_json(self) -> dict:
        """The form of the benchmark's result line: value and unit."""
        return {"value": self.value, "unit": self.unit}

    def record(self) -> dict:
        """The full form kept in a run's record file: sample count and
        note (such as a tail's percentile) too."""
        out = {"name": self.name, "value": self.value, "unit": self.unit, "n": self.n}
        if self.note:
            out["note"] = self.note
        return out


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def floor(values, share: float = FLOOR_SHARE, least: int = FLOOR_LEAST) -> float:
    """The mean of the fastest `share` of the samples, and of at least
    `least` of them (of all when there are fewer)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("floor of no samples")
    k = min(len(ordered), max(least, int(len(ordered) * share)))
    return statistics.fmean(ordered[:k])


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Returns (value, percentile) of the highest percentile with at least
    `beyond` samples above it. With `beyond` samples or fewer there is no
    such percentile; the maximum is returned at percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def blocked_tail(values, block: int = TAIL_BLOCK,
                 beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The tail of a long run, kept at a fixed percentile: the samples, in
    the order they were taken, are cut into whole blocks of `block`, the
    `tail` rule is applied to each, and the median of the block tails is
    returned with its percentile and the number of blocks. A run with fewer
    than two whole blocks gets the `tail` rule over all its samples (one
    block). Without blocks, the percentile of a server run with tens of
    thousands of requests sits so far out that one scheduler stall moves it."""
    values = list(values)
    blocks = len(values) // block
    if blocks < 2:
        value, pct = tail(values, beyond)
        return value, pct, 1
    tails = [tail(values[k * block:(k + 1) * block], beyond) for k in range(blocks)]
    return median(v for v, _ in tails), tails[0][1], blocks


@dataclass
class Span:
    name: str
    id: int
    parent: int
    tid: int
    start: float  # microseconds
    end: float
    args: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def load_chrome_trace(path: str) -> tuple[list[Span], dict]:
    """Reads the spans and the provenance block of a perfbench trace file."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    spans = []
    for e in doc["traceEvents"]:
        args = dict(e.get("args", {}))
        span_id = int(args.pop("id"))
        parent = int(args.pop("parent"))
        spans.append(Span(e["name"], span_id, parent, int(e["tid"]), float(e["ts"]),
                          float(e["ts"]) + float(e["dur"]), args))
    return spans, doc.get("otherData", {})


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans) -> dict[int, list[Span]]:
    kids = defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)
    return kids


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in kids.get(s.id, [])]
        out[s.id] = s.dur - union_length(clipped)
    return out


def layer_table(spans) -> list[dict]:
    """Per span name: calls, total and self time (ms), and the share of all
    self time. Sorted by self time, largest first."""
    selfs = self_times(spans)
    rows = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for s in spans:
        row = rows[s.name]
        row["calls"] += 1
        row["total_ms"] += s.dur / 1000.0
        row["self_ms"] += selfs[s.id] / 1000.0
    all_self = sum(r["self_ms"] for r in rows.values()) or 1.0
    table = [dict(name=name, share=r["self_ms"] / all_self, **r) for name, r in rows.items()]
    return sorted(table, key=lambda r: r["self_ms"], reverse=True)
