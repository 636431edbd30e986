"""Span tracer that wraps functions from outside the program.

The benchmark's traced run replaces chosen methods and module functions
with thin wrappers.  Each wrapped call is a span: the tracer keeps, for
every boundary name,

* count, total and self time (self = the span minus the part of it that
  wrapped child spans cover), and a fixed-bucket latency histogram from
  which p50/p99 are read;
* the full spans (name, start, end, span id, parent id) of the first
  ``window`` calls, which :meth:`Tracer.write_chrome` exports as Chrome
  trace-event JSON (it opens in Perfetto).

Count-only boundaries (:meth:`Tracer.count`) add one integer increment
and no span; they suit generator functions, whose call returns before the
work is done.

The tracer is single-threaded, like the virtual backend it measures.  A
process forked while wrappers are installed (a campaign's pool workers)
starts over with empty state and, when ``worker_dump_dir`` is set, writes
its aggregates to a file there each time a span named in ``dump_on``
closes at depth 0; :meth:`Tracer.merge_dumps` folds those files back in.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

#: sub-buckets per power of two in the latency histogram (~4% wide)
_SUB_BITS = 4


def bucket_of(ns: int) -> int:
    """Histogram bucket of a duration; buckets below 32 ns are exact."""
    if ns < 32:
        return max(ns, 0)
    bl = ns.bit_length()
    return (bl << _SUB_BITS) | ((ns >> (bl - _SUB_BITS - 1)) & 15)


def bucket_bounds(b: int) -> tuple[int, int]:
    """Half-open ``[lo, hi)`` nanosecond range of bucket ``b``."""
    if b < 32:
        return b, b + 1
    bl, sub = b >> _SUB_BITS, b & 15
    shift = bl - _SUB_BITS - 1
    return (16 + sub) << shift, (17 + sub) << shift


def quantile_ns(hist: dict[int, int], q: float) -> float:
    """The ``q`` quantile of a bucket histogram, interpolated in-bucket."""
    n = sum(hist.values())
    if n == 0:
        return 0.0
    rank = q * n
    seen = 0
    for b in sorted(hist):
        c = hist[b]
        if seen + c >= rank:
            lo, hi = bucket_bounds(b)
            return lo + (hi - lo) * (rank - seen) / c
        seen += c
    return float(bucket_bounds(max(hist))[1])


class Agg:
    """Aggregates of one boundary."""

    __slots__ = ("count", "total_ns", "self_ns", "hist")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.hist: dict[int, int] = {}

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "hist": {str(b): c for b, c in self.hist.items()},
        }

    def merge(self, doc: dict) -> None:
        self.count += doc["count"]
        self.total_ns += doc["total_ns"]
        self.self_ns += doc["self_ns"]
        for b, c in doc["hist"].items():
            b = int(b)
            self.hist[b] = self.hist.get(b, 0) + c


class Tracer:
    def __init__(self, window: int = 50_000) -> None:
        self.window = window
        self.aggs: dict[str, Agg] = {}
        self.counts: dict[str, int] = {}
        #: free-form integer/float accumulators filled by boundary hooks
        self.extra: dict[str, float] = {}
        #: open spans, innermost last: [span id, child ns]
        self._stack: list[list] = []
        #: window of spans: [name, start ns, end ns, span id, parent id]
        self.spans: list[list] = []
        self._next_id = 1
        self.origin_ns = time.perf_counter_ns()
        self.worker_dump_dir: Path | None = None
        self.dump_on: frozenset[str] = frozenset()
        self._dump_path: Path | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper recorded as ``name``.

        ``hook(tracer, args, result)`` runs after each call that returns.
        """
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self._timed(name, fn, hook))

    def count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls."""
        fn = owner.__dict__[attr]
        self._undo.append((owner, attr, fn))
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _timed(self, name: str, fn, hook):
        agg = self.aggs.setdefault(name, Agg())
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            spans = tracer.spans
            slot = -1
            t0 = clock()
            if len(spans) < tracer.window:
                slot = len(spans)
                spans.append([name, t0, t0, span_id, parent[0] if parent else 0])
            frame = [span_id, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                agg.count += 1
                agg.total_ns += dur
                agg.self_ns += own
                b = bucket_of(dur)
                agg.hist[b] = agg.hist.get(b, 0) + 1
                if slot >= 0:
                    spans[slot][2] = t1
                if parent is not None:
                    parent[1] += dur
            if hook is not None:
                hook(tracer, args, result)
            if not stack and tracer._dump_path is not None and name in tracer.dump_on:
                tracer.dump(tracer._dump_path)
            return result

        return timed

    # -- forked workers --------------------------------------------------------

    def follow_forks(self, dump_dir: Path, dump_on: set[str]) -> None:
        """Make forked children trace afresh and dump to ``dump_dir``."""
        self.worker_dump_dir = Path(dump_dir)
        self.dump_on = frozenset(dump_on)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        for agg in self.aggs.values():
            agg.count = agg.total_ns = agg.self_ns = 0
            agg.hist.clear()
        for name in self.counts:
            self.counts[name] = 0
        self.extra.clear()
        self._stack.clear()
        self.spans.clear()
        self.window = 0  # worker spans are not exported
        if self.worker_dump_dir is not None:
            self._dump_path = self.worker_dump_dir / f"worker-{os.getpid()}.json"

    def state(self) -> dict:
        return {
            "aggs": {n: a.to_dict() for n, a in self.aggs.items()},
            "counts": dict(self.counts),
            "extra": dict(self.extra),
        }

    def dump(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.state()))
        os.replace(tmp, path)

    def merge_dumps(self, dump_dir: Path) -> int:
        """Fold every worker dump in ``dump_dir`` into this tracer."""
        files = sorted(Path(dump_dir).glob("worker-*.json"))
        for path in files:
            doc = json.loads(path.read_text())
            for n, a in doc["aggs"].items():
                self.aggs.setdefault(n, Agg()).merge(a)
            for n, c in doc["counts"].items():
                self.counts[n] = self.counts.get(n, 0) + c
            for n, v in doc["extra"].items():
                self.extra[n] = self.extra.get(n, 0) + v
        return len(files)

    # -- export ------------------------------------------------------------------

    def write_chrome(self, path: Path, categories: dict[str, str]) -> None:
        """Write the span window as Chrome trace-event JSON.

        ``categories`` maps boundary name to layer; each span carries its
        id and its parent's id in ``args``.
        """
        pid = os.getpid()
        origin = self.origin_ns
        events = [
            {
                "name": name,
                "cat": categories.get(name, ""),
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": pid,
                "tid": 0,
                "args": {"id": span_id, "parent": parent},
            }
            for name, start, end, span_id, parent in self.spans
        ]
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "window": self.window,
                "spans_started": self._next_id - 1,
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
