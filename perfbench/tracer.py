"""Span recording around the program's public entry points.

The tracer never edits ``src/``: :meth:`Tracer.wrap` replaces a method on
its class (or on one instance) with a timing wrapper and
:meth:`Tracer.restore` puts every original back.  Three wrapper shapes
cover the layers:

* synchronous calls (``MemoryBroker.reallocate``, ``LiveGateway.submit``,
  ``DeviceCore.service_time`` ...) run to completion without yielding to
  the event loop, so they nest strictly.  A stack of open frames gives
  each one its parent, and a layer's *self time* is a span's duration
  minus the time its child spans cover;
* generator methods (``Operator.run``): every ``next()`` is a short
  synchronous frame in the ``queries`` layer, counted per request;
* coroutine methods (``PriorityWorkerGate.acquire``, ``LiveDisk.acquire``,
  ``ShardLink.request``) interleave with each other, so they are waits,
  recorded as spans with no parent and no self time.

Hot entry points (called per disk access or per operator request) keep
only a count and a time sum; coarse ones also keep every span in memory
(``id, name, start, end, parent, key``) for the JSONL dump at the end.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf = time.perf_counter

#: Every layer that owns a self-time column, in report order.
LAYERS = (
    "serve.router",
    "serve.server",
    "serve.gateway",
    "core.broker",
    "policies",
    "serve.dataplane",
    "core.devices",
    "queries",
    "sim",
    "rtdbs",
)


class Tracer:
    """In-memory spans, per-name samples and per-layer self time."""

    def __init__(self) -> None:
        #: Kept spans: ``(id, name, start, end, parent, key)``.
        self.spans: List[tuple] = []
        #: Durations (seconds) per kept span name, for percentiles.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Seconds and calls per name (every wrapped entry point).
        self.totals: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Seconds per layer not covered by a child span.
        self.self_time: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []  # open frames: [id, child seconds]
        self._next_id = 0
        self._restore: List[tuple] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def wrap(self, owner, name: str, factory: Callable) -> None:
        """Replace ``owner.name`` with ``factory(original)`` until
        :meth:`restore`; ``owner`` is a class or a single instance."""
        if isinstance(owner, type):
            original = owner.__dict__[name]
            own = True
        else:
            original = getattr(owner, name)
            own = name in vars(owner)
        setattr(owner, name, factory(original))
        self._restore.append((owner, name, original, own))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, name, original, own = self._restore.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _open(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, layer: str, name: str, frame: list, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][1] += elapsed
        self.self_time[layer] += elapsed - frame[1]
        self.totals[name] += elapsed

    # ------------------------------------------------------------------
    # wrapper factories
    # ------------------------------------------------------------------
    def sync(
        self,
        layer: str,
        name: str,
        keep: bool = True,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A strictly nested synchronous call.

        ``keep=False`` records only a count and a sum (hot paths).
        ``before(args)`` runs first, untimed (a population sample);
        ``after(args, result)`` runs last, untimed, and its return value
        labels a kept span (a query id).
        """
        tracer = self

        def factory(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                frame = tracer._open()
                start = perf()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf()
                    tracer._close(layer, name, frame, end - start)
                    tracer.calls[name] += 1
                label = after(args, result) if after is not None else None
                if keep:
                    stack = tracer._stack
                    parent = stack[-1][0] if stack else None
                    tracer.samples[name].append(end - start)
                    tracer.spans.append((frame[0], name, start, end, parent, label))
                return result

            return wrapper

        return factory

    def generator(self, layer: str, name: str) -> Callable:
        """A generator method: each ``next()`` is one nested frame and
        each yielded item one counted call."""
        tracer = self

        def factory(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                inner = original(*args, **kwargs)
                try:
                    while True:
                        frame = tracer._open()
                        start = perf()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(layer, name, frame, perf() - start)
                        tracer.calls[name] += 1
                        yield item
                finally:
                    inner.close()

            return wrapper

        return factory

    def coroutine(self, name: str, after: Optional[Callable] = None) -> Callable:
        """An awaited call that interleaves with others: a wait span.

        ``after(args, result)`` labels the span and a ``None`` label
        drops it (e.g. a ``stats`` request on a shard link); without it
        the label is the query id of the running gateway task.
        """
        tracer = self

        def factory(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                start = perf()
                result = await original(*args, **kwargs)
                end = perf()
                label = after(args, result) if after is not None else task_qid()
                if after is None or label is not None:
                    tracer.span(name, start, end, label)
                return result

            return wrapper

        return factory

    def span(self, name: str, start: float, end: float, key=None) -> None:
        """Record a span the caller measured (no parent, no self time)."""
        self.samples[name].append(end - start)
        self.totals[name] += end - start
        self.calls[name] += 1
        self.spans.append((self._next_id, name, start, end, None, key))
        self._next_id += 1

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write_jsonl(self, path, header: dict) -> None:
        """Write the header, every kept span, one aggregate line per
        entry point, and the per-layer self time."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for span_id, name, start, end, parent, key in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "key": key,
                }
                handle.write(json.dumps(record) + "\n")
            for name in sorted(self.totals):
                record = {
                    "aggregate": name,
                    "calls": self.calls[name],
                    "seconds": self.totals[name],
                }
                handle.write(json.dumps(record) + "\n")
            self_seconds = {layer: self.self_time[layer] for layer in LAYERS}
            handle.write(json.dumps({"self_seconds": self_seconds}) + "\n")


def task_qid() -> Optional[int]:
    """The query id of the running gateway task (named ``query-<qid>``)."""
    task = asyncio.current_task()
    if task is None:
        return None
    task_name = task.get_name()
    return int(task_name[6:]) if task_name.startswith("query-") else None


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of ``values``; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-len(ordered) * round(fraction * 1000) // 1000)
    return ordered[min(len(ordered), max(1, rank)) - 1]
