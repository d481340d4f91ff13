"""Shared-resource primitives.

The only resource abstraction the RTDBS model needs from the kernel is a
single-server, *preemptive-resume*, priority-ordered server: the CPU.
(The disks implement their own non-preemptive ED + elevator queueing in
:mod:`repro.rtdbs.disk` because their service times depend on physical
head position.)

Priorities are "smaller wins" -- the RTDBS uses absolute deadlines as
priorities (Earliest Deadline scheduling [Liu73]).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.sim.events import Event
from repro.sim.monitor import TimeWeighted


class ServiceRequest(Event):
    """Completion event for a unit of work submitted to a server.

    The request can be cancelled (e.g. when a query is aborted at its
    deadline); a cancelled request never fires and is discarded by the
    server, and any work already performed is simply lost.
    """

    __slots__ = ("work_remaining", "priority", "_seq")

    def __init__(self, sim, work: float, priority: float, seq: int):
        super().__init__(sim)
        self.work_remaining = work
        self.priority = priority
        self._seq = seq

    def _sort_key(self) -> Tuple[float, int]:
        return (self.priority, self._seq)


class CallbackBurst:
    """A unit of server work that invokes a plain callback on completion.

    The Event-free fast path for :meth:`PreemptiveServer.resubmit_call`:
    callers that chain work through callbacks (the per-block CPU+disk
    pipeline) skip the Event allocation, the callbacks list, and the
    kernel's event dispatch entirely.  Shares the queue discipline with
    :class:`ServiceRequest` (same ``priority``/``_seq``/``work_remaining``
    interface); ``_gen`` invalidates a scheduled completion after a
    preemption or cancellation.
    """

    __slots__ = ("work_remaining", "priority", "_seq", "callback", "_gen", "_cancelled")

    def __init__(self, work: float, priority: float, seq: int, callback):
        self.work_remaining = work
        self.priority = priority
        self._seq = seq
        self.callback = callback
        self._gen = 0
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def triggered(self) -> bool:
        return False  # completion is a callback, never an event state

    def cancel(self) -> None:
        self._cancelled = True
        self._gen += 1

    def _sort_key(self) -> Tuple[float, int]:
        return (self.priority, self._seq)


class PreemptiveServer:
    """Single server with preemptive-resume priority scheduling.

    ``rate`` converts work units into seconds (for the CPU: instructions
    per second).  When a request with a smaller priority value arrives
    while another is in service, the running request is paused with its
    remaining work recorded, and resumes -- without losing progress --
    once it is again the highest-priority request.

    Utilisation is tracked with a time-weighted busy indicator so the
    PMM resource-utilisation heuristic can read windowed averages.
    """

    def __init__(self, sim, rate: float, name: str = "server"):
        if rate <= 0:
            raise ValueError(f"server rate must be positive, got {rate}")
        self.sim = sim
        self.rate = float(rate)
        self.name = name
        self._queue: List[Tuple[float, int, ServiceRequest]] = []
        self._sequence = 0
        self._current: Optional[ServiceRequest] = None
        self._current_started: float = 0.0
        self.busy = TimeWeighted(sim, initial=0.0)
        #: Pre-bound completion callback (stable identity, so _start can
        #: tell whether a resumed request already carries it).
        self._complete_cb = self._complete

    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Number of requests waiting (not counting the one in service)."""
        self._compact()
        return len(self._queue)

    @property
    def in_service(self) -> Optional[ServiceRequest]:
        """The request currently holding the server, if any."""
        return self._current

    def submit(self, work: float, priority: float) -> ServiceRequest:
        """Submit ``work`` units at ``priority`` (smaller = more urgent).

        Returns the completion event.  Zero-work requests complete
        immediately without touching the queue.
        """
        if work < 0:
            raise ValueError(f"negative work: {work}")
        self._sequence += 1
        request = ServiceRequest(self.sim, float(work), float(priority), self._sequence)
        if work == 0:
            request.succeed(None)
            return request
        self._enqueue(request)
        return request

    def resubmit_call(self, burst: CallbackBurst, work: float, priority: float) -> None:
        """Re-submit a completed :class:`CallbackBurst` with new work.

        Callers that issue one burst at a time (the per-block CPU+disk
        pipeline) reuse a single burst object per query instead of
        allocating one per block.  The burst must not be in service or
        queued.
        """
        self._sequence += 1
        burst._seq = self._sequence
        burst.priority = priority
        burst.work_remaining = work
        if self._current is not None:
            self._enqueue(burst)
            return
        # Idle server: _start's CallbackBurst branch, call_later inlined.
        sim = self.sim
        self._current = burst
        self._current_started = now = sim.now
        self.busy.record_if_changed(1.0)
        sim._sequence += 1
        token = (self._burst_done, (burst, burst._gen))
        heapq.heappush(sim._heap, (now + work / self.rate, sim._sequence, None, token))

    def _enqueue(self, request) -> None:
        current = self._current
        if current is None:
            self._start(request)
        elif request.priority < current.priority or (
            request.priority == current.priority and request._seq < current._seq
        ):
            self._preempt()
            self._start(request)
        else:
            heapq.heappush(self._queue, (request.priority, request._seq, request))

    def cancel(self, request: ServiceRequest) -> None:
        """Withdraw a request; if it is in service the server moves on."""
        if request.triggered or request.cancelled:
            return
        request.cancel()  # also invalidates any scheduled completion
        if self._current is request:
            self._current = None
            self._dispatch_next()
        # Queued cancelled requests are dropped lazily by _compact().

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)

    def _start(self, request) -> None:
        self._current = request
        self._current_started = self.sim.now
        self.busy.record_if_changed(1.0)
        duration = request.work_remaining / self.rate
        # The request is its own completion timer, scheduled directly
        # at its finish time (one kernel entry per burst, no Timeout).
        # Preemption bumps the request's generation, which invalidates
        # the pending heap entry without an O(n) removal; the request
        # is then re-scheduled when it regains the server.
        if type(request) is CallbackBurst:
            self.sim.call_later(duration, self._burst_done, (request, request._gen))
        else:
            callbacks = request.callbacks
            if not callbacks or callbacks[0] is not self._complete_cb:
                callbacks.insert(0, self._complete_cb)
            self.sim._schedule_event(request, duration)

    def _preempt(self) -> None:
        request = self._current
        assert request is not None
        elapsed = self.sim.now - self._current_started
        request.work_remaining = max(0.0, request.work_remaining - elapsed * self.rate)
        request._gen += 1  # stale the scheduled completion
        self._current = None
        heapq.heappush(self._queue, (request.priority, request._seq, request))

    def _complete(self, request: ServiceRequest) -> None:
        request.work_remaining = 0.0
        self._current = None
        self._dispatch_next()

    def _burst_done(self, token) -> None:
        burst, gen = token
        if burst._gen != gen or self._current is not burst:
            return  # stale: preempted, rescheduled, or cancelled
        burst.work_remaining = 0.0
        self._current = None
        if self._queue:
            self._dispatch_next()
        else:
            self.busy.record_if_changed(0.0)
        burst.callback(burst)

    def _dispatch_next(self) -> None:
        self._compact()
        if self._queue:
            _prio, _seq, request = heapq.heappop(self._queue)
            self._start(request)
        else:
            self.busy.record_if_changed(0.0)
