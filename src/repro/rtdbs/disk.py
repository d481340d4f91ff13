"""The Disk Manager: ED-scheduled disks with an elevator tie-break.

Each disk (Section 4.2):

* manages its own queue by the Earliest Deadline policy; requests that
  ED assigns the same priority are serviced in elevator order;
* has a small cache (256 KBytes by default) used for prefetching --
  sequential scans fetch ``BlockSize`` pages per I/O that misses the
  cache, so re-reads of recently transferred pages cost nothing;
* charges ``Seek + RotateDelay + Transfer`` per access, with
  ``Seek(n) = SeekFactor * sqrt(n)`` over ``n`` cylinders [Bitt88] and a
  transfer time of one rotation per full track (= cylinder).

Requests are non-preemptive: once an access starts it completes even if
a more urgent request (or an abort) arrives meanwhile.

The physical model itself -- head/sweep state, stream tails, the
prefetch cache, pricing, and the ED+elevator selection -- lives in the
host-agnostic :class:`repro.core.devices.DeviceCore`; this module is
the simulator-clock adapter around it: it owns the request heap, the
completion timing, and the simulated-time monitors.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.core.devices import READ, WRITE, DeviceCore, PrefetchCache
from repro.rtdbs.config import ResourceParams
from repro.sim.events import Event
from repro.sim.monitor import Tally, TimeWeighted
from repro.sim.rng import Stream
from repro.sim.simulator import Simulator

__all__ = ["READ", "WRITE", "DiskRequest", "PrefetchCache", "Disk"]


class DiskRequest(Event):
    """Completion event for one disk access (``Disk.submit``)."""

    __slots__ = ("kind", "start_page", "npages", "priority", "_seq", "cylinder")

    def __init__(
        self, sim: Simulator, kind: str, start_page: int, npages: int, priority: float
    ):
        super().__init__(sim)
        self.kind = kind
        self.start_page = start_page
        self.npages = npages
        self.priority = priority


class Disk:
    """A single disk with ED queueing and physical timing.

    Thin adapter: all physical state and scheduling decisions are taken
    by the shared :class:`DeviceCore`; this class binds them to the
    simulator's clock and event queue.
    """

    def __init__(
        self,
        sim: Simulator,
        disk_id: int,
        resources: ResourceParams,
        rotation_stream: Optional[Stream] = None,
    ):
        self.sim = sim
        self.disk_id = disk_id
        self.resources = resources
        self.core = DeviceCore(resources, rotation_stream)
        self._queue: List[Tuple[float, int, DiskRequest]] = []
        self._sequence = 0
        self._serving: Optional[DiskRequest] = None
        self.cache = self.core.cache
        self.busy = TimeWeighted(sim, initial=0.0)
        self.service_times = Tally()
        self.accesses = 0
        #: Conservation counters (see :mod:`repro.rtdbs.invariants`):
        #: every submitted access is either a prefetch-cache hit, served
        #: by the arm (``accesses``), cancelled while queued, or still
        #: queued -- these let the invariant checker prove no request is
        #: ever lost or double-served.
        self.submitted = 0
        self.cancelled_queued = 0
        # Hoisted off the per-access path.
        self._cylinder_size = resources.cylinder_size
        self._pages_per_disk = resources.pages_per_disk

    # ------------------------------------------------------------------
    # views onto the shared core
    # ------------------------------------------------------------------
    @property
    def head(self) -> int:
        """Current head position, cylinders."""
        return self.core.head

    @property
    def sequential_continuations(self) -> int:
        return self.core.sequential_continuations

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def submit(self, kind: str, start_page: int, npages: int, priority: float) -> DiskRequest:
        """Queue one access; returns its completion event.

        Reads whose pages are all in the prefetch cache complete
        immediately without using the disk arm.
        """
        if kind != READ and kind != WRITE:
            raise ValueError(f"unknown access kind {kind!r}")
        request = DiskRequest(self.sim, kind, start_page, npages, priority)
        if self.submit_op(request):
            request.succeed(None)
        return request

    def submit_op(self, op) -> bool:
        """Queue an access whose completion event is ``op`` itself.

        ``op`` is a :class:`DiskRequest`: a fresh one from
        :meth:`submit`, or the query manager's per-query driver, which
        recycles itself for every access.  :meth:`_complete` triggers it
        and runs its waiters (``_run_callbacks``).  Returns ``True``
        when the access was served from the prefetch cache (no arm
        time; the op was not queued and the caller completes it).
        """
        start_page = op.start_page
        npages = op.npages
        if npages <= 0:
            raise ValueError(f"disk access must cover at least one page, got {npages}")
        if start_page < 0 or start_page + npages > self._pages_per_disk:
            raise ValueError(
                f"disk {self.disk_id}: access [{start_page}, "
                f"{start_page + npages - 1}] out of range"
            )
        self.submitted += 1
        if op.kind == READ and self.core.read_hit(start_page, npages):
            return True
        self._sequence += 1
        op._seq = self._sequence
        op.cylinder = start_page // self._cylinder_size
        if self._serving is None and not self._queue:
            self._serve(op)  # uncontended: skip the heap entirely
        else:
            heapq.heappush(self._queue, (op.priority, op._seq, op))
            if self._serving is None:
                self._serve_next()
        return False

    def cancel(self, request: DiskRequest) -> None:
        """Withdraw a request, honouring non-preemptive service.

        An access already holding the arm runs to the end: its head
        movement, stream-tail bookkeeping, and cache installation in
        :meth:`_complete` all still happen -- only the completion is
        delivered to no-one (the request is cancelled, so its waiters
        never run).  A *queued* request, by contrast, is dropped before
        it ever reaches the arm: it contributes no service time and
        leaves no physical trace on the disk.
        """
        if request.triggered or request.cancelled:
            return
        request.cancel()
        if self._serving is request:
            return  # _complete still runs; it delivers to no-one
        queue = self._queue
        for index, entry in enumerate(queue):
            if entry[2] is request:
                queue[index] = queue[-1]
                queue.pop()
                heapq.heapify(queue)
                self.cancelled_queued += 1
                break

    @property
    def queue_length(self) -> int:
        """Waiting requests (excluding any in service)."""
        self._compact()
        return len(self._queue)

    def utilization(self) -> float:
        """Fraction of time the arm has been busy since the run began."""
        return self.busy.mean()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)

    def _serve_next(self) -> None:
        request = self.core.select(self._queue)
        if request is None:
            self.busy.record_if_changed(0.0)
            return
        self._serve(request)

    def _serve(self, request: DiskRequest) -> None:
        self.busy.record_if_changed(1.0)
        self._serving = request
        duration = self.core.service_time(
            request.start_page, request.npages, request.cylinder
        )
        self.service_times.record(duration)
        self.accesses += 1
        # Non-preemptive, so nothing re-times it: one Event-free kernel
        # entry per access runs the completion (call_later, inlined).
        sim = self.sim
        sim._sequence += 1
        token = (self._complete, request)
        heapq.heappush(sim._heap, (sim.now + duration, sim._sequence, None, token))

    def _complete(self, request: DiskRequest) -> None:
        """The arm finished ``request``: bookkeeping, the next access,
        then the request's waiters (none once it is cancelled)."""
        self.core.note_transfer(request.start_page, request.npages)
        self._serving = None
        if self._queue:
            self._serve_next()
        else:
            self.busy.record_if_changed(0.0)
        request._triggered = True
        request._run_callbacks()
