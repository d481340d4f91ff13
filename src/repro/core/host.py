"""The broker host: one query lifecycle, any clock.

The paper's Query Manager (Section 4) is one mechanism: ED-ordered
admission, min/max grants, firm-deadline aborts, and ``SampleSize``
batch feedback to the policy.  :class:`BrokerHost` is that mechanism
around a :class:`~repro.core.broker.MemoryBroker`, once, for the two
hosts: the DES :class:`~repro.rtdbs.query_manager.QueryManager`
(simulator clock) and the live :class:`~repro.serve.gateway.LiveGateway`
(event-loop clock).  It owns the present-job table, demand clipping at
the broker's effective pool, ED-order enactment, the departure
sequence and its :class:`~repro.policies.base.DepartureRecord`, the
batch window, and the outcome counters.

An adapter subclasses it and supplies only a clock (any object with a
``now`` in simulated seconds), execution start/cancel (``_start`` /
``_cancel``), expiry arm/cancel (``_arm_expiry`` / ``_cancel_expiry``),
a ``memory`` ledger (the :class:`~repro.core.devices.BufferPool`:
``apply``, ``release``, ``reservation_of`` and ``cache.hits`` /
``cache.misses``; a host may override ``_apply_memory``), and busy
sources for the CPU and each disk speaking the
:class:`~repro.sim.monitor.TimeWeighted` ``snapshot`` / ``mean_since``
protocol.  A job is any object with ``qid``, ``class_name``,
``tenant``, ``deadline``, ``arrival_time``, ``operator`` and
``grant``; the host writes its ``state``, ``demand_min`` /
``demand_max``, ``submit_time``, ``admit_time`` and ``expiry``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.broker import AllocationDecision, BatchWindow, MemoryBroker
from repro.policies.base import BatchStats, DepartureRecord
from repro.sim.monitor import TimeWeighted

WAITING = "waiting"
RUNNING = "running"
DONE = "done"
ABORTED = "aborted"


@dataclass
class ClassCounts:
    """Outcome counters for one slice of the traffic."""

    arrivals: int = 0
    served: int = 0
    missed: int = 0
    #: Rejected at arrival by overload shedding (not served, not missed).
    shed: int = 0

    @property
    def completed(self) -> int:
        return self.served - self.missed

    @property
    def miss_ratio(self) -> float:
        return self.missed / self.served if self.served else 0.0


@dataclass
class HostCounts(ClassCounts):
    """Totals plus the per-class and per-tenant breakdowns."""

    per_class: Dict[str, ClassCounts] = field(default_factory=dict)
    #: Populated only for tenant-tagged traffic.
    per_tenant: Dict[str, ClassCounts] = field(default_factory=dict)


class CumulativeBusy:
    """Window means over a cumulative busy-time counter.

    Speaks the :class:`~repro.sim.monitor.TimeWeighted` snapshot
    protocol, so a host whose devices count busy seconds (rather than
    record a busy indicator) feeds the batch window the same way.
    ``read`` returns the busy time so far in clock units, already
    divided by the number of servers.
    """

    __slots__ = ("clock", "read")

    def __init__(self, clock, read: Callable[[], float]):
        self.clock = clock
        self.read = read

    def snapshot(self) -> tuple:
        return (self.clock.now, self.read())

    def mean_since(self, snapshot: tuple) -> float:
        then, busy_then = snapshot
        elapsed = self.clock.now - then
        return (self.read() - busy_then) / elapsed if elapsed > 0 else 0.0


class BrokerHost:
    """The query lifecycle around one :class:`MemoryBroker`."""

    def __init__(
        self,
        broker: MemoryBroker,
        clock,
        memory,
        busy: Sequence,
        firm_deadlines: bool = True,
        counts: Optional[HostCounts] = None,
    ):
        self.broker = broker
        self.clock = clock
        self.memory = memory
        self.firm_deadlines = firm_deadlines
        self.counts = counts if counts is not None else HostCounts()
        #: Present queries by id (waiting or executing).  Read-only
        #: for observers such as the invariant checker.
        self.jobs: Dict[int, object] = {}
        #: Callbacks invoked with each DepartureRecord.
        self.departure_listeners: List[Callable[[DepartureRecord], None]] = []
        #: Time-weighted number of admitted queries (the observed MPL).
        self.mpl_monitor = TimeWeighted(clock, initial=0.0)
        #: Time-weighted number of present queries (admitted + waiting).
        self.present_monitor = TimeWeighted(clock, initial=0.0)
        #: Optional :class:`repro.rtdbs.invariants.InvariantChecker`;
        #: ``None`` (the default) keeps departures hook-free.
        self.invariants = None
        #: CPU first, then one per disk.
        self._busy = tuple(busy)
        self._reallocating = False
        self._window = self._take_snapshots()

    # -- counters --------------------------------------------------------
    @property
    def departures(self) -> int:
        return self.broker.departures

    @property
    def completions(self) -> int:
        return self.broker.completions

    @property
    def misses(self) -> int:
        return self.broker.misses

    @property
    def batches_delivered(self) -> int:
        return self.broker.batches_delivered

    @property
    def present_jobs(self) -> List:
        """All present queries in ED order."""
        return sorted(self.jobs.values(), key=lambda job: (job.deadline, job.qid))

    def tallies(self, class_name: str, tenant: Optional[str] = None) -> tuple:
        """The total, per-class and (tagged traffic) per-tenant counters
        one query counts in."""
        counts = self.counts
        per_class = counts.per_class.get(class_name)
        if per_class is None:
            per_class = counts.per_class[class_name] = ClassCounts()
        if not tenant:
            return counts, per_class
        per_tenant = counts.per_tenant.get(tenant)
        if per_tenant is None:
            per_tenant = counts.per_tenant[tenant] = ClassCounts()
        return counts, per_class, per_tenant

    # -- arrivals --------------------------------------------------------
    def submit(self, job) -> None:
        """A query arrives: register, arm its expiry, reallocate."""
        qid = job.qid
        if qid in self.jobs:
            raise ValueError(f"duplicate query id {qid}")
        # Demands are capped at the effective pool so an oversized
        # query can still run (in multiple passes) rather than starve.
        job.demand_max = min(job.operator.max_pages, self.broker.total_pages)
        job.demand_min = min(job.operator.min_pages, job.demand_max)
        job.submit_time = self.clock.now
        self.jobs[qid] = job
        for tally in self.tallies(job.class_name, job.tenant):
            tally.arrivals += 1
        self.broker.register(
            qid, job.class_name, job.deadline, job.demand_min, job.demand_max
        )
        self.present_monitor.add(1)
        if self.firm_deadlines:
            self._arm_expiry(job)
        self.reallocate()

    # -- allocation ------------------------------------------------------
    def reallocate(self) -> None:
        """Ask the broker for a fresh decision and enact it in ED order.

        ED order is the order the pre-broker code walked the population
        in, so process creation and wake-ups interleave identically and
        fixed-seed simulations stay bit-identical.
        """
        if self._reallocating:  # no re-entrant allocation
            return
        self._reallocating = True
        try:
            decision = self._decide()
            if decision is None:
                return
            allocation = decision.allocation
            jobs = self.jobs
            for qid in decision.order:
                job = jobs[qid]
                pages = allocation.get(qid, 0)
                if job.state == WAITING and pages > 0:
                    self._admit(job, pages)
                elif job.state == RUNNING:
                    job.grant.set(pages)
            self.mpl_monitor.record(self.broker.admitted_count)
        finally:
            self._reallocating = False

    def _decide(self) -> Optional[AllocationDecision]:
        """One broker decision, installed in the memory ledger; a host
        may return ``None`` to keep the previous allocation."""
        decision = self.broker.reallocate(now=self.clock.now)
        self._apply_memory(decision.allocation)
        return decision

    def _apply_memory(self, allocation: Dict[int, int]) -> None:
        self.memory.apply(allocation)

    def _admit(self, job, pages: int) -> None:
        job.state = RUNNING
        job.admit_time = self.clock.now
        job.grant.set(pages)
        job.grant.started = True  # fluctuations count from here on
        self._start(job)

    # -- departures ------------------------------------------------------
    def complete(self, job) -> None:
        """The operator ran to completion: depart, missed if late."""
        if job.state != RUNNING:
            return  # already aborted
        job.state = DONE
        self.depart(job, missed=self.clock.now > job.deadline + 1e-9)

    def expire(self, job) -> None:
        """Firm deadline reached: the query loses all value [Hari90]."""
        if job.state in (DONE, ABORTED):
            return
        job.state = ABORTED
        job.expiry = None  # fired: nothing left to cancel
        self._cancel(job)
        self.depart(job, missed=True)

    def depart(self, job, missed: bool) -> None:
        """A query leaves (completion or abort); a repeat is a no-op."""
        qid = job.qid
        if self.jobs.get(qid) is not job:
            return  # already departed
        if job.expiry is not None:
            self._cancel_expiry(job)
            job.expiry = None
        job.operator.release_resources()
        self.memory.release(qid)
        del self.jobs[qid]
        self.broker.release(qid)
        self.present_monitor.add(-1)

        now = self.clock.now
        if job.admit_time is None:
            waiting = now - job.submit_time
            execution = 0.0
        else:
            waiting = job.admit_time - job.submit_time
            execution = now - job.admit_time
        record = DepartureRecord(
            qid=qid,
            class_name=job.class_name,
            missed=missed,
            arrival=job.arrival_time,
            departure=now,
            waiting_time=waiting,
            execution_time=execution,
            time_constraint=job.deadline - job.arrival_time,
            max_demand=job.demand_max,
            min_demand=job.demand_min,
            operand_io_count=job.operator.operand_io_count,
            memory_fluctuations=job.grant.fluctuations,
        )
        self.broker.note_departure(missed)
        for tally in self.tallies(job.class_name, job.tenant):
            tally.served += 1
            if missed:
                tally.missed += 1
        for listener in self.departure_listeners:
            listener(record)
        window = self.broker.departure_feedback(record)
        if self.invariants is not None:
            self.invariants.check_population(self)
        if window is not None:
            self._close_batch(window)
        self.reallocate()

    # -- batch feedback --------------------------------------------------
    def _take_snapshots(self) -> tuple:
        cache = self.memory.cache
        return (
            self.mpl_monitor.snapshot(),
            [source.snapshot() for source in self._busy],
            cache.hits,
            cache.misses,
        )

    def _close_batch(self, window: BatchWindow) -> None:
        """Summarise the window and hand it to the broker (which
        forwards it to the policy); :meth:`depart` reallocates next."""
        mpl, busy, hits, misses = self._window
        cache = self.memory.cache
        window_hits = cache.hits - hits
        consulted = window_hits + (cache.misses - misses)
        cpu, *disks = [
            min(1.0, source.mean_since(snapshot))
            for source, snapshot in zip(self._busy, busy)
        ]
        stats = BatchStats(
            time=self.clock.now,
            served=window.served,
            missed=window.missed,
            realized_mpl=self.mpl_monitor.mean_since(mpl),
            cpu_utilization=cpu,
            disk_utilizations=tuple(disks),
            pool_hit_ratio=window_hits / consulted if consulted else 0.0,
        )
        self._window = self._take_snapshots()
        self.broker.deliver_batch(stats)
