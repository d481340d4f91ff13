"""The live admission gateway: the paper's policies against real queries.

:class:`LiveGateway` is the live one of the two hosts of the shared
query lifecycle, :class:`~repro.core.host.BrokerHost`: the DES
:class:`~repro.rtdbs.query_manager.QueryManager` runs it on the
simulator clock, this asyncio service runs it on the event loop's
clock (:class:`LoopClock`) against real concurrent queries -- the
*identical* :class:`~repro.core.broker.MemoryBroker` /
:class:`~repro.policies.base.MemoryPolicy` objects, the same
admission, enactment, departure and batch-feedback code.  On the
live side:

* decisions are enforced through the shared
  :class:`~repro.core.devices.BufferPool` (an independent
  conservation-law ledger) before any grant reaches an operator;
* admitted queries run the *real* adaptive operators of
  :mod:`repro.queries` -- the PPHJ hash join and the adaptive external
  sort -- against the in-memory relations of a
  :class:`~repro.serve.dataplane.LiveDataPlane`.  The data plane is
  *shared and contended*: cacheable operand reads consult the same
  cross-query pool (reservations shrink the LRU region every query
  shares), disk accesses consult the per-disk prefetch cache and queue
  in Earliest-Deadline order with the elevator tie-break on per-disk
  :class:`~repro.serve.dataplane.LiveDisk` service queues -- the same
  :class:`~repro.core.devices.DeviceCore` scheduling and pricing the
  simulator's disks run (concurrent queries stretch each other's
  accesses by real queueing delay, and interleaved scans break each
  other's sequential positioning), and CPU bursts occupy a slot of a
  bounded ED-ordered worker gate.  Disk service moves real bytes
  through the per-disk page stores (zero-copy replay);
* deadlines are enforced firmly: an expiry timer aborts a query
  wherever it is (waiting or mid-operator), releasing its memory and
  temp extents, and it counts as a missed, served query;
* transient policy faults are absorbed (the previous allocation
  stands), overloaded arrivals can be shed at the door, faulted disks
  are survived with retries and circuit breakers, and :meth:`close`
  proves the grant ledger empty;
* per-class served/missed counts, throughput, admission-decision
  latency, and the observed MPL are collected in a
  :class:`LiveReport`.

Simulated seconds map to wall seconds through ``time_scale`` (0.05 =
20x faster than real time); deadlines scale identically, so policy
behaviour is preserved while a 60-second scenario replays in ~3
seconds of wall clock.
"""

from __future__ import annotations

import asyncio
import time as _time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple, Union

from repro.core.broker import AllocationDecision, BrokerTrace, MemoryBroker
from repro.core.devices import READ, BufferPool
from repro.core.host import (
    ABORTED,
    DONE,
    RUNNING,
    WAITING,
    BrokerHost,
    CumulativeBusy,
    HostCounts,
)
from repro.core.steps import CPU_WORK, DISK_IO, steps
from repro.policies.base import MemoryPolicy
from repro.policies.registry import make_policy
from repro.queries.base import MemoryGrant, Operator
from repro.queries.cost_model import StandAloneCostModel
from repro.rtdbs.config import SimulationConfig
from repro.serve.dataplane import GrantLeakError, LiveDataPlane, LiveDisk
from repro.serve.faults import (
    CircuitBreaker,
    DiskFaultError,
    FaultInjector,
    FaultSchedule,
    FaultyPolicy,
    PolicyFaultError,
)
from repro.serve.workload import LiveArrival, LiveSchedule, make_operator

#: Rejected at arrival by overload shedding: never registered, never
#: granted, answered with a structured ``shed`` response.
SHED = "shed"

#: Never sleep for less than this (wall seconds): event-loop timers are
#: only ~millisecond-accurate, so service debt is accumulated and paid
#: in chunks at least this large.  Each paid chunk returns its pacing
#: carry (debt minus wall actually elapsed) so timer overshoot is
#: repaid by the next chunk instead of compounding over a replay.
MIN_SLEEP = 0.001


def _quantize(seconds: float) -> float:
    """Floor a sleep request to a whole-millisecond quantum.

    The stdlib selector rounds epoll timeouts *up* to whole
    milliseconds, so ``sleep(0.0012)`` actually takes ~2.3 ms -- nearly
    double.  Requesting the floored quantum keeps the per-sleep error
    under ~0.2 ms; the sub-millisecond remainder rides the pacing carry
    instead of being rounded up by the kernel on every chunk.
    """
    return int(seconds * 1000.0) * 0.001


def install_uvloop() -> bool:
    """Install uvloop's event-loop policy when the package is present.

    uvloop's timers and wakeups are several times cheaper than the
    stdlib loop's, which compounds over the thousands of paced chunks
    in a live replay.  Purely optional: returns ``False`` (a no-op)
    when uvloop is not installed.
    """
    try:
        import uvloop
    except ImportError:
        return False
    uvloop.install()
    return True


class PriorityWorkerGate:
    """Earliest-Deadline admission to a fixed number of worker slots.

    The simulated CPU and disks serve requests in ED order; a plain
    FIFO thread pool would quietly replace that with arrival order and
    distort every policy comparison.  This gate hands worker slots to
    the most urgent waiter first: service chunks are small (a few
    milliseconds), so an urgent query overtakes a backlog at chunk
    granularity -- the live analogue of the simulator's priority
    queues.

    Releases are batched: each :meth:`release` parks the slot and
    schedules one flush per event-loop pass, so N chunks finishing in
    the same pass cost one heap drain instead of N handoffs -- and a
    more urgent waiter that enqueues in that same pass wins the slot,
    which a direct handoff would have given to a patient one.
    """

    def __init__(self, slots: int):
        if slots < 1:
            raise ValueError(f"need at least one worker slot, got {slots}")
        self._free = slots
        self._waiters: List[tuple] = []  # heap of (priority, seq, future)
        self._seq = 0
        self._pending = 0  # slots released but not yet flushed
        self._flush_scheduled = False

    async def acquire(self, priority: float) -> None:
        if self._free > 0 and not self._waiters:
            self._free -= 1
            return
        future = asyncio.get_running_loop().create_future()
        self._seq += 1
        heappush(self._waiters, (priority, self._seq, future))
        try:
            await future  # a flushed slot is handed over here
        except asyncio.CancelledError:
            if future.done() and not future.cancelled():
                # The slot was handed over in the same loop pass the
                # expiry cancelled us: give it back or it leaks.
                self.release()
            raise

    def release(self) -> None:
        self._pending += 1
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        free = self._free + self._pending
        self._pending = 0
        waiters = self._waiters
        while free > 0 and waiters:
            _priority, _seq, future = heappop(waiters)
            if not future.done():  # skip waiters cancelled by expiry
                future.set_result(None)
                free -= 1
        self._free = free


class LoopClock:
    """Simulated seconds on the running event loop.

    ``now`` is the wall time since :meth:`start` divided by
    ``time_scale`` (0 before the start); :meth:`call_at` schedules a
    callback at a simulated instant.
    """

    def __init__(self, time_scale: float):
        self.time_scale = time_scale
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.t0 = 0.0

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self.t0 = loop.time()

    @property
    def now(self) -> float:
        return self.wall() / self.time_scale

    def wall(self) -> float:
        """Wall seconds since the start."""
        return self.loop.time() - self.t0 if self.loop is not None else 0.0

    def to_wall(self, sim_seconds: float) -> float:
        return sim_seconds * self.time_scale

    def at(self, sim_seconds: float) -> float:
        """The loop time of a simulated instant."""
        return self.t0 + sim_seconds * self.time_scale

    def call_at(self, sim_seconds: float, callback, *args) -> asyncio.TimerHandle:
        return self.loop.call_at(self.at(sim_seconds), callback, *args)


@dataclass
class LiveQuery:
    """One in-flight query's runtime state."""

    arrival: LiveArrival
    operator: Operator
    grant: MemoryGrant
    state: str = WAITING
    demand_min: int = 0
    demand_max: int = 0
    submitted_wall: float = 0.0
    admitted_wall: Optional[float] = None
    #: Host clock stamps (simulated seconds).
    submit_time: float = 0.0
    admit_time: Optional[float] = None
    task: Optional[asyncio.Task] = None
    expiry: Optional[asyncio.TimerHandle] = None

    @property
    def qid(self) -> int:
        return self.arrival.qid

    @property
    def class_name(self) -> str:
        return self.arrival.class_name

    @property
    def tenant(self) -> str:
        return self.arrival.tenant

    @property
    def deadline(self) -> float:
        return self.arrival.deadline

    @property
    def arrival_time(self) -> float:
        return self.arrival.arrival


@dataclass
class LiveReport(HostCounts):
    """Everything one live run measured.

    The outcome counters (``arrivals`` / ``served`` / ``missed`` /
    ``shed`` and their per-class and per-tenant breakdowns) are the
    host's own: the gateway counts straight into its report.
    """

    policy: str = ""
    time_scale: float = 0.0
    workers: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    #: Admission decisions made (one per broker reallocation).
    decisions: int = 0
    decision_seconds: float = 0.0
    decision_max_seconds: float = 0.0
    #: Time-weighted number of admitted queries.
    observed_mpl: float = 0.0
    pages_read: int = 0
    pages_written: int = 0
    bytes_moved: int = 0
    #: Shared buffer-pool consultations (cacheable operand reads).
    pool_hits: int = 0
    pool_misses: int = 0
    #: Wall seconds each disk's arm spent in service / chunks spent
    #: queueing behind other queries' chunks (contention telemetry).
    disk_busy: Tuple[float, ...] = ()
    disk_queue: Tuple[float, ...] = ()
    # -- degraded-mode telemetry (all zero on the no-fault path) -------
    #: Backoff retries against faulted disks.
    disk_retries: int = 0
    #: Cacheable reads rerouted to a healthy replica disk.
    disk_reroutes: int = 0
    #: Chunks abandoned fast (breaker open with no replica, or the
    #: deadline budget could not absorb another backoff).
    disk_fast_fails: int = 0
    #: Circuit-breaker trips across all disks.
    breaker_opens: int = 0
    #: Fault windows opened against the disks.
    disk_outages: int = 0
    disk_degrades: int = 0
    #: Injected policy exceptions survived (previous allocation kept).
    policy_faults: int = 0
    #: Queries aborted because their client vanished mid-request.
    client_cancels: int = 0
    #: Memory-pressure windows that shrank the effective pool.
    pool_shrinks: int = 0

    @property
    def pool_hit_ratio(self) -> float:
        consulted = self.pool_hits + self.pool_misses
        return self.pool_hits / consulted if consulted else 0.0

    @property
    def disk_queue_seconds(self) -> float:
        """Total wall seconds spent queueing across all disks."""
        return sum(self.disk_queue)

    @property
    def disk_queue_sim_seconds(self) -> float:
        """Queueing delay in simulated seconds (comparable to the DES)."""
        return self.disk_queue_seconds / self.time_scale if self.time_scale else 0.0

    @property
    def queries_per_sec(self) -> float:
        return self.served / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def decisions_per_sec(self) -> float:
        return self.decisions / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def decision_latency_mean_us(self) -> float:
        if not self.decisions:
            return 0.0
        return self.decision_seconds / self.decisions * 1e6


class LiveGateway(BrokerHost):
    """The live adapter: admission control and grant enforcement for
    real concurrent queries on the event-loop clock."""

    def __init__(
        self,
        config: SimulationConfig,
        policy: Union[str, MemoryPolicy],
        time_scale: float = 0.05,
        workers: Optional[int] = None,
        payload_bytes: int = 256,
        invariants: bool = False,
        recorder: Optional[BrokerTrace] = None,
        faults: Optional[FaultSchedule] = None,
        shed_overload: bool = False,
    ):
        config.validate()
        if time_scale <= 0:
            raise ValueError(f"time scale must be positive, got {time_scale}")
        self.config = config
        resolved_policy: MemoryPolicy = (
            make_policy(policy, config.pmm) if isinstance(policy, str) else policy
        )
        self.faults = faults
        self.shed_overload = shed_overload
        if faults is not None and faults.policy_faults:
            resolved_policy = FaultyPolicy(resolved_policy, faults.policy_faults)
        self.policy = resolved_policy
        self.time_scale = time_scale
        #: Worker-pool width defaults to the modelled parallelism: one
        #: CPU plus the disk farm.
        self.workers = (
            workers if workers is not None else config.resources.num_disks + 1
        )
        #: The shared, cross-query buffer pool (grants + LRU reuse).
        self.pool = BufferPool(config.resources.memory_pages)
        self.dataplane = LiveDataPlane(config, payload_bytes=payload_bytes)
        #: The contended per-disk ED+elevator service queues.
        self.disks: List[LiveDisk] = self.dataplane.disks
        self.cost_model = StandAloneCostModel.from_config(config)
        self.report = LiveReport(
            policy=self.policy.name, time_scale=time_scale, workers=self.workers
        )
        #: Wall seconds of CPU service paid through the worker gate.
        self._busy_seconds = 0.0
        clock = LoopClock(time_scale)
        cpu_busy = CumulativeBusy(
            clock, lambda: self._busy_seconds / (time_scale * self.workers)
        )
        disk_busy = [
            CumulativeBusy(clock, lambda disk=disk: disk.busy_seconds / time_scale)
            for disk in self.disks
        ]
        super().__init__(
            MemoryBroker(
                self.policy,
                config.resources.memory_pages,
                config.pmm.sample_size,
                recorder=recorder,
            ),
            clock=clock,
            memory=self.pool,
            busy=(cpu_busy, *disk_busy),
            firm_deadlines=config.firm_deadlines,
            counts=self.report,
        )
        if invariants:
            from repro.rtdbs.invariants import InvariantChecker

            InvariantChecker().attach_broker(self.broker, pool=self.pool, host=self)

        #: Per-disk circuit breakers for the outage-survival path.  The
        #: cooldown and retry base are simulated seconds scaled to wall
        #: clock, so degraded-mode behaviour is time-scale invariant.
        self._breakers: List[CircuitBreaker] = [
            CircuitBreaker(threshold=3, cooldown=clock.to_wall(2.0))
            for _ in range(config.resources.num_disks)
        ]
        self._retry_base = clock.to_wall(0.25)
        self._injector: Optional[FaultInjector] = (
            FaultInjector(faults, self)
            if faults is not None and (faults.disk_windows or faults.memory_windows)
            else None
        )
        self._gate: Optional[PriorityWorkerGate] = None
        self._drained: Optional[asyncio.Event] = None
        #: First enforcement/operator failure seen on a callback or task
        #: path (where asyncio would otherwise swallow it); re-raised by
        #: :meth:`drain` so a broken policy fails the run loudly.
        self._failure: Optional[BaseException] = None

    def sim_now(self) -> float:
        """Current time in simulated seconds."""
        return self.clock.now

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._gate = PriorityWorkerGate(self.workers)
        self._drained = asyncio.Event()
        self._drained.set()
        self.clock.start(asyncio.get_running_loop())
        if self._injector is not None:
            self._injector.arm()

    async def close(self) -> None:
        """Finish the report and tear down: abort in-flight queries,
        then prove the ledger is empty -- a close that would leak
        grants raises :class:`~repro.serve.dataplane.GrantLeakError`."""
        self._finish_report()
        if self._injector is not None:
            self._injector.cancel()
        had_jobs = bool(self.jobs)
        self._abort_all()
        if had_jobs:
            await asyncio.sleep(0)  # let cancelled tasks unwind
        loop = self.clock.loop
        if loop is not None:
            # Chunks cancelled mid-service release their disk arm on a
            # deferred timer (non-preemptive service); give those a
            # bounded window so the disks reach quiescence.
            deadline = loop.time() + 1.0
            while (
                any(disk.in_service for disk in self.disks)
                and loop.time() < deadline
            ):
                await asyncio.sleep(0.001)
        if self.pool.reserved_pages:
            raise GrantLeakError(
                f"gateway closed with {self.pool.reserved_pages} pages "
                "still reserved in the grant ledger"
            )

    def _abort_all(self) -> None:
        """Abort every in-flight query, releasing grants and chunks.

        Runs on gateway failure and at close: each job's expiry timer
        and task are cancelled (queued disk chunks unwind through the
        non-preemptive cancel path) and its grant, temp extents, and
        broker entry are released so the conservation ledger drains.
        """
        for job in list(self.jobs.values()):
            qid = job.qid
            if qid not in self.jobs:
                continue  # departed while a sibling was torn down
            if job.expiry is not None:
                job.expiry.cancel()
                job.expiry = None
            self._cancel(job)
            job.state = ABORTED
            try:
                job.operator.release_resources()
            except Exception as error:
                self.fail(error)
            self.pool.release(qid)
            del self.jobs[qid]
            self.broker.release(qid)
        if self._drained is not None:
            self._drained.set()

    async def run_schedule(self, schedule: LiveSchedule) -> LiveReport:
        """Replay a full open-loop schedule and wait for the last
        departure (every query departs: completion or deadline abort)."""
        await self.start()
        clock = self.clock
        try:
            for arrival in schedule.arrivals:
                # Pace against the absolute wall target with floored
                # sleeps: one rounded-up timer per arrival would make
                # every query ~1 ms late, silently eating its deadline
                # slack at tight time scales.
                target = clock.at(arrival.arrival)
                while True:
                    delay = target - clock.loop.time()
                    if delay <= 0.0002:  # close enough: stop short of
                        break  # a sleep(0) spin on the remainder
                    await asyncio.sleep(_quantize(delay))
                self.submit(arrival)
            await self.drain()
        finally:
            await self.close()
        return self.report

    async def drain(self) -> None:
        """Wait until no query is in flight.

        Re-raises the first failure captured on an expiry-callback or
        query-task path (e.g. :class:`GrantOversubscribedError` from a
        broken policy) -- those contexts have no awaiter of their own.
        """
        if self.jobs and self._failure is None:
            self._drained.clear()
            await self._drained.wait()
        if self._failure is not None:
            raise self._failure

    def fail(self, error: BaseException) -> None:
        """Record a failure from a context with no awaiter (a timer
        callback, a query task); :meth:`drain` re-raises it."""
        if self._failure is None:
            self._failure = error
            if self.clock.loop is not None and self.jobs:
                # A failed gateway must not sit on grants: tear down
                # on a fresh loop pass (this path can be reached from
                # inside a departure, where teardown would reenter).
                self.clock.loop.call_soon(self._abort_all)
        if self._drained is not None:
            self._drained.set()  # unblock drain() so the error surfaces

    def _guard(self, action, *args) -> None:
        """Run ``action`` where asyncio would swallow its failure."""
        try:
            action(*args)
        except Exception as error:
            self.fail(error)

    def _finish_report(self) -> None:
        report = self.report
        report.wall_seconds = self.clock.wall()
        report.sim_seconds = report.wall_seconds / self.time_scale
        report.observed_mpl = self.mpl_monitor.mean()
        report.pages_read = sum(s.pages_read for s in self.dataplane.stores)
        report.pages_written = sum(s.pages_written for s in self.dataplane.stores)
        report.bytes_moved = (
            report.pages_read + report.pages_written
        ) * self.dataplane.stores[0].payload_bytes
        report.pool_hits = self.pool.hits
        report.pool_misses = self.pool.misses
        report.disk_busy = tuple(disk.busy_seconds for disk in self.disks)
        report.disk_queue = tuple(disk.queue_seconds for disk in self.disks)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, arrival: LiveArrival) -> LiveQuery:
        """A query arrives: register with the broker, arm its deadline,
        re-allocate.  Must be called on the event loop.

        With ``shed_overload`` on, an arrival whose deadline is already
        infeasible against the projected wait-queue backlog is rejected
        here -- state :data:`SHED`, never registered, never granted --
        instead of queueing doomed work that would steal memory from
        feasible queries before missing anyway."""
        if (
            self.shed_overload
            and self.firm_deadlines
            and self._projected_completion(arrival) > arrival.deadline
        ):
            return self._shed(arrival)
        grant = MemoryGrant(0)
        job = LiveQuery(
            arrival=arrival,
            operator=make_operator(arrival, self.dataplane.context, grant, self.config),
            grant=grant,
            submitted_wall=self.clock.wall(),
        )
        super().submit(job)
        if self._drained is not None:
            self._drained.clear()
        return job

    def _projected_completion(self, arrival: LiveArrival) -> float:
        """Earliest the arrival could plausibly finish (sim seconds).

        Its own stand-alone service plus the waiting queries' stand-
        alone backlog spread over the worker pool -- deliberately
        optimistic (ignores contention stretch), so shedding only fires
        on arrivals that are infeasible even in the best case.
        """
        backlog = sum(
            job.arrival.standalone
            for job in self.jobs.values()
            if job.state == WAITING
        )
        return (
            self.clock.now
            + arrival.standalone
            + backlog / max(1, self.workers)
        )

    def _shed(self, arrival: LiveArrival) -> LiveQuery:
        """Reject at arrival: counted, never registered, never granted."""
        for tally in self.tallies(arrival.class_name, arrival.tenant):
            tally.arrivals += 1
            tally.shed += 1
        return LiveQuery(
            arrival=arrival,
            operator=None,
            grant=MemoryGrant(0),
            state=SHED,
            submitted_wall=self.clock.wall(),
        )

    def set_pool_pages(self, pages: int) -> None:
        """Resize the effective buffer pool (memory-pressure fault).

        Shrinking re-allocates *before* the ledger shrinks, so every
        grant already fits the new bound when the pool's conservation
        check runs; growing resizes first so the policy
        can immediately spend the returned pages.
        """
        if pages == self.broker.total_pages:
            return
        shrinking = pages < self.broker.total_pages
        self.broker.set_total_pages(pages)
        if shrinking:
            self.reallocate()
            self.pool.resize(pages)
        else:
            self.pool.resize(pages)
            self.reallocate()

    def cancel_query(self, qid: int) -> bool:
        """Abort one in-flight query whose client vanished.

        The disconnect analogue of :meth:`expire`: cancels the task
        (queued chunks unwind through the non-preemptive path), departs
        the query as missed, and releases its grant.  Returns ``False``
        when the query already departed.
        """
        job = self.jobs.get(qid)
        if job is None or job.state in (DONE, ABORTED):
            return False
        job.state = ABORTED
        self.report.client_cancels += 1
        self._cancel(job)
        self._guard(self.depart, job, True)
        return True

    # ------------------------------------------------------------------
    # adapter hooks
    # ------------------------------------------------------------------
    def _decide(self) -> Optional[AllocationDecision]:
        """One timed broker decision, enforced through the pool."""
        started = _time.perf_counter()
        try:
            decision = super()._decide()
        except PolicyFaultError:
            # Transient allocation-path failure: keep the previous
            # (still-conserved) allocation and retry on the next
            # arrival or departure.  Real policy bugs are not
            # PolicyFaultError and still fail the run loudly.
            self.report.policy_faults += 1
            return None
        elapsed = _time.perf_counter() - started
        report = self.report
        report.decisions += 1
        report.decision_seconds += elapsed
        if elapsed > report.decision_max_seconds:
            report.decision_max_seconds = elapsed
        return decision

    def _arm_expiry(self, job: LiveQuery) -> None:
        job.expiry = self.clock.call_at(job.deadline, self._guard, self.expire, job)

    def _cancel_expiry(self, job: LiveQuery) -> None:
        job.expiry.cancel()

    def _start(self, job: LiveQuery) -> None:
        job.admitted_wall = self.clock.wall()
        job.task = self.clock.loop.create_task(
            self._run_query(job), name=f"query-{job.qid}"
        )

    def _cancel(self, job: LiveQuery) -> None:
        if job.task is not None:
            job.task.cancel()

    def depart(self, job: LiveQuery, missed: bool) -> None:
        super().depart(job, missed)
        if not self.jobs and self._drained is not None:
            self._drained.set()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _run_query(self, job: LiveQuery) -> None:
        try:
            await self._drive(job)
        except asyncio.CancelledError:
            return  # the expiry timer owns the departure
        except DiskFaultError:
            # The outage-survival path gave up on this query: a firm
            # miss, not a gateway failure -- grants released, counters
            # conserved, every other query keeps running.
            if job.state == RUNNING:  # else the expiry abort got there first
                job.state = ABORTED
                self._guard(self.depart, job, True)
            return
        except Exception as error:  # operator bug: fail the run loudly
            self.fail(error)
            job.state = ABORTED
            self._guard(self.depart, job, True)
            return
        self._guard(self.complete, job)

    async def _drive(self, job: LiveQuery) -> None:
        """Pay the operator's steps against the data plane.

        The request stream is read by the shared interpreter,
        :func:`~repro.core.steps.steps`, exactly as the DES reads it:
        cacheable operand reads that the cross-query pool holds skip
        the disk.  Disk steps are priced by the shared
        :class:`~repro.core.devices.DeviceCore` -- the same seek /
        rotate / transfer rules and stream-tail state the DES disks run
        -- against *shared, contended* resources: any read consults the
        per-disk prefetch cache (a hit costs no arm time, as in
        ``Disk.submit_op``), positioning reads the per-disk head and
        stream state every query updates (interleaved scans break each
        other's streams), and the service time is paid on the disk's
        ED+elevator queue, where concurrent queries' chunks genuinely
        wait behind more urgent ones.  A query alone in the server
        still runs in roughly its stand-alone time; under load,
        queueing delay and lost sequentiality stretch it the way the
        DES disks predict.

        Service debt (scaled to wall seconds) is accumulated per
        resource and paid in ``MIN_SLEEP``-sized chunks: CPU debt
        occupies an ED-ordered worker-gate slot, disk debt occupies
        the disk's arm while the pending byte traffic replays through
        the page store (zero-copy).  Every paid chunk returns its
        pacing carry (debt minus wall actually elapsed), so timer
        overshoot is repaid by the next chunk instead of compounding
        into spurious deadline misses.
        """
        resources = self.config.resources
        cpu_rate = resources.cpu_rate
        start_io = self.config.cpu_costs.start_io
        scale = self.time_scale
        pool = self.pool
        disks = self.disks
        cpu_debt = 0.0
        disk_debt: Dict[int, float] = {}  # wall seconds per disk
        disk_ops: Dict[int, List[tuple]] = {}
        for kind, payload, install in steps(job, pool):
            if kind is DISK_IO:
                request = payload
                disk = disks[request.disk]
                serving_index = request.disk
                if disk.faulted:
                    # Outage window: bounded retry within the deadline
                    # budget, then reroute or fail fast.  Raises
                    # DiskFaultError when the query is doomed.
                    serving_index = await self._survive_disk_fault(job, request)
                # The per-block burst + "start an I/O" run on the CPU
                # (overlapping other queries' disk service), exactly as
                # the DES charges them -- prefetch hit or not.
                cpu_debt += (request.cpu + start_io) / cpu_rate * scale
                if cpu_debt >= MIN_SLEEP:
                    cpu_debt = await self._cpu_chunk(job, cpu_debt)
                if serving_index == request.disk:
                    if request.kind == READ and disk.read_hit(
                        request.start_page, request.npages
                    ):
                        # Per-disk prefetch-cache hit: no arm time, the
                        # same short-circuit as ``Disk.submit_op``.
                        if install:
                            pool.install(
                                request.disk, request.start_page, request.npages
                            )
                        continue
                    service = disk.service_time(
                        request.start_page, request.npages
                    )
                else:
                    # Rerouted replica read: priced by the detour rule
                    # (stateless average seek + half rotation), so a
                    # foreign address range never pollutes the serving
                    # disk's head, stream, or prefetch state.
                    service = disks[serving_index].detour_service_time(
                        request.npages
                    )
                debt = disk_debt.get(serving_index, 0.0) + service * scale
                disk_ops.setdefault(serving_index, []).append((request, install))
                if debt >= MIN_SLEEP:
                    disk_debt[serving_index] = await self._disk_chunk(
                        job, serving_index, debt, disk_ops.pop(serving_index)
                    )
                else:
                    disk_debt[serving_index] = debt
            elif kind is CPU_WORK:
                cpu_debt += payload / cpu_rate * scale
                if cpu_debt >= MIN_SLEEP:
                    cpu_debt = await self._cpu_chunk(job, cpu_debt)
            else:  # GRANT_WAIT
                # Outstanding debts here are sub-MIN_SLEEP residues by
                # construction (anything larger was paid at accrual).
                # They stay accumulated across the wait: paying a
                # 0.3 ms residue with a real timer costs ~1 ms of
                # overshoot, which compounds into spurious deadline
                # misses at tight time scales.
                # No award between the interpreter's grant check and
                # this registration is possible: no await between them.
                wake = asyncio.Event()
                payload.on_change(wake.set)
                await wake.wait()
        # End of the stream: pay every outstanding sub-chunk debt.
        if cpu_debt > 0.0:
            await self._cpu_chunk(job, cpu_debt)
        for disk_index, ops in disk_ops.items():
            await self._disk_chunk(job, disk_index, disk_debt.get(disk_index, 0.0), ops)

    async def _cpu_chunk(self, job: LiveQuery, debt_wall: float) -> float:
        """Occupy one ED-ordered worker-gate slot for the chunk.

        The chunk sleeps inline on the event loop and returns its
        pacing carry -- ``debt - wall actually elapsed``, usually a
        small negative number -- which rides back into the query's
        debt accumulator: timer overshoot self-corrects instead of
        compounding into inflated execution times over hundreds of
        chunks.  Service is non-preemptive: a deadline abort mid-chunk
        cancels the awaiting task immediately, but the slot stays
        occupied for the chunk's remaining service time.
        """
        self._busy_seconds += debt_wall
        await self._gate.acquire(job.deadline)
        loop = self.clock.loop
        started = loop.time()
        try:
            await asyncio.sleep(_quantize(debt_wall))
        except asyncio.CancelledError:
            remaining = debt_wall - (loop.time() - started)
            if remaining > 0.0:
                loop.call_later(remaining, self._gate.release)
            else:
                self._gate.release()
            raise
        except BaseException:
            self._gate.release()
            raise
        self._gate.release()
        return debt_wall - (loop.time() - started)

    async def _disk_chunk(
        self, job: LiveQuery, disk_index: int, debt_wall: float, ops: List[tuple]
    ) -> float:
        """Pay one disk's service chunk on its ED+elevator queue.

        The chunk waits behind every more urgent chunk (the contention
        the zero-contention deadline pricing knows nothing about),
        then holds the arm for its service time while the byte traffic
        replays through the page store -- zero-copy, inline, counted
        toward the service time; cacheable reads are installed into
        the shared buffer pool as they complete, where any concurrent
        query can hit them.  Returns the chunk's pacing carry.
        """
        disk = self.disks[disk_index]
        await disk.acquire(job.deadline, disk.cylinder_of(ops[0][0].start_page))
        loop = self.clock.loop
        started = loop.time()
        store = disk.store
        for request, _install in ops:
            if request.kind == READ:
                store.replay_read(request.start_page, request.npages)
            else:
                store.write_blank(request.start_page, request.npages)
        try:
            remaining = _quantize(debt_wall - (loop.time() - started))
            if remaining > 0.0:
                await asyncio.sleep(remaining)
        except asyncio.CancelledError:
            # Non-preemptive service, as on the DES disk: the abort
            # cancels the query immediately, but the arm stays held
            # until the chunk's service time is up -- releasing early
            # would serve two chunks on one arm.
            disk.chunks_cancelled += 1
            left = debt_wall - (loop.time() - started)
            if left > 0.0:
                loop.call_later(left, disk.release)
            else:
                disk.release()
            raise
        except BaseException:
            disk.release()
            raise
        if debt_wall > 0.0:
            disk.busy_seconds += debt_wall
        disk.accesses += len(ops)
        disk.chunks_served += 1
        pool = self.pool
        for request, install in ops:
            if install:
                # Keyed by the *home* disk: a rerouted replica read
                # still caches under the canonical address.
                pool.install(request.disk, request.start_page, request.npages)
        disk.release()
        return debt_wall - (loop.time() - started)

    async def _survive_disk_fault(self, job: LiveQuery, request) -> int:
        """Outage survival: bounded retry, then reroute or fail fast.

        Retries with exponential backoff while the firm deadline can
        still absorb another attempt; failures feed the disk's shared
        circuit breaker, so once it trips, *every* query skips the
        backoff burn: cacheable (replicated) reads reroute to the first
        healthy replica, anything else raises
        :class:`~repro.serve.faults.DiskFaultError` immediately and the
        query departs as a miss.  Returns the serving disk index.
        """
        home = request.disk
        disk = self.disks[home]
        breaker = self._breakers[home]
        report = self.report
        loop = self.clock.loop
        deadline_wall = self.clock.at(job.deadline)
        attempt = 0
        while True:
            if not disk.faulted:
                breaker.record_success()
                return home
            now = loop.time()
            if breaker.is_open(now):
                if request.kind == READ and request.cacheable:
                    for index, candidate in enumerate(self.disks):
                        if index != home and not candidate.faulted:
                            report.disk_reroutes += 1
                            return index
                report.disk_fast_fails += 1
                raise DiskFaultError(
                    f"disk {home} outage: breaker open, no healthy replica"
                )
            opens_before = breaker.opens
            breaker.record_failure(now)
            if breaker.opens > opens_before:
                report.breaker_opens += 1
            backoff = max(
                MIN_SLEEP, _quantize(self._retry_base * (2.0**attempt))
            )
            if (
                self.config.firm_deadlines
                and now + backoff >= deadline_wall
            ):
                report.disk_fast_fails += 1
                raise DiskFaultError(
                    f"disk {home} outage: deadline budget exhausted "
                    f"after {attempt} retries"
                )
            report.disk_retries += 1
            attempt += 1
            await asyncio.sleep(backoff)


async def run_live(
    config: SimulationConfig,
    policy: Union[str, MemoryPolicy],
    time_scale: float = 0.05,
    workers: Optional[int] = None,
    horizon: Optional[float] = None,
    max_arrivals: Optional[int] = None,
    invariants: bool = False,
    faults: Optional[FaultSchedule] = None,
    shed_overload: bool = False,
    recorder: Optional[BrokerTrace] = None,
) -> LiveReport:
    """Convenience: build gateway + schedule, replay, return the report."""
    from repro.serve.workload import build_schedule

    gateway = LiveGateway(
        config,
        policy,
        time_scale=time_scale,
        workers=workers,
        invariants=invariants,
        faults=faults,
        shed_overload=shed_overload,
        recorder=recorder,
    )
    schedule = build_schedule(
        config, gateway.dataplane.database, horizon=horizon, max_arrivals=max_arrivals
    )
    return await gateway.run_schedule(schedule)
