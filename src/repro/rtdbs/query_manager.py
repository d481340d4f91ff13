"""The DES Query Manager: the shared query lifecycle on a simulated clock.

The lifecycle itself -- ED-ordered admission through the
:class:`~repro.core.broker.MemoryBroker`, firm-deadline aborts,
departure records and ``SampleSize`` batch feedback -- lives once, in
:class:`~repro.core.host.BrokerHost`, shared by the two hosts: this
simulator adapter and the live :class:`~repro.serve.gateway.LiveGateway`.
:class:`QueryManager` binds it to the simulation (Section 4, plus
firm-RTDBS semantics [Hari90]):

* the clock is the :class:`~repro.sim.simulator.Simulator`; deadline
  expiries are simulator timeouts;
* an admitted query runs as a simulator process over the shared
  request-stream interpreter, :func:`~repro.core.steps.steps`: each
  CPU step becomes a CPU burst, each disk step a CPU burst (its
  per-block work plus the Table 4 "start an I/O" cost) chained into a
  disk access, and each grant wait an event fired by the next re-grant;
* an expired query's outstanding resource request is withdrawn and its
  process interrupted, wherever it is;
* grants are installed in the :class:`~repro.core.devices.BufferPool`,
  and the batch window reads the CPU and disk busy monitors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.broker import MemoryBroker
from repro.core.devices import READ, BufferPool
from repro.core.host import ABORTED, DONE, RUNNING, WAITING, BrokerHost
from repro.core.steps import CPU_WORK, DISK_IO, steps
from repro.policies.base import MemoryPolicy
from repro.queries.base import MemoryGrant, Operator
from repro.rtdbs.config import SimulationConfig
from repro.rtdbs.cpu import CPU
from repro.rtdbs.disk import Disk
from repro.sim.events import Event, Interrupt
from repro.sim.resources import CallbackBurst, ServiceRequest
from repro.sim.process import Process
from repro.sim.simulator import Simulator

__all__ = ["ABORTED", "DONE", "RUNNING", "WAITING", "QueryJob", "QueryManager"]


class _DiskOp(Event):
    """Completion event for one operator :class:`DiskAccess`.

    Chains the combined CPU submission (carried per-block burst plus
    the Table 4 start-I/O cost) and the disk access itself through
    plain callbacks, so the query's process suspends and resumes once
    per page-block instead of once per resource.  Resource ordering is
    unchanged: the disk request is still submitted at the simulated
    instant the CPU burst completes.

    The op is also the *disk request itself* (via ``Disk.submit_op``)
    and its CPU stage is an Event-free :class:`CallbackBurst`.  A job
    has at most one outstanding access, so the op (and its burst) are
    allocated once per query and recycled for every block: the query
    manager re-arms its fields and resubmits the burst per access.
    """

    __slots__ = ("cpu", "disk", "kind", "start_page", "npages", "priority",
                 "stage", "burst", "_seq", "cylinder")

    def __init__(self, sim, cpu, priority: float):
        super().__init__(sim)
        self.cpu = cpu
        self.priority = priority
        self.disk = None
        self.kind = READ
        self.start_page = 0
        self.npages = 0
        self.stage = "cpu"
        self.burst = CallbackBurst(0.0, priority, 0, self._cpu_done)

    def _cpu_done(self, _burst) -> None:
        if self._cancelled:
            return
        self.stage = "disk"
        if self.disk.submit_op(self):
            # Disk-cache hit: no arm time; complete in place (the
            # waiting process resumes synchronously, exactly when a
            # direct wait on the disk request would resume).
            self._triggered = True
            self._run_callbacks()

    def cancel_op(self) -> None:
        """Abort: withdraw whichever resource request is outstanding."""
        if self.stage == "cpu":
            self.cancel()
            self.cpu.cancel(self.burst)
        else:
            # The op *is* the disk request; the disk distinguishes
            # in-service (bookkeeping still runs) from queued requests.
            self.disk.cancel(self)


@dataclass
class QueryJob:
    """One query's runtime state."""

    qid: int
    class_name: str
    operator: Operator
    grant: MemoryGrant
    arrival: float
    deadline: float
    standalone: float
    state: str = WAITING
    submit_time: float = 0.0
    admit_time: Optional[float] = None
    process: Optional[Process] = None
    #: Outstanding resource request handle: a :class:`_DiskOp`, a CPU
    #: :class:`ServiceRequest`, or an allocation-wait :class:`Event`.
    pending: Optional[object] = None
    #: Deadline-expiry timer (cancelled on completion).
    expiry: Optional[Event] = None
    demand_min: int = 0
    demand_max: int = 0
    #: Simulated traffic carries no tenant tags.
    tenant = None

    @property
    def priority(self) -> float:
        """ED priority: the absolute deadline (smaller = more urgent)."""
        return self.deadline

    @property
    def arrival_time(self) -> float:
        return self.arrival


class QueryManager(BrokerHost):
    """The DES adapter: binds the shared lifecycle to simulated resources.

    Grants go into the :class:`~repro.core.devices.BufferPool`
    (``buffers``); each admitted query's process runs the steps of
    :func:`~repro.core.steps.steps` on the simulated CPU and disks.
    """

    def __init__(
        self,
        sim: Simulator,
        config: SimulationConfig,
        policy: MemoryPolicy,
        cpu: CPU,
        disks: List[Disk],
        buffers: BufferPool,
    ):
        super().__init__(
            MemoryBroker(policy, buffers.total_pages, config.pmm.sample_size),
            clock=sim,
            memory=buffers,
            busy=(cpu.busy, *(disk.busy for disk in disks)),
            firm_deadlines=config.firm_deadlines,
        )
        self.sim = sim
        self.config = config
        self.policy = policy
        self.cpu = cpu
        self.disks = disks
        self.buffers = buffers
        #: Optional stop condition: set by the system when a departure
        #: quota is reached.
        self.stop_event: Optional[Event] = None
        self.max_departures: Optional[int] = None

    # ------------------------------------------------------------------
    # adapter hooks
    # ------------------------------------------------------------------
    def _arm_expiry(self, job: QueryJob) -> None:
        timer = self.sim.timeout(max(0.0, job.deadline - self.sim.now))
        timer.callbacks.append(lambda _evt, j=job: self.expire(j))
        job.expiry = timer

    def _cancel_expiry(self, job: QueryJob) -> None:
        job.expiry.cancel()

    def _start(self, job: QueryJob) -> None:
        job.process = self.sim.process(self._drive(job), name=f"query-{job.qid}")
        job.process.callbacks.append(lambda _evt, j=job: self._finished(j))

    def _cancel(self, job: QueryJob) -> None:
        pending = job.pending
        if pending is not None:
            if type(pending) is _DiskOp:
                pending.cancel_op()
            elif isinstance(pending, ServiceRequest):
                self.cpu.cancel(pending)
            else:
                pending.cancel()  # allocation-wait wake event
            job.pending = None
        if job.process is not None:  # admitted: interrupt the operator
            job.process.interrupt("deadline")

    def _finished(self, job: QueryJob) -> None:
        """The query's process ended."""
        if job.state != RUNNING:
            return  # already aborted
        if not job.process.ok:
            raise job.process.value  # surface model bugs immediately
        self.complete(job)

    def depart(self, job: QueryJob, missed: bool) -> None:
        super().depart(job, missed)
        if (
            self.max_departures is not None
            and self.departures >= self.max_departures
            and self.stop_event is not None
            and not self.stop_event.triggered
        ):
            self.stop_event.succeed(None)

    # ------------------------------------------------------------------
    # operator driving
    # ------------------------------------------------------------------
    def _drive(self, job: QueryJob):
        """Turn the operator's steps into simulated resource usage."""
        start_io = self.config.cpu_costs.start_io
        cpu = self.cpu
        disks = self.disks
        buffers = self.buffers
        priority = job.priority  # the deadline: fixed for the job's life
        op: Optional[_DiskOp] = None  # lazily created, reused per block
        try:
            for kind, payload, install in steps(job, buffers):
                if kind is DISK_IO:
                    if op is None:
                        op = _DiskOp(self.sim, cpu, priority)
                    # Re-arm the op for this access; its CPU leg runs
                    # the per-block burst plus the start-I/O cost.
                    op._triggered = False
                    op._value = None
                    op.disk = disks[payload.disk]
                    op.kind = payload.kind
                    op.start_page = payload.start_page
                    op.npages = payload.npages
                    op.stage = "cpu"
                    cpu.execute_reuse(op.burst, start_io + payload.cpu, priority)
                    job.pending = op
                    yield op
                    job.pending = None
                    if install:
                        buffers.install(payload.disk, payload.start_page, payload.npages)
                elif kind is CPU_WORK:
                    # Zero-work bursts still go through the CPU (which
                    # numbers them) but complete without queueing.
                    handle = cpu.execute(payload, priority)
                    if not handle.triggered:
                        job.pending = handle
                        yield handle
                    job.pending = None
                else:  # GRANT_WAIT: sleep until the next re-grant
                    wake = self.sim.event()
                    payload.on_change(lambda evt=wake: evt.succeed(None))
                    job.pending = wake
                    yield wake
                    job.pending = None
        except Interrupt:
            # Firm-deadline abort: fall through, expire() cleans up.
            return
