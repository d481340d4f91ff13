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
* an admitted query is not a simulator process: a callback-driven
  driver pulls the shared request-stream interpreter,
  :func:`~repro.core.steps.steps`, and each resource completion pulls
  the next step.  Each CPU step becomes a CPU burst, each disk step a
  CPU burst (its per-block work plus the Table 4 "start an I/O" cost)
  chained into a disk access, and each grant wait an event fired by
  the next re-grant;
* an expired query's outstanding resource request is withdrawn and its
  driver stopped, wherever it is;
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
from repro.rtdbs.disk import Disk, DiskRequest
from repro.sim.events import Event
from repro.sim.resources import CallbackBurst
from repro.sim.simulator import Simulator

__all__ = ["ABORTED", "DONE", "RUNNING", "WAITING", "QueryJob", "QueryManager"]


class _QueryDriver(DiskRequest):
    """Runs one admitted query by callbacks, not as a kernel process.

    It pulls :func:`~repro.core.steps.steps` until a step has to wait,
    and that wait's completion pulls on.  It is also the query's one
    disk request, recycled per access (a query has at most one): a disk
    step re-arms it and resubmits its :class:`CallbackBurst` for the CPU
    leg (per-block work plus the Table 4 start-I/O cost), whose
    completion hands it to its disk, whose completion resumes it.

    The kernel sees the entries a process per query made: a
    ``call_soon`` bootstrap, one entry per completion, and a firm
    abort's deferred interrupt before the ``_finish`` entry.
    """

    __slots__ = (
        "manager", "job", "steps", "cpu", "disks", "buffers", "start_io",
        "burst", "disk", "install", "pending", "alive",
    )

    def __init__(self, manager: "QueryManager", job: "QueryJob"):
        super().__init__(manager.sim, READ, 0, 0, job.priority)
        self.manager = manager
        self.job = job
        self.steps = steps(job, manager.buffers)
        self.cpu = manager.cpu
        self.disks = manager.disks
        self.buffers = manager.buffers
        self.start_io = manager.config.cpu_costs.start_io
        self.burst = CallbackBurst(0.0, self.priority, 0, self._cpu_done)
        self.disk: Optional[Disk] = None
        #: The read whose pages go into the pool when it completes.
        self.install = None
        #: Outstanding request: ``burst`` (a disk step's CPU leg), the
        #: driver itself (at its disk), a CPU burst or a grant wait.
        self.pending = None
        #: False once the steps end or the query is aborted.
        self.alive = True
        self.sim.call_soon(self._advance)  # runs even if aborted now

    def _advance(self, _event=None) -> None:
        """Resume: install a completed read's pages, then pull steps
        until one has to wait."""
        if not self.alive:
            return
        access = self.install
        if access is not None:
            self.install = None
            self.buffers.install(access.disk, access.start_page, access.npages)
        try:
            for kind, payload, install in self.steps:
                if kind is DISK_IO:
                    self.disk = self.disks[payload.disk]
                    self.kind = payload.kind
                    self.start_page = payload.start_page
                    self.npages = payload.npages
                    if install:
                        self.install = payload
                    self.pending = burst = self.burst
                    self.cpu.execute_reuse(
                        burst, self.start_io + payload.cpu, self.priority
                    )
                    return
                if kind is CPU_WORK:
                    # Zero-work bursts still go through the CPU (which
                    # numbers them) but complete without queueing.
                    handle = self.cpu.execute(payload, self.priority)
                    if not handle._triggered:
                        handle.callbacks.append(self._advance)
                        self.pending = handle
                        return
                else:  # GRANT_WAIT: sleep until the next re-grant
                    wake = Event(self.sim)
                    payload.on_change(lambda evt=wake: evt.succeed(None))
                    wake.callbacks.append(self._advance)
                    self.pending = wake
                    return
        except Exception as error:
            self._end(error)  # a model bug: surfaces from _finish
        else:
            self._end(None)

    #: The disk completes its requests through ``_run_callbacks``.
    _run_callbacks = _advance

    def _cpu_done(self, _burst) -> None:
        """The CPU leg finished: the access goes to its disk now."""
        self.pending = self
        self._triggered = False
        if self.disk.submit_op(self):
            self._advance()  # prefetch-cache hit: no arm time

    def abort(self) -> None:
        """Firm deadline: withdraw the outstanding request and stop."""
        pending = self.pending
        if pending is self:
            # Queued: dropped.  In service: the arm still finishes it,
            # delivering to no-one.
            self.disk.cancel(self)
        elif type(pending) is Event:
            pending.cancel()  # allocation wait
        elif pending is not None:
            self.cpu.cancel(pending)  # a CPU leg or CPU burst
        self.pending = None
        if self.alive:
            # Nothing resumes the query from here on -- except a
            # bootstrap still due in this instant (nothing pending
            # yet): it runs first and issues the first request.
            self.alive = pending is None
            self.sim.call_soon(self._interrupted)

    def _interrupted(self, _arg=None) -> None:
        self.alive = False
        if self.steps is not None:  # not ended by a same-instant bootstrap
            self.steps = None
            self.sim.call_soon(self._finish)

    def _end(self, error: Optional[Exception]) -> None:
        self.steps = None
        self.pending = None
        self.alive = False
        self.sim.call_soon(self._finish, error)

    def _finish(self, error: Optional[Exception] = None) -> None:
        job = self.job
        if job.state != RUNNING:
            return  # already aborted
        if error is not None:
            raise error  # surface model bugs immediately
        self.manager.complete(job)


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
    #: Runs the query once it is admitted.
    driver: Optional[_QueryDriver] = None
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
    (``buffers``); each admitted query's driver runs the steps of
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
        job.driver = _QueryDriver(self, job)

    def _cancel(self, job: QueryJob) -> None:
        if job.driver is not None:  # admitted: stop the query
            job.driver.abort()

    def depart(self, job: QueryJob, missed: bool) -> None:
        super().depart(job, missed)
        if (
            self.max_departures is not None
            and self.departures >= self.max_departures
            and self.stop_event is not None
            and not self.stop_event.triggered
        ):
            self.stop_event.succeed(None)
