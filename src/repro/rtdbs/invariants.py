"""Always-on-able conservation laws for the simulated RTDBS.

The simulator's statistics are only as trustworthy as its internal
accounting, and the paper's figures exercise a handful of hand-built
workloads -- nothing guarantees the accounting stays consistent on the
workloads the scenario generator dreams up.  :class:`InvariantChecker`
closes that gap: it hooks the natural seams of the system (allocation,
buffer-ledger updates, departures, end of run) and asserts the
conservation laws that must hold on *every* workload:

* **memory** -- reservations are never negative, never exceed the pool,
  and the LRU region's capacity is exactly the unreserved remainder;
  every running query's grant matches its ledger entry;
* **policy contracts** -- an allocation vector only names present
  queries, grants lie inside each query's ``[min, max]`` demand
  envelope (MinMax never grants below the minimum), the vector never
  oversubscribes memory (PMM admission never exceeds the pool), and an
  explicit MPL limit is honoured;
* **population** -- ``arrivals - shed = departures + present``,
  ``departures = completions + misses``, and every present query's
  grant matches its ledger entry, at every departure of either host;
* **disk queues** -- every submitted access is accounted for: prefetch
  cache hit, served by the arm, cancelled while queued, or still
  queued -- nothing lost, nothing double-served;
* **results** -- the final :class:`SimulationResult` is internally
  consistent (counts add up, ratios and utilisations in range).

The checker is **off by default** (a ``None`` attribute test on the hot
paths); tests and the fuzz harness enable it via
``RTDBSystem(config, policy, invariants=True)`` or, through the
experiment engine's ``setup`` hook, :func:`attach_invariants`.
Violations raise :class:`InvariantViolation` immediately, carrying the
simulated time and policy for reproduction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.allocation import QueryDemand
    from repro.core.broker import MemoryBroker
    from repro.rtdbs.system import RTDBSystem, SimulationResult

#: Slack for floating-point utilisation/ratio comparisons.
TOLERANCE = 1e-9


class InvariantViolation(AssertionError):
    """A conservation law failed; the simulation state is inconsistent."""


class InvariantChecker:
    """Runtime assertion harness over one :class:`RTDBSystem`.

    One checker instance watches one system (or one standalone broker)
    at a time; attaching it to a *new* target first resets all counters
    and recorded failures, so a checker can be reused across runs
    without carrying stale state.  ``checks`` counts assertions by
    category so tests can prove the hooks actually fired.
    """

    def __init__(self) -> None:
        self.system: Optional["RTDBSystem"] = None
        self.broker: Optional["MemoryBroker"] = None
        #: Live shared buffer pool (``repro.serve``'s
        #: :class:`~repro.core.devices.BufferPool`), when the
        #: checker watches a standalone broker with a live data plane.
        self.pool = None
        #: The live :class:`~repro.core.host.BrokerHost` (attached with
        #: its broker) whose departures run the population laws.
        self.host = None
        self.checks: Dict[str, int] = {}
        #: Every violation message, in detection order.  A violation
        #: raised inside a simulation *process* is captured by the
        #: process machinery (``Process.fail``) and may have no waiter;
        #: recording it here lets :meth:`check_final` re-raise it at
        #: the end of the run, so no violation can be swallowed.
        self.failures: list = []
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the counters and forget recorded failures."""
        self.checks = {
            "allocation": 0,
            "buffers": 0,
            "population": 0,
            "final": 0,
        }
        self.failures = []

    def detach(self) -> None:
        """Unhook from the current system/broker (counters survive)."""
        if self.system is not None:
            self.system.invariants = None
            self.system.query_manager.invariants = None
            self.system.query_manager.broker.invariants = None
            self.system.buffers.invariants = None
            self.system = None
        if self.broker is not None:
            self.broker.invariants = None
            self.broker = None
        if self.pool is not None:
            self.pool.invariants = None
            self.pool = None
        if self.host is not None:
            self.host.invariants = None
            self.host = None

    def attach(self, system: "RTDBSystem") -> "InvariantChecker":
        """Install the checker on a built (not yet run) system.

        Re-attaching to a different system detaches from the previous
        one and resets the counters -- each attachment starts a fresh
        accounting epoch.
        """
        if self.system is not None or self.broker is not None or self.pool is not None:
            self.detach()
            self.reset()
        self.system = system
        system.invariants = self
        system.query_manager.invariants = self
        system.query_manager.broker.invariants = self
        system.buffers.invariants = self
        return self

    def attach_broker(
        self, broker: "MemoryBroker", pool=None, host=None
    ) -> "InvariantChecker":
        """Install the checker on a standalone broker (no simulator).

        The live serving layer uses this: the allocation-contract laws
        are checked on every decision the broker makes; when the live
        shared buffer pool is given, the buffer-ledger laws are checked
        on every pool update too (both hosts use the one
        :class:`~repro.core.devices.BufferPool`, so
        :meth:`check_buffers` applies verbatim); and when the
        :class:`~repro.core.host.BrokerHost` is given, population
        conservation is checked on every departure.
        """
        if self.system is not None or self.broker is not None or self.pool is not None:
            self.detach()
            self.reset()
        self.broker = broker
        broker.invariants = self
        if pool is not None:
            self.pool = pool
            pool.invariants = self
        if host is not None:
            self.host = host
            host.invariants = self
        return self

    def _fail(self, law: str, detail: str) -> None:
        if self.system is not None:
            now = self.system.sim.now
            policy = self.system.policy.name
        elif self.broker is not None:
            now = self.host.clock.now if self.host is not None else float("nan")
            policy = self.broker.policy.name
        else:
            now = float("nan")
            policy = "?"
        message = f"[{law}] t={now:.6f} policy={policy}: {detail}"
        self.failures.append(message)
        raise InvariantViolation(message)

    # ------------------------------------------------------------------
    # hook: MemoryBroker.reallocate, on every fresh allocation vector
    # ------------------------------------------------------------------
    def check_allocation(
        self,
        broker,
        demands: Sequence["QueryDemand"],
        allocation: Dict[int, int],
    ) -> None:
        """Policy-contract laws, checked before the vector is enacted."""
        self.checks["allocation"] += 1
        memory = broker.total_pages
        envelopes = {demand.qid: demand for demand in demands}
        total = 0
        granted = 0
        for qid, pages in allocation.items():
            demand = envelopes.get(qid)
            if demand is None:
                self._fail(
                    "allocation", f"vector names absent query {qid} (pages={pages})"
                )
            if pages < 0:
                self._fail("allocation", f"query {qid} granted {pages} < 0 pages")
            if pages > 0:
                granted += 1
                total += pages
                if pages < demand.min_pages or pages > demand.max_pages:
                    self._fail(
                        "allocation",
                        f"query {qid} granted {pages} pages outside its demand "
                        f"envelope [{demand.min_pages}, {demand.max_pages}]",
                    )
        if total > memory:
            self._fail(
                "allocation",
                f"vector allocates {total} pages of a {memory}-page pool",
            )
        limit = getattr(broker.policy, "target_mpl", None)
        if limit is not None and granted > limit:
            self._fail(
                "allocation",
                f"{granted} queries admitted under an MPL limit of {limit}",
            )

    # ------------------------------------------------------------------
    # hook: BufferPool.apply / release / resize
    # ------------------------------------------------------------------
    def check_buffers(self, buffers) -> None:
        """Reservation-ledger laws, checked after every ledger update."""
        self.checks["buffers"] += 1
        reserved = 0
        for qid, pages in buffers._reserved.items():
            if pages <= 0:
                self._fail(
                    "buffers", f"ledger holds a non-positive entry: {qid} -> {pages}"
                )
            reserved += pages
        if reserved > buffers.total_pages:
            self._fail(
                "buffers",
                f"{reserved} pages reserved of a {buffers.total_pages}-page pool",
            )
        expected_free = buffers.total_pages - reserved
        if buffers.cache.capacity != expected_free:
            self._fail(
                "buffers",
                f"LRU region capacity {buffers.cache.capacity} != free "
                f"pages {expected_free}",
            )
        if len(buffers.cache) > buffers.cache.capacity:
            self._fail(
                "buffers",
                f"LRU region holds {len(buffers.cache)} pages over a "
                f"capacity of {buffers.cache.capacity}",
            )

    # ------------------------------------------------------------------
    # hook: BrokerHost.depart, after every departure (both hosts)
    # ------------------------------------------------------------------
    def check_population(self, host) -> None:
        """Query-count conservation, checked on every departure."""
        self.checks["population"] += 1
        departures = host.departures
        completions = host.completions
        misses = host.misses
        if completions + misses != departures:
            self._fail(
                "population",
                f"departures {departures} != completions {completions} + "
                f"misses {misses}",
            )
        counts = host.counts
        admitted = counts.arrivals - counts.shed
        present = len(host.jobs)
        if admitted != departures + present:
            self._fail(
                "population",
                f"arrivals {counts.arrivals} - shed {counts.shed} != "
                f"departures {departures} + present {present}",
            )
        # Every grant held by a present query matches the ledger.
        memory = host.memory
        for qid, job in host.jobs.items():
            if memory.reservation_of(qid) != job.grant.pages:
                self._fail(
                    "population",
                    f"query {qid} holds a {job.grant.pages}-page grant but the "
                    f"ledger records {memory.reservation_of(qid)}",
                )

    # ------------------------------------------------------------------
    # hook: RTDBSystem.run, once after the horizon
    # ------------------------------------------------------------------
    def check_final(self, system: "RTDBSystem", result: "SimulationResult") -> None:
        """End-of-run conservation across every component.

        Re-raises any violation that was detected mid-run but swallowed
        by the process machinery (a failed source process has no
        waiter), then checks the end-state laws.
        """
        self.checks["final"] += 1
        if self.failures:
            raise InvariantViolation(self.failures[0])
        query_manager = system.query_manager
        present = len(query_manager.jobs)
        if system.source.arrivals != query_manager.departures + present:
            self._fail(
                "final",
                f"arrivals {system.source.arrivals} != departures "
                f"{query_manager.departures} + in-flight {present}",
            )
        for disk in system.disks:
            live_queue = sum(1 for entry in disk._queue if not entry[2].cancelled)
            accounted = (
                disk.cache.hits + disk.accesses + disk.cancelled_queued + live_queue
            )
            if disk.submitted != accounted:
                self._fail(
                    "final",
                    f"disk {disk.disk_id}: {disk.submitted} submitted accesses "
                    f"but {accounted} accounted for (cache hits "
                    f"{disk.cache.hits} + served {disk.accesses} + cancelled "
                    f"{disk.cancelled_queued} + queued {live_queue})",
                )
        self.check_buffers(system.buffers)
        self.check_result(result)

    def check_result(self, result: "SimulationResult") -> None:
        """Structural sanity of a finished :class:`SimulationResult`."""
        if result.served != result.completed + result.missed:
            self._fail(
                "final",
                f"served {result.served} != completed {result.completed} + "
                f"missed {result.missed}",
            )
        if result.served > result.arrivals:
            self._fail(
                "final",
                f"served {result.served} queries but only {result.arrivals} arrived",
            )
        if result.served:
            ratio = result.missed / result.served
            if abs(result.miss_ratio - ratio) > TOLERANCE:
                self._fail(
                    "final",
                    f"miss ratio {result.miss_ratio} != missed/served {ratio}",
                )
        if not -TOLERANCE <= result.miss_ratio <= 1.0 + TOLERANCE:
            self._fail("final", f"miss ratio {result.miss_ratio} outside [0, 1]")
        for label, value in (
            ("cpu", result.cpu_utilization),
            *((f"disk{i}", u) for i, u in enumerate(result.disk_utilizations)),
        ):
            if not -TOLERANCE <= value <= 1.0 + TOLERANCE:
                self._fail("final", f"{label} utilisation {value} outside [0, 1]")
        if result.observed_mpl < -TOLERANCE:
            self._fail("final", f"negative observed MPL {result.observed_mpl}")
        per_class_served = sum(cls.served for cls in result.per_class.values())
        if result.per_class and per_class_served != result.served:
            self._fail(
                "final",
                f"per-class served counts sum to {per_class_served}, "
                f"not {result.served}",
            )


def attach_invariants(system: "RTDBSystem") -> InvariantChecker:
    """Create and attach a checker; the engine's picklable ``setup`` hook.

    Use with :class:`repro.experiments.runner.RunSpec` as
    ``setup=attach_invariants, setup_signature=INVARIANTS_SIGNATURE``.
    """
    return InvariantChecker().attach(system)


#: Cache-key contribution of :func:`attach_invariants` runs.  The hook
#: only asserts -- it never changes simulation behaviour -- so results
#: are interchangeable with un-checked runs; the signature still keys
#: them separately out of caution.
INVARIANTS_SIGNATURE = ("invariants", 1)
