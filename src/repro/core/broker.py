"""The memory broker: admission control decoupled from the simulator.

The paper's mechanism -- admission decisions, min/max memory grants,
wait queues, and departure-driven re-allocation, all delegated to a
pluggable :class:`~repro.policies.base.MemoryPolicy` -- is useful far
beyond a discrete-event simulation: it is exactly what a live server
needs to decide *which* concurrent queries may run and *how much*
workspace each gets.  :class:`MemoryBroker` is that mechanism with the
simulator factored out.

The broker sees the world as a stream of four operations:

* :meth:`register`   -- a query arrives (enters the wait queue);
* :meth:`reallocate` -- compute a fresh allocation vector (invoked by
  the host after every arrival and departure, and whenever the policy
  requests one);
* :meth:`release`    -- a query leaves the population (done or aborted);
* :meth:`note_departure` / :meth:`departure_feedback` /
  :meth:`deliver_batch` -- the policy's feedback channel: per-departure
  facts, and a :class:`~repro.policies.base.BatchStats` summary after
  every ``SampleSize`` departures (the broker counts the window; the
  host supplies the utilisation telemetry only it can measure).

One host-neutral caller drives this interface:
:class:`~repro.core.host.BrokerHost`, the shared query lifecycle, for
the two hosts --

* the DES :class:`~repro.rtdbs.query_manager.QueryManager` (simulated
  time, simulated resources) -- bit-identical to the pre-broker code
  path;
* the live :class:`~repro.serve.gateway.LiveGateway` (event-loop time,
  real operators over in-memory relations).

Every operation can be recorded by a :class:`BrokerTrace`; replaying a
trace through a fresh broker + policy must reproduce the decision
sequence exactly (``tests/test_memory_broker.py`` pins this for all
policies), which proves the broker is deterministic and depends on
nothing outside its own operation stream.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.allocation import QueryDemand
from repro.policies.base import BatchStats, DepartureRecord, MemoryPolicy

#: Population states (a query is *admitted* once it holds pages).
WAITING = "waiting"
RUNNING = "running"

#: ED order: earliest deadline first, query id breaking ties.
_ED_ORDER = attrgetter("priority", "qid")

#: On-disk trace identity: the header line of every saved trace names
#: this format and version; :meth:`BrokerTrace.load` refuses anything
#: else rather than silently replaying a stream it may misparse.
TRACE_FORMAT = "repro-broker-trace"
TRACE_FORMAT_VERSION = 1

#: Anything the replay / oracle entry points accept as "a trace":
#: an in-memory :class:`BrokerTrace`, a bare op list, or a path to a
#: file written by :meth:`BrokerTrace.save`.
TraceLike = Union["BrokerTrace", Sequence[tuple], str, "os.PathLike"]


@dataclass
class BrokerEntry:
    """The broker's view of one present query."""

    qid: int
    class_name: str
    #: ED priority: the absolute deadline (smaller = more urgent).
    priority: float
    min_pages: int
    max_pages: int
    state: str = WAITING
    #: Current grant, pages (0 while waiting or suspended).
    pages: int = 0


@dataclass(frozen=True)
class AllocationDecision:
    """One reallocation outcome, ready for the host to enact."""

    #: Pages per query id (queries absent from the vector hold 0).
    allocation: Dict[int, int]
    #: Present queries in ED order (the order grants must be enacted
    #: in, so simulator event sequences stay reproducible).
    order: Tuple[int, ...]
    #: Queries admitted by this decision (were waiting, now granted).
    admitted: Tuple[int, ...]


@dataclass(frozen=True)
class BatchWindow:
    """A closing feedback window: departures since the last batch."""

    served: int
    missed: int


@dataclass
class BrokerTrace:
    """Recorder for the broker's operation + decision stream.

    ``ops`` holds plain tuples (no object references), so a trace can
    be replayed against a freshly built broker and policy; decisions
    are recorded as sorted ``(qid, pages)`` tuples for stable
    comparison.

    ``meta`` carries run context that is *not* part of the op stream
    (initial pool size, sample size, policy name) -- the broker stamps
    it when a recorder is attached, so replay parity is untouched but a
    saved trace is self-describing enough for the clairvoyant oracle.
    """

    ops: List[tuple] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def record(self, op: tuple) -> None:
        self.ops.append(op)

    @property
    def decisions(self) -> List[Tuple[Tuple[int, int], ...]]:
        """Every recorded allocation vector, in decision order."""
        return [op[1] for op in self.ops if op[0] == "decision"]

    # ------------------------------------------------------------------
    # stable on-disk artifact (JSON lines, versioned)
    # ------------------------------------------------------------------
    def save(self, path: Union[str, os.PathLike]) -> Path:
        """Write the trace as JSON lines: one header, one line per op.

        The header pins :data:`TRACE_FORMAT` / :data:`TRACE_FORMAT_VERSION`
        and carries ``meta``; every op serialises as a JSON array.
        ``save`` -> :meth:`load` -> ``save`` is byte-identical (JSON
        floats round-trip exactly through ``repr``).
        """
        path = Path(path)
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                "format": TRACE_FORMAT,
                "version": TRACE_FORMAT_VERSION,
                "ops": len(self.ops),
                "meta": dict(sorted(self.meta.items())),
            }
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for op in self.ops:
                handle.write(json.dumps(op) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "BrokerTrace":
        """Read a trace written by :meth:`save`.

        Raises ``ValueError`` when the file does not announce the
        expected format/version -- a version bump must be handled
        explicitly, never replayed on faith.
        """
        path = Path(path)
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline()
            try:
                header = json.loads(first) if first.strip() else {}
            except json.JSONDecodeError:
                header = {}
            if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
                raise ValueError(
                    f"{path} is not a {TRACE_FORMAT} file (bad or missing header)"
                )
            version = header.get("version")
            if version != TRACE_FORMAT_VERSION:
                raise ValueError(
                    f"{path} has trace format version {version!r}; this build "
                    f"reads version {TRACE_FORMAT_VERSION} -- refusing to guess"
                )
            ops = [
                _as_tuples(json.loads(line))
                for line in handle
                if line.strip()
            ]
        declared = header.get("ops")
        if declared is not None and declared != len(ops):
            raise ValueError(
                f"{path} declares {declared} ops but contains {len(ops)} "
                "-- truncated or corrupted trace"
            )
        return cls(ops=ops, meta=dict(header.get("meta", {})))


def _as_tuples(value):
    """JSON arrays back to the tuples the recorder originally stored."""
    if isinstance(value, list):
        return tuple(_as_tuples(item) for item in value)
    return value


def coerce_trace_ops(trace: TraceLike) -> List[tuple]:
    """The op list of a trace given in any accepted form.

    Accepts a :class:`BrokerTrace`, a bare op sequence, or a path to a
    saved trace file -- the common front door of :func:`replay_ops`,
    :func:`replay_trace`, and the clairvoyant oracle.
    """
    if isinstance(trace, BrokerTrace):
        return trace.ops
    if isinstance(trace, (str, os.PathLike)):
        return BrokerTrace.load(trace).ops
    return list(trace)


class MemoryBroker:
    """Admission control + memory allocation over one buffer pool.

    The broker owns the admission-facing population (the wait queue and
    the granted set), the departure counters, and the policy feedback
    cadence; the host owns actual execution, timing, and telemetry.
    """

    def __init__(
        self,
        policy: MemoryPolicy,
        total_pages: int,
        sample_size: int,
        recorder: Optional[BrokerTrace] = None,
    ):
        if total_pages <= 0:
            raise ValueError(f"buffer pool must be positive, got {total_pages}")
        if sample_size < 1:
            raise ValueError(f"sample size must be >= 1, got {sample_size}")
        self.policy = policy
        self.total_pages = total_pages
        self.sample_size = sample_size
        self._recorder: Optional[BrokerTrace] = None
        self.recorder = recorder
        #: Optional :class:`repro.rtdbs.invariants.InvariantChecker`;
        #: ``None`` (the default) keeps the decision path hook-free.
        self.invariants = None

        self._entries: Dict[int, BrokerEntry] = {}
        # Each present query's demand, built on its first reallocation:
        # the envelope never changes, so later decisions reuse it.
        self._demands: Dict[int, QueryDemand] = {}
        # -- departure counters (the host's statistics read these) -----
        self.departures = 0
        self.completions = 0
        self.misses = 0
        # -- batch bookkeeping for policy feedback ----------------------
        self._batch_start_departures = 0
        self._batch_misses = 0
        self.batches_delivered = 0

    @property
    def recorder(self) -> Optional[BrokerTrace]:
        return self._recorder

    @recorder.setter
    def recorder(self, value) -> None:
        """Attach a recorder, stamping run context into its ``meta``.

        Hosts attach recorders both at construction and after the fact
        (``broker.recorder = trace``); stamping here covers both paths.
        ``meta`` is context, not an op, so the decision-replay parity
        contract is untouched.  Recorders without a ``meta`` dict (the
        crash journal) are attached as-is.
        """
        self._recorder = value
        if value is not None and isinstance(getattr(value, "meta", None), dict):
            value.meta.setdefault("total_pages", self.total_pages)
            value.meta.setdefault("sample_size", self.sample_size)
            value.meta.setdefault(
                "policy", getattr(self.policy, "name", type(self.policy).__name__)
            )

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def register(
        self,
        qid: int,
        class_name: str,
        priority: float,
        min_pages: int,
        max_pages: int,
    ) -> BrokerEntry:
        """A query arrives: enter the wait queue (no memory yet)."""
        if qid in self._entries:
            raise ValueError(f"duplicate query id {qid}")
        entry = BrokerEntry(qid, class_name, priority, min_pages, max_pages)
        self._entries[qid] = entry
        if self.recorder is not None:
            self.recorder.record(
                ("register", qid, class_name, priority, min_pages, max_pages)
            )
        return entry

    def release(self, qid: int) -> None:
        """A query leaves the population (completion or abort)."""
        self._entries.pop(qid, None)
        self._demands.pop(qid, None)
        if self.recorder is not None:
            self.recorder.record(("release", qid))

    def set_total_pages(self, pages: int) -> None:
        """Resize the pool the policy allocates over (memory pressure).

        An external, non-query memory consumer (the MSFT throughput
        paper's compilation-memory thief) shrinks the pool mid-run; the
        next :meth:`reallocate` redistributes within the new bound.
        Recorded as a ``("pool", pages)`` op so trace replay reproduces
        the decision stream across the resize.
        """
        if pages <= 0:
            raise ValueError(f"buffer pool must be positive, got {pages}")
        self.total_pages = pages
        if self.recorder is not None:
            self.recorder.record(("pool", pages))

    def entry(self, qid: int) -> BrokerEntry:
        """The broker's entry for one present query."""
        return self._entries[qid]

    @property
    def present(self) -> List[BrokerEntry]:
        """All present queries in ED order."""
        return sorted(self._entries.values(), key=_ED_ORDER)

    @property
    def present_count(self) -> int:
        return len(self._entries)

    @property
    def admitted_count(self) -> int:
        """Queries currently holding memory."""
        return sum(1 for entry in self._entries.values() if entry.pages > 0)

    @property
    def waiting_count(self) -> int:
        """Queries waiting for their first grant."""
        return sum(1 for entry in self._entries.values() if entry.state == WAITING)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def reallocate(self, now: float = 0.0) -> AllocationDecision:
        """Ask the policy for a fresh allocation vector.

        Updates the broker's own grant/state bookkeeping and returns
        the decision for the host to enact (install reservations, wake
        or start queries, shrink running grants) *in ED order*.
        """
        entries = self.present
        cache = self._demands
        demands = []
        for entry in entries:
            demand = cache.get(entry.qid)
            if demand is None:
                demand = cache[entry.qid] = QueryDemand(
                    entry.qid,
                    entry.priority,
                    entry.min_pages,
                    entry.max_pages,
                    class_name=entry.class_name,
                )
            demands.append(demand)
        allocation = self.policy.allocate(demands, self.total_pages, now=now)
        if self.invariants is not None:
            self.invariants.check_allocation(self, demands, allocation)
        admitted: List[int] = []
        for entry in entries:
            pages = allocation.get(entry.qid, 0)
            if entry.state == WAITING and pages > 0:
                entry.state = RUNNING
                admitted.append(entry.qid)
            entry.pages = pages
        decision = AllocationDecision(
            allocation=allocation,
            order=tuple([entry.qid for entry in entries]),
            admitted=tuple(admitted),
        )
        if self.recorder is not None:
            self.recorder.record(("reallocate", now))
            self.recorder.record(
                ("decision", tuple(sorted(allocation.items())))
            )
        return decision

    # ------------------------------------------------------------------
    # departures and policy feedback
    # ------------------------------------------------------------------
    def note_departure(self, missed: bool) -> None:
        """Count one departure (before the host's own listeners run)."""
        self.departures += 1
        if missed:
            self.misses += 1
            self._batch_misses += 1
        else:
            self.completions += 1

    def departure_feedback(self, record: DepartureRecord) -> Optional[BatchWindow]:
        """Stream one departure's facts to the policy.

        Returns the closing :class:`BatchWindow` when this departure
        completes a ``SampleSize`` window -- the host must then build a
        :class:`BatchStats` (it alone can measure utilisations) and
        call :meth:`deliver_batch`.
        """
        if self.recorder is not None:
            self.recorder.record(("departure", _record_tuple(record)))
        self.policy.on_departure(record)
        if self.departures - self._batch_start_departures >= self.sample_size:
            return BatchWindow(
                served=self.departures - self._batch_start_departures,
                missed=self._batch_misses,
            )
        return None

    def deliver_batch(self, stats: BatchStats) -> bool:
        """Close the feedback window: hand the batch summary over.

        Returns the policy's "force reallocation" flag (hosts that
        already reallocate after every departure may ignore it).
        """
        self._batch_start_departures = self.departures
        self._batch_misses = 0
        self.batches_delivered += 1
        if self.recorder is not None:
            self.recorder.record(("batch", _stats_tuple(stats)))
        return bool(self.policy.on_batch(stats))


# ----------------------------------------------------------------------
# trace replay
# ----------------------------------------------------------------------
def _record_tuple(record: DepartureRecord) -> tuple:
    return (
        record.qid,
        record.class_name,
        record.missed,
        record.arrival,
        record.departure,
        record.waiting_time,
        record.execution_time,
        record.time_constraint,
        record.max_demand,
        record.min_demand,
        record.operand_io_count,
        record.memory_fluctuations,
    )


def _stats_tuple(stats: BatchStats) -> tuple:
    return (
        stats.time,
        stats.served,
        stats.missed,
        stats.realized_mpl,
        stats.cpu_utilization,
        stats.disk_utilizations,
        stats.pool_hit_ratio,
    )


def replay_ops(
    ops: TraceLike,
    broker: MemoryBroker,
    verify_decisions: bool = False,
) -> List[Tuple[Tuple[int, int], ...]]:
    """Feed a recorded operation stream through an existing broker.

    ``ops`` may be a bare op list, a :class:`BrokerTrace`, or a path
    to a saved trace file.  Returns the decision sequence (sorted
    allocation vectors, one per ``reallocate`` op).  With
    ``verify_decisions=True``, every recorded ``decision`` op is
    compared to the vector the replay just produced and a mismatch
    raises ``ValueError`` -- the crash-recovery path uses this to prove
    the journal replay is faithful, not merely plausible.
    """
    decisions: List[Tuple[Tuple[int, int], ...]] = []
    last: Optional[Tuple[Tuple[int, int], ...]] = None
    for op in coerce_trace_ops(ops):
        kind = op[0]
        if kind == "register":
            broker.register(*op[1:])
        elif kind == "release":
            broker.release(op[1])
        elif kind == "reallocate":
            decision = broker.reallocate(now=op[1])
            last = tuple(sorted(decision.allocation.items()))
            decisions.append(last)
        elif kind == "departure":
            broker.note_departure(missed=op[1][2])
            broker.departure_feedback(DepartureRecord(*op[1]))
        elif kind == "batch":
            # Pre-pool traces carry six fields; newer ones add the
            # shared-pool hit ratio.
            time, served, missed, mpl, cpu, disks = op[1][:6]
            pool_hit = op[1][6] if len(op[1]) > 6 else 0.0
            broker.deliver_batch(
                BatchStats(
                    time=time,
                    served=served,
                    missed=missed,
                    realized_mpl=mpl,
                    cpu_utilization=cpu,
                    disk_utilizations=disks,
                    pool_hit_ratio=pool_hit,
                )
            )
        elif kind == "pool":
            broker.total_pages = int(op[1])
        elif kind == "decision":
            recorded = tuple(tuple(pair) for pair in op[1])
            if verify_decisions and last is not None and recorded != last:
                raise ValueError(
                    f"replay diverged from the recorded decision: "
                    f"recorded {recorded}, replayed {last}"
                )
        else:
            raise ValueError(f"unknown trace op {kind!r}")
    return decisions


def replay_trace(
    ops: TraceLike,
    policy: MemoryPolicy,
    total_pages: int,
    sample_size: int,
) -> List[Tuple[Tuple[int, int], ...]]:
    """Feed a recorded operation stream through a fresh broker.

    ``ops`` may be a bare op list, a :class:`BrokerTrace`, or a path to
    a saved trace file.  Returns the decision sequence (sorted
    allocation vectors, one per ``reallocate`` op).  Replaying the
    trace of a simulation run with an identically parameterised policy
    must reproduce the recorded decisions exactly -- the
    broker/simulator parity contract.
    """
    broker = MemoryBroker(policy, total_pages, sample_size)
    return replay_ops(coerce_trace_ops(ops), broker)
