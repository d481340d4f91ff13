"""The fault-injection plane: seeded chaos for the live serving stack.

The live gateway matches the DES on sunny days; this module makes the
weather.  A :class:`FaultSchedule` is a deterministic, content-hashed
bundle of fault windows -- generated from a seed exactly like the
scenario families -- that the :class:`FaultInjector` arms as event-loop
timers against a running gateway:

* **disk degradation** -- a window multiplies one disk's
  ``DeviceCore.service_time`` (a dying drive, a saturated RAID rebuild);
* **disk outage** -- a window marks one disk ``faulted``: chunk
  submissions fail transiently (:class:`DiskFaultError` semantics) and
  the gateway's bounded-retry / circuit-breaker / reroute defenses
  decide each query's fate;
* **memory pressure** -- an external, non-query consumer (the MSFT
  throughput paper's compilation-memory thief) shrinks the effective
  pool mid-run via ``LiveGateway.set_pool_pages``; the policies must
  redistribute within the new bound;
* **policy faults** -- :class:`FaultyPolicy` raises
  :class:`PolicyFaultError` on chosen decision ordinals *before*
  delegating, modelling a transient bug in the allocation path; the
  gateway keeps the previous allocation and survives;
* **stalled clients** -- a count of TCP connections the chaos harness
  opens and never services (half-written lines, unread responses); the
  server loop must shrug them off.

The second half of the module is crash recovery:
:class:`JournalRecorder` duck-types the broker's trace recorder and
appends every operation to a JSON-lines journal (flushed per op, so a
SIGKILL leaves at worst one torn final line), and
:func:`recover_journal` replays a journal through a fresh
broker + policy with the :class:`~repro.rtdbs.invariants.InvariantChecker`
attached, verifies the replayed decisions against the recorded ones,
releases the orphaned in-flight grants, and proves the ledger drains to
empty -- counters conserved, zero grant leaks.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.runner import canonical_record

#: Disk-window kinds.
DEGRADE = "degrade"
OUTAGE = "outage"


class DiskFaultError(RuntimeError):
    """A transient disk fault: the chunk may be retried."""


class PolicyFaultError(RuntimeError):
    """An injected (transient) failure of the allocation policy."""


# ----------------------------------------------------------------------
# the schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiskFaultWindow:
    """One disk misbehaving over ``[start, end)`` (simulated seconds)."""

    disk: int
    start: float
    end: float
    #: ``"degrade"`` (service times multiplied by ``factor``) or
    #: ``"outage"`` (chunk submissions fail; retry/breaker path).
    kind: str
    factor: float = 1.0


@dataclass(frozen=True)
class MemoryPressureWindow:
    """An external consumer holding ``stolen_pages`` over the window."""

    start: float
    end: float
    stolen_pages: int


@dataclass(frozen=True)
class FaultSchedule:
    """A deterministic bundle of fault windows, addressable by hash."""

    seed: int
    disk_windows: Tuple[DiskFaultWindow, ...] = ()
    memory_windows: Tuple[MemoryPressureWindow, ...] = ()
    #: 1-based reallocation ordinals at which the policy fails.
    policy_faults: Tuple[int, ...] = ()
    #: TCP connections the chaos harness opens and never services.
    stalled_clients: int = 0

    @property
    def active(self) -> bool:
        return bool(
            self.disk_windows or self.memory_windows or self.policy_faults
        )

    @property
    def content_hash(self) -> str:
        """Stable content hash (same canonical walk as scenario hashes)."""
        return sha256(
            repr(("repro-faults", canonical_record(self))).encode("utf-8")
        ).hexdigest()

    def describe(self) -> str:
        """One line per fault, for reports and logs."""
        lines = [f"fault schedule seed={self.seed} ({self.content_hash[:10]})"]
        for window in self.disk_windows:
            detail = f" x{window.factor}" if window.kind == DEGRADE else ""
            lines.append(
                f"  disk {window.disk}: {window.kind}{detail} over "
                f"[{window.start:.1f}, {window.end:.1f}) sim s"
            )
        for window in self.memory_windows:
            lines.append(
                f"  memory thief: {window.stolen_pages} pages over "
                f"[{window.start:.1f}, {window.end:.1f}) sim s"
            )
        if self.policy_faults:
            lines.append(f"  policy faults at decisions {self.policy_faults}")
        if self.stalled_clients:
            lines.append(f"  stalled clients: {self.stalled_clients}")
        return "\n".join(lines)

    @classmethod
    def empty(cls, seed: int = 0) -> "FaultSchedule":
        """The no-fault schedule: running under it must be a no-op."""
        return cls(seed=int(seed))

    @classmethod
    def generate(
        cls, seed: int, config, horizon: Optional[float] = None
    ) -> "FaultSchedule":
        """Draw a schedule for one scenario config, deterministically.

        Mixes every fault kind: per-disk degradation/outage windows, a
        memory thief sized to bite (a quarter to three fifths of the
        pool, never below an 8-page floor), a few policy-fault
        ordinals, and a stalled-client count.  At least one disk outage
        is guaranteed so the retry/breaker path is always exercised.
        """
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=int(seed), spawn_key=(zlib.crc32(b"repro-faults"),)
            )
        )
        span = float(horizon) if horizon is not None else float(config.duration)
        disk_windows: List[DiskFaultWindow] = []
        for disk in range(config.resources.num_disks):
            if rng.random() >= 0.6:
                continue
            start = round(float(rng.uniform(0.05, 0.5)) * span, 2)
            length = float(rng.uniform(0.1, 0.3)) * span
            end = round(min(start + length, span), 2)
            if end <= start:
                continue
            if rng.random() < 0.45:
                disk_windows.append(
                    DiskFaultWindow(disk, start, end, OUTAGE)
                )
            else:
                factor = round(float(rng.uniform(2.0, 6.0)), 2)
                disk_windows.append(
                    DiskFaultWindow(disk, start, end, DEGRADE, factor)
                )
        if not any(w.kind == OUTAGE for w in disk_windows):
            disk_windows.insert(
                0,
                DiskFaultWindow(
                    0, round(0.2 * span, 2), round(0.45 * span, 2), OUTAGE
                ),
            )
        memory = config.resources.memory_pages
        memory_windows: List[MemoryPressureWindow] = []
        for _ in range(int(rng.integers(1, 3))):
            start = round(float(rng.uniform(0.05, 0.6)) * span, 2)
            length = float(rng.uniform(0.15, 0.35)) * span
            end = round(min(start + length, span), 2)
            low = memory // 4
            high = max(low + 1, (memory * 3) // 5)
            stolen = min(int(rng.integers(low, high + 1)), memory - 8)
            if end > start and stolen > 0:
                memory_windows.append(MemoryPressureWindow(start, end, stolen))
        fault_count = int(rng.integers(1, 4))
        policy_faults = tuple(
            sorted({int(o) for o in rng.integers(2, 60, size=fault_count)})
        )
        return cls(
            seed=int(seed),
            disk_windows=tuple(disk_windows),
            memory_windows=tuple(memory_windows),
            policy_faults=policy_faults,
            stalled_clients=int(rng.integers(1, 4)),
        )


# ----------------------------------------------------------------------
# fault actors
# ----------------------------------------------------------------------
class FaultyPolicy:
    """Wrap a policy; fail chosen decisions with :class:`PolicyFaultError`.

    The fault is raised *before* delegating, so a faulted decision
    leaves the wrapped policy's internal state -- and the broker's
    recorded operation stream -- exactly as if the call never happened;
    journal replay through the unwrapped policy therefore reproduces
    the surviving decisions bit for bit.
    """

    def __init__(self, policy, ordinals):
        self._policy = policy
        self._ordinals = frozenset(int(o) for o in ordinals)
        self.calls = 0
        self.faults_raised = 0

    def allocate(self, demands, memory, now=0.0):
        self.calls += 1
        if self.calls in self._ordinals:
            self.faults_raised += 1
            raise PolicyFaultError(
                f"injected policy fault at decision {self.calls}"
            )
        return self._policy.allocate(demands, memory, now=now)

    def __getattr__(self, name):
        return getattr(self._policy, name)


class CircuitBreaker:
    """Per-disk breaker: consecutive failures open it for a cooldown.

    While open, callers fail fast (reroute or doom) instead of burning
    their deadline budget on retries.  After the cooldown the breaker
    half-opens: one probe is allowed through, and a single further
    failure re-opens it immediately.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 0.05):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown = cooldown
        #: Consecutive failures since the last success.
        self.failures = 0
        #: Times the breaker tripped open (telemetry).
        self.opens = 0
        self._open_until: Optional[float] = None

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.failures >= self.threshold and self._open_until is None:
            self._open_until = now + self.cooldown
            self.opens += 1

    def record_success(self) -> None:
        self.failures = 0
        self._open_until = None

    def is_open(self, now: float) -> bool:
        if self._open_until is None:
            return False
        if now >= self._open_until:
            # Half-open: allow one probe; one failure re-opens.
            self._open_until = None
            self.failures = self.threshold - 1
            return False
        return True


class FaultInjector:
    """Arm a :class:`FaultSchedule` as timers against a live gateway.

    Window boundaries become ``loop.call_at`` callbacks on the
    gateway's clock (simulated seconds scaled by ``time_scale``).  Any
    exception inside a boundary callback is routed to the gateway's
    failure channel -- timer context would otherwise swallow it.
    Overlapping memory-pressure windows compose as the max theft, not
    the sum: the pool is re-bounded to ``base - max(active stolen)`` at
    every boundary.
    """

    def __init__(self, schedule: FaultSchedule, gateway):
        self.schedule = schedule
        self.gateway = gateway
        self._timers: List = []
        self._active_thieves: Dict[int, MemoryPressureWindow] = {}
        self._base_pool = gateway.config.resources.memory_pages

    def arm(self) -> None:
        """Schedule every window boundary (call after ``gateway.start``)."""
        call_at = self.gateway.clock.call_at
        for window in self.schedule.disk_windows:
            self._timers.append(
                call_at(window.start, self._guard, self._open_disk, window)
            )
            self._timers.append(
                call_at(window.end, self._guard, self._close_disk, window)
            )
        for index, window in enumerate(self.schedule.memory_windows):
            self._timers.append(
                call_at(window.start, self._guard, self._open_thief, index, window)
            )
            self._timers.append(
                call_at(window.end, self._guard, self._close_thief, index)
            )

    def cancel(self) -> None:
        """Disarm every pending boundary and restore healthy state."""
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for disk in self.gateway.disks:
            disk.faulted = False
            disk.core.fault_multiplier = 1.0
        if self._active_thieves:
            self._active_thieves.clear()
            self._refresh_pool()

    # -- boundary callbacks ---------------------------------------------
    def _guard(self, fn, *args) -> None:
        try:
            fn(*args)
        except Exception as error:  # timer context: surface via drain()
            self.gateway.fail(error)

    def _open_disk(self, window: DiskFaultWindow) -> None:
        disk = self.gateway.disks[window.disk]
        if window.kind == DEGRADE:
            disk.core.fault_multiplier = window.factor
            self.gateway.report.disk_degrades += 1
        else:
            disk.faulted = True
            self.gateway.report.disk_outages += 1

    def _close_disk(self, window: DiskFaultWindow) -> None:
        disk = self.gateway.disks[window.disk]
        if window.kind == DEGRADE:
            disk.core.fault_multiplier = 1.0
        else:
            disk.faulted = False

    def _open_thief(self, index: int, window: MemoryPressureWindow) -> None:
        self._active_thieves[index] = window
        self.gateway.report.pool_shrinks += 1
        self._refresh_pool()

    def _close_thief(self, index: int) -> None:
        self._active_thieves.pop(index, None)
        self._refresh_pool()

    def _refresh_pool(self) -> None:
        stolen = max(
            (w.stolen_pages for w in self._active_thieves.values()), default=0
        )
        self.gateway.set_pool_pages(max(1, self._base_pool - stolen))


# ----------------------------------------------------------------------
# crash recovery: the broker journal
# ----------------------------------------------------------------------
class JournalRecorder:
    """Append broker operations to a JSON-lines journal, flushed per op.

    Duck-types :class:`~repro.core.broker.BrokerTrace` (the broker only
    calls ``record``), with a header line carrying what a cold restart
    needs to rebuild the policy: ``{"header": {"policy": spec,
    "total_pages": N, "sample_size": K}}``.  Each op is flushed as it is
    written, so a SIGKILL mid-run leaves at worst one torn final line
    (which :func:`load_journal` drops).
    """

    def __init__(self, path, header: Optional[dict] = None):
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self.ops_written = 0
        if header is not None:
            self._fh.write(
                json.dumps({"header": header}, separators=(",", ":")) + "\n"
            )
            self._fh.flush()

    @classmethod
    def for_policy(cls, path, policy_spec: str, config) -> "JournalRecorder":
        """A recorder whose header matches one gateway configuration."""
        return cls(
            path,
            header={
                "policy": policy_spec,
                "total_pages": config.resources.memory_pages,
                "sample_size": config.pmm.sample_size,
            },
        )

    def record(self, op: tuple) -> None:
        self._fh.write(json.dumps(op, separators=(",", ":")) + "\n")
        self._fh.flush()
        self.ops_written += 1

    def close(self) -> None:
        self._fh.close()


def _tuplize(value):
    if isinstance(value, list):
        return tuple(_tuplize(item) for item in value)
    return value


def load_journal(path) -> Tuple[Optional[dict], List[tuple]]:
    """Read a journal back: ``(header, ops)``.

    A torn final line (the crash interrupted a write) is dropped;
    corruption anywhere else raises.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header: Optional[dict] = None
    ops: List[tuple] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break  # torn final line: the SIGKILL landed mid-write
            raise ValueError(f"corrupt journal line {index + 1} in {path}")
        if isinstance(record, dict):
            header = record.get("header", header)
        else:
            ops.append(_tuplize(record))
    return header, ops


@dataclass
class RecoveredLedger:
    """What replaying a journal through a fresh broker established."""

    policy: str
    total_pages: int
    ops_replayed: int
    decisions_replayed: int
    #: Queries that were in flight at the crash; their grants were
    #: released during recovery (the clients are gone).
    released: Tuple[int, ...]
    departures: int
    completions: int
    misses: int
    #: The allocation vector after releasing survivors and issuing one
    #: final decision -- must be empty for a conserved ledger.
    final_allocation: Tuple[Tuple[int, int], ...]

    @property
    def clean(self) -> bool:
        return not self.final_allocation

    def render(self) -> str:
        lines = [
            f"journal recovery: policy={self.policy} "
            f"pool={self.total_pages} pages",
            f"  ops replayed       : {self.ops_replayed} "
            f"({self.decisions_replayed} decisions, verified)",
            f"  departures         : {self.departures} "
            f"({self.completions} completed, {self.misses} missed)",
            f"  orphaned grants    : {len(self.released)} released "
            f"{list(self.released)}",
            "  ledger conserved; invariants clean"
            if self.clean
            else f"  LEDGER NOT EMPTY: {self.final_allocation}",
        ]
        return "\n".join(lines)


def recover_journal(path, policy=None) -> RecoveredLedger:
    """Replay a crashed gateway's journal to a consistent ledger.

    Rebuilds the policy from the journal header (or uses ``policy``),
    replays every operation through a fresh broker with the
    :class:`~repro.rtdbs.invariants.InvariantChecker` attached and
    decision verification on, re-applies the final allocation through a
    fresh :class:`~repro.core.devices.BufferPool` ledger (the
    conservation law at the crash point), then releases every orphaned
    in-flight query and issues one final decision -- which must come
    back empty.  Raises on any divergence; returns the
    :class:`RecoveredLedger` summary otherwise.
    """
    from repro.core.broker import MemoryBroker, replay_ops
    from repro.policies.registry import make_policy
    from repro.rtdbs.invariants import InvariantChecker
    from repro.core.devices import BufferPool

    header, ops = load_journal(path)
    if header is None:
        raise ValueError(f"journal {path} has no header record")
    spec = str(header["policy"])
    total_pages = int(header["total_pages"])
    sample_size = int(header["sample_size"])
    resolved = policy if policy is not None else make_policy(spec)
    broker = MemoryBroker(resolved, total_pages, sample_size)
    InvariantChecker().attach_broker(broker)
    decisions = replay_ops(ops, broker, verify_decisions=True)

    # The conservation law at the crash point: the surviving entries'
    # grants must fit the (possibly thief-shrunken) pool.
    ledger = BufferPool(broker.total_pages)
    ledger.apply(
        {entry.qid: entry.pages for entry in broker.present if entry.pages > 0}
    )

    survivors = tuple(sorted(entry.qid for entry in broker.present))
    last_now = 0.0
    for op in ops:
        if op[0] == "reallocate":
            last_now = float(op[1])
    for qid in survivors:
        broker.release(qid)
        ledger.release(qid)
    final = broker.reallocate(now=last_now)
    ledger.apply(final.allocation)
    return RecoveredLedger(
        policy=spec,
        total_pages=broker.total_pages,
        ops_replayed=len(ops),
        decisions_replayed=len(decisions),
        released=survivors,
        departures=broker.departures,
        completions=broker.completions,
        misses=broker.misses,
        final_allocation=tuple(sorted(final.allocation.items())),
    )
