"""The policy protocol between the buffer manager and an algorithm.

A memory policy sees the world through two channels:

* :meth:`MemoryPolicy.allocate` is called whenever the query population
  changes (arrival, departure) or the policy itself requests it; it
  receives the present queries in ED order and returns page grants.
* Feedback: :meth:`MemoryPolicy.on_departure` streams per-query
  :class:`DepartureRecord` facts, and :meth:`MemoryPolicy.on_batch`
  delivers a :class:`BatchStats` summary after every ``SampleSize``
  departures.  Static baselines ignore both; PMM adapts on them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.core.allocation import QueryDemand


@dataclass(frozen=True)
class DepartureRecord:
    """Facts about one query leaving the system (done or expired)."""

    qid: int
    class_name: str
    #: True when the query failed to complete by its deadline.
    missed: bool
    arrival: float
    departure: float
    #: Seconds spent waiting for admission (up to first memory grant,
    #: or the whole residence time if never admitted).
    waiting_time: float
    #: Seconds between first admission and departure (0 if never
    #: admitted).
    execution_time: float
    #: Deadline minus arrival.
    time_constraint: float
    #: Maximum memory demand, pages (workload characteristic 1).
    max_demand: int
    #: Minimum memory demand, pages.
    min_demand: int
    #: I/Os needed to read the operand relation(s) (characteristic 2).
    operand_io_count: int
    #: Number of memory-allocation changes experienced while running
    #: (Figure 7's metric).
    memory_fluctuations: int = 0


@dataclass(frozen=True)
class BatchStats:
    """System summary over the last ``SampleSize`` departures."""

    #: Simulation time at the batch boundary.
    time: float
    #: Departures in the batch (completed + missed).
    served: int
    #: Deadline misses in the batch.
    missed: int
    #: Time-averaged number of admitted queries over the batch window.
    realized_mpl: float
    #: CPU utilisation over the batch window.
    cpu_utilization: float
    #: Per-disk utilisations over the batch window.
    disk_utilizations: Tuple[float, ...] = field(default_factory=tuple)
    #: Shared buffer-pool hit ratio over the batch window (0.0 when the
    #: host measures none -- both hosts' :class:`~repro.core.devices.
    #: BufferPool` supply it).
    pool_hit_ratio: float = 0.0

    @property
    def miss_ratio(self) -> float:
        """Fraction of the batch that missed its deadline."""
        return self.missed / self.served if self.served else 0.0

    @property
    def bottleneck_utilization(self) -> float:
        """Utilisation of the most heavily loaded resource."""
        candidates = (self.cpu_utilization,) + tuple(self.disk_utilizations)
        return max(candidates)

    @property
    def all_below(self) -> float:
        """Largest utilisation -- alias used by adaptation condition 2."""
        return self.bottleneck_utilization


class MemoryPolicy(abc.ABC):
    """Admission control + memory allocation, pluggable into the RTDBS."""

    #: Human-readable policy name (used in reports and figures).
    name: str = "policy"

    @abc.abstractmethod
    def allocate(
        self, demands: Sequence[QueryDemand], memory: int, now: float = 0.0
    ) -> Dict[int, int]:
        """Return pages per query id; ``demands`` arrive in ED order.

        ``now`` is the current simulation time; policies that reorder
        by remaining slack (the fairness extension) use it, the rest
        ignore it."""

    # -- feedback hooks (no-ops for static policies) --------------------
    def on_departure(self, record: DepartureRecord) -> None:
        """Observe one departure (completed or expired)."""

    def on_batch(self, stats: BatchStats) -> bool:
        """Observe a batch summary; return True to force reallocation."""
        return False

    def reset(self) -> None:
        """Forget all adaptive state (start of a fresh run)."""

    @property
    def target_mpl(self) -> Optional[int]:
        """Current MPL limit, if the policy imposes one."""
        return None

    def describe(self) -> str:
        """One-line description for experiment reports."""
        return self.name
