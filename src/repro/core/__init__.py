"""Priority Memory Management (PMM) -- the paper's contribution.

PMM (Section 3) couples an **admission control** component that picks a
target multiprogramming level (MPL) with a **memory allocation**
component that switches between the Max and MinMax strategies, both
driven by Earliest Deadline priorities and past system behaviour:

* :mod:`~repro.core.projection` -- the miss-ratio projection method: a
  concave quadratic fitted by least squares over running sums.
* :mod:`~repro.core.ru_heuristic` -- the resource-utilisation fallback
  heuristic.
* :mod:`~repro.core.allocation` -- the Max, two-pass MinMax, and
  Proportional allocation procedures.
* :mod:`~repro.core.stats_tests` -- the large-sample tests [Devo91]
  guarding adaptation decisions.
* :mod:`~repro.core.change_detection` -- the workload-change monitor.
* :mod:`~repro.core.pmm` -- the controller tying it all together.
* :mod:`~repro.core.devices` -- the host-agnostic device engine (ED
  queue selection, prefetch cache, service pricing) and the
  :class:`~repro.core.devices.BufferPool` (grant ledger plus LRU data
  cache), shared by the simulator and the live serving layer.
* :mod:`~repro.core.steps` -- :func:`~repro.core.steps.steps`, the one
  interpreter of an operator's request stream that both hosts run.
* :mod:`~repro.core.broker` / :mod:`~repro.core.host` -- the memory
  broker and the query lifecycle around it (admission, enactment,
  departures, batch feedback) shared by the same two hosts.
"""

from repro.core.allocation import (
    QueryDemand,
    allocate_max,
    allocate_minmax,
    allocate_proportional,
)
from repro.core.change_detection import WorkloadChangeDetector, WorkloadSample
from repro.core.devices import (
    BufferPool,
    DeviceCore,
    LRUDataCache,
    PrefetchCache,
)
from repro.core.fairness import ClassMissTracker, FairPMM
from repro.core.pmm import PMM, BatchStats, DepartureRecord
from repro.core.projection import CurveType, MissRatioProjection, ProjectionResult
from repro.core.ru_heuristic import RUHeuristic, UtilizationLine
from repro.core.stats_tests import mean_difference_significant, mean_significantly_positive

__all__ = [
    "BatchStats",
    "BufferPool",
    "ClassMissTracker",
    "CurveType",
    "DepartureRecord",
    "DeviceCore",
    "LRUDataCache",
    "PrefetchCache",
    "FairPMM",
    "MissRatioProjection",
    "PMM",
    "ProjectionResult",
    "QueryDemand",
    "RUHeuristic",
    "UtilizationLine",
    "WorkloadChangeDetector",
    "WorkloadSample",
    "allocate_max",
    "allocate_minmax",
    "allocate_proportional",
    "mean_difference_significant",
    "mean_significantly_positive",
]
