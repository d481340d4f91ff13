"""The simulated firm real-time DBMS (the paper's Figure 2 model).

Five components, as in the paper: a :mod:`~repro.rtdbs.source` that
generates the workload and collects statistics, a
:mod:`~repro.rtdbs.query_manager` that models query execution over the
shared request-stream interpreter (:func:`repro.core.steps.steps`), a
buffer manager -- the :class:`repro.core.devices.BufferPool` shared
with the live serving layer -- that enforces the pluggable memory
policy's grants (PMM or a static baseline) and implements LRU
replacement over the unreserved pages, and :mod:`~repro.rtdbs.cpu` /
:mod:`~repro.rtdbs.disk` managers for the physical resources.
:mod:`~repro.rtdbs.system` wires them together.
"""

from repro.rtdbs.config import (
    CPUCosts,
    DatabaseParams,
    PMMParams,
    QueryClass,
    RelationGroup,
    ResourceParams,
    SimulationConfig,
    WorkloadParams,
)
from repro.rtdbs.system import RTDBSystem, SimulationResult

__all__ = [
    "CPUCosts",
    "DatabaseParams",
    "PMMParams",
    "QueryClass",
    "RelationGroup",
    "ResourceParams",
    "RTDBSystem",
    "SimulationConfig",
    "SimulationResult",
    "WorkloadParams",
]
