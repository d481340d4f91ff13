"""Parameter tables of the paper, encoded as dataclasses.

* :class:`PMMParams`      -- Table 1 (PMM algorithm parameters).
* :class:`RelationGroup`, :class:`DatabaseParams`, :class:`QueryClass`,
  :class:`WorkloadParams` -- Table 2 (database and workload model).
* :class:`ResourceParams` -- Table 3 (physical resource model).
* :class:`CPUCosts`       -- Table 4 (CPU instructions per operation).

Values the OCR of the paper garbled are restored from context and
flagged in ``DESIGN.md`` (``seek_factor = 0.617`` from the [Bitt88] disk
model, ``tuple_size = 200`` bytes, hash-join fudge factor ``F = 1.1``
from the paper's own worked numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class PMMParams:
    """Table 1: knobs of the PMM algorithm."""

    #: Re-evaluation frequency, in query completions (``SampleSize``).
    sample_size: int = 30
    #: Lower edge of the "desirable" bottleneck-utilisation range.
    util_low: float = 0.70
    #: Upper edge of the "desirable" bottleneck-utilisation range.
    util_high: float = 0.85
    #: Confidence level of the large-sample tests guarding PMM's
    #: Max -> MinMax adaptation (``AdaptConfLevel``).
    adapt_conf_level: float = 0.95
    #: Confidence level of the workload-change tests
    #: (``ChangeConfLevel``); high so inherent fluctuations rarely
    #: trigger a spurious restart.
    change_conf_level: float = 0.99

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range settings."""
        if self.sample_size < 2:
            raise ValueError("SampleSize must be at least 2")
        if not 0.0 < self.util_low < self.util_high <= 1.0:
            raise ValueError(
                f"need 0 < UtilLow < UtilHigh <= 1, got [{self.util_low}, {self.util_high}]"
            )
        for level in (self.adapt_conf_level, self.change_conf_level):
            if not 0.5 < level < 1.0:
                raise ValueError(f"confidence levels must lie in (0.5, 1), got {level}")


@dataclass(frozen=True)
class RelationGroup:
    """One group of relations (a row of the upper half of Table 2).

    ``rel_per_disk`` clustered relations are placed on every disk, with
    sizes chosen at equal intervals from ``size_range`` -- e.g. 5
    relations from [100, 200] pages gives 100, 125, 150, 175, 200.
    """

    #: Number of relations of this group placed on each disk.
    rel_per_disk: int
    #: Inclusive range of relation sizes, in pages.
    size_range: Tuple[int, int]

    def relation_sizes(self) -> List[int]:
        """The sizes of this group's relations on one disk."""
        count = self.rel_per_disk
        low, high = self.size_range
        if count <= 0:
            raise ValueError("rel_per_disk must be positive")
        if low > high or low <= 0:
            raise ValueError(f"bad size range {self.size_range}")
        if count == 1:
            return [int(round((low + high) / 2.0))]
        step = (high - low) / (count - 1)
        return [int(round(low + i * step)) for i in range(count)]


@dataclass(frozen=True)
class DatabaseParams:
    """Database half of Table 2."""

    #: The relation groups (``NumGroups`` is their count).
    groups: Tuple[RelationGroup, ...]
    #: Tuple size in bytes (``TupleSize``).
    tuple_size: int = 200

    @property
    def num_groups(self) -> int:
        """``NumGroups``."""
        return len(self.groups)

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if not self.groups:
            raise ValueError("database needs at least one relation group")
        if self.tuple_size <= 0:
            raise ValueError("tuple size must be positive")
        for group in self.groups:
            group.relation_sizes()  # validates ranges


HASH_JOIN = "hash_join"
EXTERNAL_SORT = "external_sort"


@dataclass(frozen=True)
class ArrivalModulation:
    """Piecewise-constant modulation of a class's Poisson arrival rate.

    The class cycles through *states* ``0, 1, 2, ...``; in state ``i``
    the instantaneous arrival rate is ``arrival_rate * factors[i %
    len(factors)]`` and the state lasts ``dwell_seconds[i %
    len(dwell_seconds)]`` seconds -- exactly that long when
    ``stochastic`` is False (deterministic phase shifts), or an
    exponential dwell with that mean when True (an on/off MMPP when
    ``factors`` alternates a high and a low value).

    The Source realises the modulated process by *thinning* a Poisson
    process running at the peak rate, which is exact for
    piecewise-constant rates.  ``factors == (1.0,) * n`` degenerates to
    the plain homogeneous process, arrival times bit-identical to an
    unmodulated class.
    """

    #: Multiplicative rate factors, cycled over states (``0.0`` = off).
    factors: Tuple[float, ...]
    #: Dwell time per state, cycled independently of ``factors``
    #: (seconds; the mean dwell when ``stochastic``).
    dwell_seconds: Tuple[float, ...]
    #: Exponential dwells (MMPP bursts) instead of fixed phases.
    stochastic: bool = False

    @property
    def peak_factor(self) -> float:
        """The largest rate factor (the thinning envelope)."""
        return max(self.factors)

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if len(self.factors) < 2:
            raise ValueError("modulation needs at least two rate factors")
        if any(factor < 0.0 for factor in self.factors):
            raise ValueError(f"negative rate factor in {self.factors}")
        if self.peak_factor <= 0.0:
            raise ValueError("at least one rate factor must be positive")
        if not self.dwell_seconds:
            raise ValueError("modulation needs at least one dwell time")
        if any(dwell <= 0.0 for dwell in self.dwell_seconds):
            raise ValueError(f"dwell times must be positive, got {self.dwell_seconds}")


@dataclass(frozen=True)
class QueryClass:
    """One workload class (a row of the lower half of Table 2)."""

    #: Class name, used in per-class statistics.
    name: str
    #: ``QueryType``: :data:`HASH_JOIN` or :data:`EXTERNAL_SORT`.
    query_type: str
    #: ``RelGroup``: one group index for sorts, two for joins.  The
    #: smaller of a join's two chosen relations becomes the inner R.
    rel_groups: Tuple[int, ...]
    #: ``lambda``: mean arrival rate, queries/second (Poisson process).
    arrival_rate: float
    #: ``SRInterval``: slack ratios drawn uniformly from this range.
    slack_range: Tuple[float, float] = (2.5, 7.5)
    #: Optional bursty / phase-shifting arrival-rate modulation layered
    #: over the Poisson process (the paper's workloads are all
    #: homogeneous; generated scenarios are not).
    modulation: Optional[ArrivalModulation] = None

    def validate(self, num_groups: int) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.query_type not in (HASH_JOIN, EXTERNAL_SORT):
            raise ValueError(f"unknown query type {self.query_type!r}")
        expected = 2 if self.query_type == HASH_JOIN else 1
        if len(self.rel_groups) != expected:
            raise ValueError(
                f"class {self.name!r}: {self.query_type} needs {expected} relation "
                f"group(s), got {self.rel_groups}"
            )
        for group in self.rel_groups:
            if not 0 <= group < num_groups:
                raise ValueError(f"class {self.name!r}: group index {group} out of range")
        if self.arrival_rate < 0:
            raise ValueError("arrival rate must be non-negative")
        low, high = self.slack_range
        if not 0 < low <= high:
            raise ValueError(f"bad slack range {self.slack_range}")
        if self.modulation is not None:
            self.modulation.validate()


@dataclass(frozen=True)
class WorkloadParams:
    """Workload half of Table 2."""

    classes: Tuple[QueryClass, ...]
    #: ``F``: hash-table space overhead factor [Shap86].  The paper's
    #: worked example (max demand 1321 pages for an 1200-page inner
    #: relation) pins this at 1.1.
    fudge_factor: float = 1.1
    #: Result tuples produced per probing (outer) tuple; the paper does
    #: not vary this, so joins default to producing one output tuple
    #: per outer tuple.
    join_selectivity: float = 1.0

    def validate(self, num_groups: int) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if not self.classes:
            raise ValueError("workload needs at least one query class")
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names: {names}")
        for cls in self.classes:
            cls.validate(num_groups)
        if self.fudge_factor < 1.0:
            raise ValueError("fudge factor must be >= 1")
        if self.join_selectivity < 0:
            raise ValueError("join selectivity must be non-negative")


@dataclass(frozen=True)
class ResourceParams:
    """Table 3: the physical resource model."""

    #: ``CPUSpeed``: MIPS rating of the CPU.
    cpu_mips: float = 40.0
    #: ``NumDisks``.
    num_disks: int = 10
    #: ``SeekFactor`` in msec: seek over n tracks takes
    #: ``SeekFactor * sqrt(n)`` msec [Bitt88].
    seek_factor_ms: float = 0.617
    #: ``RotationTime``: one full rotation, msec.
    rotation_ms: float = 16.7
    #: ``NumCylinders`` per disk.
    num_cylinders: int = 1500
    #: ``CylinderSize``: pages per cylinder.
    cylinder_size: int = 90
    #: Pages that pass under the head in one rotation (a cylinder is
    #: ``cylinder_size / pages_per_track`` tracks).  Not in Table 3;
    #: chosen together with the sequential-continuation rule so a
    #: query's stand-alone time lands in the paper's Table 7 range
    #: (~25 ms per 6-page sequential block on an early-1990s ~32 KB
    #: track).
    pages_per_track: int = 6
    #: ``PageSize`` in bytes.
    page_size: int = 8192
    #: ``BlockSize``: pages fetched per sequential I/O that misses the
    #: disk cache (merge-phase reads are page-at-a-time).
    block_size: int = 6
    #: ``M``: total buffer pool, pages.
    memory_pages: int = 2560
    #: Per-disk prefetch cache, bytes (256 KBytes in the paper).
    disk_cache_bytes: int = 256 * 1024
    #: Draw rotational latency ~ U(0, RotationTime) when True;
    #: otherwise use the expected RotationTime/2 deterministically.
    stochastic_rotation: bool = True

    @property
    def cpu_rate(self) -> float:
        """CPU speed in instructions per second."""
        return self.cpu_mips * 1e6

    @property
    def rotation_s(self) -> float:
        """Full rotation time in seconds."""
        return self.rotation_ms / 1e3

    @property
    def transfer_s_per_page(self) -> float:
        """Transfer time for one page: a full track passes under the
        head in one rotation, so a page takes 1/pages_per_track of it."""
        return self.rotation_s / self.pages_per_track

    @property
    def disk_cache_pages(self) -> int:
        """Capacity of the per-disk prefetch cache, in pages."""
        return max(1, self.disk_cache_bytes // self.page_size)

    @property
    def pages_per_disk(self) -> int:
        """Total pages on one disk."""
        return self.num_cylinders * self.cylinder_size

    def seek_time(self, distance_cylinders: int) -> float:
        """Seconds to seek across ``distance_cylinders`` (0 -> 0)."""
        if distance_cylinders <= 0:
            return 0.0
        return self.seek_factor_ms * (distance_cylinders**0.5) / 1e3

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.cpu_mips <= 0:
            raise ValueError("CPU speed must be positive")
        if self.num_disks <= 0:
            raise ValueError("need at least one disk")
        if self.block_size <= 0 or self.block_size > self.cylinder_size:
            raise ValueError("block size must lie in [1, cylinder size]")
        if self.memory_pages <= 0:
            raise ValueError("buffer pool must be positive")
        if self.num_cylinders <= 0 or self.cylinder_size <= 0:
            raise ValueError("disk geometry must be positive")
        if self.pages_per_track <= 0 or self.pages_per_track > self.cylinder_size:
            raise ValueError("pages_per_track must lie in [1, cylinder_size]")


@dataclass(frozen=True)
class CPUCosts:
    """Table 4: CPU instructions per operation."""

    start_io: int = 1_000
    initiate_query: int = 40_000
    terminate_query: int = 10_000
    hash_insert: int = 100  # hash tuple and insert into hash table
    hash_probe: int = 200  # hash tuple and probe hash table
    hash_output: int = 100  # hash tuple and copy to output buffer
    sort_copy: int = 64  # copy a tuple to output buffer
    key_compare: int = 50  # compare two keys


@dataclass(frozen=True)
class SimulationConfig:
    """A complete, runnable experiment description."""

    database: DatabaseParams
    workload: WorkloadParams
    resources: ResourceParams = field(default_factory=ResourceParams)
    pmm: PMMParams = field(default_factory=PMMParams)
    cpu_costs: CPUCosts = field(default_factory=CPUCosts)
    #: Random seed; every stochastic stream derives from it.
    seed: int = 1
    #: Simulated horizon in seconds (the paper runs 10 hours).
    duration: float = 36_000.0
    #: Optional early stop after this many query departures.
    max_completions: Optional[int] = None
    #: Place temp files on the operand's disk ("local") or spread them
    #: round-robin over all disks ("round_robin").
    temp_placement: str = "local"
    #: Abort queries at their deadline (firm RTDBS semantics [Hari90]).
    firm_deadlines: bool = True

    def validate(self) -> "SimulationConfig":
        """Validate all nested parameter tables; returns self."""
        self.database.validate()
        self.workload.validate(self.database.num_groups)
        self.resources.validate()
        self.pmm.validate()
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.temp_placement not in ("local", "round_robin"):
            raise ValueError(f"unknown temp placement {self.temp_placement!r}")
        return self

    def with_overrides(self, **changes) -> "SimulationConfig":
        """A copy with top-level fields replaced (dataclass ``replace``)."""
        return replace(self, **changes)

    @property
    def tuples_per_page(self) -> int:
        """Tuples that fit on one page."""
        return max(1, self.resources.page_size // self.database.tuple_size)
