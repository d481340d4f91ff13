"""The complete simulated RTDBS (the paper's Figure 2), wired together.

:class:`RTDBSystem` builds the five model components around a memory
policy (PMM or a baseline) and runs the simulation;
:class:`SimulationResult` packages every statistic the paper's
evaluation section reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.devices import BufferPool
from repro.policies.base import MemoryPolicy
from repro.policies.registry import make_policy
from repro.queries.base import OperatorContext
from repro.rtdbs.config import SimulationConfig
from repro.rtdbs.cpu import CPU
from repro.rtdbs.database import Database
from repro.rtdbs.disk import Disk
from repro.rtdbs.query_manager import QueryManager
from repro.rtdbs.source import QueryGenerator, Source
from repro.sim.rng import Streams
from repro.sim.simulator import Simulator


@dataclass
class ClassResult:
    """Per-class outcome summary."""

    served: int
    missed: int
    miss_ratio: float
    avg_waiting: float
    avg_execution: float
    avg_response: float
    avg_fluctuations: float


@dataclass
class SimulationResult:
    """Everything the paper's figures and tables are drawn from.

    The experiment engine ships results across process-pool workers and
    stores them in a persistent on-disk cache, so every field must stay
    plain picklable data (numbers, strings, tuples/lists/dicts of
    those) -- no simulator handles, no callables.
    """

    policy: str
    simulated_seconds: float
    arrivals: int
    served: int
    completed: int
    missed: int
    miss_ratio: float
    #: Averages over completed queries (the paper's Table 7).
    avg_waiting: float
    avg_execution: float
    avg_response: float
    #: Average memory-allocation changes per completed query (Fig. 7).
    avg_fluctuations: float
    cpu_utilization: float
    disk_utilizations: Tuple[float, ...]
    #: Time-averaged observed MPL (Figures 5 and 10).
    observed_mpl: float
    per_class: Dict[str, ClassResult] = field(default_factory=dict)
    #: PMM introspection (empty for static policies): (time, MPL).
    pmm_mpl_trace: List[Tuple[float, float]] = field(default_factory=list)
    pmm_mode_trace: List[Tuple[float, str]] = field(default_factory=list)
    pmm_restarts: int = 0
    #: Raw departure log: (time, class, missed, waiting, execution,
    #: fluctuations).
    departure_log: List[tuple] = field(default_factory=list)
    buffer_hits: int = 0
    buffer_misses: int = 0
    disk_cache_hits: int = 0

    @property
    def avg_disk_utilization(self) -> float:
        """Mean utilisation across the disk farm."""
        if not self.disk_utilizations:
            return 0.0
        return sum(self.disk_utilizations) / len(self.disk_utilizations)

    def equals_exactly(self, other: "SimulationResult") -> bool:
        """Bit-exact equality, tolerating NaN statistics.

        Dataclass ``==`` is the natural comparison, but a run with zero
        completions reports NaN averages and ``NaN != NaN`` would make
        two genuinely identical results compare unequal.  Comparing the
        full ``repr`` sidesteps that (``repr(nan) == repr(nan)``) while
        staying exact for every finite float -- ``repr`` round-trips
        Python floats losslessly.  The engine's serial-vs-parallel and
        pickle round-trip guarantees are asserted with this.
        """
        if not isinstance(other, SimulationResult):
            return False
        return repr(self) == repr(other)

    def windowed_miss_ratio(
        self, window_seconds: float, class_name: Optional[str] = None
    ) -> List[Tuple[float, float]]:
        """Miss-ratio time series over fixed windows (Figures 12-14)."""
        if window_seconds <= 0:
            raise ValueError("window must be positive")
        buckets: Dict[int, List[int]] = {}
        for entry in self.departure_log:
            time, cls, missed = entry[0], entry[1], entry[2]
            if class_name is not None and cls != class_name:
                continue
            bucket = int(time // window_seconds)
            served_missed = buckets.setdefault(bucket, [0, 0])
            served_missed[0] += 1
            served_missed[1] += 1 if missed else 0
        return [
            ((bucket + 0.5) * window_seconds, counts[1] / counts[0])
            for bucket, counts in sorted(buckets.items())
        ]


class RTDBSystem:
    """Builds and runs one simulated RTDBS experiment.

    ``invariants`` enables the runtime conservation-law checks of
    :mod:`repro.rtdbs.invariants`: pass ``True`` (or a prepared
    :class:`~repro.rtdbs.invariants.InvariantChecker`) to have every
    allocation, ledger update, departure, and the final result asserted
    against the system's accounting laws.  Off by default -- the checks
    exist for tests and the scenario fuzz harness.
    """

    def __init__(
        self,
        config: SimulationConfig,
        policy: Union[str, MemoryPolicy],
        invariants=None,
    ):
        config.validate()
        self.config = config
        self.policy: MemoryPolicy = (
            make_policy(policy, config.pmm) if isinstance(policy, str) else policy
        )
        self.sim = Simulator()
        self.streams = Streams(config.seed)
        resources = config.resources
        self.cpu = CPU(self.sim, resources)
        self.disks = [
            Disk(self.sim, index, resources, self.streams.stream(f"rotation.{index}"))
            for index in range(resources.num_disks)
        ]
        self.database = Database(config.database, resources, self.streams)
        self.buffers = BufferPool(resources.memory_pages)
        self.operator_context = OperatorContext(
            tuples_per_page=config.tuples_per_page,
            block_size=resources.block_size,
            costs=config.cpu_costs,
            allocate_temp=lambda disk, pages: self.database.temp_space(disk).allocate(pages),
            release_temp=lambda temp: self.database.temp_space(temp.disk).release(temp),
        )
        generator = QueryGenerator(config, self.database, self.streams)
        self.cost_model = generator.cost_model
        self.query_manager = QueryManager(
            self.sim, config, self.policy, self.cpu, self.disks, self.buffers
        )
        self.source = Source(
            self.sim, config, self.query_manager, self.operator_context, generator
        )
        self._warmup_snapshots: Optional[Dict[str, object]] = None
        #: Runtime conservation-law checker (None = checks disabled).
        self.invariants = None
        if invariants:
            from repro.rtdbs.invariants import InvariantChecker

            checker = (
                invariants
                if isinstance(invariants, InvariantChecker)
                else InvariantChecker()
            )
            checker.attach(self)

    # ------------------------------------------------------------------
    def schedule(self, time: float, action: Callable[[], None]) -> None:
        """Run ``action()`` at the given simulation time (experiment
        drivers use this for mid-run workload changes)."""
        if time < self.sim.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.sim.now}")
        timer = self.sim.timeout(time - self.sim.now)
        timer.callbacks.append(lambda _evt: action())

    def run(
        self,
        duration: Optional[float] = None,
        max_completions: Optional[int] = None,
        warmup: float = 0.0,
    ) -> SimulationResult:
        """Run the experiment and summarise it.

        ``duration`` defaults to the config's horizon;
        ``max_completions`` stops early after that many departures;
        ``warmup`` discards statistics gathered before that time (the
        policy's adaptive state is *not* reset -- warm-up only affects
        reporting).
        """
        horizon = duration if duration is not None else self.config.duration
        cap = (
            max_completions
            if max_completions is not None
            else self.config.max_completions
        )
        if cap is not None:
            self.query_manager.max_departures = cap
            self.query_manager.stop_event = self.sim.event()
        if warmup > 0.0:
            if warmup >= horizon:
                raise ValueError("warm-up must end before the horizon")
            self.schedule(warmup, self._end_warmup)
        self.source.start()

        stop_event = self.query_manager.stop_event
        self.sim.run(until=horizon, stop=stop_event)
        result = self._build_result(warmup)
        if self.invariants is not None:
            self.invariants.check_final(self, result)
        return result

    # ------------------------------------------------------------------
    def _end_warmup(self) -> None:
        self.source.reset_statistics()
        self._warmup_snapshots = {
            "cpu": self.cpu.busy.snapshot(),
            "disks": [disk.busy.snapshot() for disk in self.disks],
            "mpl": self.query_manager.mpl_monitor.snapshot(),
        }

    def _utilizations(self) -> Tuple[float, Tuple[float, ...], float]:
        snapshots = self._warmup_snapshots
        if snapshots is None:
            cpu = self.cpu.busy.mean()
            disks = tuple(disk.busy.mean() for disk in self.disks)
            mpl = self.query_manager.mpl_monitor.mean()
        else:
            cpu = self.cpu.busy.mean_since(snapshots["cpu"])
            disks = tuple(
                disk.busy.mean_since(snapshot)
                for disk, snapshot in zip(self.disks, snapshots["disks"])
            )
            mpl = self.query_manager.mpl_monitor.mean_since(snapshots["mpl"])
        return cpu, disks, mpl

    def _build_result(self, warmup: float) -> SimulationResult:
        source = self.source
        overall = source.overall
        cpu_util, disk_utils, observed_mpl = self._utilizations()
        per_class = {
            name: ClassResult(
                served=stats.served,
                missed=stats.missed,
                miss_ratio=stats.miss_ratio,
                avg_waiting=stats.waiting.mean(),
                avg_execution=stats.execution.mean(),
                avg_response=stats.response.mean(),
                avg_fluctuations=stats.fluctuations.mean(),
            )
            for name, stats in source.stats.items()
        }
        pmm_trace: List[Tuple[float, float]] = []
        pmm_modes: List[Tuple[float, str]] = []
        pmm_restarts = 0
        if hasattr(self.policy, "mpl_trace"):
            pmm_trace = list(self.policy.mpl_trace)  # type: ignore[attr-defined]
            pmm_modes = list(self.policy.mode_trace)  # type: ignore[attr-defined]
            pmm_restarts = getattr(self.policy, "restarts", 0)
        return SimulationResult(
            policy=self.policy.name,
            simulated_seconds=self.sim.now - warmup,
            arrivals=source.arrivals,
            served=overall.served,
            completed=overall.served - overall.missed,
            missed=overall.missed,
            miss_ratio=overall.miss_ratio,
            avg_waiting=overall.waiting.mean(),
            avg_execution=overall.execution.mean(),
            avg_response=overall.response.mean(),
            avg_fluctuations=overall.fluctuations.mean(),
            cpu_utilization=cpu_util,
            disk_utilizations=disk_utils,
            observed_mpl=observed_mpl,
            per_class=per_class,
            pmm_mpl_trace=pmm_trace,
            pmm_mode_trace=pmm_modes,
            pmm_restarts=pmm_restarts,
            departure_log=list(source.departure_log),
            buffer_hits=self.buffers.cache.hits,
            buffer_misses=self.buffers.cache.misses,
            disk_cache_hits=sum(disk.cache.hits for disk in self.disks),
        )
