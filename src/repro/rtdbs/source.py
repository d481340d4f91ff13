"""The query generator and the Source: workload, deadlines, statistics.

Each query class submits queries following a Poisson process (or a
thinned, rate-modulated one) with its own arrival rate.  A new query
draws its operand relation(s) from the class's relation group(s) (for
joins, the smaller of the two chosen relations becomes the inner
relation R) and receives a deadline

    Deadline = StandAlone * SlackRatio + Arrival

where *StandAlone* is the closed-form stand-alone execution time at the
query's maximum allocation and *SlackRatio* ~ U(SRInterval)
(Section 4.1).

:class:`QueryGenerator` is the one implementation of that query stream.
Both hosts drive it: the simulated :class:`Source` waits out each
arrival gap on the simulator clock, and
:func:`repro.serve.workload.build_schedule` sums the same gaps ahead of
time into the live gateway's open-loop schedule.  Every class draws
from its own named streams (common random numbers), so the two hosts
see the same arrivals, operands, slacks and deadlines.  Each operand
shape is priced once: the cost model memoizes stand-alone times.

The :class:`Source` also collects every statistic the paper reports:
miss ratios (global, per class, per time window), admission waiting /
execution / response time averages, and memory-fluctuation counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.policies.base import DepartureRecord
from repro.queries.base import MemoryGrant, Operator, OperatorContext
from repro.queries.cost_model import StandAloneCostModel
from repro.queries.hash_join import HashJoinOperator
from repro.queries.sort import ExternalSortOperator
from repro.rtdbs.config import EXTERNAL_SORT, HASH_JOIN, QueryClass, SimulationConfig
from repro.rtdbs.database import Database, Relation
from repro.rtdbs.query_manager import QueryJob, QueryManager
from repro.sim.monitor import Tally
from repro.sim.rng import Streams
from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class Arrival:
    """One generated query arrival (all times in simulated seconds)."""

    qid: int
    class_name: str
    query_type: str
    arrival: float
    deadline: float
    standalone: float
    #: Operand relation (the inner/building relation for joins).
    inner: Relation
    #: Probing relation for joins, ``None`` for sorts.
    outer: Optional[Relation]
    temp_disk: int
    #: Owning tenant ("" = untagged single-tenant traffic).  Tenants
    #: map onto query classes (the multitenant scenario family names
    #: one class per tenant); per-tenant outcomes land in
    #: :attr:`repro.serve.gateway.LiveReport.per_tenant`.
    tenant: str = ""

    @property
    def time_constraint(self) -> float:
        return self.deadline - self.arrival


def make_operator(
    arrival: Arrival,
    context: OperatorContext,
    grant: MemoryGrant,
    config: SimulationConfig,
) -> Operator:
    """Instantiate the operator that executes one arrival."""
    if arrival.query_type == HASH_JOIN:
        return HashJoinOperator(
            context,
            grant,
            arrival.inner,
            arrival.outer,
            fudge_factor=config.workload.fudge_factor,
            selectivity=config.workload.join_selectivity,
            temp_disk=arrival.temp_disk,
        )
    return ExternalSortOperator(
        context, grant, arrival.inner, temp_disk=arrival.temp_disk
    )


class QueryGenerator:
    """The query stream of one config: arrival instants, per-arrival
    draws, and memoized stand-alone prices.

    Arrival instants come from :meth:`arrival_steps`, one lazy step
    sequence per class; :meth:`draw` turns an accepted instant into an
    :class:`Arrival`.  Query ids and the round-robin temp-disk cursor
    are global, so callers draw in global arrival order.
    """

    def __init__(self, config: SimulationConfig, database: Database, streams: Streams):
        self.config = config
        self.database = database
        self.streams = streams
        self.cost_model = StandAloneCostModel.from_config(config)
        #: Queries drawn so far (the next query id).
        self.drawn = 0
        self._temp_disk_cursor = 0
        #: Each class's (relation picker, slack stream), looked up once.
        self._class_streams = {
            cls.name: (
                streams.stream(f"relations.{cls.name}"),
                streams.stream(f"slack.{cls.name}"),
            )
            for cls in config.workload.classes
        }

    def arrival_steps(
        self,
        query_class: QueryClass,
        rate: Callable[[], float],
        start: float = 0.0,
    ) -> Iterator[Tuple[float, bool]]:
        """Yield ``(gap, arrives)`` forever: wait ``gap`` seconds, then
        a query of the class arrives if ``arrives``.

        ``rate()`` is read before each gap is drawn, so a caller can
        change the class's base rate between steps; while it is zero
        the steps are re-activation polls.  A modulated class is
        thinned from a peak-rate candidate process: each candidate is
        accepted with probability ``factor(now) / peak_factor`` --
        exact for the piecewise-constant rates an
        :class:`~repro.rtdbs.config.ArrivalModulation` describes.  The
        state path (phase boundaries, or MMPP dwell draws) comes from
        its own ``modulation.<class>`` stream, independent of the
        candidate process and of every policy decision: for a given
        config the arrival sequence is identical under every policy.
        ``start`` is the clock reading of the first step; the state
        path is tracked by summing gaps onto it, exactly as a
        simulator clock advances.
        """
        arrivals = self.streams.stream(f"arrivals.{query_class.name}")
        modulation = query_class.modulation
        peak = 1.0 if modulation is None else modulation.peak_factor
        poll = max(1.0, 10.0 / max(query_class.arrival_rate * peak, 1e-9))
        if modulation is not None:
            state_stream = self.streams.stream(f"modulation.{query_class.name}")
            factors = modulation.factors
            dwells = modulation.dwell_seconds
            stochastic = modulation.stochastic

            def dwell(state: int) -> float:
                mean = dwells[state % len(dwells)]
                return state_stream.exponential(mean) if stochastic else mean

            state = 0
            next_toggle = dwell(0)
        now = start
        while True:
            peak_rate = rate() * peak
            if peak_rate <= 0.0:
                # Disabled: poll for re-activation.
                now += poll
                yield poll, False
                continue
            gap = arrivals.exponential(1.0 / peak_rate)
            now += gap
            if modulation is None:
                yield gap, True
                continue
            while now >= next_toggle:
                state += 1
                next_toggle += dwell(state)
            factor = factors[state % len(factors)]
            yield gap, factor >= peak or state_stream.uniform(0.0, 1.0) * peak < factor

    def draw(self, query_class: QueryClass, now: float) -> Arrival:
        """The next query: a ``query_class`` arrival at instant ``now``."""
        qid = self.drawn
        self.drawn += 1
        picker, slack_stream = self._class_streams[query_class.name]
        database = self.database
        groups = query_class.rel_groups
        if query_class.query_type == HASH_JOIN:
            first = database.pick_relation(groups[0], picker)
            second = database.pick_relation(groups[1], picker)
            inner, outer = (
                (first, second) if first.pages <= second.pages else (second, first)
            )
            standalone = self.cost_model.hash_join_standalone(inner.pages, outer.pages)
        elif query_class.query_type == EXTERNAL_SORT:
            inner = database.pick_relation(groups[0], picker)
            outer = None
            standalone = self.cost_model.sort_standalone(inner.pages)
        else:  # pragma: no cover - validated at config time
            raise ValueError(f"unknown query type {query_class.query_type!r}")
        if self.config.temp_placement == "local":
            temp_disk = inner.disk
        else:
            temp_disk = self._temp_disk_cursor
            self._temp_disk_cursor = (temp_disk + 1) % self.config.resources.num_disks
        slack = slack_stream.uniform(*query_class.slack_range)
        return Arrival(
            qid=qid,
            class_name=query_class.name,
            query_type=query_class.query_type,
            arrival=now,
            deadline=now + standalone * slack,
            standalone=standalone,
            inner=inner,
            outer=outer,
            temp_disk=temp_disk,
        )


@dataclass
class ClassStats:
    """Per-class accumulators."""

    served: int = 0
    missed: int = 0
    waiting: Tally = field(default_factory=Tally)
    execution: Tally = field(default_factory=Tally)
    response: Tally = field(default_factory=Tally)
    fluctuations: Tally = field(default_factory=Tally)

    @property
    def miss_ratio(self) -> float:
        """Fraction of this class's served queries that missed."""
        return self.missed / self.served if self.served else 0.0

    def observe(self, record: DepartureRecord) -> None:
        """Fold one departure into the accumulators.

        Waiting/execution/response times are tallied over *completed*
        queries, matching the paper's Table 7 (missed queries are
        aborted mid-flight and have no meaningful completion timings).
        """
        self.served += 1
        if record.missed:
            self.missed += 1
            return
        self.waiting.record(record.waiting_time)
        self.execution.record(record.execution_time)
        self.response.record(record.waiting_time + record.execution_time)
        self.fluctuations.record(float(record.memory_fluctuations))

    def reset(self) -> None:
        """Zero every accumulator (end of warm-up)."""
        self.served = 0
        self.missed = 0
        self.waiting.reset()
        self.execution.reset()
        self.response.reset()
        self.fluctuations.reset()


class Source:
    """Drives the query generator on the simulator clock and collects
    statistics."""

    def __init__(
        self,
        sim: Simulator,
        config: SimulationConfig,
        query_manager: QueryManager,
        operator_context: OperatorContext,
        generator: QueryGenerator,
    ):
        self.sim = sim
        self.config = config
        self.query_manager = query_manager
        self.operator_context = operator_context
        self.generator = generator

        self.stats: Dict[str, ClassStats] = {
            cls.name: ClassStats() for cls in config.workload.classes
        }
        self.overall = ClassStats()
        #: Raw departure log: (time, class, missed, waiting, execution,
        #: fluctuations) -- windowed series (Figures 12-14) are computed
        #: from this after the run.
        self.departure_log: List[tuple] = []

        query_manager.departure_listeners.append(self._on_departure)
        #: Mutable per-class arrival-rate overrides, keyed by class
        #: name; the workload-change experiment (Section 5.3) flips
        #: these mid-run.
        self.rate_overrides: Dict[str, float] = {}

    @property
    def arrivals(self) -> int:
        """Queries generated so far (arrivals, not departures)."""
        return self.generator.drawn

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn one arrival process per workload class."""
        for query_class in self.config.workload.classes:
            self.sim.process(
                self._arrival_process(query_class), name=f"source-{query_class.name}"
            )

    def set_rate(self, class_name: str, rate: float) -> None:
        """Override a class's arrival rate mid-run (0 disables it)."""
        if class_name not in self.stats:
            raise KeyError(f"unknown class {class_name!r}")
        self.rate_overrides[class_name] = rate

    def reset_statistics(self) -> None:
        """Drop accumulated statistics (end of warm-up)."""
        for stats in self.stats.values():
            stats.reset()
        self.overall.reset()
        self.departure_log.clear()

    # ------------------------------------------------------------------
    def _arrival_process(self, query_class: QueryClass):
        name = query_class.name
        default = query_class.arrival_rate
        overrides = self.rate_overrides
        steps = self.generator.arrival_steps(
            query_class, lambda: overrides.get(name, default), self.sim.now
        )
        for gap, arrives in steps:
            yield self.sim.timeout(gap)
            if arrives:
                self._submit_query(query_class)

    def _submit_query(self, query_class: QueryClass) -> None:
        arrival = self.generator.draw(query_class, self.sim.now)
        grant = MemoryGrant(0)
        self.query_manager.submit(
            QueryJob(
                qid=arrival.qid,
                class_name=arrival.class_name,
                operator=make_operator(
                    arrival, self.operator_context, grant, self.config
                ),
                grant=grant,
                arrival=arrival.arrival,
                deadline=arrival.deadline,
                standalone=arrival.standalone,
            )
        )

    # ------------------------------------------------------------------
    def _on_departure(self, record: DepartureRecord) -> None:
        self.overall.observe(record)
        self.stats[record.class_name].observe(record)
        self.departure_log.append(
            (
                record.departure,
                record.class_name,
                record.missed,
                record.waiting_time,
                record.execution_time,
                record.memory_fluctuations,
            )
        )
