"""The benchmark's three workloads, their correctness checks and ledgers.

Each workload's shape is fixed here; ``seed`` only becomes the
``config.seed`` of each row (arrival, relation and slack streams) plus
the tenant tags, and the program sees nothing but the generated inputs.
Live runs replay one schedule per row (:func:`replay_rows`).

* ``live-steady`` -- paper Section 5.1 baseline, policy ``pmm``, replayed
  open-loop through one in-process ``LiveGateway.run_schedule``.
* ``live-overload`` -- paper Section 5.6 multiclass, arrivals compressed
  with slacks kept, 8 tenants, policy ``minmax``, over one TCP
  connection through a ``ShardRouter`` in front of two shed-enabled
  ``LiveServer`` shards.
* ``des-sweep`` -- the Figure 3 grid (five rates x six policies) through
  ``run_many(cache=False, jobs=1)``, once over as many config seeds as
  fit the time, in reference seconds (see :func:`reference_slice`).

Every run returns an :class:`Outcome`: operations attempted and failed,
the named correctness violations, header facts naming the inputs, and
either the end-to-end metrics (untraced) or the per-layer ledger
(traced).
"""

from __future__ import annotations

import asyncio
import heapq
import json
import random
import resource
import selectors
import statistics
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.broker import MemoryBroker
from repro.core.devices import DeviceCore
from repro.experiments.runner import ExperimentSettings, RunSpec, run_many
from repro.policies import DEFAULT_POLICIES
from repro.queries.base import Operator
from repro.rtdbs.database import Database
from repro.rtdbs.system import RTDBSystem
from repro.scenarios import scenario_hash
from repro.serve.dataplane import LiveBufferPool, LiveDisk, PageStore
from repro.serve.gateway import SHED, LiveGateway, PriorityWorkerGate
from repro.serve.router import LINE_LIMIT, ShardLink, ShardRouter
from repro.serve.server import LiveServer
from repro.serve.shard import shard_config
from repro.serve.workload import build_schedule, submit_request
from repro.sim.rng import Streams
from repro.workloads.presets import baseline, multiclass

from tracer import LAYERS, Tracer, percentile, perf, task_qid

#: The seed whose DES grid counts are pinned in ``pins.json``.
DEFAULT_SEED = 1
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Set-ups per run; the reported ``setup_s`` is their median.
SETUP_REPEATS = 9

#: Wall seconds one :func:`reference_slice` takes on the reference host
#: (one unloaded 2.1 GHz Xeon core).  CPU-bound timings -- every
#: ``setup_s`` and the whole of ``des-sweep`` -- are reported in
#: *reference seconds*: measured seconds divided by the host's
#: :func:`slowness` measured right before them.
REFERENCE_SLICE_S = 0.002
REFERENCE_STEPS = 3000

# -- both live workloads ------------------------------------------------
#: Wall seconds per row.  A live run replays one schedule per row, each
#: from its own config seed derived from ``--seed`` (``64*seed + row``):
#: a seed's relation layout sets its latency for the whole replay (on
#: live-overload the same seeds' response p50 read 36-55 ms at 10 s
#: and 40-54 ms at 30 s, in the same order), so five 6 s rows average
#: five layouts where one 30 s replay repeated one.
LIVE_ROW_SECONDS = 6.0
LIVE_SEED_STRIDE = 64

# -- live-steady ---------------------------------------------------------
STEADY_POLICY = "pmm"
#: Wall seconds per simulated second (the committed live-replay probe's scale).
STEADY_TIME_SCALE = 0.01

# -- live-overload -------------------------------------------------------
OVERLOAD_POLICY = "minmax"
OVERLOAD_TIME_SCALE = 0.1
#: Arrival instants are divided by this factor; slacks are kept.
OVERLOAD_COMPRESS = 2.0
TENANTS = 8
SHARDS = 2
#: The router's hash-ring seed is a deployment setting, not an input:
#: seeding it from the workload seed swung the tenant split between
#: shards (and with it the on-time ratio) by +-20% from seed to seed.
RING_SEED = 0

# -- des-sweep -----------------------------------------------------------
DES_RATES = (0.04, 0.05, 0.06, 0.07, 0.08)
DES_POLICIES = DEFAULT_POLICIES
#: Config seeds (grid rows) per second of run.  One seed's grid work
#: varies by about +-25% between seeds (its relation layout and arrival
#: bursts set the load), so a run sweeps as many seeds derived from its
#: own as fit its time, each once: 20 at 30 s.  Ten such runs spread
#: (quartile distance over median) 4-7% in ``sims_per_s`` and 10-15% in
#: ``response_p99_ms``; with 8 seeds each repeated, 27% and 30%.
DES_ROWS_PER_SECOND = 0.67
#: Config seeds set aside per ``--seed``, so no two seeds share a row.
DES_SEED_STRIDE = 64
#: Each grid point runs until this many departures (the horizon below
#: is only a cap): a fixed amount of work per point instead of a fixed
#: simulated time whose work depends on the seed.
DES_COMPLETIONS = 15
DES_HORIZON = 36_000.0
#: Building the grid's run specs takes a few milliseconds, so a run
#: times more of them than of the live set-ups.
DES_SETUP_REPEATS = 51


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    header: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: The traced run's ledger (``None`` when untraced).
    ledger: Optional["Ledger"] = None
    #: DES: ``[arrivals, served, missed, events]`` by point name.
    grid_counts: Optional[Dict[str, list]] = None

    def check(self, ok: bool, what: str) -> None:
        """A failed correctness check counts as one failed operation."""
        if not ok:
            self.fail(1, what)

    def fail(self, operations: int, what: str) -> None:
        if operations:
            self.failed += operations
            self.violations.append(what)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# the host-speed reference
# ----------------------------------------------------------------------
class _Slot:
    __slots__ = ("key", "count")

    def __init__(self, key: int) -> None:
        self.key = key
        self.count = 0


def reference_slice() -> float:
    """Run a fixed piece of interpreter work shaped like the simulator's
    hot path -- a heap-ordered event loop updating objects kept in a
    dict -- and return its wall seconds.

    It calls no program code, so no change to the program moves it,
    while a shared host that is busier or slower at the moment slows it
    as much as the program: on a 2-core shared host the raw time of one
    DES grid swung by +-12% between repeats of the same grid, its time
    over the interleaved slices by +-1%."""
    start = perf()
    heap: list = []
    slots: Dict[int, _Slot] = {}
    now = 0.0
    state = 12345
    for step in range(REFERENCE_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (now + (state % 1000) * 0.001, step))
        if len(heap) > 48:
            now, key = heapq.heappop(heap)
            slot = slots.get(key & 255)
            if slot is None:
                slot = slots[key & 255] = _Slot(key)
            slot.count += 1
    return perf() - start


def slowness() -> float:
    """How many times slower than the reference host this one runs now."""
    return reference_slice() / REFERENCE_SLICE_S


# ----------------------------------------------------------------------
# the benchmark-owned event loop
# ----------------------------------------------------------------------
class TimingSelector(selectors.DefaultSelector):
    """The default selector, timing how long the loop sleeps in it."""

    def __init__(self) -> None:
        super().__init__()
        self.idle = 0.0

    def select(self, timeout=None):
        start = perf()
        try:
            return super().select(timeout)
        finally:
            self.idle += perf() - start


class LagProbe:
    """A periodic ``call_at`` tick recording how late it fires."""

    INTERVAL = 0.005

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self.lags: List[float] = []
        self._due = 0.0
        self._handle = None

    def start(self) -> None:
        self._due = self.loop.time() + self.INTERVAL
        self._handle = self.loop.call_at(self._due, self._tick)

    def _tick(self) -> None:
        now = self.loop.time()
        self.lags.append(now - self._due)
        self._due = now + self.INTERVAL
        self._handle = self.loop.call_at(self._due, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()


def run_on_timed_loop(main):
    """Run ``main(selector)`` on a fresh loop built on a timing selector."""
    selector = TimingSelector()
    loop = asyncio.SelectorEventLoop(selector)
    asyncio.set_event_loop(loop)
    try:
        return loop.run_until_complete(main(selector))
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        asyncio.set_event_loop(None)
        loop.close()


async def pace(loop, target: float) -> None:
    """Sleep until the loop clock reaches ``target`` with whole-ms
    floors, as the gateway's own replay does (the stdlib selector
    rounds timeouts up to whole milliseconds)."""
    while True:
        delay = target - loop.time()
        if delay <= 0.0002:
            return
        await asyncio.sleep(int(delay * 1000.0) * 0.001)


# ----------------------------------------------------------------------
# live replays
# ----------------------------------------------------------------------
@dataclass
class Replay:
    """One live replay's raw observations."""

    attempted: int = 0
    #: Wall seconds from due time to answer, per on-time answer.
    response_s: List[float] = field(default_factory=list)
    #: Wall seconds from the first due time to the last answer.
    wall: float = 0.0
    #: Wall seconds the loop spent outside ``select`` during the replay.
    busy: float = 0.0
    loop_lags: List[float] = field(default_factory=list)
    #: Client-side lateness of each send (routed replays only).
    send_lags: List[float] = field(default_factory=list)
    gateways: List[LiveGateway] = field(default_factory=list)
    migrations: int = 0
    #: Client round trips keyed by ``(shard, qid)`` (routed replays).
    round_trips: Dict[tuple, float] = field(default_factory=dict)
    #: Every set-up's reference seconds.
    setups: List[float] = field(default_factory=list)
    #: Disk-seconds of wall time: each row's wall times its disk count.
    disk_wall: float = 0.0

    @property
    def ontime(self) -> int:
        return len(self.response_s)

    def absorb(self, row: "Replay") -> None:
        """Add one row's replay to this run's."""
        self.attempted += row.attempted
        self.response_s += row.response_s
        self.wall += row.wall
        self.busy += row.busy
        self.loop_lags += row.loop_lags
        self.send_lags += row.send_lags
        self.gateways += row.gateways
        self.migrations += row.migrations
        self.round_trips.update(row.round_trips)
        self.setups += row.setups
        self.disk_wall += row.wall * sum(len(g.disks) for g in row.gateways)


def live_rows(seed: int, seconds: float):
    """The config seeds a live run of ``seconds`` replays, one row each,
    and the wall seconds of each row."""
    rows = max(1, round(seconds / LIVE_ROW_SECONDS))
    return range(seed * LIVE_SEED_STRIDE, seed * LIVE_SEED_STRIDE + rows), seconds / rows


def replay_rows(
    replayer, seed: int, seconds: float, outcome: Outcome, ledger: Optional["Ledger"] = None
):
    """Replay every row of a live run in turn; returns ``(replay,
    configs)`` with the rows' observations added together."""
    replay = Replay()
    configs = []
    seeds, row_seconds = live_rows(seed, seconds)
    for row, config_seed in enumerate(seeds):
        observed, config = replayer(config_seed, row_seconds, outcome, ledger, row)
        replay.absorb(observed)
        configs.append(config)
    return replay, configs


def _check_gateway(outcome: Outcome, gateway: LiveGateway, label: str) -> None:
    """Conservation laws that must hold once a gateway has closed."""
    report = gateway.report
    outcome.check(
        report.arrivals == report.served + report.shed,
        f"{label}: arrivals {report.arrivals} != served {report.served}"
        f" + shed {report.shed}",
    )
    for tenant, stats in sorted(report.per_tenant.items()):
        outcome.check(
            stats.arrivals == stats.served + stats.shed,
            f"{label} tenant {tenant}: arrivals {stats.arrivals} != served"
            f" {stats.served} + shed {stats.shed}",
        )
    for index, disk in enumerate(gateway.disks):
        outcome.check(
            disk.chunks_submitted == disk.chunks_served + disk.chunks_cancelled,
            f"{label} disk {index}: chunks submitted {disk.chunks_submitted}"
            f" != served {disk.chunks_served} + cancelled"
            f" {disk.chunks_cancelled}",
        )


def steady_config(seed: int, seconds: float):
    return baseline(
        arrival_rate=0.06,
        scale=0.1,
        seed=seed,
        duration=seconds / STEADY_TIME_SCALE,
    )


def replay_steady(
    seed: int,
    seconds: float,
    outcome: Outcome,
    ledger: Optional["Ledger"] = None,
    row: int = 0,
):
    """Replay the baseline schedule through one gateway's own replay
    path; returns ``(replay, config)``.  ``row`` labels its spans."""
    replay = Replay()
    for _ in range(SETUP_REPEATS):
        slow = slowness()
        start = perf()
        config = steady_config(seed, seconds)
        gateway = LiveGateway(config, STEADY_POLICY, time_scale=STEADY_TIME_SCALE)
        schedule = build_schedule(config, gateway.dataplane.database)
        replay.setups.append((perf() - start) / slow)
    replay.attempted = len(schedule.arrivals)
    replay.gateways.append(gateway)
    answers: Counter = Counter()
    if ledger is not None:
        ledger.attach_gateway(gateway, row)

    async def main(selector):
        loop = asyncio.get_running_loop()
        probe = LagProbe(loop)
        last_answer = [0.0]

        def on_departure(record) -> None:
            answers[record.qid] += 1
            last_answer[0] = perf()
            deadline = record.arrival + record.time_constraint
            if not record.missed and record.departure <= deadline:
                late = gateway.sim_now() - record.arrival
                replay.response_s.append(late * STEADY_TIME_SCALE)

        gateway.departure_listeners.append(on_departure)
        idle = selector.idle
        probe.start()
        start = perf()
        try:
            await gateway.run_schedule(schedule)
        except Exception as error:  # a gateway failure or a grant leak
            outcome.check(False, f"gateway: {type(error).__name__}: {error}")
        finally:
            probe.stop()
        replay.wall = (last_answer[0] or perf()) - start
        replay.busy = (perf() - start) - (selector.idle - idle)
        replay.loop_lags = probe.lags

    run_on_timed_loop(main)
    missing = sum(1 for arrival in schedule.arrivals if not answers[arrival.qid])
    repeated = sum(1 for count in answers.values() if count > 1)
    outcome.fail(missing, f"{missing} submissions never answered")
    outcome.fail(repeated, f"{repeated} submissions answered more than once")
    _check_gateway(outcome, gateway, f"seed {seed} gateway")
    return replay, config


def overload_schedule(seed: int, seconds: float):
    """The compressed, tenant-tagged multiclass schedule."""
    config = multiclass(
        scale=0.1,
        seed=seed,
        duration=seconds / OVERLOAD_TIME_SCALE * OVERLOAD_COMPRESS,
    )
    database = Database(config.database, config.resources, Streams(config.seed))
    schedule = build_schedule(config, database)
    tags = random.Random(seed)
    arrivals = tuple(
        replace(
            arrival,
            arrival=arrival.arrival / OVERLOAD_COMPRESS,
            deadline=arrival.arrival / OVERLOAD_COMPRESS + arrival.time_constraint,
            tenant=f"tenant{tags.randrange(TENANTS)}",
        )
        for arrival in schedule.arrivals
    )
    schedule = replace(
        schedule, arrivals=arrivals, horizon=schedule.horizon / OVERLOAD_COMPRESS
    )
    return config, schedule


async def start_farm(config):
    """Two shed-enabled shard servers behind one router, all started."""
    servers = []
    endpoints = []
    for shard_id in range(SHARDS):
        gateway = LiveGateway(
            shard_config(config, shard_id, SHARDS),
            OVERLOAD_POLICY,
            time_scale=OVERLOAD_TIME_SCALE,
            shed_overload=True,
        )
        server = LiveServer(gateway, shard=(shard_id, SHARDS))
        endpoints.append(await server.start(port=0))
        servers.append(server)
    router = ShardRouter(endpoints, ring_seed=RING_SEED)
    address = await router.start()
    return servers, router, address


async def stop_farm(servers, router) -> None:
    await router.close()
    for server in servers:
        await server.close()


def replay_overload(
    seed: int,
    seconds: float,
    outcome: Outcome,
    ledger: Optional["Ledger"] = None,
    row: int = 0,
):
    """Replay the overload schedule over TCP through the shard router;
    returns ``(replay, config)``.  Spans and round trips are keyed by
    ``(row * SHARDS + shard, qid)``, unique across a run's rows."""
    replay = Replay()
    scale = OVERLOAD_TIME_SCALE

    async def main(selector):
        loop = asyncio.get_running_loop()
        for attempt in range(SETUP_REPEATS):
            slow = slowness()
            start = perf()
            config, schedule = overload_schedule(seed, seconds)
            servers, router, (host, port) = await start_farm(config)
            replay.setups.append((perf() - start) / slow)
            if attempt + 1 < SETUP_REPEATS:
                await stop_farm(servers, router)
        replay.attempted = len(schedule.arrivals)
        replay.gateways = [server.gateway for server in servers]
        if ledger is not None:
            for shard_id, gateway in enumerate(replay.gateways):
                ledger.attach_gateway(gateway, row * SHARDS + shard_id)
            ledger.attach_router(router, row * SHARDS)
        arrivals = schedule.arrivals
        count = len(arrivals)
        due = [0.0] * count
        sent = [0.0] * count
        answered = [0.0] * count
        responses: List[Optional[dict]] = [None] * count
        strays = Counter()
        reader, writer = await asyncio.open_connection(host, port, limit=LINE_LIMIT)

        async def read_answers() -> None:
            remaining = count
            while remaining:
                line = await reader.readline()
                if not line:
                    return
                response = json.loads(line)
                tag = response.get("tag")
                if not isinstance(tag, int) or not 0 <= tag < count:
                    strays["unknown tag"] += 1
                elif responses[tag] is not None:
                    strays["answered twice"] += 1
                else:
                    responses[tag] = response
                    answered[tag] = perf()
                    remaining -= 1

        collector = asyncio.ensure_future(read_answers())
        probe = LagProbe(loop)
        idle = selector.idle
        probe.start()
        origin = loop.time()
        start = perf()
        try:
            for index, arrival in enumerate(arrivals):
                await pace(loop, origin + arrival.arrival * scale)
                request = submit_request(arrival)
                request["tag"] = index
                due[index] = start + arrival.arrival * scale
                sent[index] = perf()
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
            longest = max((a.time_constraint for a in arrivals), default=0.0)
            await asyncio.wait_for(collector, timeout=longest * scale + 10.0)
        except Exception as error:
            outcome.check(False, f"client: {type(error).__name__}: {error}")
        finally:
            probe.stop()
            if not collector.done():
                collector.cancel()
            writer.close()
        replay.wall = (max(answered) or perf()) - start
        replay.busy = (perf() - start) - (selector.idle - idle)
        replay.loop_lags = probe.lags
        replay.send_lags = [s - d for s, d in zip(sent, due) if s]
        try:
            stats = await router.drain_stats()
            outcome.check(
                stats["conservation"]["complete"],
                f"router conservation incomplete: {stats['conservation']}",
            )
            per_tenant = Counter()
            for gateway in replay.gateways:
                for tenant, tenant_stats in gateway.report.per_tenant.items():
                    per_tenant[tenant] += tenant_stats.arrivals
            outcome.check(
                per_tenant == Counter(router.per_tenant),
                f"router tenant counts {router.per_tenant} != shard counts"
                f" {dict(per_tenant)}",
            )
            replay.migrations = len(router.migrations)
            await stop_farm(servers, router)
        except Exception as error:  # includes a GrantLeakError on close
            outcome.check(False, f"farm: {type(error).__name__}: {error}")
        errors = 0
        for index, response in enumerate(responses):
            if response is None:
                continue
            if "qid" in response:
                key = (row * SHARDS + response["shard"], response["qid"])
                replay.round_trips[key] = answered[index] - sent[index]
            if "error" in response:
                errors += 1
            elif not response.get("shed") and response.get("missed") is False:
                replay.response_s.append(answered[index] - due[index])
        missing = responses.count(None)
        outcome.fail(missing, f"{missing} submissions never answered")
        outcome.fail(errors, f"{errors} error responses")
        outcome.fail(sum(strays.values()), f"stray answers: {dict(strays)}")
        return config

    config = run_on_timed_loop(main)
    for shard_id, gateway in enumerate(replay.gateways):
        _check_gateway(outcome, gateway, f"seed {seed} shard {shard_id}")
    return replay, config


def traced_live(replayer, seed: int, seconds: float, outcome: Outcome):
    """One live run with every layer wrapped; returns
    ``(replay, configs, ledger)`` with the wrappers already removed."""
    ledger = Ledger()
    ledger.install_live()
    try:
        replay, configs = replay_rows(replayer, seed, seconds, outcome, ledger)
    finally:
        ledger.restore()
    return replay, configs, ledger


def live_workload(replayer, seed: int, seconds: float, trace: bool) -> Outcome:
    """One live workload, measured untraced -- or untraced, then traced,
    over two identical half-length replays: the traced ledger plus its
    overhead (loop busy seconds traced over untraced, minus one)."""
    outcome = Outcome()
    if trace:
        plain, _configs = replay_rows(replayer, seed, seconds / 2, outcome)
        replay, configs, ledger = traced_live(replayer, seed, seconds / 2, outcome)
        overhead = replay.busy / plain.busy - 1.0 if plain.busy > 0 else 0.0
        outcome.metrics = ledger.metrics(replay.wall, replay, 0, overhead)
        outcome.ledger = ledger
        outcome.attempted = plain.attempted + replay.attempted
    else:
        replay, configs = replay_rows(replayer, seed, seconds, outcome)
        outcome.attempted = replay.attempted
        outcome.metrics = {
            "goodput_qps": replay.ontime / replay.wall,
            "ontime_ratio": replay.ontime / replay.attempted,
            "response_p50_ms": percentile(replay.response_s, 0.50) * 1e3,
            "response_p99_ms": percentile(replay.response_s, 0.99) * 1e3,
            # One row's whole replay is this workload's simulation.
            "sims_per_s": len(configs) / replay.wall,
            "setup_s": statistics.median(replay.setups),
            "peak_rss_mb": peak_rss_mb(),
        }
    outcome.header.update(
        config_seeds=f"{configs[0].seed}-{configs[-1].seed}",
        scenario_hash=scenario_hash(tuple(configs)),
        arrivals=replay.attempted,
    )
    outcome.notes.append(
        f"on-time answers {replay.ontime} of {replay.attempted} submissions;"
        f" response percentiles over {replay.ontime} samples"
    )
    return outcome


def live_steady(seed: int, seconds: float, trace: bool = False) -> Outcome:
    outcome = live_workload(replay_steady, seed, seconds, trace)
    outcome.header.update(policy=STEADY_POLICY, time_scale=STEADY_TIME_SCALE)
    if not trace:
        # Untimed: the DES's prediction for this exact config and seed,
        # so a live shortfall reads as program cost, not difficulty.
        seeds, row_seconds = live_rows(seed, seconds)
        rows = [
            RTDBSystem(steady_config(config_seed, row_seconds), STEADY_POLICY).run()
            for config_seed in seeds
        ]
        served = sum(result.served for result in rows)
        ontime = sum(result.served - result.missed for result in rows)
        outcome.notes.append(
            f"ontime_ratio live {outcome.metrics['ontime_ratio']:.4f}"
            f" vs DES prediction {ontime / served:.4f}"
            f" (over {served} DES departures)"
        )
    return outcome


def live_overload(seed: int, seconds: float, trace: bool = False) -> Outcome:
    outcome = live_workload(replay_overload, seed, seconds, trace)
    outcome.header.update(
        policy=OVERLOAD_POLICY,
        time_scale=OVERLOAD_TIME_SCALE,
        compress=OVERLOAD_COMPRESS,
        tenants=TENANTS,
        shards=SHARDS,
    )
    return outcome


# ----------------------------------------------------------------------
# the DES sweep
# ----------------------------------------------------------------------
class EventCounter:
    """``RunSpec`` set-up hook: reads each simulator's exact event count
    after its run (when the hook sees the next system, or on
    :meth:`collect` after the batch), times each point in reference
    seconds against a :func:`slowness` measured right before it and,
    traced, wraps its policy."""

    def __init__(self) -> None:
        self.events: List[int] = []
        #: Reference seconds from one run's start to the next system's
        #: hook call (its run, result and the next system's build).
        self.times: List[float] = []
        self.ledger: Optional[Ledger] = None
        self._sim = None
        self._slow = 1.0
        self._started = 0.0

    def __call__(self, system) -> None:
        self.collect()
        self._sim = system.sim
        if self.ledger is not None:
            self.ledger.wrap_policy(system.policy)
        self._slow = slowness()
        self._started = perf()

    def collect(self) -> List[int]:
        if self._sim is not None:
            self.times.append((perf() - self._started) / self._slow)
            self.events.append(self._sim.events_processed)
            self._sim = None
        return self.events


def config_seeds(seed: int, seconds: float) -> range:
    """The DES config seeds a run of ``seconds`` sweeps, disjoint across
    ``seed``s."""
    rows = min(DES_SEED_STRIDE, max(1, round(seconds * DES_ROWS_PER_SECOND)))
    return range(seed * DES_SEED_STRIDE, seed * DES_SEED_STRIDE + rows)


def point_names(seeds: range) -> List[str]:
    return [
        f"{rate}/{policy}/seed{config_seed}"
        for config_seed in seeds
        for rate in DES_RATES
        for policy in DES_POLICIES
    ]


def des_specs(seeds: range, hook: EventCounter) -> List[RunSpec]:
    specs = []
    for config_seed in seeds:
        settings = ExperimentSettings(
            scale=0.1,
            duration=DES_HORIZON,
            seed=config_seed,
            max_completions=DES_COMPLETIONS,
        )
        for rate in DES_RATES:
            config = baseline(
                arrival_rate=rate, scale=0.1, seed=config_seed, duration=DES_HORIZON
            )
            for policy in DES_POLICIES:
                specs.append(
                    RunSpec(config=config, policy=policy, settings=settings, setup=hook)
                )
    return specs


def run_grid(specs: List[RunSpec], hook: EventCounter):
    """One full grid; returns ``(wall seconds, reference seconds,
    per-point counts)`` (``hook.times`` keeps accumulating per-point
    reference seconds)."""
    hook.events = []
    first = len(hook.times)
    start = perf()
    results = run_many(specs, jobs=1, cache=False)
    counts = [
        [result.arrivals, result.served, result.missed, events]
        for result, events in zip(results, hook.collect())
    ]
    wall = perf() - start
    return wall, sum(hook.times[first:]), counts


def grid_shape() -> dict:
    """What a pinned grid depends on besides the seed."""
    return {
        "rates": list(DES_RATES),
        "policies": list(DES_POLICIES),
        "completions": DES_COMPLETIONS,
        "horizon": DES_HORIZON,
    }


def load_pins(seed: int) -> Optional[dict]:
    """The pinned per-point counts, for the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    pinned = json.loads(PINS_PATH.read_text())
    if pinned.get("grid") != grid_shape() or pinned.get("seed") != seed:
        raise ValueError(f"{PINS_PATH.name} pins another grid; re-pin it")
    return pinned["points"]


def write_pins(points: Dict[str, list]) -> None:
    """Pin ``points`` (counts by point name), one point per line."""
    head = json.dumps({"seed": DEFAULT_SEED, "grid": grid_shape()})[:-1]
    lines = ",\n".join(
        f" {json.dumps(name)}: {json.dumps(counts)}" for name, counts in points.items()
    )
    PINS_PATH.write_text(f'{head}, "points": {{\n{lines}\n}}}}\n')


def check_grid(
    outcome: Outcome, names: List[str], counts, reference, pins: Optional[dict]
) -> None:
    """Each point's counts must equal ``reference`` and, where pinned,
    ``pins``."""
    outcome.attempted += len(counts)
    for name, point, first in zip(names, counts, reference):
        pinned = pins.get(name, point) if pins else point
        ok = point == first and point == pinned
        expected = first if point != first else pinned
        outcome.check(ok, f"{name}: counts {point} != expected {expected}")


def des_sweep(
    seed: int, seconds: float, trace: bool = False, pins: Optional[dict] = None
) -> Outcome:
    """Sweep the Figure 3 grid once over as many config seeds as fit
    ``seconds``, timing each point in reference seconds, and check the
    default seed's points against ``pins``.

    Untraced, the grid's first row then runs again, untimed, and must
    repeat its counts; ``sims_per_s`` is points per reference second of
    the grid.  Traced, the grid covers half the time's rows and runs
    twice: untraced (the overhead baseline), then traced, and the traced
    repeat must match the untraced counts."""
    outcome = Outcome()
    hook = EventCounter()
    seeds = config_seeds(seed, seconds / 2 if trace else seconds)
    names = point_names(seeds)
    setups = []
    for _ in range(DES_SETUP_REPEATS):
        slow = slowness()
        start = perf()
        specs = des_specs(seeds, hook)
        setups.append((perf() - start) / slow)
    wall, grid, counts = run_grid(specs, hook)
    times = list(hook.times)
    outcome.grid_counts = dict(zip(names, counts))
    check_grid(outcome, names, counts, counts, pins)
    arrivals = sum(point[0] for point in counts)
    ontime = sum(point[1] - point[2] for point in counts)
    outcome.header.update(
        config_seeds=f"{seeds.start}-{seeds.stop - 1}",
        completions_per_point=DES_COMPLETIONS,
        points=len(specs),
        scenario_hash=scenario_hash(
            tuple(spec.config for spec in specs[:: len(DES_POLICIES)])
        ),
        arrivals=arrivals,
    )
    outcome.notes.append(
        f"grid of {len(specs)} points: {wall:.2f} wall seconds,"
        f" {grid:.2f} reference seconds"
    )
    if not trace:
        row = len(DES_RATES) * len(DES_POLICIES)
        _wall, _grid, again = run_grid(specs[:row], hook)
        check_grid(outcome, names, again, counts, pins)
        outcome.metrics = {
            # Simulated queries finished inside their deadline, per
            # reference second of sweep, and their share of all arrivals.
            "goodput_qps": ontime / grid,
            "ontime_ratio": ontime / arrivals,
            # A grid point is this workload's request.
            "response_p50_ms": percentile(times, 0.50) * 1e3,
            "response_p99_ms": percentile(times, 0.99) * 1e3,
            "sims_per_s": len(specs) / grid,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        return outcome
    ledger = Ledger()
    ledger.install_des()
    hook.ledger = ledger
    try:
        wall_traced, traced, again = run_grid(specs, hook)
    finally:
        ledger.restore()
    check_grid(outcome, names, again, counts, pins)
    events = sum(point[3] for point in again)
    outcome.metrics = ledger.metrics(wall_traced, None, events, traced / grid - 1.0)
    outcome.ledger = ledger
    return outcome


# ----------------------------------------------------------------------
# the traced ledger
# ----------------------------------------------------------------------
class Ledger:
    """Installs the tracer's wrappers on every layer's entry points and
    turns the recorded spans into the per-layer metrics."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.population: List[int] = []
        self.disk_waits: List[float] = []
        self.prefetch_hits = 0
        self.admit_waits: List[float] = []
        self.send_lags: List[float] = []
        self._shard_of: Dict[int, int] = {}
        self._submitted: Dict[tuple, float] = {}
        self._jobs: Dict[tuple, object] = {}
        self._link_index: Dict[int, int] = {}

    # -- installation ---------------------------------------------------
    def install_shared(self) -> None:
        """Wrap the layers both user paths share."""
        tracer = self.tracer
        tracer.wrap(
            MemoryBroker,
            "reallocate",
            tracer.sync(
                "core.broker",
                "broker.reallocate",
                before=lambda args: self.population.append(args[0].present_count),
            ),
        )
        tracer.wrap(
            DeviceCore,
            "service_time",
            tracer.sync("core.devices", "devices.service_time", keep=False),
        )
        tracer.wrap(
            DeviceCore,
            "read_hit",
            tracer.sync(
                "core.devices",
                "devices.read_hit",
                keep=False,
                after=self._count_prefetch_hit,
            ),
        )
        for operator in operator_classes():
            tracer.wrap(operator, "run", tracer.generator("queries", "queries.next"))

    def install_live(self) -> None:
        tracer = self.tracer
        self.install_shared()
        tracer.wrap(
            LiveGateway,
            "submit",
            tracer.sync(
                "serve.gateway",
                "gateway.submit",
                before=self._before_submit,
                after=self._after_submit,
            ),
        )
        tracer.wrap(
            LiveBufferPool,
            "apply",
            tracer.sync("serve.dataplane", "dataplane.pool_apply"),
        )
        for name in ("replay_read", "write_blank"):
            tracer.wrap(
                PageStore,
                name,
                tracer.sync("serve.dataplane", "dataplane.replay", keep=False),
            )
        tracer.wrap(
            PriorityWorkerGate, "acquire", tracer.coroutine("gateway.gate_wait")
        )
        tracer.wrap(
            LiveDisk,
            "acquire",
            tracer.coroutine("dataplane.disk_wait", after=self._disk_waited),
        )
        tracer.wrap(
            ShardLink,
            "request",
            tracer.coroutine("router.link_request", after=self._link_key),
        )

    def install_des(self) -> None:
        tracer = self.tracer
        self.install_shared()
        tracer.wrap(RTDBSystem, "__init__", tracer.sync("rtdbs", "rtdbs.build"))
        tracer.wrap(RTDBSystem, "run", tracer.sync("sim", "rtdbs.run"))

    def wrap_policy(self, policy) -> None:
        """Wrap one policy instance's decision and feedback calls."""
        tracer = self.tracer
        tracer.wrap(policy, "allocate", tracer.sync("policies", "policy.allocate"))
        tracer.wrap(policy, "on_batch", tracer.sync("policies", "policy.on_batch"))

    def attach_gateway(self, gateway: LiveGateway, shard: int) -> None:
        """Label one gateway's spans with its shard and listen for its
        departures (admission wait, submit-to-departure span)."""
        self._shard_of[id(gateway)] = shard
        self.wrap_policy(gateway.broker.policy)

        def on_departure(record) -> None:
            key = (shard, record.qid)
            job = self._jobs.pop(key, None)
            if job is not None and job.admitted_wall is not None:
                self.admit_waits.append(job.admitted_wall - job.submitted_wall)
            self._end_inflight(key)

        gateway.departure_listeners.append(on_departure)

    def attach_router(self, router: ShardRouter, base: int = 0) -> None:
        """Label the router's links ``base + index``."""
        for index, link in enumerate(router.links):
            self._link_index[id(link)] = base + index

    def restore(self) -> None:
        self.tracer.restore()

    # -- span labels and counters -----------------------------------------
    def _count_prefetch_hit(self, _args, hit) -> None:
        self.prefetch_hits += bool(hit)

    def _disk_waited(self, _args, waited):
        self.disk_waits.append(waited)
        return task_qid()

    def _before_submit(self, args) -> None:
        gateway, arrival = args[0], args[1]
        key = (self._shard_of.get(id(gateway), 0), arrival.qid)
        self._submitted[key] = perf()
        self.send_lags.append((gateway.sim_now() - arrival.arrival) * gateway.time_scale)

    def _after_submit(self, args, job):
        key = (self._shard_of.get(id(args[0]), 0), args[1].qid)
        if job.state == SHED:
            self._end_inflight(key)
        else:
            self._jobs[key] = job
        return list(key)

    def _end_inflight(self, key: tuple) -> None:
        start = self._submitted.pop(key, None)
        if start is not None:
            self.tracer.span("gateway.inflight", start, perf(), list(key))

    def _link_key(self, args, response):
        if args[1].get("op", "submit") != "submit" or "qid" not in response:
            return None
        return [self._link_index.get(id(args[0])), response["qid"]]

    # -- the ledger -------------------------------------------------------
    def hops(self, round_trips: Dict[tuple, float]):
        """Router and server hop times, matched by ``(shard, qid)``:
        client round trip minus link request, and link request minus
        the shard gateway's submit-to-departure span."""
        links = {}
        inflight = {}
        for _id, name, start, end, _parent, key in self.tracer.spans:
            if name == "router.link_request":
                links[tuple(key)] = end - start
            elif name == "gateway.inflight":
                inflight[tuple(key)] = end - start
        router = [rtt - links[key] for key, rtt in round_trips.items() if key in links]
        server = [span - inflight[key] for key, span in links.items() if key in inflight]
        return router, server

    def metrics(
        self, wall: float, replay: Optional[Replay], events: int, overhead: float
    ) -> Dict[str, float]:
        tracer = self.tracer
        totals = tracer.totals
        calls = tracer.calls
        samples = tracer.samples
        router_hops, server_hops = self.hops(replay.round_trips if replay else {})
        tracer.self_time["serve.router"] = sum(router_hops)
        tracer.self_time["serve.server"] = sum(server_hops)
        gateways = replay.gateways if replay else []
        disks = [disk for gateway in gateways for disk in gateway.disks]
        stores = [store for gateway in gateways for store in gateway.dataplane.stores]
        pool_hits = sum(gateway.pool.hits for gateway in gateways)
        pool_lookups = pool_hits + sum(gateway.pool.misses for gateway in gateways)
        reallocate = totals["broker.reallocate"]
        send_lags = replay.send_lags if replay and replay.send_lags else self.send_lags

        def p(values, fraction, unit):
            return percentile(values, fraction) * unit

        def share(part, whole):
            return part / whole if whole else 0.0

        metrics = {
            "serve.router.hop_p50_us": p(router_hops, 0.50, 1e6),
            "serve.router.hop_p99_us": p(router_hops, 0.99, 1e6),
            "serve.router.migrations": replay.migrations if replay else 0,
            "serve.server.hop_p50_us": p(server_hops, 0.50, 1e6),
            "serve.server.hop_p99_us": p(server_hops, 0.99, 1e6),
            "serve.gateway.submit_p99_us": p(samples["gateway.submit"], 0.99, 1e6),
            "serve.gateway.admit_wait_p99_ms": p(self.admit_waits, 0.99, 1e3),
            "serve.gateway.gate_wait_p99_ms": p(samples["gateway.gate_wait"], 0.99, 1e3),
            "serve.gateway.gate_wait_s": totals["gateway.gate_wait"],
            "serve.gateway.loop_lag_p99_ms": p(replay.loop_lags if replay else [], 0.99, 1e3),
            "serve.gateway.loop_busy_share": share(replay.busy if replay else 0.0, wall),
            "serve.gateway.send_lag_p99_ms": p(send_lags, 0.99, 1e3),
            "core.broker.decisions": calls["broker.reallocate"],
            "core.broker.reallocate_p50_us": p(samples["broker.reallocate"], 0.50, 1e6),
            "core.broker.reallocate_p99_us": p(samples["broker.reallocate"], 0.99, 1e6),
            "core.broker.busy_share": share(reallocate, wall),
            "core.broker.self_share": share(tracer.self_time["core.broker"], reallocate),
            "core.broker.population_mean": (
                statistics.fmean(self.population) if self.population else 0.0
            ),
            "core.broker.population_p99": percentile(self.population, 0.99),
            "policies.allocate_p50_us": p(samples["policy.allocate"], 0.50, 1e6),
            "policies.allocate_p99_us": p(samples["policy.allocate"], 0.99, 1e6),
            "policies.on_batch_us": share(totals["policy.on_batch"], calls["policy.on_batch"]) * 1e6,
            "serve.dataplane.pool_apply_p99_us": p(samples["dataplane.pool_apply"], 0.99, 1e6),
            "serve.dataplane.pool_hit_ratio": share(pool_hits, pool_lookups),
            "serve.dataplane.disk_wait_p99_ms": p(self.disk_waits, 0.99, 1e3),
            "serve.dataplane.disk_queue_s": sum(disk.queue_seconds for disk in disks),
            "serve.dataplane.disk_busy_share": share(
                sum(disk.busy_seconds for disk in disks),
                replay.disk_wall if replay else 0.0,
            ),
            "serve.dataplane.chunks": sum(disk.chunks_served for disk in disks),
            "serve.dataplane.replay_s": totals["dataplane.replay"],
            "serve.dataplane.bytes_moved": sum(
                (store.pages_read + store.pages_written) * store.payload_bytes
                for store in stores
            ),
            "core.devices.pricing_s": totals["devices.service_time"],
            "core.devices.prefetch_hit_ratio": share(
                self.prefetch_hits, calls["devices.read_hit"]
            ),
            "queries.requests": calls["queries.next"],
            "queries.generate_s": totals["queries.next"],
            "sim.events": events,
            "sim.events_per_s": share(events, totals["rtdbs.run"]),
            "rtdbs.build_s": totals["rtdbs.build"],
            "rtdbs.run_s": totals["rtdbs.run"],
            "tracing.overhead_share": overhead,
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = tracer.self_time[layer]
        return metrics


def operator_classes() -> List[type]:
    """Every operator class that defines its own ``run``."""
    found = []
    pending = list(Operator.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run" in vars(cls):
            found.append(cls)
    return found


WORKLOADS = {
    "live-steady": live_steady,
    "live-overload": live_overload,
    "des-sweep": des_sweep,
}
