"""The live shootout: every policy serves the same real workload.

``live_shootout`` replays one generated scenario (see
:mod:`repro.scenarios`) through the live gateway once per policy --
identical open-loop traffic each time, since the schedule is computed
from the scenario seed -- and sets the measured miss ratios beside the
DES simulator's prediction for the *same* workload (fetched through
the cached parallel experiment engine).  Cross-checks:

* **traffic determinism** -- every policy must have served the exact
  same arrival count (the schedule is policy-independent by
  construction; a mismatch means the gateway lost or duplicated
  queries);
* **allocation conservation** -- the tracked allocator raised on any
  oversubscribed decision during the runs (reaching the report at all
  certifies every decision respected the pool);
* **fidelity** (primary) -- when the simulator predictions ran against
  the same unclipped traffic, every policy's live miss ratio must land
  within ``FIDELITY_TOLERANCE`` of its DES prediction.  Both hosts run
  the same :class:`~repro.core.devices.DeviceCore` physics, so the
  remaining delta is wall-clock pacing jitter -- a hard per-policy
  bound on it is the strongest cross-substrate check we have;
* **qualitative ordering** (secondary) -- Max's insistence on maximum
  allocations is the paper's worst strategy under load (Section 5.1);
  live, MinMax must not miss more than Max beyond a tolerance.  The
  fidelity gate subsumes this when predictions are available; the
  ordering check still guards ``--no-predict`` runs.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import (
    Column,
    PolicyRow,
    ShootoutReport,
    UnifiedReport,
    check_fail,
    check_pass,
    format_table,
)
from repro.core.host import ClassCounts
from repro.policies import DEFAULT_POLICIES
from repro.scenarios import Scenario, ScenarioGenerator
from repro.serve.faults import FaultSchedule
from repro.serve.gateway import (
    LiveGateway,
    LiveReport,
    _quantize,
)
from repro.serve.workload import build_schedule, submit_request, tag_tenants

#: Hard per-policy bound on |live miss ratio - DES prediction|.  The
#: primary fidelity gate: both hosts share one DeviceCore, so anything
#: beyond wall-clock pacing jitter is a genuine divergence.  Applied
#: only when the predictions saw the same traffic (no ``max_arrivals``
#: clipping, ``predict=True``).
FIDELITY_TOLERANCE = 0.05

#: Live ordering tolerance: one wall-clock replay per policy is a far
#: smaller sample than a simulated hour, so MinMax may exceed Max by
#: this much before the shootout fails.  Secondary to the fidelity
#: gate -- it still guards ``--no-predict`` runs.
LIVE_ORDERING_TOLERANCE = 0.15

#: How many multitenant indices to scan for a ``--tenants N`` match.
TENANT_SCAN_LIMIT = 64


def find_multitenant_scenario(
    generator: ScenarioGenerator, tenants: int, start_index: int = 0
) -> Scenario:
    """The first multitenant scenario with exactly ``tenants`` classes.

    Deterministic in (generator seed, tenants, start_index): indices
    are scanned in order, so a fixed seed always lands on the same
    scenario -- ``--tenants 2`` replays are reproducible.
    """
    if tenants < 2:
        raise ValueError(f"need at least 2 tenants, got {tenants}")
    for index in range(start_index, start_index + TENANT_SCAN_LIMIT):
        scenario = generator.generate("multitenant", index)
        if len(scenario.config.workload.classes) == tenants:
            return scenario
    raise ValueError(
        f"no multitenant scenario with {tenants} tenants in indices "
        f"[{start_index}, {start_index + TENANT_SCAN_LIMIT})"
    )


@dataclass
class LiveShootoutReport(UnifiedReport):
    """Live results, simulator predictions, and cross-check failures."""

    scenario: Scenario
    policies: Sequence[str]
    live: Dict[str, LiveReport]
    predicted: Dict[str, float]
    time_scale: float
    #: Cross-check verdicts (``{name, ok, detail}``); ``failures`` and
    #: ``ok`` derive from them.
    checks: List[Dict[str, object]] = field(default_factory=list)
    #: DES-predicted shared-pool hit ratio per policy (the live pool's
    #: contention cross-check column).
    predicted_pool_hit: Dict[str, float] = field(default_factory=dict)
    #: Tenant count when the shootout ran in ``--tenants`` mode.
    tenants: Optional[int] = None
    #: True when ``max_arrivals`` clipped the live traffic -- the DES
    #: predictions then saw different traffic and the fidelity gate
    #: does not apply.
    clipped: bool = False
    #: Shard count when the shootout ran through the consistent-hash
    #: router (``--shards N``); ``None`` on the single-process path.
    shards: Optional[int] = None
    #: Per-policy final router stats (placement, migrations, per-shard
    #: stats, conservation) in sharded mode.
    router_stats: Dict[str, dict] = field(default_factory=dict)

    def miss_delta(self, policy: str) -> float:
        """Live miss ratio minus the DES prediction (NaN if no
        prediction ran for the policy)."""
        predicted = self.predicted.get(policy)
        if predicted is None:
            return float("nan")
        return self.live[policy].miss_ratio - predicted

    def unified(self) -> ShootoutReport:
        """Project into the shared :class:`ShootoutReport` surface."""
        columns = [
            Column("live_miss", digits=3),
            Column("sim_miss", digits=3),
            Column("delta", digits=3),
            Column("pool_hit", digits=3),
            Column("sim_hit", digits=3),
            Column("disk_q_s", digits=1),
            Column("served"),
            Column("completed"),
            Column("mpl", digits=2),
            Column("qps", digits=1),
            Column("decisions_per_sec", header="decisions/s", digits=1),
            Column("decide_us", digits=1),
        ]
        rows = []
        for policy in self.policies:
            report = self.live[policy]
            rows.append(
                PolicyRow(
                    policy=report.policy,
                    values={
                        "live_miss": report.miss_ratio,
                        "sim_miss": self.predicted.get(policy, float("nan")),
                        "delta": self.miss_delta(policy),
                        "pool_hit": report.pool_hit_ratio,
                        "sim_hit": self.predicted_pool_hit.get(
                            policy, float("nan")
                        ),
                        "disk_q_s": report.disk_queue_sim_seconds,
                        "served": report.served,
                        "completed": report.completed,
                        "mpl": report.observed_mpl,
                        "qps": report.queries_per_sec,
                        "decisions_per_sec": report.decisions_per_sec,
                        "decide_us": report.decision_latency_mean_us,
                    },
                )
            )
        title = (
            f"Live shootout: {self.scenario.name} "
            f"({self.scenario.content_hash[:10]}), "
            f"time_scale={self.time_scale}"
        )
        if self.tenants:
            title += f", tenants={self.tenants}"
        if self.shards:
            title += f", shards={self.shards} (routed)"
        sections = []
        if self.tenants:
            sections.append(self._render_tenants())
        if self.shards:
            sections.append(self._render_shards())
        return ShootoutReport(
            kind="live-shootout",
            title=title,
            columns=columns,
            rows=rows,
            meta={
                "scenario": self.scenario.name,
                "scenario_hash": self.scenario.content_hash,
                "time_scale": self.time_scale,
                "tenants": self.tenants,
                "shards": self.shards,
                "clipped": self.clipped,
            },
            sections=sections,
            checks=self.checks,
            success_line="All live cross-checks passed.",
        )

    def _render_tenants(self) -> str:
        """Per-tenant live served/missed counts, one row per policy."""
        names = sorted(
            {
                tenant
                for report in self.live.values()
                for tenant in report.per_tenant
            }
        )
        headers = ["policy"] + [f"{name} s/m" for name in names]
        rows = []
        for policy in self.policies:
            report = self.live[policy]
            row = [report.policy]
            for name in names:
                stats = report.per_tenant.get(name)
                row.append(
                    f"{stats.served}/{stats.missed}" if stats is not None else "-"
                )
            rows.append(row)
        return format_table(
            headers, rows, title="Per-tenant served/missed (shared pool + disks)"
        )

    def _render_shards(self) -> str:
        """Per-shard miss ratios, conservation, and the migration log,
        one block per policy (sharded mode)."""
        headers = [
            "policy",
            "shard",
            "arrivals",
            "served",
            "missed",
            "miss",
            "pool_hit",
            "disk_q_s",
        ]
        rows = []
        for policy in self.policies:
            stats = self.router_stats.get(policy, {})
            for shard_stats in stats.get("shards", []):
                shard = shard_stats.get("shard") or {}
                rows.append(
                    [
                        policy,
                        f"{shard.get('id', '?')}/{shard.get('of', '?')}",
                        shard_stats.get("arrivals", 0),
                        shard_stats.get("served", 0),
                        shard_stats.get("missed", 0),
                        shard_stats.get("miss_ratio", 0.0),
                        shard_stats.get("pool_hit_ratio", 0.0),
                        shard_stats.get("disk_queue_s", 0.0),
                    ]
                )
        table = format_table(
            headers, rows, title="Per-shard outcomes (routed farm)"
        )
        lines = []
        for policy in self.policies:
            stats = self.router_stats.get(policy, {})
            conservation = stats.get("conservation", {})
            migrations = stats.get("migrations", [])
            moved = (
                "; ".join(
                    f"{m['tenant']}: shard{m['from']}->shard{m['to']} "
                    f"@{m['at_wall']}s"
                    for m in migrations
                )
                or "none"
            )
            lines.append(
                f"  {policy}: router arrivals "
                f"{conservation.get('router_arrivals')} == shard arrivals "
                f"{conservation.get('shard_arrivals')} == settled "
                f"{conservation.get('settled')} "
                f"(conserved={conservation.get('complete')}); "
                f"migrations: {moved}"
            )
        return table + "\n\nConservation + rebalancing:\n" + "\n".join(lines)


def live_shootout(
    policies: Sequence[str] = DEFAULT_POLICIES,
    family: str = "mix",
    index: int = 0,
    scenario_seed: int = 0,
    time_scale: float = 0.05,
    workers: Optional[int] = None,
    horizon: Optional[float] = None,
    max_arrivals: Optional[int] = None,
    invariants: bool = True,
    predict: bool = True,
    jobs: Optional[int] = None,
    tenants: Optional[int] = None,
    shards: Optional[int] = None,
) -> LiveShootoutReport:
    """Serve one scenario live under every policy and cross-check.

    ``predict=True`` also runs (or fetches from the cache) the DES
    simulation of the same scenario per policy, for the side-by-side
    prediction columns (miss ratio and shared-pool hit ratio); the
    simulated horizon is clipped to ``horizon`` when given so both
    substrates see the same traffic.

    ``tenants=N`` switches to the multitenant scenario family (the
    first scenario at or after ``index`` with exactly ``N`` per-tenant
    query classes), tags every arrival with its owning tenant, and
    adds per-tenant cross-checks: all tenants share one broker, one
    buffer pool, and one disk farm.

    ``shards=N`` (N >= 2, requires ``tenants``) serves the same
    schedule through N in-process shard servers -- each a full
    gateway over a :func:`~repro.serve.shard.shard_config` slice of
    the disks and pool pages -- behind the consistent-hash
    :class:`~repro.serve.router.ShardRouter`.  Every tenant starts
    deliberately *packed on one shard* (the worst-case cold start) so
    the run demonstrates the rebalancer migrating off the skew; the
    cross-checks switch from DES fidelity (the simulator has no
    sharded topology) to conservation: router arrivals == Σ shard
    arrivals == Σ shard (served + shed), per-tenant traffic equal
    across policies, and at least one migration on unclipped runs.
    ``shards=1`` (and ``None``) is the identity: no router, no
    resource split, fidelity gate unchanged.
    """
    generator = ScenarioGenerator(scenario_seed)
    if tenants is not None:
        scenario = find_multitenant_scenario(generator, tenants, index)
    else:
        scenario = generator.generate(family, index)
    config = scenario.config
    policy_list = tuple(policies)
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    routed = shards is not None and shards >= 2
    if routed:
        if tenants is None:
            raise ValueError(
                "--shards needs --tenants N: placement is per tenant"
            )
        predict = False  # no DES prediction models a sharded topology

    predicted: Dict[str, float] = {}
    predicted_pool_hit: Dict[str, float] = {}
    if predict:
        from dataclasses import replace

        from repro.experiments import runner

        specs = []
        for policy in policy_list:
            spec = scenario.run_spec(policy, invariants=invariants)
            if horizon is not None and horizon < config.duration:
                spec = replace(
                    spec, settings=replace(spec.settings, duration=horizon)
                )
            specs.append(spec)
        results = runner.run_many(specs, jobs=jobs)
        predicted = {
            policy: result.miss_ratio
            for policy, result in zip(policy_list, results)
        }
        for policy, result in zip(policy_list, results):
            consulted = result.buffer_hits + result.buffer_misses
            predicted_pool_hit[policy] = (
                result.buffer_hits / consulted if consulted else 0.0
            )

    live: Dict[str, LiveReport] = {}
    router_stats: Dict[str, dict] = {}
    for policy in policy_list:
        if routed:
            from repro.rtdbs.database import Database
            from repro.sim.rng import Streams

            database = Database(
                config.database, config.resources, Streams(config.seed)
            )
            schedule = tag_tenants(
                build_schedule(
                    config,
                    database,
                    horizon=horizon,
                    max_arrivals=max_arrivals,
                )
            )
            # ~6 rebalance windows per run, whatever the time scale.
            rebalance_interval = max(
                0.25, schedule.horizon * time_scale / 6.0
            )
            live[policy], router_stats[policy] = asyncio.run(
                _run_sharded_policy(
                    policy,
                    config,
                    schedule,
                    shards,
                    time_scale=time_scale,
                    workers=workers,
                    invariants=invariants,
                    rebalance_interval=rebalance_interval,
                )
            )
            continue
        gateway = LiveGateway(
            config,
            policy,
            time_scale=time_scale,
            workers=workers,
            invariants=invariants,
        )
        schedule = build_schedule(
            config,
            gateway.dataplane.database,
            horizon=horizon,
            max_arrivals=max_arrivals,
        )
        if tenants is not None:
            schedule = tag_tenants(schedule)
        live[policy] = asyncio.run(gateway.run_schedule(schedule))

    report = LiveShootoutReport(
        scenario=scenario,
        policies=policy_list,
        live=live,
        predicted=predicted,
        time_scale=time_scale,
        predicted_pool_hit=predicted_pool_hit,
        tenants=tenants,
        clipped=max_arrivals is not None,
        shards=shards if routed else None,
        router_stats=router_stats,
    )
    _cross_check(report)
    if routed:
        _cross_check_sharded(report)
    return report


def _cross_check(report: LiveShootoutReport) -> None:
    served_counts = {
        policy: result.served for policy, result in report.live.items()
    }
    if len(set(served_counts.values())) > 1:
        check_fail(
            report,
            "traffic-determinism",
            f"served counts differ across policies: {served_counts} -- the "
            "open-loop schedule is policy-independent, so every policy must "
            "serve the identical traffic",
        )
    for policy, result in report.live.items():
        if result.served != result.arrivals:
            check_fail(
                report,
                "arrival-conservation",
                f"{policy}: {result.arrivals} arrivals but {result.served} "
                "departures -- queries were lost or duplicated",
            )
        if not 0.0 <= result.miss_ratio <= 1.0:
            check_fail(
                report,
                "report-sanity",
                f"{policy}: miss ratio {result.miss_ratio} outside [0, 1]",
            )
        if not 0.0 <= result.pool_hit_ratio <= 1.0:
            check_fail(
                report,
                "report-sanity",
                f"{policy}: shared-pool hit ratio {result.pool_hit_ratio} "
                "outside [0, 1]",
            )
        if any(queued < 0.0 for queued in result.disk_queue):
            check_fail(
                report,
                "report-sanity",
                f"{policy}: negative per-disk queue time {result.disk_queue}",
            )
    if report.tenants:
        _cross_check_tenants(report)
    if report.predicted and not report.clipped:
        # Primary fidelity gate: the predictions saw the identical
        # traffic, so every policy's live miss ratio must track its
        # DES prediction within the hard tolerance.
        for policy in report.policies:
            delta = report.miss_delta(policy)
            if delta != delta:  # NaN: no prediction for this policy
                continue
            if abs(delta) > FIDELITY_TOLERANCE:
                check_fail(
                    report,
                    "fidelity",
                    f"{policy}: live miss ratio "
                    f"{report.live[policy].miss_ratio:.3f} is "
                    f"{delta:+.3f} from the DES prediction "
                    f"{report.predicted[policy]:.3f} "
                    f"(|delta| > {FIDELITY_TOLERANCE}) -- the live plane "
                    "diverged from the shared-core physics",
                )
        check_pass(report, "fidelity")
    # The ordering check needs the full single-pool sample; a routed
    # farm halves (or worse) each broker's traffic, so the small-sample
    # tolerance no longer applies -- conservation is the gate there.
    if report.shards is None and "minmax" in report.live and "max" in report.live:
        minmax_miss = report.live["minmax"].miss_ratio
        max_miss = report.live["max"].miss_ratio
        if minmax_miss > max_miss + LIVE_ORDERING_TOLERANCE:
            check_fail(
                report,
                "live-ordering",
                f"live ordering violated: MinMax miss ratio {minmax_miss:.3f} "
                f"exceeds Max's {max_miss:.3f} by more than "
                f"{LIVE_ORDERING_TOLERANCE} -- the paper's Section 5.1 "
                "ordering inverted on live traffic",
            )
        check_pass(report, "live-ordering")
    for name in ("traffic-determinism", "arrival-conservation", "report-sanity"):
        check_pass(report, name)


async def _run_sharded_policy(
    policy: str,
    config,
    schedule,
    shards: int,
    time_scale: float,
    workers: Optional[int],
    invariants: bool,
    rebalance_interval: float,
) -> Tuple[LiveReport, dict]:
    """One policy's schedule through N in-process shards + the router.

    Every tenant starts packed on the ring shard of the first tenant
    -- the worst-case placement -- so the rebalancer has real skew to
    fix; the returned router stats carry the migration log the
    cross-checks assert on.
    """
    from repro.serve.router import HashRing, ShardRouter
    from repro.serve.server import LiveServer
    from repro.serve.shard import shard_config

    servers: List[LiveServer] = []
    try:
        endpoints = []
        for shard_id in range(shards):
            gateway = LiveGateway(
                shard_config(config, shard_id, shards),
                policy,
                time_scale=time_scale,
                workers=workers,
                invariants=invariants,
            )
            server = LiveServer(gateway, shard=(shard_id, shards))
            host, port = await server.start(port=0)
            servers.append(server)
            endpoints.append((host, port))
        tenant_names = sorted(
            {arrival.tenant for arrival in schedule.arrivals if arrival.tenant}
        )
        ring = HashRing(shards, seed=config.seed)
        hot = ring.place(tenant_names[0]) if tenant_names else 0
        packed = {tenant: hot for tenant in tenant_names}
        router = ShardRouter(
            endpoints,
            ring_seed=config.seed,
            rebalance_interval=rebalance_interval,
            min_skew_arrivals=2,
            placement=packed,
        )
        router_host, router_port = await router.start()
        try:
            await _route_schedule(router_host, router_port, schedule, time_scale)
            final_stats = await router.drain_stats()
        finally:
            await router.close()
    finally:
        for server in servers:
            await server.close()  # closing the gateway finishes its report
    reports = [server.gateway.report for server in servers]
    return _merge_reports(reports, time_scale), final_stats


async def _route_schedule(host, port, schedule, time_scale: float) -> None:
    """Replay the open-loop schedule through the router over real TCP.

    One pipelining :class:`~repro.serve.router.ShardLink` carries every
    submission; responses come back at departure time, out of order,
    correlated by the link's tags.  Raises ``RuntimeError`` once every
    submission is answered if the router refused any of them.
    """
    from repro.serve.router import ShardLink

    link = ShardLink(host, port)
    await link.connect()
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    sends = []
    try:
        for arrival in schedule.arrivals:
            # Same floored pacing as the in-process gateway replay.
            target = t0 + arrival.arrival * time_scale
            while True:
                delay = target - loop.time()
                if delay <= 0.0002:
                    break
                await asyncio.sleep(_quantize(delay))
            sends.append(
                asyncio.ensure_future(link.request(submit_request(arrival)))
            )
        for response in await asyncio.gather(*sends):
            if "error" in response:
                raise RuntimeError(f"router refused a submission: {response}")
    finally:
        for send in sends:
            send.cancel()
        await link.close()


def _merge_reports(
    reports: Sequence[LiveReport], time_scale: float
) -> LiveReport:
    """Aggregate per-shard live reports into one farm-wide report.

    Counters sum; wall/sim spans take the max (shards ran
    concurrently); MPL sums (each broker's admitted population is
    disjoint); disk telemetry concatenates in shard order.
    """
    merged = LiveReport(
        policy=reports[0].policy,
        time_scale=time_scale,
        workers=sum(report.workers for report in reports),
    )
    for report in reports:
        merged.arrivals += report.arrivals
        merged.served += report.served
        merged.missed += report.missed
        merged.shed += report.shed
        merged.client_cancels += report.client_cancels
        merged.decisions += report.decisions
        merged.decision_seconds += report.decision_seconds
        merged.decision_max_seconds = max(
            merged.decision_max_seconds, report.decision_max_seconds
        )
        merged.wall_seconds = max(merged.wall_seconds, report.wall_seconds)
        merged.sim_seconds = max(merged.sim_seconds, report.sim_seconds)
        merged.observed_mpl += report.observed_mpl
        merged.pages_read += report.pages_read
        merged.pages_written += report.pages_written
        merged.bytes_moved += report.bytes_moved
        merged.pool_hits += report.pool_hits
        merged.pool_misses += report.pool_misses
        merged.disk_busy += report.disk_busy
        merged.disk_queue += report.disk_queue
        _merge_class_stats(merged.per_class, report.per_class)
        _merge_class_stats(merged.per_tenant, report.per_tenant)
    return merged


def _merge_class_stats(
    target: Dict[str, ClassCounts], source: Dict[str, ClassCounts]
) -> None:
    for name, stats in source.items():
        slot = target.setdefault(name, ClassCounts())
        slot.arrivals += stats.arrivals
        slot.served += stats.served
        slot.missed += stats.missed
        slot.shed += stats.shed


def _cross_check_sharded(report: LiveShootoutReport) -> None:
    """The routed farm's laws, replacing the fidelity gate:

    * conservation per policy -- router arrivals == Σ shard arrivals
      == Σ shard (served + shed), and every arrival was answered;
    * router and shard per-tenant arrival counts agree (no traffic
      mis-attributed across the migration);
    * router traffic identical across policies (the schedule is
      policy-independent);
    * on unclipped runs with real traffic, the rebalancer migrated at
      least one tenant off the packed cold-start.
    """
    arrivals_by_policy: Dict[str, int] = {}
    for policy in report.policies:
        stats = report.router_stats.get(policy)
        if not stats:
            check_fail(
                report,
                "shard-conservation",
                f"{policy}: no router stats collected",
            )
            continue
        conservation = stats.get("conservation", {})
        if not conservation.get("complete"):
            check_fail(
                report,
                "shard-conservation",
                f"{policy}: conservation violated after drain -- "
                f"router arrivals {conservation.get('router_arrivals')}, "
                f"shard arrivals {conservation.get('shard_arrivals')}, "
                f"settled {conservation.get('settled')}, "
                f"responses {conservation.get('responses')}",
            )
        arrivals_by_policy[policy] = int(stats.get("arrivals", 0))
        shard_tenant: Dict[str, int] = {}
        for shard_stats in stats.get("shards", []):
            for tenant, tenant_stats in shard_stats.get(
                "per_tenant", {}
            ).items():
                shard_tenant[tenant] = shard_tenant.get(tenant, 0) + int(
                    tenant_stats.get("arrivals", 0)
                )
        if shard_tenant != stats.get("per_tenant"):
            check_fail(
                report,
                "tenant-attribution",
                f"{policy}: router per-tenant counts "
                f"{stats.get('per_tenant')} disagree with the shards' "
                f"{shard_tenant} -- tenant traffic mis-attributed",
            )
    if len(set(arrivals_by_policy.values())) > 1:
        check_fail(
            report,
            "router-determinism",
            f"router arrivals differ across policies: {arrivals_by_policy} "
            "-- the open-loop schedule is policy-independent",
        )
    if not report.clipped:
        # Clipped runs may end before a rebalance window fires.
        for policy in report.policies:
            stats = report.router_stats.get(policy) or {}
            if int(stats.get("arrivals", 0)) < 8:
                continue  # too little traffic to call anything skew
            if not stats.get("migrations"):
                check_fail(
                    report,
                    "rebalance",
                    f"{policy}: every tenant started packed on one shard but "
                    "the rebalancer never migrated -- skew detection is dead "
                    f"(passes={stats.get('rebalance_passes')})",
                )
        check_pass(report, "rebalance")
    for name in (
        "shard-conservation",
        "tenant-attribution",
        "router-determinism",
    ):
        check_pass(report, name)


@dataclass
class ChaosShootoutReport(UnifiedReport):
    """Every policy's degraded-mode outcome under one fault schedule."""

    scenario: Scenario
    schedule: FaultSchedule
    policies: Sequence[str]
    live: Dict[str, LiveReport]
    time_scale: float
    #: Cross-check verdicts (``{name, ok, detail}``); ``failures`` and
    #: ``ok`` derive from them.
    checks: List[Dict[str, object]] = field(default_factory=list)

    def unified(self) -> ShootoutReport:
        """Project into the shared :class:`ShootoutReport` surface."""
        columns = [
            Column("miss", digits=3),
            Column("served"),
            Column("shed"),
            Column("retries"),
            Column("reroutes"),
            Column("fastfail"),
            Column("breaker"),
            Column("pfaults"),
            Column("shrinks"),
            Column("mpl", digits=2),
        ]
        rows = []
        for policy in self.policies:
            report = self.live.get(policy)
            if report is None:  # gateway did not survive: failure row
                rows.append(PolicyRow(policy=policy, values={}))
                continue
            rows.append(
                PolicyRow(
                    policy=report.policy,
                    values={
                        "miss": report.miss_ratio,
                        "served": report.served,
                        "shed": report.shed,
                        "retries": report.disk_retries,
                        "reroutes": report.disk_reroutes,
                        "fastfail": report.disk_fast_fails,
                        "breaker": report.breaker_opens,
                        "pfaults": report.policy_faults,
                        "shrinks": report.pool_shrinks,
                        "mpl": report.observed_mpl,
                    },
                )
            )
        return ShootoutReport(
            kind="chaos-shootout",
            title=(
                f"Chaos shootout: {self.scenario.name} "
                f"({self.scenario.content_hash[:10]}) under faults "
                f"{self.schedule.content_hash[:10]}, "
                f"time_scale={self.time_scale}"
            ),
            columns=columns,
            rows=rows,
            meta={
                "scenario": self.scenario.name,
                "scenario_hash": self.scenario.content_hash,
                "fault_schedule_hash": self.schedule.content_hash,
                "time_scale": self.time_scale,
            },
            sections=[self.schedule.describe()],
            checks=self.checks,
            failure_heading="CHAOS INVARIANT FAILURES",
            success_line=(
                "All chaos invariants held: ledgers empty, chunk "
                "counters conserved, zero grant leaks."
            ),
        )


def chaos_shootout(
    policies: Sequence[str] = DEFAULT_POLICIES,
    family: str = "memorythief",
    index: int = 0,
    scenario_seed: int = 0,
    fault_seed: int = 0,
    time_scale: float = 0.05,
    workers: Optional[int] = None,
    horizon: Optional[float] = None,
    max_arrivals: Optional[int] = None,
    invariants: bool = True,
) -> ChaosShootoutReport:
    """Run every policy under one identical seeded fault schedule.

    No DES prediction column here -- the simulator has no fault plane,
    so the checks are survival laws, not fidelity: the run completes
    for every policy (no policy exception, disk outage, or memory
    spike kills the gateway), arrivals are conserved
    (``served + shed == arrivals``), the grant ledger and broker are
    empty after close, and every disk's chunk counters balance.
    """
    generator = ScenarioGenerator(scenario_seed)
    scenario = generator.generate(family, index)
    config = scenario.config
    policy_list = tuple(policies)
    schedule_span = horizon if horizon is not None else config.duration
    fault_schedule = FaultSchedule.generate(
        fault_seed, config, horizon=schedule_span
    )

    live: Dict[str, LiveReport] = {}
    report = ChaosShootoutReport(
        scenario=scenario,
        schedule=fault_schedule,
        policies=policy_list,
        live=live,
        time_scale=time_scale,
    )
    for policy in policy_list:
        gateway = LiveGateway(
            config,
            policy,
            time_scale=time_scale,
            workers=workers,
            invariants=invariants,
            faults=fault_schedule,
            shed_overload=True,
        )
        schedule = build_schedule(
            config,
            gateway.dataplane.database,
            horizon=horizon,
            max_arrivals=max_arrivals,
        )
        try:
            live[policy] = asyncio.run(gateway.run_schedule(schedule))
        except Exception as error:
            check_fail(
                report,
                "gateway-survival",
                f"{policy}: gateway did not survive the schedule: "
                f"{type(error).__name__}: {error}",
            )
            continue
        _chaos_check_gateway(report, policy, gateway)
    _chaos_check(report)
    return report


def _chaos_check_gateway(
    report: ChaosShootoutReport, policy: str, gateway: LiveGateway
) -> None:
    """Post-drain survival laws for one policy's gateway."""
    if gateway.pool.reserved_pages:
        check_fail(
            report,
            "grant-ledger",
            f"{policy}: grant ledger holds {gateway.pool.reserved_pages} "
            "pages after close -- grant leak",
        )
    if gateway.broker.present_count:
        check_fail(
            report,
            "broker-empty",
            f"{policy}: broker still tracks {gateway.broker.present_count} "
            "queries after close",
        )
    for index, disk in enumerate(gateway.disks):
        balanced = disk.chunks_submitted == disk.chunks_served + disk.chunks_cancelled
        if not balanced or disk.queue_depth or disk.in_service:
            check_fail(
                report,
                "disk-conservation",
                f"{policy}: disk {index} chunk counters do not balance "
                f"(submitted={disk.chunks_submitted} "
                f"served={disk.chunks_served} "
                f"cancelled={disk.chunks_cancelled} "
                f"queued={disk.queue_depth} in_service={disk.in_service})",
            )


def _chaos_check(report: ChaosShootoutReport) -> None:
    arrival_counts = {
        policy: result.arrivals for policy, result in report.live.items()
    }
    if len(set(arrival_counts.values())) > 1:
        check_fail(
            report,
            "arrival-determinism",
            f"arrival counts differ across policies: {arrival_counts} -- "
            "the open-loop schedule is policy-independent",
        )
    for policy, result in report.live.items():
        if result.served + result.shed != result.arrivals:
            check_fail(
                report,
                "arrival-conservation",
                f"{policy}: {result.arrivals} arrivals but {result.served} "
                f"served + {result.shed} shed -- queries were lost or "
                "duplicated under faults",
            )
        if not 0.0 <= result.miss_ratio <= 1.0:
            check_fail(
                report,
                "report-sanity",
                f"{policy}: miss ratio {result.miss_ratio} outside [0, 1]",
            )
    for name in (
        "gateway-survival",
        "grant-ledger",
        "broker-empty",
        "disk-conservation",
        "arrival-determinism",
        "arrival-conservation",
        "report-sanity",
    ):
        check_pass(report, name)


def _cross_check_tenants(report: LiveShootoutReport) -> None:
    """Multi-tenant laws: tenant accounting must conserve and the
    (policy-independent) per-tenant traffic must be identical across
    policies -- every tenant shares the one pool and disk farm, but no
    tenant's queries may be lost, duplicated, or re-attributed."""
    per_tenant_counts: Dict[str, Dict[str, int]] = {}
    for policy, result in report.live.items():
        if len(result.per_tenant) != report.tenants:
            check_fail(
                report,
                "tenant-accounting",
                f"{policy}: report covers {len(result.per_tenant)} tenants, "
                f"expected {report.tenants}",
            )
        tenant_served = sum(stats.served for stats in result.per_tenant.values())
        tenant_missed = sum(stats.missed for stats in result.per_tenant.values())
        if tenant_served != result.served or tenant_missed != result.missed:
            check_fail(
                report,
                "tenant-accounting",
                f"{policy}: per-tenant counts ({tenant_served} served, "
                f"{tenant_missed} missed) do not sum to the totals "
                f"({result.served} served, {result.missed} missed)",
            )
        per_tenant_counts[policy] = {
            tenant: stats.served for tenant, stats in result.per_tenant.items()
        }
    distinct = {
        tuple(sorted(counts.items())) for counts in per_tenant_counts.values()
    }
    if len(distinct) > 1:
        check_fail(
            report,
            "tenant-accounting",
            f"per-tenant served counts differ across policies: "
            f"{per_tenant_counts} -- tenant traffic is policy-independent "
            "by construction",
        )
    check_pass(report, "tenant-accounting")
