#!/usr/bin/env python
"""Benchmark the live serving layer and write ``BENCH_serve.json``.

Four probes:

* **admission** -- the broker decision path exactly as the gateway
  drives it (register -> reallocate -> enforce through the buffer
  pool -> depart -> reallocate), measured per policy over a
  churning population: sustained admission decisions/second plus
  per-decision latency percentiles.  The serve-smoke CI job asserts
  the sustained rate stays above ``MIN_DECISIONS_PER_SEC``.
* **live replay** -- one scenario replayed open-loop through the full
  asyncio gateway (workers, pacing, real byte traffic): sustained
  queries/second and end-to-end decision rate under load.  This leg is
  *arrival-pacing-bound*: the gateway idles between scheduled Poisson
  arrivals, so its q/s measures fidelity-preserving replay, not
  capacity.
* **live capacity** -- the same scenario with the arrival instants
  compressed (slacks untouched) so queries land as fast as the plane
  can absorb them: sustained q/s with the gateway *capacity-bound* --
  the number that actually moves when the data plane gets faster.
* **shed** -- an overload burst of arrivals whose deadlines are
  already infeasible: sustained shed decisions/second on the reject
  path.  Overload survival depends on rejecting doomed work much
  faster than admitting it; a slow reject path is itself an overload
  amplifier.
* **router** -- a doomed-submit burst through the consistent-hash
  front end over real TCP: two in-process shed-enabled shards behind a
  :class:`~repro.serve.router.ShardRouter`, one pipelining client,
  responses correlated by tag.  Measures the full routed round trip
  (client -> router -> shard -> router -> client) on the cheapest
  server path, i.e. pure routing overhead.

Run locally with::

    PYTHONPATH=src python scripts/bench_serve.py [--output BENCH_serve.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: The serve acceptance floor: the admission path must sustain at
#: least this many decisions per second (it typically does 2-3x; the
#: proportional bisection is the historically slowest path and holds
#: ~10k/s after its grant-exact shortcuts).
MIN_DECISIONS_PER_SEC = 8000

#: The reject path must stay far cheaper than admission: a shed is a
#: counter bump and a structured response, no broker registration, no
#: reallocation (it typically sustains hundreds of thousands/second).
MIN_SHEDS_PER_SEC = 5000

#: The routed round trip adds two TCP hops and a JSON re-encode per
#: query on top of the shard's own work; the router must not become
#: the bottleneck (it typically sustains several thousand/second).
MIN_ROUTED_PER_SEC = 1000


def bench_admission(policy_spec: str, decisions: int, population: int) -> dict:
    """Time the gateway's decision path over a churning population."""
    from repro.core.broker import MemoryBroker
    from repro.policies import make_policy
    from repro.core.devices import BufferPool

    policy = make_policy(policy_spec)
    broker = MemoryBroker(policy, total_pages=256, sample_size=30)
    pool = BufferPool(256)
    latencies = []
    qid = 0
    # Seed a standing population of mixed-demand queries.
    for qid in range(population):
        broker.register(qid, f"C{qid % 3}", 100.0 + qid, 4 + qid % 13, 20 + qid % 90)
    started = time.perf_counter()
    for step in range(decisions):
        tick = time.perf_counter()
        decision = broker.reallocate(now=float(step))
        pool.apply(decision.allocation)
        latencies.append(time.perf_counter() - tick)
        # Churn: the oldest query departs, a fresh one arrives.
        victim = qid - population + 1
        broker.release(victim)
        pool.release(victim)
        qid += 1
        broker.register(
            qid, f"C{qid % 3}", 100.0 + qid, 4 + qid % 13, 20 + qid % 90
        )
    elapsed = time.perf_counter() - started
    latencies.sort()
    return {
        "decisions": decisions,
        "population": population,
        "decisions_per_sec": round(decisions / elapsed),
        "latency_us": {
            "p50": round(latencies[len(latencies) // 2] * 1e6, 1),
            "p99": round(latencies[int(len(latencies) * 0.99)] * 1e6, 1),
            "max": round(latencies[-1] * 1e6, 1),
        },
    }


def bench_live(time_scale: float) -> dict:
    """Replay one scenario through the full gateway."""
    from repro.scenarios import ScenarioGenerator
    from repro.serve.gateway import run_live

    scenario = ScenarioGenerator(0).generate("mix", 0)
    started = time.perf_counter()
    report = asyncio.run(
        run_live(scenario.config, "minmax", time_scale=time_scale)
    )
    elapsed = time.perf_counter() - started
    return {
        "scenario": scenario.name,
        "time_scale": time_scale,
        "wall_s": round(elapsed, 3),
        "served": report.served,
        "miss_ratio": round(report.miss_ratio, 4),
        "queries_per_sec": round(report.queries_per_sec, 1),
        "decisions_per_sec": round(report.decisions_per_sec, 1),
        "decision_latency_mean_us": round(report.decision_latency_mean_us, 1),
        "bytes_moved": report.bytes_moved,
        "pool_hit_ratio": round(report.pool_hit_ratio, 4),
        "disk_queue_s": round(report.disk_queue_seconds, 4),
    }


def bench_live_capacity(time_scale: float, compress: float) -> dict:
    """Replay the scenario with arrivals compressed ``compress``-fold.

    Each arrival keeps its slack (``deadline - arrival``) so per-query
    urgency is untouched; only the inter-arrival gaps shrink.  Under
    heavy compression the gateway stops idling between arrivals and the
    measured q/s is bounded by the data plane itself (worker pacing,
    disk arms, admission) rather than by the Poisson schedule.
    """
    from dataclasses import replace

    from repro.scenarios import ScenarioGenerator
    from repro.serve.gateway import LiveGateway
    from repro.serve.workload import build_schedule

    scenario = ScenarioGenerator(0).generate("mix", 0)

    async def run():
        gateway = LiveGateway(scenario.config, "minmax", time_scale=time_scale)
        schedule = build_schedule(scenario.config, gateway.dataplane.database)
        compressed = replace(
            schedule,
            arrivals=tuple(
                replace(
                    arrival,
                    arrival=arrival.arrival / compress,
                    deadline=arrival.arrival / compress + arrival.time_constraint,
                )
                for arrival in schedule.arrivals
            ),
        )
        return await gateway.run_schedule(compressed)

    started = time.perf_counter()
    report = asyncio.run(run())
    elapsed = time.perf_counter() - started
    return {
        "scenario": scenario.name,
        "time_scale": time_scale,
        "compress": compress,
        "wall_s": round(elapsed, 3),
        "served": report.served,
        "queries_per_sec": round(report.queries_per_sec, 1),
        "decisions_per_sec": round(report.decisions_per_sec, 1),
        "bytes_moved": report.bytes_moved,
        "disk_queue_s": round(report.disk_queue_seconds, 4),
    }


def bench_shed(burst: int) -> dict:
    """Time the overload reject path under a burst of doomed arrivals.

    Every burst arrival carries a deadline below its own stand-alone
    time, so the feasibility projection sheds each one at the door --
    the measured rate is pure reject-path cost (projection + counters +
    structured response state), no broker churn.
    """
    from dataclasses import replace

    from repro.scenarios import ScenarioGenerator
    from repro.serve.gateway import LiveGateway
    from repro.serve.workload import build_schedule

    scenario = ScenarioGenerator(0).generate("mix", 0)

    async def run():
        gateway = LiveGateway(
            scenario.config, "minmax", time_scale=1.0, shed_overload=True
        )
        schedule = build_schedule(
            scenario.config, gateway.dataplane.database, max_arrivals=1
        )
        template = schedule.arrivals[0]
        await gateway.start()
        try:
            now = gateway.sim_now()
            started = time.perf_counter()
            for qid in range(burst):
                gateway.submit(
                    replace(
                        template,
                        qid=1_000_000 + qid,
                        arrival=now,
                        deadline=now + template.standalone * 0.5,
                    )
                )
            elapsed = time.perf_counter() - started
        finally:
            await gateway.close()
        return gateway.report, elapsed

    report, elapsed = asyncio.run(run())
    assert report.shed == burst, "a doomed arrival was not shed"
    return {
        "burst": burst,
        "shed": report.shed,
        "sheds_per_sec": round(burst / elapsed),
    }


def bench_router(burst: int) -> dict:
    """Time the routed reject path: a doomed-submit burst through the
    consistent-hash front end over real TCP.

    Two in-process shards (each a shed-enabled gateway on half the
    scenario's disks and pool pages) sit behind a
    :class:`~repro.serve.router.ShardRouter`; one pipelining client
    writes the whole burst, then collects the out-of-order responses
    by tag.  Every submission carries an infeasible deadline, so each
    shard sheds it at the door and the measured rate is the routed
    round trip itself -- placement, forward, shard reject, relay.
    """
    from repro.scenarios import ScenarioGenerator
    from repro.serve.gateway import LiveGateway
    from repro.serve.router import LINE_LIMIT, ShardRouter
    from repro.serve.server import LiveServer
    from repro.serve.shard import shard_config

    config = ScenarioGenerator(0).generate("mix", 0).config
    shards = 2
    tenants = [f"tenant{i}" for i in range(8)]

    async def run():
        servers = []
        endpoints = []
        for shard_id in range(shards):
            gateway = LiveGateway(
                shard_config(config, shard_id, shards),
                "minmax",
                time_scale=1.0,
                shed_overload=True,
            )
            server = LiveServer(gateway, shard=(shard_id, shards))
            host, port = await server.start(port=0)
            servers.append(server)
            endpoints.append((host, port))
        router = ShardRouter(
            endpoints, ring_seed=config.seed, rebalance_interval=0.0
        )
        try:
            host, port = await router.start()
            reader, writer = await asyncio.open_connection(
                host, port, limit=LINE_LIMIT
            )
            try:

                async def read_all():
                    seen = 0
                    while seen < burst:
                        response = json.loads(await reader.readline())
                        assert response.get("shed"), response
                        seen += 1

                collector = asyncio.ensure_future(read_all())
                started = time.perf_counter()
                for index in range(burst):
                    writer.write(
                        json.dumps(
                            {
                                "op": "submit",
                                "type": "sort",
                                "pages": 8,
                                "slack": 0.01,
                                "tenant": tenants[index % len(tenants)],
                                "tag": index,
                            }
                        ).encode()
                        + b"\n"
                    )
                    if index % 64 == 0:
                        await writer.drain()
                await writer.drain()
                await collector
                elapsed = time.perf_counter() - started
                conservation = (await router.stats())["conservation"]
                assert conservation["complete"], conservation
            finally:
                writer.close()
        finally:
            await router.close()
            for server in servers:
                await server.close()
        return elapsed

    elapsed = asyncio.run(run())
    return {
        "burst": burst,
        "shards": shards,
        "routed_per_sec": round(burst / elapsed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_serve.json")
    parser.add_argument("--decisions", type=int, default=3000)
    parser.add_argument("--population", type=int, default=24)
    parser.add_argument("--time-scale", type=float, default=0.01)
    parser.add_argument("--compress", type=float, default=16.0)
    parser.add_argument("--shed-burst", type=int, default=5000)
    parser.add_argument("--router-burst", type=int, default=2000)
    parser.add_argument(
        "--skip-live", action="store_true", help="admission probe only"
    )
    args = parser.parse_args(argv)

    from repro.policies import DEFAULT_POLICIES
    from repro.serve.gateway import install_uvloop

    uvloop_active = install_uvloop()

    admission = {
        spec: bench_admission(spec, args.decisions, args.population)
        for spec in DEFAULT_POLICIES
    }
    payload = {
        "probe": "repro.serve admission + live replay + live capacity "
        "+ shed + router",
        "admission": admission,
        "shed": bench_shed(args.shed_burst),
        "router": bench_router(args.router_burst),
        "python": platform.python_version(),
        "uvloop": uvloop_active,
    }
    if not args.skip_live:
        payload["live"] = bench_live(args.time_scale)
        payload["live_capacity"] = bench_live_capacity(
            args.time_scale, args.compress
        )

    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    slowest = min(entry["decisions_per_sec"] for entry in admission.values())
    shed_rate = payload["shed"]["sheds_per_sec"]
    routed_rate = payload["router"]["routed_per_sec"]
    print(json.dumps(payload, indent=2))
    print(f"\nslowest admission path: {slowest} decisions/s "
          f"(floor {MIN_DECISIONS_PER_SEC})")
    print(f"shed (reject) path: {shed_rate} sheds/s "
          f"(floor {MIN_SHEDS_PER_SEC})")
    print(f"routed round trip: {routed_rate} queries/s "
          f"(floor {MIN_ROUTED_PER_SEC})")
    if slowest < MIN_DECISIONS_PER_SEC:
        print("FAIL: admission decision rate below the floor", file=sys.stderr)
        return 1
    if shed_rate < MIN_SHEDS_PER_SEC:
        print("FAIL: shed (reject) rate below the floor", file=sys.stderr)
        return 1
    if routed_rate < MIN_ROUTED_PER_SEC:
        print("FAIL: routed round-trip rate below the floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
