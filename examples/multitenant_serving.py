#!/usr/bin/env python
"""Two tenants, one memory broker: multi-tenant serving over TCP.

The paper's admission policies exist because concurrent queries fight
over one buffer pool and one disk farm.  This example makes that
concrete: a live server (`repro.serve`) runs a multitenant scenario's
configuration -- one query class per tenant -- and two tenants connect
over real TCP at the same time, submitting sorts and joins.  Every
submission flows through the *same* `MemoryBroker`, the same
cross-query `BufferPool` (grant ledger plus LRU region: one tenant's
scan warms the cache the other hits), and the same contended per-disk FIFO
queues.  At the end the server drains gracefully and we print the
per-tenant outcomes beside the shared-pool telemetry.

Run:  python examples/multitenant_serving.py
"""

import asyncio
import json

from repro.scenarios import ScenarioGenerator
from repro.serve import LiveGateway, LiveServer, find_multitenant_scenario

#: Tenants to connect (each becomes one TCP client).
TENANTS = ("acme", "globex")
#: Queries each tenant submits.
QUERIES_PER_TENANT = 4
#: Memory policy arbitrating between the tenants.
POLICY = "pmm"
#: Wall seconds per simulated second (0.02 = 50x faster than real time).
TIME_SCALE = 0.02


async def run_tenant(host: str, port: int, tenant: str) -> list:
    """One tenant's session: hello, then a burst of submissions."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            json.dumps({"op": "hello", "tenant": tenant}).encode() + b"\n"
        )
        await writer.drain()
        hello = json.loads(await reader.readline())
        print(f"  {tenant} connected -> class {hello['class']}")
        outcomes = []
        for index in range(QUERIES_PER_TENANT):
            request = {
                "op": "submit",
                "type": "sort" if index % 2 == 0 else "hash_join",
                "pages": 10 + 6 * index,
                "slack": 8.0,
            }
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            outcomes.append(json.loads(await reader.readline()))
        return outcomes
    finally:
        writer.close()


async def serve_and_query() -> None:
    scenario = find_multitenant_scenario(ScenarioGenerator(0), len(TENANTS))
    print(f"scenario {scenario.name} ({scenario.content_hash[:10]}): "
          f"{len(scenario.config.workload.classes)} tenant classes, "
          f"{scenario.config.resources.memory_pages} shared buffer pages, "
          f"{scenario.config.resources.num_disks} shared disks\n")

    gateway = LiveGateway(
        scenario.config, POLICY, time_scale=TIME_SCALE, invariants=True
    )
    server = LiveServer(gateway)
    host, port = await server.start(port=0)
    print(f"server: policy={gateway.policy.name} on {host}:{port}")

    results = await asyncio.gather(
        *(run_tenant(host, port, tenant) for tenant in TENANTS)
    )
    await server.close()  # graceful drain: every query has departed

    print(f"\n{'tenant':10s} {'served':>6s} {'missed':>6s} {'mean exec s':>11s}")
    for tenant, outcomes in zip(TENANTS, results):
        missed = sum(1 for outcome in outcomes if outcome["missed"])
        mean_exec = sum(o["execution_s"] for o in outcomes) / len(outcomes)
        print(f"{tenant:10s} {len(outcomes):6d} {missed:6d} {mean_exec:11.3f}")

    pool = gateway.pool
    report = gateway.report
    print(f"\nshared pool : {pool.hits} hits / {pool.misses} misses "
          f"(hit ratio {pool.hit_ratio:.3f}), "
          f"{pool.free_pages}/{pool.total_pages} pages free after drain")
    print(f"disk farm   : busy {sum(d.busy_seconds for d in gateway.disks):.2f} s, "
          f"queued {sum(d.queue_seconds for d in gateway.disks):.2f} s "
          "(FIFO contention between the tenants)")
    print(f"decisions   : {report.decisions} broker reallocations over "
          f"{report.served} departures")
    print("\nOne broker, one pool, one disk farm -- the tenants only ever "
          "met inside the\nmemory policy's allocation vectors.")


def main() -> None:
    asyncio.run(serve_and_query())


if __name__ == "__main__":
    main()
