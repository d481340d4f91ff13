"""The sharded serve layer: config slicing, the consistent-hash ring,
router conservation over real TCP, rebalancer migration under forced
skew, and drain-through-router semantics."""

import asyncio
import json

import pytest

from repro.scenarios import ScenarioGenerator
from repro.serve.gateway import LiveGateway
from repro.serve.router import LINE_LIMIT, HashRing, ShardLink, ShardRouter
from repro.serve.server import LiveServer
from repro.serve.shard import shard_config, split_evenly
from repro.serve.shootout import find_multitenant_scenario


def two_tenant_config():
    return find_multitenant_scenario(ScenarioGenerator(0), 2).config


# ----------------------------------------------------------------------
# resource slicing
# ----------------------------------------------------------------------
def test_split_evenly_conserves_with_remainder_low():
    assert split_evenly(10, 3) == [4, 3, 3]
    assert split_evenly(4, 2) == [2, 2]
    assert split_evenly(7, 7) == [1] * 7
    assert sum(split_evenly(154, 3)) == 154
    with pytest.raises(ValueError):
        split_evenly(5, 0)


def test_shard_config_identity_at_one():
    config = two_tenant_config()
    assert shard_config(config, 0, 1) is config  # byte-identical path


def test_shard_config_slices_conserve_resources():
    config = two_tenant_config()
    shards = 2
    slices = [shard_config(config, i, shards) for i in range(shards)]
    assert (
        sum(s.resources.num_disks for s in slices)
        == config.resources.num_disks
    )
    assert (
        sum(s.resources.memory_pages for s in slices)
        == config.resources.memory_pages
    )
    for sliced in slices:
        sliced.validate()  # every shard is a runnable config
        # The workload definition stays global: any shard serves any
        # tenant, prices deadlines with the same classes.
        assert sliced.workload == config.workload
        assert sliced.seed == config.seed


def test_shard_config_rejects_bad_splits():
    config = two_tenant_config()
    with pytest.raises(ValueError):
        shard_config(config, 2, 2)  # id out of range
    with pytest.raises(ValueError):
        shard_config(config, -1, 2)
    with pytest.raises(ValueError):
        shard_config(config, 0, 0)
    too_many = config.resources.num_disks + 1
    with pytest.raises(ValueError, match="disk"):
        shard_config(config, 0, too_many)


# ----------------------------------------------------------------------
# placement determinism
# ----------------------------------------------------------------------
def test_hash_ring_deterministic_in_seed():
    tenants = [f"tenant{i}" for i in range(100)]
    first = HashRing(4, seed=7)
    second = HashRing(4, seed=7)
    placements = [first.place(t) for t in tenants]
    assert placements == [second.place(t) for t in tenants]
    # The ring spreads tenants, it does not degenerate to one shard.
    assert len(set(placements)) > 1
    # A different seed is a different ring.
    other = HashRing(4, seed=8)
    assert placements != [other.place(t) for t in tenants]


def test_hash_ring_rejects_empty():
    with pytest.raises(ValueError):
        HashRing(0)


# ----------------------------------------------------------------------
# the routed farm, in process over real TCP
# ----------------------------------------------------------------------
async def _start_farm(
    policy="pmm", time_scale=0.01, shards=2, **router_kwargs
):
    """N in-process shard servers on shard_config slices + the router."""
    config = two_tenant_config()
    servers, endpoints = [], []
    for shard_id in range(shards):
        gateway = LiveGateway(
            shard_config(config, shard_id, shards),
            policy,
            time_scale=time_scale,
        )
        server = LiveServer(gateway, shard=(shard_id, shards))
        host, port = await server.start(port=0)
        servers.append(server)
        endpoints.append((host, port))
    router = ShardRouter(endpoints, ring_seed=config.seed, **router_kwargs)
    address = await router.start()
    return config, servers, router, address


async def _stop_farm(servers, router):
    await router.close()
    for server in servers:
        await server.close()


async def _request(writer, reader, payload):
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def test_router_conserves_across_two_shards_with_concurrent_tenants():
    async def scenario():
        _, servers, router, (host, port) = await _start_farm(
            rebalance_interval=0.0  # placement fixed: pure ring
        )
        try:

            async def tenant_client(tenant, count):
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    hello = await _request(
                        writer, reader, {"op": "hello", "tenant": tenant}
                    )
                    responses = []
                    for index in range(count):
                        response = await _request(
                            writer,
                            reader,
                            {
                                "op": "submit",
                                "type": "sort",
                                "pages": 8,
                                "slack": 50.0,
                                "tag": f"{tenant}-{index}",
                            },
                        )
                        responses.append(response)
                    return hello, responses
                finally:
                    writer.close()

            results = await asyncio.gather(
                tenant_client("tenant0", 3), tenant_client("tenant1", 3)
            )
            stats = await router.stats()
            return results, stats
        finally:
            await _stop_farm(servers, router)

    results, stats = asyncio.run(scenario())
    for hello, responses in results:
        assert hello["shard"] in (0, 1)
        for index, response in enumerate(responses):
            assert "error" not in response, response
            # Tag correlation and shard attribution on every response.
            assert response["tag"].endswith(str(index))
            assert response["shard"] == hello["shard"]
    conservation = stats["conservation"]
    assert conservation["ok"], conservation
    assert conservation["complete"], conservation
    assert stats["arrivals"] == 6
    assert stats["per_tenant"] == {"tenant0": 3, "tenant1": 3}
    assert sum(stats["routed"]) == 6
    # Router counters agree with what the shards themselves report.
    assert (
        sum(s["arrivals"] for s in stats["shards"]) == stats["arrivals"]
    )
    for shard_stats in stats["shards"]:
        assert shard_stats["served"] + shard_stats["shed"] == shard_stats[
            "arrivals"
        ]


def test_rebalancer_migrates_off_forced_skew():
    """Both tenants packed on shard 0 (worst-case cold start): the
    rebalancer must read the skew out of the shards' batch feedback
    and migrate one tenant; new submissions then route to shard 1."""

    async def scenario():
        _, servers, router, (host, port) = await _start_farm(
            rebalance_interval=0.05,
            min_skew_arrivals=2,
            placement={"tenant0": 0, "tenant1": 0},
        )
        try:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                before = []
                for index in range(4):
                    tenant = f"tenant{index % 2}"
                    response = await _request(
                        writer,
                        reader,
                        {
                            "op": "submit",
                            "type": "sort",
                            "pages": 8,
                            "slack": 50.0,
                            "tenant": tenant,
                            "tag": index,
                        },
                    )
                    before.append(response)
                for _ in range(200):  # wait for a rebalance pass
                    if router.migrations:
                        break
                    await asyncio.sleep(0.02)
                migrations = list(router.migrations)
                moved = migrations[0].tenant if migrations else None
                after = None
                if moved:
                    after = await _request(
                        writer,
                        reader,
                        {
                            "op": "submit",
                            "type": "sort",
                            "pages": 8,
                            "slack": 50.0,
                            "tenant": moved,
                            "tag": "after",
                        },
                    )
                stats = await router.stats()
                return before, migrations, after, stats
            finally:
                writer.close()
        finally:
            await _stop_farm(servers, router)

    before, migrations, after, stats = asyncio.run(scenario())
    # The first submission predates any possible migration (a pass
    # needs >= 2 window arrivals), so it must land on the packed shard.
    assert before[0]["shard"] == 0, before
    assert migrations, "rebalancer never migrated off the packed placement"
    migration = migrations[0]
    assert migration.source == 0 and migration.target == 1
    # New submissions route to the new shard; the in-flight ones above
    # already drained on the old one (their responses all arrived).
    assert after is not None and after["shard"] == 1, after
    assert stats["placement"][migration.tenant] == 1
    assert stats["conservation"]["complete"], stats["conservation"]


def test_router_drain_answers_inflight_and_refuses_new():
    async def scenario():
        _, servers, router, (host, port) = await _start_farm(
            time_scale=0.02, rebalance_interval=0.0
        )
        try:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # One long-lived query in flight (response not read yet).
                writer.write(
                    json.dumps(
                        {
                            "op": "submit",
                            "type": "sort",
                            "pages": 40,
                            "slack": 50.0,
                            "tenant": "tenant0",
                            "tag": "inflight",
                        }
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                await asyncio.sleep(0.05)  # let it reach the shard
                drain = asyncio.ensure_future(router.drain_stats())
                await asyncio.sleep(0.02)
                # A new submission while draining; its refusal and the
                # in-flight query's answer arrive in either order, so
                # read both lines and correlate by tag.
                writer.write(
                    json.dumps(
                        {
                            "op": "submit",
                            "type": "sort",
                            "pages": 8,
                            "slack": 50.0,
                            "tenant": "tenant1",
                            "tag": "late",
                        }
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                by_tag = {}
                for _ in range(2):
                    response = json.loads(await reader.readline())
                    by_tag[response["tag"]] = response
                stats = await drain
                return by_tag["late"], by_tag["inflight"], stats
            finally:
                writer.close()
        finally:
            await _stop_farm(servers, router)

    refused, inflight, stats = asyncio.run(scenario())
    assert refused["tag"] == "late"
    assert "draining" in refused["error"]
    assert inflight["tag"] == "inflight"
    assert "error" not in inflight
    conservation = stats["conservation"]
    # Only the in-flight query was ever accepted; it settled and was
    # answered, so the drained farm conserves.
    assert stats["arrivals"] == 1
    assert conservation["complete"], conservation


def test_router_close_is_idempotent():
    async def scenario():
        _, servers, router, _ = await _start_farm(rebalance_interval=0.0)
        await _stop_farm(servers, router)
        await router.close()  # second close: no-op, no exception
        for server in servers:
            await server.close()

    asyncio.run(scenario())


def test_dead_shard_link_fails_later_requests_at_once():
    """Once a link's read loop ends, a new request must fail with
    ``ConnectionError`` instead of registering a future that nothing
    will ever resolve."""

    async def scenario():
        async def read_one_then_hang_up(reader, writer):
            await reader.readline()
            writer.close()

        shard = await asyncio.start_server(read_one_then_hang_up, "127.0.0.1", 0)
        host, port = shard.sockets[0].getsockname()[:2]
        link = ShardLink(host, port)
        await link.connect()
        errors = []
        try:
            for _ in range(2):
                try:
                    await asyncio.wait_for(
                        link.request({"op": "stats"}), timeout=2.0
                    )
                except ConnectionError as error:
                    errors.append(error)
        finally:
            await link.close()
            shard.close()
            await shard.wait_closed()
        return errors

    errors = asyncio.run(scenario())
    # The first request was in flight when the shard hung up; the
    # second came after and failed at once (no 2 s timeout).
    assert len(errors) == 2, errors


def test_router_answers_dead_shard_as_unreachable_and_keeps_serving():
    async def scenario():
        _, servers, router, (host, port) = await _start_farm(
            rebalance_interval=0.0, placement={"tenant0": 0, "tenant1": 1}
        )
        loop = asyncio.get_running_loop()
        try:
            await servers[1].close()  # shard 1 dies; its link sees EOF
            reader, writer = await asyncio.open_connection(
                host, port, limit=LINE_LIMIT
            )
            try:
                submit = {
                    "op": "submit", "type": "sort", "pages": 8, "slack": 50.0
                }
                dead_submit = await asyncio.wait_for(
                    _request(writer, reader, {**submit, "tenant": "tenant1"}),
                    timeout=5.0,
                )
                dead_stats = await asyncio.wait_for(
                    _request(writer, reader, {"op": "stats"}), timeout=5.0
                )
                live_submit = await _request(
                    writer, reader, {**submit, "tenant": "tenant0"}
                )
            finally:
                writer.close()
        finally:
            started = loop.time()
            await _stop_farm(servers, router)
            close_seconds = loop.time() - started
        return dead_submit, dead_stats, live_submit, close_seconds

    dead_submit, dead_stats, live_submit, close_seconds = asyncio.run(
        scenario()
    )
    assert "shard unreachable" in dead_submit["error"], dead_submit
    assert "shard unreachable" in dead_stats["error"], dead_stats
    # The connection kept serving the live shard's tenant.
    assert "error" not in live_submit, live_submit
    assert live_submit["shard"] == 0
    # No handler stayed pinned on the dead link, so close did not sit
    # out its idle bound.
    assert close_seconds < 10.0, close_seconds


def test_drain_with_a_dead_shard_reports_it_and_leaves_conservation_unverified():
    """The ``route`` CLI's SIGINT drain must end in a verdict, not a
    traceback, when a shard died: the dead shard is named, the live
    one still reports, and the conservation check is unverified."""
    from repro.serve.__main__ import _drain_verdict

    async def scenario():
        _, servers, router, (host, port) = await _start_farm(
            rebalance_interval=0.0, placement={"tenant0": 0, "tenant1": 1}
        )
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=LINE_LIMIT
            )
            try:
                submit = {
                    "op": "submit", "type": "sort", "pages": 8, "slack": 50.0
                }
                for tenant in ("tenant0", "tenant1"):
                    reply = await _request(
                        writer, reader, {**submit, "tenant": tenant}
                    )
                    assert "error" not in reply, reply
            finally:
                writer.close()
            await servers[1].close()  # shard 1 dies; its link sees EOF
            final = await asyncio.wait_for(router.drain_stats(), timeout=10.0)
        finally:
            await _stop_farm(servers, router)
        return final

    final = asyncio.run(scenario())
    assert final["unreachable"] == [1]
    assert final["shards"][1] == {}
    assert final["shards"][0]["arrivals"] == 1  # the live shard reported
    conservation = final["conservation"]
    assert conservation["verified"] is False
    assert not conservation["ok"] and not conservation["complete"]
    ok, verdict = _drain_verdict(final)
    assert not ok
    assert verdict.startswith("UNVERIFIED") and "[1]" in verdict


# ----------------------------------------------------------------------
# the sharded shootout pipeline (clipped: no migration requirement)
# ----------------------------------------------------------------------
def test_route_schedule_raises_on_a_refused_submission():
    """The shootout's routed replay fails loudly on any ``error``
    reply instead of counting a refused submission as served."""
    from repro.serve.dataplane import LiveDataPlane
    from repro.serve.shootout import _route_schedule
    from repro.serve.workload import build_schedule

    config = two_tenant_config()
    schedule = build_schedule(
        config, LiveDataPlane(config).database, max_arrivals=3
    )

    async def refuse_all(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            tag = json.loads(line).get("tag")
            writer.write(
                json.dumps({"error": "refused", "tag": tag}).encode() + b"\n"
            )
        writer.close()

    async def scenario():
        front = await asyncio.start_server(refuse_all, "127.0.0.1", 0)
        host, port = front.sockets[0].getsockname()[:2]
        try:
            await _route_schedule(host, port, schedule, time_scale=0.0)
        finally:
            front.close()
            await front.wait_closed()

    with pytest.raises(RuntimeError, match="refused a submission"):
        asyncio.run(scenario())


def test_sharded_shootout_conserves_and_merges():
    from repro.serve.shootout import live_shootout

    report = live_shootout(
        policies=("max",),
        time_scale=0.01,
        max_arrivals=10,
        tenants=2,
        shards=2,
        predict=False,
    )
    assert report.ok, report.failures
    assert report.shards == 2
    merged = report.live["max"]
    assert merged.arrivals == 10
    assert merged.served == 10
    stats = report.router_stats["max"]
    assert stats["conservation"]["complete"], stats["conservation"]
    # The merged farm report spans both shards' disk farms.
    total_disks = two_tenant_config().resources.num_disks
    assert len(merged.disk_busy) == total_disks


def test_sharded_shootout_requires_tenants():
    from repro.serve.shootout import live_shootout

    with pytest.raises(ValueError, match="tenants"):
        live_shootout(policies=("max",), shards=2, time_scale=0.01)
