"""The live serving layer: allocator enforcement, schedule parity with
the simulator, the asyncio gateway end to end, and the TCP server."""

import asyncio
import json

import pytest

from repro import RTDBSystem
from repro.core.devices import BufferPool
from repro.scenarios import ScenarioGenerator
from repro.serve.dataplane import (
    GrantOversubscribedError,
    LiveDataPlane,
    PageStore,
)
from repro.serve.gateway import LiveGateway, PriorityWorkerGate, run_live
from repro.serve.workload import build_schedule


def scenario_config(family="mix", index=0, seed=0):
    return ScenarioGenerator(seed).generate(family, index).config


# ----------------------------------------------------------------------
# grant enforcement
# ----------------------------------------------------------------------
def test_allocator_tracks_holdings():
    allocator = BufferPool(100)
    allocator.apply({1: 40, 2: 60})
    assert allocator.reserved_pages == 100
    assert allocator.free_pages == 0
    assert allocator.reservation_of(1) == 40
    allocator.release(1)
    assert allocator.reserved_pages == 60
    allocator.apply({2: 10})  # a full vector replaces the ledger
    assert allocator.reservation_of(2) == 10


def test_allocator_rejects_oversubscription():
    allocator = BufferPool(100)
    with pytest.raises(GrantOversubscribedError):
        allocator.apply({1: 70, 2: 40})


def test_allocator_rejects_negative_grants():
    allocator = BufferPool(100)
    with pytest.raises(GrantOversubscribedError):
        allocator.apply({1: -5})


# ----------------------------------------------------------------------
# the page store
# ----------------------------------------------------------------------
def test_page_store_deterministic_content_and_roundtrip():
    store = PageStore(disk=0, payload_bytes=64)
    first = store.read(10, 3)
    assert len(first) == 3 * 64
    assert store.read(10, 3) == first  # unwritten pages are stable
    assert first != store.read(13, 3)  # distinct pages, distinct bytes
    store.write(10, b"x" * 64)
    assert store.read(10, 1) == b"x" * 64
    assert store.pages_written == 1
    assert store.pages_read == 10


# ----------------------------------------------------------------------
# schedule parity with the simulator
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "family",
    ["mix", "bursty", "phases", "multitenant", "heavytail", "memorythief"],
)
def test_schedule_matches_simulator_arrivals(family):
    config = scenario_config(family=family, index=0)
    system = RTDBSystem(config, "max")
    submitted = []
    original_submit = system.query_manager.submit

    def spy(job):
        submitted.append(job)
        original_submit(job)

    system.query_manager.submit = spy
    result = system.run()
    plane = LiveDataPlane(config)
    schedule = build_schedule(config, plane.database)
    assert len(schedule.arrivals) == result.arrivals == len(submitted)
    # Every scheduled arrival is, field for field and bit for bit, the
    # job the simulator's query manager received.
    for arrival, job in zip(schedule.arrivals, submitted):
        operator = job.operator
        inner = getattr(operator, "inner", None) or operator.relation
        outer = getattr(operator, "outer", None)
        assert (
            arrival.qid,
            arrival.class_name,
            arrival.arrival,
            arrival.deadline,
            arrival.standalone,
            arrival.inner.rel_id,
            arrival.outer.rel_id if arrival.outer is not None else None,
            arrival.temp_disk,
        ) == (
            job.qid,
            job.class_name,
            job.arrival,
            job.deadline,
            job.standalone,
            inner.rel_id,
            outer.rel_id if outer is not None else None,
            operator.temp_disk,
        )
    # Deadlines are feasible and strictly ordered per query.
    for arrival in schedule.arrivals:
        assert arrival.deadline > arrival.arrival
        assert arrival.standalone > 0


def test_schedule_is_deterministic_and_capped():
    config = scenario_config()
    plane = LiveDataPlane(config)
    first = build_schedule(config, plane.database)
    second = build_schedule(config, plane.database)
    assert [a.qid for a in first.arrivals] == [a.qid for a in second.arrivals]
    assert [a.deadline for a in first.arrivals] == [
        a.deadline for a in second.arrivals
    ]
    capped = build_schedule(config, plane.database, max_arrivals=5)
    assert len(capped.arrivals) == 5
    assert [a.qid for a in capped.arrivals] == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# the ED worker gate
# ----------------------------------------------------------------------
def test_priority_gate_serves_most_urgent_waiter_first():
    async def scenario():
        gate = PriorityWorkerGate(1)
        await gate.acquire(priority=1.0)  # occupy the only slot
        order = []

        async def waiter(priority):
            await gate.acquire(priority)
            order.append(priority)
            gate.release()

        tasks = [
            asyncio.create_task(waiter(p)) for p in (30.0, 10.0, 20.0)
        ]
        await asyncio.sleep(0)  # all three enqueue
        gate.release()  # hand the slot to the most urgent
        await asyncio.gather(*tasks)
        return order

    assert asyncio.run(scenario()) == [10.0, 20.0, 30.0]


def test_priority_gate_recovers_slot_from_cancelled_handoff():
    """Regression: a waiter cancelled in the same loop pass its slot is
    handed over must give the slot back, not leak it."""

    async def scenario():
        gate = PriorityWorkerGate(1)
        await gate.acquire(1.0)

        async def waiter():
            await gate.acquire(2.0)
            gate.release()  # pragma: no cover - the waiter is cancelled

        blocked = asyncio.create_task(waiter())
        await asyncio.sleep(0)  # the waiter enqueues
        gate.release()  # hands the slot to the waiter's future...
        blocked.cancel()  # ...which is cancelled before it resumes
        try:
            await blocked
        except asyncio.CancelledError:
            pass
        # The slot must be available again.
        await asyncio.wait_for(gate.acquire(3.0), timeout=1.0)
        return True

    assert asyncio.run(scenario())


# ----------------------------------------------------------------------
# the gateway end to end
# ----------------------------------------------------------------------
def test_live_replay_serves_every_query():
    config = scenario_config()
    report = asyncio.run(
        run_live(
            config,
            "minmax",
            time_scale=0.005,
            max_arrivals=40,
            invariants=True,
        )
    )
    assert report.arrivals == 40
    assert report.served == 40  # firm deadlines: every query departs
    assert 0.0 <= report.miss_ratio <= 1.0
    assert report.decisions >= 80  # one per arrival + one per departure
    assert report.observed_mpl > 0.0
    assert report.pages_read > 0
    assert sum(s.served for s in report.per_class.values()) == 40


def test_live_gateway_releases_all_grants():
    config = scenario_config(family="heavytail", index=0)

    async def scenario():
        gateway = LiveGateway(config, "pmm", time_scale=0.005, invariants=True)
        schedule = build_schedule(
            config, gateway.dataplane.database, max_arrivals=25
        )
        report = await gateway.run_schedule(schedule)
        return gateway, report

    gateway, report = asyncio.run(scenario())
    assert report.served == 25
    assert gateway.pool.reserved_pages == 0  # every grant returned
    assert gateway.broker.present_count == 0
    assert gateway.broker.departures == 25


def test_hopeless_deadline_is_aborted_and_counted_missed():
    config = scenario_config()

    async def scenario():
        gateway = LiveGateway(config, "max", time_scale=0.02)
        schedule = build_schedule(config, gateway.dataplane.database, max_arrivals=1)
        await gateway.start()
        arrival = schedule.arrivals[0]
        # Rewrite the deadline to something unmeetable (1 ms of slack).
        from dataclasses import replace

        doomed = replace(
            arrival, arrival=gateway.sim_now(), deadline=gateway.sim_now() + 0.05
        )
        gateway.submit(doomed)
        await gateway.drain()
        await gateway.close()
        return gateway

    gateway = asyncio.run(scenario())
    assert gateway.report.served == 1
    assert gateway.report.missed == 1
    assert gateway.pool.reserved_pages == 0


def test_broken_policy_fails_the_live_run_loudly():
    """Regression: an oversubscribing decision made on a departure path
    (an asyncio task, no awaiter) must surface through drain(), not be
    swallowed by the event loop while the run hangs or 'passes'."""
    from dataclasses import replace

    from repro.core.allocation import allocate_minmax
    from repro.policies.base import MemoryPolicy

    class LateBrokenPolicy(MemoryPolicy):
        name = "LateBroken"

        def __init__(self):
            self.calls = 0

        def allocate(self, demands, memory, now=0.0):
            self.calls += 1
            if self.calls >= 3 and demands:
                return {demands[0].qid: 2 * memory}  # oversubscribe
            return allocate_minmax(demands, memory)

    config = scenario_config()

    async def scenario():
        gateway = LiveGateway(config, LateBrokenPolicy(), time_scale=0.01)
        schedule = build_schedule(config, gateway.dataplane.database, max_arrivals=2)
        await gateway.start()
        try:
            now = gateway.sim_now()
            for arrival in schedule.arrivals:
                gateway.submit(
                    replace(arrival, arrival=now, deadline=now + 1000.0)
                )
            await gateway.drain()  # decision 3 fires on the departure path
        finally:
            await gateway.close()

    with pytest.raises(GrantOversubscribedError):
        asyncio.run(scenario())


# ----------------------------------------------------------------------
# the TCP server
# ----------------------------------------------------------------------
def test_server_submission_roundtrip():
    config = scenario_config()

    async def scenario():
        from repro.serve.server import LiveServer

        gateway = LiveGateway(config, "minmax", time_scale=0.01)
        server = LiveServer(gateway)
        host, port = await server.start(port=0)
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                json.dumps(
                    {"op": "submit", "type": "sort", "pages": 12, "slack": 50.0}
                ).encode()
                + b"\n"
            )
            await writer.drain()
            submit_response = json.loads(await reader.readline())
            writer.write(json.dumps({"op": "stats"}).encode() + b"\n")
            await writer.drain()
            stats_response = json.loads(await reader.readline())
        finally:
            writer.close()
            await server.close()
        return submit_response, stats_response

    submitted, stats = asyncio.run(scenario())
    assert submitted["admitted"] is True
    assert submitted["missed"] is False
    assert submitted["qid"] == 0
    assert stats["served"] == 1
    assert stats["policy"] == "MinMax"


def test_server_multi_tenant_roundtrip_and_drain():
    """Two concurrent TCP tenants share one gateway (one broker, one
    pool, one disk farm); per-tenant stats must conserve and shutdown
    must drain gracefully."""
    from repro.scenarios import ScenarioGenerator
    from repro.serve.server import LiveServer
    from repro.serve.shootout import find_multitenant_scenario

    scenario = find_multitenant_scenario(ScenarioGenerator(0), 2)

    async def tenant(host, port, name, submissions):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                json.dumps({"op": "hello", "tenant": name}).encode() + b"\n"
            )
            await writer.drain()
            hello = json.loads(await reader.readline())
            responses = []
            for _ in range(submissions):
                writer.write(
                    json.dumps(
                        {"op": "submit", "type": "sort", "pages": 8, "slack": 30.0}
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                responses.append(json.loads(await reader.readline()))
            return hello, responses
        finally:
            writer.close()

    async def scenario_run():
        gateway = LiveGateway(scenario.config, "pmm", time_scale=0.01)
        server = LiveServer(gateway)
        host, port = await server.start(port=0)
        results = await asyncio.gather(
            tenant(host, port, "acme", 2), tenant(host, port, "globex", 2)
        )
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(json.dumps({"op": "stats"}).encode() + b"\n")
        await writer.drain()
        stats = json.loads(await reader.readline())
        writer.close()
        await server.close()
        return server, gateway, results, stats

    server, gateway, results, stats = asyncio.run(scenario_run())
    (acme_hello, acme), (globex_hello, globex) = results
    # Tenants map onto distinct per-tenant scenario classes.
    assert {acme_hello["class"], globex_hello["class"]} == {
        "tenant0",
        "tenant1",
    }
    for name, responses in (("acme", acme), ("globex", globex)):
        assert all(r["tenant"] == name for r in responses)
    per_tenant = stats["per_tenant"]
    assert set(per_tenant) == {"acme", "globex"}
    assert all(entry["served"] == 2 for entry in per_tenant.values())
    assert stats["served"] == 4
    assert 0.0 <= stats["pool_hit_ratio"] <= 1.0
    assert stats["disk_busy_s"] > 0.0
    # Graceful drain left nothing behind.
    assert server.draining
    assert gateway.broker.present_count == 0
    assert gateway.pool.reserved_pages == 0


def test_server_refuses_submissions_while_draining():
    config = scenario_config()

    async def scenario():
        from repro.serve.server import LiveServer

        gateway = LiveGateway(config, "max", time_scale=0.01)
        server = LiveServer(gateway)
        host, port = await server.start(port=0)
        await server.close()
        response = await server._dispatch({"op": "submit", "pages": 4})
        return response  # pragma: no cover - _dispatch raises

    with pytest.raises(ValueError, match="draining"):
        asyncio.run(scenario())


def test_server_rejects_malformed_submissions():
    config = scenario_config()

    async def scenario():
        from repro.serve.server import LiveServer

        gateway = LiveGateway(config, "max", time_scale=0.01)
        server = LiveServer(gateway)
        host, port = await server.start(port=0)
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                json.dumps({"op": "submit", "type": "sort", "pages": -3}).encode()
                + b"\n"
            )
            await writer.drain()
            response = json.loads(await reader.readline())
        finally:
            writer.close()
            await server.close()
        return response

    assert "error" in asyncio.run(scenario())


# ----------------------------------------------------------------------
# hostile-client hardening
# ----------------------------------------------------------------------
def _make_server():
    from repro.serve.server import LiveServer

    gateway = LiveGateway(scenario_config(), "max", time_scale=0.01)
    return LiveServer(gateway), gateway


class _RoutedShard:
    """One server shard behind a router, started and closed as one
    front end (clients only ever see the router)."""

    def __init__(self):
        self.shard, _ = _make_server()
        self.router = None

    async def start(self, port=0):
        from repro.serve.router import ShardRouter

        host, shard_port = await self.shard.start(port=0)
        self.router = ShardRouter([(host, shard_port)], rebalance_interval=0.0)
        return await self.router.start(port=port)

    async def close(self):
        await self.router.close()
        await self.shard.close()


#: Both JSON-lines front ends, behind one start/close surface.
FRONT_ENDS = {"server": lambda: _make_server()[0], "router": _RoutedShard}


def _stats_policy(stats):
    """The policy a ``stats`` reply names, served directly or routed."""
    if "shards" in stats:
        return stats["shards"][0]["policy"]
    return stats["policy"]


async def _stats_over(host, port):
    from repro.serve.router import LINE_LIMIT

    reader, writer = await asyncio.open_connection(host, port, limit=LINE_LIMIT)
    try:
        writer.write(json.dumps({"op": "stats"}).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()


async def _served_lines(front_end, *lines):
    """Feed raw lines to a fresh front end; returns the parsed responses
    plus a final stats response proving the connection loop survived."""
    from repro.serve.router import LINE_LIMIT

    server = FRONT_ENDS[front_end]()
    host, port = await server.start(port=0)
    reader, writer = await asyncio.open_connection(host, port, limit=LINE_LIMIT)
    responses = []
    try:
        for line in lines:
            writer.write(line)
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
        writer.write(json.dumps({"op": "stats"}).encode() + b"\n")
        await writer.drain()
        responses.append(json.loads(await reader.readline()))
    finally:
        writer.close()
        await server.close()
    return responses


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
def test_server_survives_malformed_json(front_end):
    responses = asyncio.run(
        _served_lines(front_end, b"this is not json\n")
    )
    assert "malformed JSON" in responses[0]["error"]
    assert _stats_policy(responses[-1]) == "Max"  # the loop kept serving


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
def test_server_survives_non_object_json(front_end):
    responses = asyncio.run(_served_lines(front_end, b"[1, 2, 3]\n"))
    assert responses[0]["error"] == "request must be a JSON object"
    assert _stats_policy(responses[-1]) == "Max"


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
def test_server_oversized_line_gets_an_error_then_close(front_end):
    from repro.serve.router import LINE_LIMIT

    # Over the front end's line limit (the server's 64 KiB asyncio
    # default, the router's LINE_LIMIT): framing is unrecoverable, so
    # one structured error, then a clean EOF -- the front end half-closes
    # and reads off the rest of the line, so even the router's line,
    # still in flight when the error goes out, ends without a reset.
    size = {"server": 100_000, "router": LINE_LIMIT + 100_000}[front_end]

    async def scenario():
        server = FRONT_ENDS[front_end]()
        host, port = await server.start(port=0)
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(b"x" * size + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            trailing = await reader.read()
            stats = await _stats_over(host, port)
        finally:
            writer.close()
            await server.close()
        return response, trailing, stats

    response, trailing, stats = asyncio.run(scenario())
    assert response == {"error": "request line too long"}
    assert trailing == b""  # closed cleanly, not reset
    assert _stats_policy(stats) == "Max"  # ...and kept accepting others


def test_server_disconnect_cancels_query_and_releases_grant():
    config = scenario_config()

    async def scenario():
        from repro.serve.server import LiveServer

        gateway = LiveGateway(config, "max", time_scale=0.05)
        server = LiveServer(gateway)
        host, port = await server.start(port=0)
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            json.dumps(
                {"op": "submit", "type": "sort", "pages": 40, "slack": 1000.0}
            ).encode()
            + b"\n"
        )
        await writer.drain()
        # Wait until the query is genuinely in flight, then vanish
        # without ever reading the response.
        for _ in range(200):
            if gateway.broker.present_count:
                break
            await asyncio.sleep(0.005)
        assert gateway.broker.present_count == 1
        writer.close()
        for _ in range(200):
            if not gateway.broker.present_count:
                break
            await asyncio.sleep(0.005)
        await server.close()
        return gateway

    gateway = asyncio.run(scenario())
    assert gateway.report.client_cancels == 1
    assert gateway.broker.present_count == 0
    assert gateway.pool.reserved_pages == 0
    assert gateway.report.served == 1  # departed (as a miss), not lost
    assert gateway.report.missed == 1


# ----------------------------------------------------------------------
# front-end lifecycle regressions
# ----------------------------------------------------------------------
def test_submit_failure_does_not_leak_waiter():
    """A ``gateway.submit`` that raises mid-dispatch must not leave the
    qid's departure waiter behind: nothing would ever pop it, and the
    map would grow by one dead future per failed submission."""

    async def scenario():
        from repro.serve.server import LiveServer

        gateway = LiveGateway(scenario_config(), "max", time_scale=0.01)
        server = LiveServer(gateway)
        host, port = await server.start(port=0)

        def exploding_submit(arrival):
            raise RuntimeError("broker on fire")

        gateway.submit = exploding_submit
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                json.dumps(
                    {"op": "submit", "type": "sort", "pages": 8, "slack": 30.0}
                ).encode()
                + b"\n"
            )
            await writer.drain()
            response = json.loads(await reader.readline())
        finally:
            writer.close()
        waiters = dict(server._waiters)
        await server.close()
        return response, waiters

    response, waiters = asyncio.run(scenario())
    assert "broker on fire" in response["error"]
    assert waiters == {}  # the failed submit cleaned up after itself


def test_server_close_is_idempotent():
    """Repeated and concurrent ``close()`` calls drain the gateway
    exactly once; late callers wait for the first drain instead of
    re-draining a closed gateway."""

    async def scenario():
        from repro.serve.server import LiveServer

        gateway = LiveGateway(scenario_config(), "max", time_scale=0.01)
        server = LiveServer(gateway)
        await server.start(port=0)
        closes = {"count": 0}
        original = gateway.close

        async def counted_close():
            closes["count"] += 1
            await original()

        gateway.close = counted_close
        await asyncio.gather(server.close(), server.close())
        await server.close()
        return closes["count"]

    assert asyncio.run(scenario()) == 1


def test_tenant_class_mapping_is_precomputed():
    """``tenant_class`` sits on the submit path: the class tables are
    computed once at construction, never re-derived from the config."""
    from repro.serve.server import LiveServer

    gateway = LiveGateway(scenario_config(), "max", time_scale=0.01)
    server = LiveServer(gateway)
    names = [qc.name for qc in gateway.config.workload.classes]
    # A tenant named after a scenario class keeps that class.
    assert server.tenant_class(names[0]) == names[0]
    # Sabotage the config: lookups must keep working off the
    # precomputed tables (the regression rebuilt a set from the config
    # for every unseen tenant).
    gateway.config = None
    first = server.tenant_class("acme")
    assert first in names
    assert server.tenant_class("acme") == first  # sticky
    assert server.tenant_class("globex") in names


@pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
def test_server_echoes_request_tags(front_end):
    """Any request may carry a ``tag``; the response echoes it (the
    router multiplexes out-of-order submit responses on this)."""
    responses = asyncio.run(
        _served_lines(
            front_end,
            json.dumps({"op": "stats", "tag": 7}).encode() + b"\n",
            json.dumps({"op": "bogus", "tag": "t-1"}).encode() + b"\n",
        )
    )
    assert responses[0]["tag"] == 7
    assert _stats_policy(responses[0]) == "Max"
    assert responses[1]["tag"] == "t-1"  # errors are tagged too
    assert "error" in responses[1]
    assert "tag" not in responses[-1]  # untagged requests stay untagged
