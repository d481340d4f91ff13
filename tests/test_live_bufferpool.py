"""The shared live data plane: buffer-pool ledger conservation (via the
InvariantChecker), LRU hit-ratio monotonicity vs pool size, per-disk
ED+elevator scheduling and chunk conservation under concurrent access,
and determinism of the multi-tenant live shootout at a fixed seed."""

import asyncio

import pytest

from repro.core.broker import MemoryBroker
from repro.policies import make_policy
from repro.rtdbs.config import ResourceParams
from repro.rtdbs.invariants import InvariantChecker, InvariantViolation
from repro.serve.dataplane import (
    GrantOversubscribedError,
    LiveBufferPool,
    LiveDisk,
    PageStore,
)


def make_pool(total_pages=100):
    return LiveBufferPool(total_pages)


# ----------------------------------------------------------------------
# ledger conservation (InvariantChecker on the live pool)
# ----------------------------------------------------------------------
def test_pool_ledger_checked_by_invariants():
    pool = make_pool(100)
    broker = MemoryBroker(make_policy("minmax"), 100, sample_size=10)
    checker = InvariantChecker().attach_broker(broker, pool=pool)
    assert pool.invariants is checker

    pool.apply({1: 40, 2: 30})
    assert pool.reserved_pages == 70
    assert pool.free_pages == 30
    assert pool.cache.capacity == 30  # LRU region = unreserved remainder
    pool.release(1)
    assert pool.cache.capacity == 70
    assert checker.checks["buffers"] == 2  # one check per ledger update

    checker.detach()
    assert pool.invariants is None
    assert broker.invariants is None


def test_pool_ledger_corruption_raises():
    pool = make_pool(100)
    broker = MemoryBroker(make_policy("minmax"), 100, sample_size=10)
    checker = InvariantChecker().attach_broker(broker, pool=pool)
    pool.apply({1: 40})
    # Corrupt the LRU capacity law behind the pool's back.
    pool.cache.capacity = 99
    with pytest.raises(InvariantViolation):
        checker.check_buffers(pool)
    assert checker.failures


def test_pool_apply_enforces_conservation_before_caching():
    pool = make_pool(50)
    with pytest.raises(GrantOversubscribedError):
        pool.apply({1: 30, 2: 30})
    assert pool.reserved_pages == 0  # nothing installed
    assert pool.cache.capacity == 50


def test_pool_reservations_evict_cached_pages():
    pool = make_pool(10)
    pool.install(0, 0, 10)
    assert len(pool.cache) == 10
    pool.apply({1: 7})  # the LRU region shrinks under the reservation
    assert pool.cache.capacity == 3
    assert len(pool.cache) == 3


# ----------------------------------------------------------------------
# hit-ratio monotonicity vs pool size (LRU inclusion property)
# ----------------------------------------------------------------------
def access_trace(seed=7, length=400):
    """A reproducible mix of scans and re-reads over two disks."""
    import numpy as np

    rng = np.random.default_rng(seed)
    trace = []
    for _ in range(length):
        disk = int(rng.integers(0, 2))
        start = int(rng.integers(0, 40))
        npages = int(rng.integers(1, 5))
        trace.append((disk, start, npages))
    return trace


@pytest.mark.parametrize("trace_seed", [7, 11])
def test_hit_ratio_monotone_in_pool_size(trace_seed):
    trace = access_trace(seed=trace_seed)
    hits = []
    for capacity in (4, 8, 16, 32, 64, 128):
        pool = make_pool(capacity)
        for disk, start, npages in trace:
            if not pool.read_hit(disk, start, npages):
                pool.install(disk, start, npages)
        hits.append(pool.hits)
    assert hits == sorted(hits), (
        f"LRU is a stack algorithm: hits must be nondecreasing in pool "
        f"size, got {hits}"
    )
    assert hits[-1] > hits[0] > 0  # the sweep actually exercised reuse


# ----------------------------------------------------------------------
# per-disk ED+elevator scheduling and chunk conservation
# ----------------------------------------------------------------------
def live_disk():
    return LiveDisk(PageStore(0), ResourceParams(num_disks=1, memory_pages=16))


def test_disk_serves_most_urgent_chunk_first():
    """The live disk honours Earliest-Deadline order, as the DES does:
    chunks submitted later but with tighter deadlines overtake."""

    async def scenario():
        disk = live_disk()
        order = []

        async def chunk(tag, priority, hold):
            await disk.acquire(priority)
            try:
                order.append(tag)
                await asyncio.sleep(hold)
            finally:
                disk.release()

        first = asyncio.create_task(chunk("a", 5.0, 0.01))
        await asyncio.sleep(0.002)  # "a" holds the arm
        tasks = [
            asyncio.create_task(chunk(tag, priority, 0.0))
            for tag, priority in (("patient", 30.0), ("urgent", 1.0), ("mid", 10.0))
        ]
        await asyncio.gather(first, *tasks)
        return disk, order

    disk, order = asyncio.run(scenario())
    assert order == ["a", "urgent", "mid", "patient"]  # ED, not FIFO
    assert disk.chunks_submitted == 4
    assert disk.chunks_served == 0  # the gateway counts served chunks
    assert disk.chunks_cancelled == 0
    assert disk.queue_depth == 0
    assert not disk.in_service
    assert disk.queue_seconds > 0.0


def test_disk_elevator_breaks_priority_ties():
    """Equal-deadline chunks are served in elevator order: nearest
    cylinder in the sweep direction first."""

    async def scenario():
        disk = live_disk()
        head = disk.core.head
        cyl_size = disk.core._cylinder_size
        order = []

        async def chunk(tag, cylinder):
            await disk.acquire(7.0, cylinder)
            order.append(tag)
            disk.release()

        await disk.acquire(7.0)  # hold the arm while the tie builds
        # All three tie on priority; the sweep direction is +1, so the
        # nearest cylinder at-or-ahead of the head must win.
        tasks = [
            asyncio.create_task(chunk(tag, cylinder))
            for tag, cylinder in (
                ("far-ahead", head + 40),
                ("behind", head - 10),
                ("near-ahead", head + 4),
            )
        ]
        await asyncio.sleep(0)  # all three enqueue
        disk.release()
        await asyncio.gather(*tasks)
        assert cyl_size > 0  # geometry sanity (core is configured)
        return order

    order = asyncio.run(scenario())
    assert order[0] == "near-ahead"
    assert order == ["near-ahead", "far-ahead", "behind"]


def test_disk_honours_ed_under_cancellation():
    """A cancelled queued chunk must neither be served nor lose the
    conservation law, and the remaining chunks still run in ED order."""

    async def scenario():
        disk = live_disk()
        order = []

        async def chunk(tag, priority):
            await disk.acquire(priority)
            order.append(tag)
            disk.release()

        await disk.acquire(1.0)  # occupy the arm
        doomed = asyncio.create_task(chunk("doomed", 2.0))
        survivors = [
            asyncio.create_task(chunk(tag, priority))
            for tag, priority in (("late", 20.0), ("early", 5.0))
        ]
        await asyncio.sleep(0)  # all enqueue behind the held arm
        doomed.cancel()
        try:
            await doomed
        except asyncio.CancelledError:
            pass
        disk.release()
        await asyncio.gather(*survivors)
        return disk, order

    disk, order = asyncio.run(scenario())
    assert order == ["early", "late"]  # the cancelled chunk never served
    # Conservation: submitted == served-by-callers + cancelled + queued.
    assert disk.chunks_submitted == 4
    assert disk.chunks_cancelled == 1
    assert disk.queue_depth == 0
    assert not disk.in_service


def test_disk_conserves_chunks_through_cancellation():
    async def scenario():
        disk = live_disk()
        await disk.acquire()  # occupy the arm

        async def waiter():
            await disk.acquire()
            disk.release()  # pragma: no cover - cancelled first

        doomed = asyncio.create_task(waiter())
        await asyncio.sleep(0)  # the waiter enqueues
        doomed.cancel()
        try:
            await doomed
        except asyncio.CancelledError:
            pass
        disk.release()
        # The arm must be free and the cancelled chunk accounted for.
        await asyncio.wait_for(disk.acquire(), timeout=1.0)
        disk.release()
        return disk

    disk = asyncio.run(scenario())
    assert disk.chunks_submitted == 3
    assert disk.chunks_cancelled == 1
    assert disk.queue_depth == 0
    assert not disk.in_service


def test_disk_service_time_tracks_shared_streams():
    disk = live_disk()
    cold = disk.service_time(0, 8)  # seek + rotate + transfer
    warm = disk.service_time(8, 8)  # continues the tracked stream
    assert warm < cold
    assert disk.sequential_continuations == 1
    # A fresh access elsewhere pays positioning again.
    merge = disk.service_time(5000, 8)
    assert merge > warm


def test_disk_prefetch_cache_serves_recent_transfers():
    """Pages just transferred are prefetch-cache hits (no arm time),
    exactly as on the DES disk."""
    disk = live_disk()
    assert not disk.read_hit(0, 8)  # cold: nothing cached yet
    disk.service_time(0, 8)  # the transfer installs pages 0..7
    assert disk.read_hit(0, 8)
    assert disk.cache.hits == 1
    assert not disk.read_hit(8, 8)  # beyond the transferred range


def test_gateway_run_conserves_disk_chunks():
    """After a full live replay every chunk is served or cancelled --
    nothing queued, nothing holding an arm."""
    from repro.scenarios import ScenarioGenerator
    from repro.serve.gateway import LiveGateway
    from repro.serve.workload import build_schedule

    config = ScenarioGenerator(0).generate("mix", 0).config

    async def scenario():
        gateway = LiveGateway(config, "minmax", time_scale=0.005, invariants=True)
        schedule = build_schedule(
            config, gateway.dataplane.database, max_arrivals=30
        )
        report = await gateway.run_schedule(schedule)
        return gateway, report

    gateway, report = asyncio.run(scenario())
    assert report.served == 30
    for disk in gateway.disks:
        assert not disk.in_service
        assert disk.queue_depth == 0
        assert disk.chunks_submitted == disk.chunks_served + disk.chunks_cancelled
    assert report.pool_hits + report.pool_misses > 0
    assert report.disk_busy and sum(report.disk_busy) > 0.0


# ----------------------------------------------------------------------
# multi-tenant shootout determinism
# ----------------------------------------------------------------------
def test_tenant_shootout_served_counts_deterministic():
    from repro.serve.shootout import live_shootout

    def run():
        return live_shootout(
            policies=("max", "minmax"),
            time_scale=0.005,
            max_arrivals=15,
            invariants=True,
            predict=False,
            tenants=2,
        )

    first = run()
    second = run()
    assert first.ok, first.failures
    assert second.ok, second.failures
    for report in (first, second):
        assert report.tenants == 2
        assert len(report.scenario.config.workload.classes) == 2
    for policy in ("max", "minmax"):
        assert (
            first.live[policy].served == second.live[policy].served
        ), "served counts must be deterministic at a fixed seed"
        first_tenants = {
            tenant: stats.served
            for tenant, stats in first.live[policy].per_tenant.items()
        }
        second_tenants = {
            tenant: stats.served
            for tenant, stats in second.live[policy].per_tenant.items()
        }
        assert first_tenants == second_tenants
        assert sum(first_tenants.values()) == first.live[policy].served
