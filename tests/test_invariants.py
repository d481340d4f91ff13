"""The InvariantChecker: hooks fire, honest runs pass, broken policies fail."""

import pytest

from repro import RTDBSystem, baseline
from repro.core.allocation import QueryDemand
from repro.policies.base import MemoryPolicy
from repro.rtdbs.invariants import (
    INVARIANTS_SIGNATURE,
    InvariantChecker,
    InvariantViolation,
    attach_invariants,
)


def tiny_config(**overrides):
    defaults = dict(arrival_rate=0.3, scale=0.05, seed=3, duration=80.0)
    defaults.update(overrides)
    return baseline(**defaults)


# ----------------------------------------------------------------------
# honest runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["max", "minmax", "minmax-2", "proportional", "pmm"])
def test_every_policy_passes_on_the_baseline(policy):
    system = RTDBSystem(tiny_config(), policy, invariants=True)
    result = system.run()
    checker = system.invariants
    assert isinstance(checker, InvariantChecker)
    # The hooks actually fired, at every seam, many times.
    assert checker.checks["allocation"] > 10
    assert checker.checks["buffers"] > 10
    assert checker.checks["population"] == result.served
    assert checker.checks["final"] == 1


def test_checker_is_off_by_default():
    system = RTDBSystem(tiny_config(), "minmax")
    assert system.invariants is None
    assert system.query_manager.invariants is None
    assert system.buffers.invariants is None


def test_attach_invariants_hook_and_signature():
    system = RTDBSystem(tiny_config(), "minmax")
    checker = attach_invariants(system)
    assert system.invariants is checker
    assert INVARIANTS_SIGNATURE == ("invariants", 1)
    system.run()
    assert checker.checks["final"] == 1


def test_checker_reuse_resets_state_on_reattach():
    """Regression: re-attaching a checker must not carry stale state.

    Attaching one checker to a second system used to raise; now it
    detaches from the first system, zeroes every counter, and forgets
    recorded failures -- so counts after the second run reflect that
    run alone and a stale failure can never poison a fresh run's
    ``check_final``.
    """
    first = RTDBSystem(tiny_config(), "minmax", invariants=True)
    checker = first.invariants
    first.run()
    first_counts = dict(checker.checks)
    assert first_counts["final"] == 1
    checker.failures.append("stale failure from a previous epoch")

    second = RTDBSystem(tiny_config(seed=5), "minmax")
    assert checker.attach(second) is checker
    # The first system is fully unhooked...
    assert first.invariants is None
    assert first.query_manager.invariants is None
    assert first.query_manager.broker.invariants is None
    assert first.buffers.invariants is None
    # ...and the counters restart from zero (no stale failures either).
    assert checker.checks == {
        "allocation": 0,
        "buffers": 0,
        "population": 0,
        "final": 0,
    }
    assert checker.failures == []
    result = second.run()
    assert checker.checks["final"] == 1
    assert checker.checks["population"] == result.served
    assert checker.checks["allocation"] > 0


def test_checker_reuse_on_standalone_broker():
    """A checker moves from a system to a broker (and back) cleanly."""
    from repro.core.broker import MemoryBroker
    from repro.policies import make_policy

    system = RTDBSystem(tiny_config(), "minmax", invariants=True)
    checker = system.invariants
    system.run()
    assert checker.checks["allocation"] > 0

    broker = MemoryBroker(make_policy("minmax"), total_pages=64, sample_size=10)
    checker.attach_broker(broker)
    assert system.invariants is None
    assert broker.invariants is checker
    assert checker.checks["allocation"] == 0
    broker.register(1, "C0", priority=10.0, min_pages=4, max_pages=16)
    broker.reallocate(now=0.0)
    assert checker.checks["allocation"] == 1


def test_disk_conservation_counters():
    system = RTDBSystem(tiny_config(), "minmax", invariants=True)
    system.run()
    total_submitted = sum(disk.submitted for disk in system.disks)
    assert total_submitted > 0
    for disk in system.disks:
        live = sum(1 for entry in disk._queue if not entry[2].cancelled)
        assert disk.submitted == (
            disk.cache.hits + disk.accesses + disk.cancelled_queued + live
        )


# ----------------------------------------------------------------------
# broken policies are caught
# ----------------------------------------------------------------------
class _BrokenPolicy(MemoryPolicy):
    """Delegates to MinMax, then corrupts the vector in a chosen way."""

    name = "Broken"

    def __init__(self, corruption: str):
        self.corruption = corruption

    def allocate(self, demands, memory, now=0.0):
        from repro.core.allocation import allocate_minmax

        allocation = allocate_minmax(demands, memory)
        granted = [qid for qid, pages in allocation.items() if pages > 0]
        if not granted:
            return allocation
        victim = granted[0]
        envelope = {demand.qid: demand for demand in demands}[victim]
        if self.corruption == "below_min" and envelope.min_pages > 1:
            allocation[victim] = envelope.min_pages - 1
        elif self.corruption == "negative":
            allocation[victim] = -1
        elif self.corruption == "oversubscribe":
            allocation[victim] = memory + envelope.max_pages
        elif self.corruption == "phantom":
            allocation[max(allocation) + 1000] = 1
        return allocation


@pytest.mark.parametrize(
    "corruption", ["below_min", "negative", "oversubscribe", "phantom"]
)
def test_corrupted_allocations_raise(corruption):
    system = RTDBSystem(tiny_config(), _BrokenPolicy(corruption), invariants=True)
    with pytest.raises(InvariantViolation):
        system.run()


class _OverMPLPolicy(MemoryPolicy):
    """Claims an MPL limit of 1 but admits without one."""

    name = "OverMPL"
    target_mpl = 1

    def allocate(self, demands, memory, now=0.0):
        from repro.core.allocation import allocate_minmax

        return allocate_minmax(demands, memory)


def test_mpl_limit_violation_raises():
    # High enough load that >1 query is eventually admitted.
    system = RTDBSystem(
        tiny_config(arrival_rate=0.6, duration=200.0), _OverMPLPolicy(), invariants=True
    )
    with pytest.raises(InvariantViolation):
        system.run()


def test_violation_message_carries_context():
    system = RTDBSystem(tiny_config(), _BrokenPolicy("negative"), invariants=True)
    with pytest.raises(InvariantViolation) as excinfo:
        system.run()
    message = str(excinfo.value)
    assert "allocation" in message
    assert "policy=Broken" in message
    assert "t=" in message


# ----------------------------------------------------------------------
# the result law used by the shootout cross-checks
# ----------------------------------------------------------------------
def test_check_result_flags_inconsistent_counts():
    result = RTDBSystem(tiny_config(), "minmax").run()
    checker = InvariantChecker()
    checker.check_result(result)  # a real result passes
    import dataclasses

    broken = dataclasses.replace(result, missed=result.missed + 1)
    with pytest.raises(InvariantViolation):
        checker.check_result(broken)


# ----------------------------------------------------------------------
# the live host: population conservation on every departure
# ----------------------------------------------------------------------
def live_gateway():
    from repro.scenarios import ScenarioGenerator
    from repro.serve.gateway import LiveGateway

    config = ScenarioGenerator(0).generate("mix", 0).config
    return LiveGateway(config, "minmax", time_scale=0.005, invariants=True)


def test_live_run_checks_population_on_every_departure():
    import asyncio

    from repro.serve.workload import build_schedule

    gateway = live_gateway()
    schedule = build_schedule(
        gateway.config, gateway.dataplane.database, max_arrivals=20
    )
    report = asyncio.run(gateway.run_schedule(schedule))
    checker = gateway.invariants
    assert isinstance(checker, InvariantChecker)
    assert checker.checks["population"] == report.served == 20


def test_live_grant_ledger_mismatch_is_a_violation():
    import asyncio

    from repro.serve.workload import build_schedule

    gateway = live_gateway()
    first, second = build_schedule(
        gateway.config, gateway.dataplane.database, max_arrivals=2
    ).arrivals

    async def scenario():
        await gateway.start()
        doctored = gateway.submit(first)
        victim = gateway.submit(second)
        doctored.grant.pages += 1  # bypasses the ledger
        try:
            with pytest.raises(InvariantViolation, match="ledger records"):
                gateway.depart(victim, missed=True)
        finally:
            doctored.grant.pages -= 1
            await gateway.close()

    asyncio.run(scenario())
