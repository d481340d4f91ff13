"""The fault-injection plane: schedules, survival laws, crash recovery."""

import asyncio
import json
from dataclasses import replace

import pytest

from repro.scenarios import ScenarioGenerator
from repro.serve.faults import (
    DEGRADE,
    OUTAGE,
    CircuitBreaker,
    DiskFaultWindow,
    FaultSchedule,
    FaultyPolicy,
    JournalRecorder,
    MemoryPressureWindow,
    PolicyFaultError,
    load_journal,
    recover_journal,
)
from repro.serve.gateway import LiveGateway, run_live
from repro.serve.workload import build_schedule


def scenario_config(family="memorythief", index=0, seed=0):
    return ScenarioGenerator(seed).generate(family, index).config


def run_chaos(config, policy, faults, shed=True, max_arrivals=25):
    """One live run under faults; returns (gateway, report)."""

    async def scenario():
        gateway = LiveGateway(
            config,
            policy,
            time_scale=0.005,
            invariants=True,
            faults=faults,
            shed_overload=shed,
        )
        schedule = build_schedule(
            config, gateway.dataplane.database, max_arrivals=max_arrivals
        )
        report = await gateway.run_schedule(schedule)
        return gateway, report

    return asyncio.run(scenario())


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def test_fault_schedule_deterministic_and_content_hashed():
    config = scenario_config()
    first = FaultSchedule.generate(7, config)
    again = FaultSchedule.generate(7, config)
    assert first == again
    assert first.content_hash == again.content_hash
    assert first.content_hash != FaultSchedule.generate(8, config).content_hash
    # Every generated schedule mixes the fault kinds the chaos gate
    # needs: at least one disk outage, a memory thief, policy faults,
    # and stalled clients.
    assert any(w.kind == OUTAGE for w in first.disk_windows)
    assert first.memory_windows
    assert first.policy_faults
    assert first.stalled_clients >= 1
    assert first.active
    assert not FaultSchedule.empty().active


def test_fault_schedule_windows_fit_horizon():
    config = scenario_config()
    for seed in range(10):
        schedule = FaultSchedule.generate(seed, config, horizon=20.0)
        for window in schedule.disk_windows:
            assert 0.0 <= window.start < window.end <= 20.0
            assert 0 <= window.disk < config.resources.num_disks
        for window in schedule.memory_windows:
            assert 0.0 <= window.start < window.end <= 20.0
            assert 0 < window.stolen_pages < config.resources.memory_pages


def test_faulty_policy_raises_only_on_scheduled_ordinals():
    from repro.policies.registry import make_policy

    policy = FaultyPolicy(make_policy("max"), ordinals=(2,))
    assert policy.allocate({}, 100) == {}
    with pytest.raises(PolicyFaultError):
        policy.allocate({}, 100)
    assert policy.allocate({}, 100) == {}  # delegation untouched after
    assert policy.faults_raised == 1
    assert policy.name == "Max"  # attribute delegation


def test_circuit_breaker_opens_and_half_opens():
    breaker = CircuitBreaker(threshold=2, cooldown=1.0)
    breaker.record_failure(0.0)
    assert not breaker.is_open(0.0)
    breaker.record_failure(0.1)
    assert breaker.opens == 1
    assert breaker.is_open(0.5)
    # Cooldown over: half-open, one probe allowed, one failure re-opens.
    assert not breaker.is_open(2.0)
    breaker.record_failure(2.0)
    assert breaker.is_open(2.5)
    assert breaker.opens == 2
    breaker.record_success()
    assert not breaker.is_open(2.5)
    assert breaker.failures == 0


# ----------------------------------------------------------------------
# the no-fault path is unchanged
# ----------------------------------------------------------------------
def test_empty_schedule_changes_nothing():
    """Running under the empty schedule is structurally the no-fault
    gateway: no injector, no policy proxy, and every degraded-mode
    counter stays zero."""
    config = scenario_config(family="mix")
    gateway = LiveGateway(config, "minmax", faults=FaultSchedule.empty())
    assert gateway._injector is None
    assert not isinstance(gateway.policy, FaultyPolicy)

    baseline = asyncio.run(
        run_live(config, "minmax", time_scale=0.01, max_arrivals=20)
    )
    under_empty = asyncio.run(
        run_live(
            config,
            "minmax",
            time_scale=0.01,
            max_arrivals=20,
            faults=FaultSchedule.empty(),
        )
    )
    assert under_empty.served == baseline.served == under_empty.arrivals
    for report in (baseline, under_empty):
        assert report.shed == 0
        assert report.disk_retries == 0
        assert report.disk_reroutes == 0
        assert report.disk_fast_fails == 0
        assert report.breaker_opens == 0
        assert report.policy_faults == 0
        assert report.pool_shrinks == 0
        assert report.client_cancels == 0
    # Identical code path, so only wall-clock pacing jitter separates
    # the two runs (the CI fidelity gate bounds the ratio against the
    # DES at its slower, stabler time scale).
    assert abs(under_empty.miss_ratio - baseline.miss_ratio) <= 0.25


# ----------------------------------------------------------------------
# survival laws (property test over random seeded schedules)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fault_seed", [0, 1, 2, 3, 4])
def test_random_fault_schedules_conserve_everything(fault_seed):
    config = scenario_config()
    faults = FaultSchedule.generate(fault_seed, config)
    gateway, report = run_chaos(config, "pmm", faults)
    # Arrival conservation: every query was served or shed, never lost.
    assert report.served + report.shed == report.arrivals
    # Zero grant leaks and an empty broker after close.
    assert gateway.pool.reserved_pages == 0
    assert gateway.broker.present_count == 0
    # Disk chunk conservation, per disk, including the cancelled ones.
    for disk in gateway.disks:
        assert disk.chunks_submitted == disk.chunks_served + disk.chunks_cancelled
        assert disk.queue_depth == 0
        assert not disk.in_service
    # Fault windows were actually opened and closed back to healthy.
    for disk in gateway.disks:
        assert not disk.faulted
        assert disk.core.fault_multiplier == 1.0
    assert gateway.broker.total_pages == config.resources.memory_pages


def test_outage_drives_retries_breaker_and_reroutes():
    config = scenario_config()
    assert config.resources.num_disks >= 2
    faults = FaultSchedule(
        seed=0,
        disk_windows=(
            DiskFaultWindow(0, 0.0, config.duration, OUTAGE),
        ),
    )
    gateway, report = run_chaos(config, "minmax", faults, shed=False)
    assert report.disk_outages == 1
    assert report.disk_retries > 0
    assert report.breaker_opens >= 1
    # With a healthy replica available, cacheable reads reroute.
    assert report.disk_reroutes > 0
    assert report.served == report.arrivals
    assert gateway.pool.reserved_pages == 0


def test_degrade_window_stretches_service_and_restores():
    config = scenario_config()
    faults = FaultSchedule(
        seed=0,
        disk_windows=(
            DiskFaultWindow(0, 0.0, config.duration, DEGRADE, factor=4.0),
        ),
    )
    gateway, report = run_chaos(config, "minmax", faults, shed=False)
    assert report.disk_degrades == 1
    assert report.served == report.arrivals
    assert gateway.disks[0].core.fault_multiplier == 1.0  # restored


def test_memory_thief_shrinks_and_restores_the_pool():
    config = scenario_config()
    steal = config.resources.memory_pages // 2
    faults = FaultSchedule(
        seed=0,
        memory_windows=(
            MemoryPressureWindow(1.0, config.duration / 2, steal),
        ),
    )
    gateway, report = run_chaos(config, "pmm", faults, shed=False)
    assert report.pool_shrinks == 1
    assert report.served == report.arrivals
    # The theft window ended (or was cancelled at close): full pool back.
    assert gateway.broker.total_pages == config.resources.memory_pages
    assert gateway.pool.total_pages == config.resources.memory_pages
    assert gateway.pool.reserved_pages == 0


def test_policy_faults_are_survived_not_fatal():
    config = scenario_config()
    faults = FaultSchedule(seed=0, policy_faults=(1, 2, 3))
    gateway, report = run_chaos(config, "minmax", faults, shed=False)
    assert report.policy_faults == 3
    assert report.served == report.arrivals
    assert gateway.pool.reserved_pages == 0


def test_overload_sheds_infeasible_arrivals_at_the_door():
    config = scenario_config(family="mix")

    async def scenario():
        gateway = LiveGateway(
            config, "max", time_scale=0.01, shed_overload=True
        )
        schedule = build_schedule(
            config, gateway.dataplane.database, max_arrivals=6
        )
        await gateway.start()
        try:
            now = gateway.sim_now()
            feasible = replace(
                schedule.arrivals[0], arrival=now, deadline=now + 1000.0
            )
            job = gateway.submit(feasible)
            assert job.state != "shed"
            for arrival in schedule.arrivals[1:]:
                # Deadline below the query's own stand-alone time:
                # infeasible even with an idle server.
                doomed = replace(
                    arrival,
                    arrival=now,
                    deadline=now + arrival.standalone * 0.5,
                )
                shed_job = gateway.submit(doomed)
                assert shed_job.state == "shed"
            await gateway.drain()
        finally:
            await gateway.close()
        return gateway

    gateway = asyncio.run(scenario())
    report = gateway.report
    assert report.shed == 5
    assert report.served == 1
    assert report.arrivals == 6
    assert report.served + report.shed == report.arrivals
    # Shed queries never touched the broker or the ledger.
    assert gateway.broker.present_count == 0
    assert gateway.pool.reserved_pages == 0


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------
def write_crashed_journal(path, config, arrivals=4):
    """Run a gateway with a journal and 'crash' with queries in flight:
    the recorder stops (process death) before any release is recorded."""

    async def scenario():
        recorder = JournalRecorder.for_policy(path, "pmm", config)
        gateway = LiveGateway(
            config, "pmm", time_scale=0.01, recorder=recorder
        )
        schedule = build_schedule(
            config, gateway.dataplane.database, max_arrivals=arrivals
        )
        await gateway.start()
        now = gateway.sim_now()
        qids = []
        for arrival in schedule.arrivals:
            job = gateway.submit(
                replace(arrival, arrival=now, deadline=now + 1000.0)
            )
            qids.append(job.arrival.qid)
        # The SIGKILL lands here: the journal stops dead while every
        # query still holds its broker entry (and possibly a grant).
        recorder.close()
        gateway.broker.recorder = None
        await gateway.close()
        return qids

    return asyncio.run(scenario())


def test_journal_recovery_replays_to_a_conserved_ledger(tmp_path):
    config = scenario_config(family="mix")
    journal = tmp_path / "broker.jsonl"
    qids = write_crashed_journal(journal, config)

    ledger = recover_journal(journal)
    assert ledger.clean
    assert ledger.released == tuple(sorted(qids))
    assert ledger.final_allocation == ()
    assert ledger.decisions_replayed >= len(qids)  # one per arrival
    assert "ledger conserved" in ledger.render()


def test_journal_tolerates_a_torn_final_line(tmp_path):
    config = scenario_config(family="mix")
    journal = tmp_path / "broker.jsonl"
    write_crashed_journal(journal, config)
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write('["register", 99, "C0"')  # the write the kill cut short

    header, ops = load_journal(journal)
    assert header is not None
    assert all(op[1] != 99 for op in ops if op[0] == "register")
    assert recover_journal(journal).clean


def test_journal_rejects_corruption_before_the_tail(tmp_path):
    journal = tmp_path / "broker.jsonl"
    journal.write_text(
        json.dumps({"header": {"policy": "max"}})
        + "\nnot json at all\n[]\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="corrupt journal"):
        load_journal(journal)


def test_recovered_decisions_are_verified_against_the_journal(tmp_path):
    """Replay divergence (a tampered decision record) is an error, not
    a silently wrong ledger."""
    config = scenario_config(family="mix")
    journal = tmp_path / "broker.jsonl"
    write_crashed_journal(journal, config)

    lines = journal.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        record = json.loads(line)
        if isinstance(record, list) and record[0] == "decision" and record[1]:
            record[1][0][1] += 1  # someone else's pages, apparently
            lines[index] = json.dumps(record)
            break
    else:  # pragma: no cover - the crash run always decides something
        pytest.fail("no non-empty decision recorded")
    journal.write_text("\n".join(lines) + "\n", encoding="utf-8")

    with pytest.raises(ValueError, match="diverged"):
        recover_journal(journal)
