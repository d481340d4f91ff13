"""Unit tests for the query manager's lifecycle machinery.

These drive a real :class:`RTDBSystem` at tiny scale and inspect the
manager directly -- admission, suspension/resume, firm aborts in every
state, and batch feedback delivery.
"""

import pytest

from repro import MinMaxPolicy, RTDBSystem, baseline
from repro.core.allocation import QueryDemand
from repro.policies.base import MemoryPolicy


class ScriptedPolicy(MemoryPolicy):
    """Allocates from a mutable script: {qid: pages}; else nothing."""

    name = "scripted"

    def __init__(self):
        self.script = {}
        self.calls = 0

    def allocate(self, demands, memory, now=0.0):
        self.calls += 1
        return {d.qid: min(self.script.get(d.qid, 0), d.max_pages) for d in demands}


def make_system(policy=None, arrival_rate=0.03, duration=900.0, seed=13):
    config = baseline(
        arrival_rate=arrival_rate, scale=0.1, duration=duration, seed=seed
    )
    return RTDBSystem(config, policy if policy is not None else MinMaxPolicy())


def test_policy_invoked_on_every_arrival_and_departure():
    policy = ScriptedPolicy()
    system = make_system(policy)
    system.run(max_completions=5)
    # At least one call per arrival (admissions impossible: script
    # empty, so departures happen via firm aborts).
    assert policy.calls >= system.source.arrivals
    assert system.query_manager.misses == system.query_manager.departures > 0


def test_scripted_admission_starts_query():
    policy = ScriptedPolicy()
    system = make_system(policy)
    admitted = []

    original_admit = system.query_manager._admit

    def spy(job, pages):
        admitted.append((job.qid, pages))
        original_admit(job, pages)

    system.query_manager._admit = spy
    policy.script = {0: 10_000}  # give query 0 whatever it wants (capped)
    system.run(max_completions=1)
    assert admitted and admitted[0][0] == 0
    assert admitted[0][1] > 0


def test_abort_while_waiting_counts_as_miss_with_zero_execution():
    policy = ScriptedPolicy()  # never admits anyone
    system = make_system(policy)
    result = system.run(max_completions=3)
    assert result.miss_ratio == 1.0
    for entry in result.departure_log:
        _t, _cls, missed, _waiting, execution, _fl = entry
        assert missed and execution == 0.0


def test_departure_listener_receives_records():
    system = make_system()
    records = []
    system.query_manager.departure_listeners.append(records.append)
    system.run(max_completions=4)
    assert len(records) >= 4
    record = records[0]
    assert record.time_constraint > 0
    assert record.max_demand >= record.min_demand > 0
    assert record.operand_io_count > 0


@pytest.mark.slow
def test_batches_delivered_every_sample_size():
    # The served // sample_size identity holds at any horizon; 1200
    # simulated seconds still closes several batches.
    system = make_system(arrival_rate=0.05, duration=1200.0)
    result = system.run()
    sample_size = system.config.pmm.sample_size
    expected = result.served // sample_size
    assert system.query_manager.batches_delivered == expected


@pytest.mark.slow
def test_mpl_monitor_tracks_admissions():
    system = make_system(arrival_rate=0.05, duration=600.0)
    system.run()
    assert system.query_manager.mpl_monitor.mean() > 0.0
    # Present >= admitted at all times, so the time averages order too.
    assert (
        system.query_manager.present_monitor.mean()
        >= system.query_manager.mpl_monitor.mean() - 1e-9
    )


def test_oversized_demand_capped_at_pool():
    system = make_system()
    # Inject a fake demand list through the policy interface to verify
    # the manager caps demands: run briefly, then inspect job records.
    system.run(max_completions=2)
    for entry in system.source.departure_log:
        assert entry is not None
    # Direct check: every submitted job had demand_max <= pool.
    # (Jobs are gone after departure; use a fresh system with a spy.)
    captured = []
    system2 = make_system()
    original_submit = system2.query_manager.submit

    def spy(job):
        original_submit(job)
        captured.append((job.demand_min, job.demand_max))

    system2.query_manager.submit = spy
    system2.run(max_completions=2)
    pool = system2.buffers.total_pages
    for demand_min, demand_max in captured:
        assert demand_min <= demand_max <= pool


def test_duplicate_qid_rejected():
    system = make_system()
    from repro.queries.base import MemoryGrant
    from repro.rtdbs.query_manager import QueryJob

    # Steal a real operator by generating one arrival manually.
    system.source._submit_query(system.config.workload.classes[0])
    job = system.query_manager.present_jobs[0]
    clone = QueryJob(
        qid=job.qid,
        class_name=job.class_name,
        operator=job.operator,
        grant=MemoryGrant(0),
        arrival=0.0,
        deadline=1.0,
        standalone=1.0,
    )
    with pytest.raises(ValueError):
        system.query_manager.submit(clone)


def test_reallocation_suspends_and_resumes():
    policy = ScriptedPolicy()
    system = make_system(policy)
    qm = system.query_manager

    # Admit query 0 generously, let it run a bit, yank its memory to
    # zero mid-flight, then restore it.
    policy.script = {0: 10_000}
    system.source._submit_query(system.config.workload.classes[0])
    qm.reallocate()
    job = qm.present_jobs[0]
    assert job.state == "running"
    system.sim.run(until=system.sim.now + 0.5)
    policy.script = {0: 0}
    qm.reallocate()
    assert job.grant.pages == 0
    fluctuations_after_suspend = job.grant.fluctuations
    assert fluctuations_after_suspend >= 1
    policy.script = {0: 10_000}
    qm.reallocate()
    assert job.grant.pages > 0
    # The query eventually completes despite the round trip.
    system.sim.run(until=system.sim.now + 60.0)
    assert job.state in ("done", "aborted")


# ----------------------------------------------------------------------
# Firm aborts in every execution stage of an admitted query
# ----------------------------------------------------------------------
def admitted_query():
    """A fresh system with query 0 admitted (no source arrivals)."""
    policy = ScriptedPolicy()
    system = make_system(policy)
    policy.script = {0: 10_000}
    system.source._submit_query(system.config.workload.classes[0])
    system.query_manager.reallocate()
    job = system.query_manager.present_jobs[0]
    assert job.state == "running"
    return system, policy, job


def step_until(system, job, reached, limit=20_000):
    """Step the kernel until ``reached()`` holds while ``job`` runs."""
    for _ in range(limit):
        if reached():
            assert job.state == "running"
            return
        assert system.sim.step(), "simulation drained before the stage"
    raise AssertionError("stage never reached")


def disk_total(system, counter):
    return sum(getattr(disk, counter) for disk in system.disks)


def abort_and_drain(system, job, entries=None):
    """Abort ``job`` at its firm deadline, run the kernel dry, check the
    aftermath: one miss, every disk access accounted for, idle CPU,
    and (when given) the number of kernel entries the drain took."""
    qm = system.query_manager
    events = system.sim.events_processed
    qm.expire(job)
    system.sim.run()
    if entries is not None:
        assert system.sim.events_processed - events == entries
    assert job.state == "aborted"
    assert qm.departures == qm.misses == 1
    assert not qm.jobs
    for disk in system.disks:
        assert disk.submitted == (
            disk.cache.hits + disk.accesses + disk.cancelled_queued
        )
        assert disk.queue_length == 0
    server = system.cpu._server
    assert server.in_service is None and server.queue_length == 0


def test_abort_in_cpu_leg_of_a_block():
    system, _policy, job = admitted_query()
    server = system.cpu._server
    # Past the first disk access, the CPU serves a block's per-block
    # work plus its start-I/O cost before the block reaches its disk.
    step_until(
        system,
        job,
        lambda: disk_total(system, "accesses") > 0 and server.in_service is not None,
    )
    submitted = disk_total(system, "submitted")
    # The abort's interrupt and finish entries, the withdrawn leg's
    # stale completion timer, and the query's now idle expiry timer.
    abort_and_drain(system, job, entries=4)
    assert disk_total(system, "submitted") == submitted  # never reached a disk


def test_abort_while_disk_access_queued():
    from repro.rtdbs.disk import WRITE

    system, _policy, job = admitted_query()

    def queued():
        if disk_total(system, "queue_length") > 0:
            return True
        # Keep every idle disk busy with a foreign write, so the
        # query's next access has to queue behind one.
        for disk in system.disks:
            if disk._serving is None and disk.queue_length == 0:
                disk.submit(WRITE, 0, 1, priority=float("inf"))
        return False

    step_until(system, job, queued)
    abort_and_drain(system, job)
    assert disk_total(system, "cancelled_queued") == 1


def test_abort_while_disk_access_in_service():
    system, _policy, job = admitted_query()
    step_until(
        system, job, lambda: any(disk._serving is not None for disk in system.disks)
    )
    (disk,) = [disk for disk in system.disks if disk._serving is not None]
    access = disk._serving
    start_page, npages = access.start_page, access.npages
    accesses = disk_total(system, "accesses")
    submitted = disk_total(system, "submitted")
    instructions = system.cpu.instructions_executed
    # Interrupt, finish, the access's completion, the expiry timer.
    abort_and_drain(system, job, entries=4)
    # Non-preemptive service: the arm finishes the access, so the head
    # lands on its last cylinder and its pages enter the disk cache ...
    assert disk.head == (start_page + npages - 1) // disk.resources.cylinder_size
    assert disk.cache.contains_all(start_page, npages)
    assert disk_total(system, "accesses") == accesses
    # ... but the aborted query never resumes to issue more work.
    assert disk_total(system, "submitted") == submitted
    assert system.cpu.instructions_executed == instructions


def test_abort_while_waiting_for_a_grant():
    system, policy, job = admitted_query()
    qm = system.query_manager
    step_until(system, job, lambda: disk_total(system, "accesses") > 3)
    policy.script = {0: 0}
    qm.reallocate()
    assert job.grant.pages == 0
    # The operator spools what it holds, then suspends on the grant.
    step_until(system, job, lambda: bool(job.grant._waiters))
    submitted = disk_total(system, "submitted")
    instructions = system.cpu.instructions_executed
    abort_and_drain(system, job, entries=3)  # interrupt, finish, expiry
    # A late grant change must not wake the aborted query, nor even
    # reach the kernel.
    events = system.sim.events_processed
    job.grant.set(10)
    system.sim.run()
    assert system.sim.events_processed == events
    assert disk_total(system, "submitted") == submitted
    assert system.cpu.instructions_executed == instructions


def test_abort_in_the_instant_of_admission():
    system, _policy, job = admitted_query()
    # Admitted and expired at the same instant, before the query's
    # first kernel step: that step still runs first and issues the
    # operator's first request (the hash join's start-up CPU burst),
    # which completes on the CPU without resuming the aborted query.
    # Entries: bootstrap, interrupt, finish, the burst, the expiry.
    abort_and_drain(system, job, entries=5)
    (record,) = system.source.departure_log
    assert record[2] and record[4] == 0.0  # missed, no execution time
    assert system.cpu.instructions_executed > 0
    assert disk_total(system, "submitted") == 0


@pytest.mark.parametrize("failure", ["unknown request", "raised"])
def test_operator_type_error_surfaces_from_run(failure):
    from repro.queries.requests import CPUBurst

    system = make_system()
    qm = system.query_manager
    error = TypeError("operator broke")
    original_submit = qm.submit

    def broken_run():
        yield CPUBurst(1000.0)
        if failure == "raised":
            raise error
        yield object()

    def sabotage(job):
        job.operator.run = broken_run
        original_submit(job)

    qm.submit = sabotage
    with pytest.raises(TypeError) as raised:
        system.run(max_completions=5)
    if failure == "raised":
        assert raised.value is error
    else:
        assert "unknown operator request" in str(raised.value)
