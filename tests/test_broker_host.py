"""The shared query lifecycle, driven through a minimal in-test host.

:class:`BrokerHost` is exercised here on a manual clock with
synchronous "execution": no simulator, no event loop.  Each test
isolates one piece of the lifecycle both real hosts rely on.
"""

from dataclasses import dataclass
from typing import Optional

from repro.core.broker import MemoryBroker
from repro.core.host import RUNNING, WAITING, BrokerHost, CumulativeBusy
from repro.queries.base import MemoryGrant
from repro.sim.monitor import TimeWeighted


class ManualClock:
    now = 0.0


class Cache:
    hits = 0
    misses = 0


class Ledger:
    """The memory surface a host needs: release, reservation_of, cache."""

    def __init__(self):
        self.reserved = {}
        self.cache = Cache()

    def release(self, qid):
        self.reserved.pop(qid, None)

    def reservation_of(self, qid):
        return self.reserved.get(qid, 0)


class FakeOperator:
    operand_io_count = 0

    def __init__(self, min_pages, max_pages):
        self.min_pages = min_pages
        self.max_pages = max_pages
        self.releases = 0

    def release_resources(self):
        self.releases += 1


@dataclass
class Job:
    qid: int
    deadline: float
    operator: FakeOperator
    arrival_time: float = 0.0
    class_name: str = "C"
    tenant: Optional[str] = None
    grant: MemoryGrant = None
    state: str = WAITING
    demand_min: int = 0
    demand_max: int = 0
    submit_time: float = 0.0
    admit_time: Optional[float] = None
    expiry: Optional[object] = None

    def __post_init__(self):
        self.grant = MemoryGrant(0)


class Policy:
    """Grants every query its maximum, or nothing when ``admit`` is off."""

    name = "scripted"

    def __init__(self, admit=True):
        self.admit = admit
        self.allocations = 0
        self.batches = []

    def allocate(self, demands, memory, now=0.0):
        self.allocations += 1
        if not self.admit:
            return {}
        allocation, free = {}, memory
        for demand in demands:
            pages = min(demand.max_pages, free)
            if pages >= demand.min_pages:
                allocation[demand.qid] = pages
                free -= pages
        return allocation

    def on_departure(self, record):
        pass

    def on_batch(self, stats):
        self.batches.append(stats)
        return False


class Host(BrokerHost):
    def __init__(self, policy, pages=100, sample_size=2):
        clock = ManualClock()
        self.cpu_busy = 0.0
        super().__init__(
            MemoryBroker(policy, pages, sample_size),
            clock=clock,
            memory=Ledger(),
            busy=(
                CumulativeBusy(clock, lambda: self.cpu_busy),
                TimeWeighted(clock),
            ),
        )
        self.started = []
        self.cancelled = []
        self.expiries_cancelled = []
        self.records = []
        self.departure_listeners.append(self.records.append)

    def _start(self, job):
        self.started.append(job.qid)

    def _cancel(self, job):
        self.cancelled.append(job.qid)

    def _arm_expiry(self, job):
        job.expiry = ("timer", job.qid)

    def _cancel_expiry(self, job):
        self.expiries_cancelled.append(job.qid)

    def _apply_memory(self, allocation):
        self.memory.reserved = {qid: p for qid, p in allocation.items() if p > 0}


def job(qid, deadline=100.0, min_pages=10, max_pages=20, arrival=0.0):
    return Job(qid, deadline, FakeOperator(min_pages, max_pages), arrival)


def test_demand_clipped_to_effective_pool_after_resize():
    host = Host(Policy(admit=False), pages=100)
    host.broker.set_total_pages(40)
    query = job(1, min_pages=50, max_pages=90)
    host.submit(query)
    assert (query.demand_min, query.demand_max) == (40, 40)
    entry = host.broker.entry(1)
    assert (entry.min_pages, entry.max_pages) == (40, 40)


def test_never_admitted_departure_has_zero_execution():
    host = Host(Policy(admit=False))
    host.clock.now = 1.0
    query = job(7, deadline=5.0, arrival=1.0)
    host.submit(query)
    host.clock.now = 5.0
    host.expire(query)
    (record,) = host.records
    assert record.missed
    assert record.execution_time == 0.0
    assert record.waiting_time == 4.0
    assert record.time_constraint == 4.0
    assert host.cancelled == [7]
    assert host.started == []


def test_batch_window_closes_every_sample_size():
    policy = Policy()
    host = Host(policy, pages=100, sample_size=2)
    queries = [job(0), job(1, deadline=0.5), job(2), job(3), job(4)]
    for query in queries:
        host.submit(query)
    assert host.started == [0, 1, 2, 3, 4]  # all fit: admitted on arrival
    host.clock.now = 1.0
    host.cpu_busy = 0.5
    for query in queries:
        host.complete(query)
    assert host.batches_delivered == 2
    first, second = policy.batches
    assert (first.served, first.missed) == (2, 1)  # q1 finished late
    assert (second.served, second.missed) == (2, 0)
    assert first.cpu_utilization == 0.5  # busy 0.5 of a 1.0 window
    assert second.cpu_utilization == 0.0  # empty window
    assert first.realized_mpl == 5.0
    assert host.counts.served == 5 and host.counts.missed == 1


def test_expiry_cancelled_on_completion():
    host = Host(Policy())
    query = job(3)
    host.submit(query)
    assert query.state == RUNNING and query.expiry == ("timer", 3)
    host.complete(query)
    assert host.expiries_cancelled == [3]
    assert query.expiry is None


def test_second_departure_of_a_qid_is_a_noop():
    host = Host(Policy())
    query = job(4)
    host.submit(query)
    host.depart(query, missed=True)
    host.depart(query, missed=True)
    host.expire(query)
    assert host.departures == 1
    assert len(host.records) == 1
    assert query.operator.releases == 1


def test_reentrant_reallocate_is_ignored():
    policy = Policy()
    host = Host(policy)
    host._start = lambda query: host.reallocate()  # re-enter on admission
    host.submit(job(5))
    assert policy.allocations == 1
