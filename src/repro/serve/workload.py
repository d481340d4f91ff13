"""Open-loop live traffic: the simulator's workload, replayed for real.

:func:`build_schedule` produces the *exact* query stream a fixed-seed
simulation generates -- same arrival instants, same operand relations,
same slack draws, same deadlines -- because it drives the same
:class:`~repro.rtdbs.source.QueryGenerator` the simulated
:class:`~repro.rtdbs.source.Source` does, on the same named random
streams.  Only the clock differs: the Source waits out each arrival gap
on the simulator, the schedule sums the gaps ahead of time (the
common-random-numbers discipline makes each class's draws independent
of event interleaving).  Each operand shape is priced once by the
generator's memoizing cost model.  The live gateway then submits this
schedule open-loop: arrivals fire at their scheduled instants whether
or not earlier queries have finished, exactly like the simulated
Poisson sources.

Because the schedule *is* the simulated workload, a live run and a DES
run of the same scenario are an apples-to-apples comparison: same
queries, same deadlines, same memory demands -- only the execution
substrate differs.  ``tests/test_serve.py`` pins every scheduled
arrival, field for field, to the job the simulator submits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.rtdbs.config import HASH_JOIN, QueryClass, SimulationConfig
from repro.rtdbs.database import Database

# ``LiveArrival`` and ``make_operator`` are re-exported: the live stack's
# name for a generated arrival, and the one operator factory.
from repro.rtdbs.source import Arrival as LiveArrival  # noqa: F401
from repro.rtdbs.source import QueryGenerator, make_operator  # noqa: F401
from repro.sim.rng import Streams


@dataclass(frozen=True)
class LiveSchedule:
    """The full open-loop schedule for one scenario."""

    config: SimulationConfig
    arrivals: Tuple[LiveArrival, ...]
    horizon: float


def build_schedule(
    config: SimulationConfig,
    database: Database,
    horizon: Optional[float] = None,
    max_arrivals: Optional[int] = None,
) -> LiveSchedule:
    """Compute the open-loop schedule for one scenario config.

    ``database`` must be laid out from the same config seed (the
    gateway's :class:`~repro.serve.dataplane.LiveDataPlane` builds it
    exactly as :class:`~repro.rtdbs.system.RTDBSystem` would).  The
    returned arrivals are in submission order with simulator-identical
    query ids.
    """
    config.validate()
    limit = horizon if horizon is not None else config.duration
    generator = QueryGenerator(config, database, Streams(config.seed))

    # Per-class arrival instants first (independent streams), then one
    # global merge: the per-class operand/slack draws below happen in
    # per-class arrival order, which is all their streams ever see.
    tagged: List[Tuple[float, int, QueryClass]] = []
    for class_index, query_class in enumerate(config.workload.classes):
        now = 0.0
        rate = query_class.arrival_rate
        for gap, arrives in generator.arrival_steps(query_class, lambda: rate):
            now += gap
            if now > limit:
                break
            if arrives:
                tagged.append((now, class_index, query_class))
    tagged.sort(key=lambda item: (item[0], item[1]))
    if max_arrivals is not None:
        tagged = tagged[:max_arrivals]
    arrivals = tuple(generator.draw(query_class, time) for time, _, query_class in tagged)
    return LiveSchedule(config=config, arrivals=arrivals, horizon=limit)


def tag_tenants(schedule: LiveSchedule) -> LiveSchedule:
    """Tag every arrival with its query class as the owning tenant.

    The multitenant scenario family generates one query class per
    tenant (``tenant0`` .. ``tenantN``), so class identity *is* tenant
    identity there; tagging turns on per-tenant accounting in the
    gateway without touching the replayed traffic.
    """
    return replace(
        schedule,
        arrivals=tuple(
            replace(arrival, tenant=arrival.class_name)
            for arrival in schedule.arrivals
        ),
    )


def submit_request(arrival: LiveArrival) -> dict:
    """The JSON-lines ``submit`` request replaying one scheduled
    arrival through the TCP front end (server or shard router).

    The tenant tag is what feeds the router's consistent-hash
    placement; the class tag keeps the policy-facing identity the
    schedule assigned (the receiving shard would otherwise re-derive
    it from the tenant name).  Slack is expressed relative to the
    stand-alone time so the receiving server reprices the deadline
    with its own cost model -- stand-alone times assume maximum
    memory, so they are identical on every shard regardless of the
    resource split.
    """
    request = {
        "op": "submit",
        "type": "hash_join" if arrival.query_type == HASH_JOIN else "sort",
        "pages": arrival.inner.pages,
        "slack": arrival.time_constraint / arrival.standalone,
        "class": arrival.class_name,
    }
    if arrival.outer is not None:
        request["outer_pages"] = arrival.outer.pages
    if arrival.tenant:
        request["tenant"] = arrival.tenant
    return request
