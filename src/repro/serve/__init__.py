"""repro.serve -- the live serving layer.

The simulator answers "what *would* these policies do"; this package
runs them for real: an asyncio admission gateway
(:class:`~repro.serve.gateway.LiveGateway`) drives the same
:class:`~repro.core.broker.MemoryBroker` and
:class:`~repro.policies.base.MemoryPolicy` objects as the DES against
real concurrent queries -- actual
:class:`~repro.queries.sort.ExternalSortOperator` /
:class:`~repro.queries.hash_join.HashJoinOperator` request streams
executed over in-memory relations in a bounded worker pool, with firm
deadlines and tracked grant enforcement.

Entry points:

* ``python -m repro.serve live-shootout`` -- every policy serves the
  same generated scenario; live miss ratios beside the simulator's
  prediction (see :func:`repro.serve.shootout.live_shootout`);
* ``python -m repro.serve replay`` -- one policy, one scenario, full
  metrics;
* ``python -m repro.serve serve`` -- a JSON-lines TCP server accepting
  ad-hoc query submissions with deadlines
  (:class:`~repro.serve.server.LiveServer`);
* ``python -m repro.serve route`` -- a consistent-hash front-end
  router over N shard subprocesses, each a full serve stack on a
  slice of the scenario's disks and pool pages, with a rebalancer
  migrating tenants off skewed shards
  (:class:`~repro.serve.router.ShardRouter`,
  :mod:`repro.serve.shard`).
"""

from repro.serve.dataplane import (
    GrantOversubscribedError,
    LiveBufferPool,
    LiveDataPlane,
    LiveDisk,
    PageStore,
)
from repro.serve.gateway import LiveGateway, LiveReport, run_live
from repro.serve.router import HashRing, Migration, ShardLink, ShardRouter
from repro.serve.server import LiveServer
from repro.serve.shard import ServeProcess, launch_shards, shard_config
from repro.serve.shootout import (
    LiveShootoutReport,
    find_multitenant_scenario,
    live_shootout,
)
from repro.serve.workload import (
    LiveArrival,
    LiveSchedule,
    build_schedule,
    make_operator,
    submit_request,
    tag_tenants,
)

__all__ = [
    "GrantOversubscribedError",
    "HashRing",
    "LiveArrival",
    "LiveBufferPool",
    "LiveDataPlane",
    "LiveDisk",
    "LiveGateway",
    "LiveReport",
    "LiveSchedule",
    "LiveServer",
    "LiveShootoutReport",
    "Migration",
    "PageStore",
    "ServeProcess",
    "ShardLink",
    "ShardRouter",
    "build_schedule",
    "find_multitenant_scenario",
    "launch_shards",
    "live_shootout",
    "make_operator",
    "run_live",
    "shard_config",
    "submit_request",
    "tag_tenants",
]
