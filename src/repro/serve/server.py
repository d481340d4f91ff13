"""A multi-tenant JSON-lines TCP server over the live gateway.

``python -m repro.serve serve`` runs this: any number of clients
connect concurrently, submit queries with deadlines, and receive the
outcome when the query departs (completed or deadline-aborted).  Every
connection shares the *same* gateway -- one memory broker, one tracked
allocator, one cross-query buffer pool, one contended disk farm, one
worker gate -- so tenants genuinely compete for memory and disks the
way the paper's policies arbitrate.  The connection handling (``hello``,
tags, hostile-client hardening, drain) is
:class:`~repro.serve.frontend.JsonLinesFrontEnd`'s.

Tenants map onto the scenario's query classes (the multitenant family
names one class per tenant): a tenant named after a class keeps it,
anyone else is assigned round-robin; ``hello`` replies with the class.
The mapped class is the identity the memory policy sees (per-class
fairness goals etc.); per-tenant outcomes are tracked separately.

Submit a query (the response arrives when the query departs)::

    {"op": "submit", "type": "sort", "pages": 40, "slack": 3.0}
    {"op": "submit", "type": "hash_join", "pages": 30, "outer_pages": 80,
     "tenant": "acme"}

    -> {"qid": 7, "tenant": "acme", "missed": false, "admitted": true,
        "waiting_s": 0.8, "execution_s": 2.1, "deadline_s": 9.3}

Read the server's live metrics (shared-pool + contention telemetry and
the per-tenant breakdown included)::

    {"op": "stats"}
    -> {"arrivals": 12, "served": 9, "missed": 2, "miss_ratio": 0.222,
        "observed_mpl": 2.4, "decisions": 25, "pool_hit_ratio": 0.13,
        "disk_queue_s": 0.8, "per_tenant": {"acme": {...}}, ...}

``pages`` is the operand size in model pages (a sort's relation, a
join's inner relation); the server synthesises a relation of that size
on a round-robin disk, prices the deadline with the same stand-alone
cost model the simulator uses (``deadline = now + standalone * slack``),
and admission is entirely up to the configured memory policy.

Shutdown drains: new submissions are refused, in-flight queries run to
departure (firm deadlines bound the wait) and their clients receive
their responses, then the gateway closes.
"""

from __future__ import annotations

import asyncio
from itertools import count
from typing import Dict, Optional, Tuple

from repro.rtdbs.config import EXTERNAL_SORT, HASH_JOIN
from repro.rtdbs.database import Relation
from repro.serve.frontend import JsonLinesFrontEnd
from repro.serve.gateway import SHED, LiveGateway
from repro.serve.workload import LiveArrival

#: Synthetic relations get ids far above any laid-out relation's.
_SYNTHETIC_BASE = 1_000_000


class LiveServer(JsonLinesFrontEnd):
    """Accept query submissions over TCP and push them to the gateway."""

    def __init__(
        self,
        gateway: LiveGateway,
        shard: Optional[Tuple[int, int]] = None,
    ):
        super().__init__()
        self.gateway = gateway
        #: ``(shard_id, shard_count)`` when this server is one shard of
        #: a routed deployment (``serve --shard-id I --of N``); ``None``
        #: for a standalone server.  Purely identity -- the resource
        #: split happened in :func:`repro.serve.shard.shard_config`.
        self.shard = shard
        self._qids = count()
        self._rel_ids = count(_SYNTHETIC_BASE)
        self._disk_cursor = 0
        self._waiters: dict = {}
        #: tenant name -> query-class name (policy-facing identity).
        self._tenant_classes: Dict[str, str] = {}
        #: The scenario's classes, computed once -- tenant_class is on
        #: the submit path and a routed deployment fans many tenants
        #: through it.
        self._classes = tuple(gateway.config.workload.classes)
        self._class_names = frozenset(qc.name for qc in self._classes)
        self._class_cursor = 0
        gateway.departure_listeners.append(self._on_departure)

    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Start the gateway and the listener; returns (host, port)."""
        await self.gateway.start()
        return await self._listen(host, port)

    async def _on_drain(self) -> None:
        # In-flight queries run to departure, resolving every waiter.
        await self.gateway.drain()

    async def _on_closed(self) -> None:
        await self.gateway.close()

    # ------------------------------------------------------------------
    def tenant_class(self, tenant: str) -> str:
        """The query class a tenant maps onto (sticky once assigned).

        A tenant named after one of the scenario's classes keeps that
        class (the multitenant family names one class per tenant);
        other tenants are assigned round-robin over the classes.
        """
        mapped = self._tenant_classes.get(tenant)
        if mapped is None:
            if tenant in self._class_names:
                mapped = tenant
            else:
                mapped = self._classes[
                    self._class_cursor % len(self._classes)
                ].name
                self._class_cursor += 1
            self._tenant_classes[tenant] = mapped
        return mapped

    # ------------------------------------------------------------------
    def _on_departure(self, record) -> None:
        future = self._waiters.pop(record.qid, None)
        if future is not None and not future.done():
            future.set_result(record)

    def _next_disk(self) -> int:
        disk = self._disk_cursor
        self._disk_cursor = (disk + 1) % self.gateway.config.resources.num_disks
        return disk

    def _synthetic_relation(self, pages: int) -> Relation:
        return Relation(
            rel_id=next(self._rel_ids),
            group=0,
            disk=self._next_disk(),
            pages=pages,
            start_page=0,
        )

    def _build_arrival(self, request: dict, tenant: str = "") -> LiveArrival:
        query_type = request.get("type", "sort")
        pages = int(request.get("pages", 20))
        if pages <= 0:
            raise ValueError(f"pages must be positive, got {pages}")
        slack = float(request.get("slack", 3.0))
        if slack <= 0:
            raise ValueError(f"slack must be positive, got {slack}")
        tenant = str(request.get("tenant", tenant) or "")
        gateway = self.gateway
        if query_type in ("hash_join", "join"):
            outer_pages = int(request.get("outer_pages", 2 * pages))
            inner = self._synthetic_relation(pages)
            outer = self._synthetic_relation(outer_pages)
            if inner.pages > outer.pages:
                inner, outer = outer, inner
            standalone = gateway.cost_model.hash_join_standalone(
                inner.pages, outer.pages
            )
            kind = HASH_JOIN
        elif query_type in ("sort", "external_sort"):
            inner = self._synthetic_relation(pages)
            outer = None
            standalone = gateway.cost_model.sort_standalone(pages)
            kind = EXTERNAL_SORT
        else:
            raise ValueError(f"unknown query type {query_type!r}")
        if "class" in request:
            class_name = str(request["class"])
        elif tenant:
            class_name = self.tenant_class(tenant)
        else:
            class_name = query_type
        now = gateway.sim_now()
        return LiveArrival(
            qid=next(self._qids),
            class_name=class_name,
            query_type=kind,
            arrival=now,
            deadline=now + standalone * slack,
            standalone=standalone,
            inner=inner,
            outer=outer,
            temp_disk=inner.disk,
            tenant=tenant,
        )

    def _hello(self, tenant: str) -> dict:
        return {"class": self.tenant_class(tenant) if tenant else None}

    def _stats(self) -> dict:
        gateway = self.gateway
        report = gateway.report
        pool = gateway.pool
        return {
            "policy": report.policy,
            "arrivals": report.arrivals,
            "served": report.served,
            "missed": report.missed,
            "shed": report.shed,
            "client_cancels": report.client_cancels,
            "miss_ratio": round(report.miss_ratio, 4),
            "observed_mpl": round(gateway.mpl_monitor.mean(), 4),
            "admitted": gateway.broker.admitted_count,
            "waiting": gateway.broker.waiting_count,
            "decisions": report.decisions,
            "decision_latency_mean_us": round(
                report.decision_latency_mean_us, 2
            ),
            "pool_hit_ratio": round(pool.hit_ratio, 4),
            "pool_reserved_pages": pool.reserved_pages,
            "pool_free_pages": pool.free_pages,
            "disk_queue_s": round(
                sum(disk.queue_seconds for disk in gateway.disks), 4
            ),
            "disk_busy_s": round(
                sum(disk.busy_seconds for disk in gateway.disks), 4
            ),
            "per_tenant": {
                tenant: {
                    "class": self._tenant_classes.get(tenant),
                    "arrivals": stats.arrivals,
                    "served": stats.served,
                    "missed": stats.missed,
                    "miss_ratio": round(stats.miss_ratio, 4),
                }
                for tenant, stats in sorted(report.per_tenant.items())
            },
            "draining": self._draining,
            "shard": (
                {"id": self.shard[0], "of": self.shard[1]}
                if self.shard is not None
                else None
            ),
        }

    async def _dispatch(self, request: dict, tenant: str = "") -> dict:
        op = request.get("op", "submit")
        if op == "stats":
            return self._stats()
        if op == "submit":
            if self._draining:
                raise ValueError("server is draining; submission refused")
            arrival = self._build_arrival(request, tenant)
            future = asyncio.get_running_loop().create_future()
            self._waiters[arrival.qid] = future
            try:
                job = self.gateway.submit(arrival)
            except BaseException:
                # A failed submit never departs, so nothing would ever
                # pop this waiter -- it must not outlive the request.
                self._waiters.pop(arrival.qid, None)
                raise
            if job.state == SHED:
                self._waiters.pop(arrival.qid, None)
                return {
                    "qid": arrival.qid,
                    "tenant": arrival.tenant or None,
                    "shed": True,
                    "reason": "overload: projected backlog makes the "
                    "deadline infeasible",
                }
            try:
                record = await future
            except asyncio.CancelledError:
                # The client vanished mid-query: abort it so its grant
                # and disk chunks are released instead of leaking.
                self._waiters.pop(arrival.qid, None)
                self.gateway.cancel_query(arrival.qid)
                raise
            return {
                "qid": record.qid,
                "class": record.class_name,
                "tenant": arrival.tenant or None,
                "missed": record.missed,
                "admitted": job.admitted_wall is not None,
                "waiting_s": round(record.waiting_time, 4),
                "execution_s": round(record.execution_time, 4),
                "deadline_s": round(arrival.deadline, 4),
            }
        raise ValueError(f"unknown op {op!r}")
