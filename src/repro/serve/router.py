"""A consistent-hash front-end router over N live-server shards.

The router is the same :class:`~repro.serve.frontend.JsonLinesFrontEnd`
as :class:`~repro.serve.server.LiveServer` -- clients do not know
whether they connected to a single server or a routed farm.  Every
submission is forwarded to the shard owning its tenant:

* **Placement** starts on a :class:`HashRing` (sha256 points, virtual
  nodes, deterministic in the scenario seed), so a tenant lands on the
  same shard across restarts and across routers.
* **Rebalancing**: a background task polls every shard's ``stats`` op
  -- the batch feedback channel that already carries miss ratio, pool
  hit ratio and queued disk seconds -- and, when the per-shard load
  skew exceeds a threshold, migrates one tenant from the hottest shard
  to the coldest.  New submissions route to the new shard immediately;
  in-flight queries drain on the old shard (their responses come back
  on its link, correlated by tag).

One TCP connection per shard carries all forwarded traffic: submit
responses arrive at query *departure* time, wildly out of order, so
:class:`ShardLink` correlates them with the ``tag`` echo the server
protocol provides.

Conservation is checked end to end: the router counts what it accepted
and relays, the shards count what they served, and
``router arrivals == Σ shard arrivals == Σ shard (served + shed)``
must hold once the farm is drained (``served`` includes deadline
misses -- a missed query still departs and still answers its client).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.frontend import JsonLinesFrontEnd

#: readline limit on shard links and router connections -- aggregated
#: stats responses outgrow the 64 KiB asyncio default on big farms.
LINE_LIMIT = 1 << 20

#: Default wall seconds between rebalancer passes.
REBALANCE_INTERVAL = 0.5

#: Default skew trigger: migrate when the hottest shard's window load
#: exceeds the coldest's by more than this fraction of the mean.
SKEW_THRESHOLD = 0.5

#: Never rebalance on fewer window arrivals than this -- one lone
#: query is not skew.
MIN_SKEW_ARRIVALS = 4


def _point(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


async def _cancel(task: Optional[asyncio.Task]) -> None:
    """Cancel ``task`` (if any) and wait until it has unwound."""
    if task is not None:
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass


class HashRing:
    """Consistent tenant->shard placement, deterministic in ``seed``.

    Each shard contributes ``replicas`` virtual points on a 64-bit
    ring; a tenant hashes to a point and is owned by the next shard
    point clockwise.  Pure python, no dependencies; the same
    ``(seed, shards)`` pair always builds the same ring.
    """

    def __init__(self, shards: int, seed: int = 0, replicas: int = 64):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.shards = shards
        self.seed = seed
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(replicas):
                points.append(
                    (_point(seed, f"shard:{shard}:{replica}"), shard)
                )
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    def place(self, tenant: str) -> int:
        """The shard owning ``tenant`` (stable for a fixed ring)."""
        where = bisect_right(self._points, _point(self.seed, f"tenant:{tenant}"))
        if where == len(self._points):
            where = 0
        return self._owners[where]


class ShardLink:
    """One JSON-lines client connection to a front end (a shard, or a
    router), multiplexing concurrent requests via the ``tag`` echo.

    Many submits are in flight at once and their responses arrive at
    query departure time -- out of order -- so each request gets a
    link-private tag and a future; the reader task resolves futures as
    tagged responses land.  A dead link fails every pending future, and
    every later request, with :class:`ConnectionError` instead of
    hanging the callers.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._tags = count()
        self._pending: Dict[str, asyncio.Future] = {}
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()

    async def connect(self) -> None:
        reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=LINE_LIMIT
        )
        self._reader_task = asyncio.ensure_future(self._read_loop(reader))

    async def request(self, payload: dict) -> dict:
        """Send one request and await its (tag-correlated) response."""
        if self._reader_task is None or self._reader_task.done():
            # Not connected, closed, or the read loop ended: nothing
            # would ever resolve a new future.
            raise ConnectionError(f"shard link {self.host}:{self.port} closed")
        tag = f"link{next(self._tags)}"
        message = dict(payload)
        message["tag"] = tag
        future = asyncio.get_running_loop().create_future()
        self._pending[tag] = future
        data = json.dumps(message).encode() + b"\n"
        try:
            async with self._write_lock:
                self._writer.write(data)
                await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError) as error:
            self._pending.pop(tag, None)
            raise ConnectionError(
                f"shard {self.host}:{self.port} write failed: {error}"
            ) from error
        return await future

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    response = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(response, dict):
                    continue
                future = self._pending.pop(response.pop("tag", None), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            error = ConnectionError(
                f"shard link {self.host}:{self.port} closed"
            )
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    async def close(self) -> None:
        await _cancel(self._reader_task)
        self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._writer = None


@dataclass(frozen=True)
class Migration:
    """One rebalancer decision: ``tenant`` moved ``source -> target``."""

    tenant: str
    source: int
    target: int
    #: Wall seconds since the router started.
    at_wall: float

    def as_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "from": self.source,
            "to": self.target,
            "at_wall": round(self.at_wall, 3),
        }


class ShardRouter(JsonLinesFrontEnd):
    """The asyncio front end: accept client submissions, place them on
    shards, relay the departure responses, rebalance on skew."""

    #: Aggregated stats requests nest every shard's snapshot.
    READ_LIMIT = LINE_LIMIT
    #: Relayed submits wait out their shard's deadlines.
    IDLE_TIMEOUT = 60.0

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        ring_seed: int = 0,
        rebalance_interval: float = REBALANCE_INTERVAL,
        skew_threshold: float = SKEW_THRESHOLD,
        min_skew_arrivals: int = MIN_SKEW_ARRIVALS,
        placement: Optional[Dict[str, int]] = None,
    ):
        if not endpoints:
            raise ValueError("router needs at least one shard endpoint")
        super().__init__()
        self.links = [ShardLink(host, port) for host, port in endpoints]
        self.ring = HashRing(len(self.links), seed=ring_seed)
        #: tenant -> shard index.  Seeded from ``placement`` overrides
        #: (the shootout's skew demo packs every tenant on one shard),
        #: then filled lazily from the ring, then amended by
        #: migrations.
        self._placement: Dict[str, int] = dict(placement or {})
        for tenant, shard in self._placement.items():
            if not 0 <= shard < len(self.links):
                raise ValueError(
                    f"placement maps {tenant!r} to shard {shard}, but the "
                    f"farm has {len(self.links)} shards"
                )
        self.rebalance_interval = rebalance_interval
        self.skew_threshold = skew_threshold
        self.min_skew_arrivals = min_skew_arrivals
        self.migrations: List[Migration] = []
        self.rebalance_passes = 0
        # -- conservation counters ------------------------------------
        #: Submissions accepted and forwarded to a shard.
        self.arrivals = 0
        #: Shard responses relayed back to clients.
        self.responses = 0
        self.routed = [0] * len(self.links)
        self.per_tenant: Dict[str, int] = {}
        # -- rebalancer window state ----------------------------------
        self._window_tenant: Dict[str, int] = {}
        self._last_shard_arrivals = [0] * len(self.links)
        self._rebalance_task: Optional[asyncio.Task] = None
        self._t0 = 0.0

    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Connect every shard link, bind the listener, start the
        rebalancer; returns ``(host, port)``."""
        for link in self.links:
            await link.connect()
        self._t0 = asyncio.get_running_loop().time()
        address = await self._listen(host, port)
        if self.rebalance_interval > 0:
            self._rebalance_task = asyncio.ensure_future(self._rebalance_loop())
        return address

    def place(self, tenant: str) -> int:
        """Current shard for ``tenant``: explicit placement (including
        migrations) first, ring otherwise; sticky once decided."""
        shard = self._placement.get(tenant)
        if shard is None:
            shard = self.ring.place(tenant)
            self._placement[tenant] = shard
        return shard

    # ------------------------------------------------------------------
    async def drain_stats(self, timeout: float = 60.0) -> dict:
        """Refuse new submissions, wait for every in-flight one to be
        answered (firm deadlines bound the wait), and return the final
        aggregated stats while the shard links are still open.

        A dead shard cannot report, so instead of failing the drain its
        index is listed under ``unreachable``, it counts as an empty
        ``{}`` in ``shards``, and the conservation check is marked
        unverified (``verified``, ``ok`` and ``complete`` all false).
        """
        self._stop_accepting()
        await self._wait_idle(timeout)
        replies = await asyncio.gather(
            *(link.request({"op": "stats"}) for link in self.links),
            return_exceptions=True,
        )
        unreachable = []
        for index, reply in enumerate(replies):
            if isinstance(reply, ConnectionError):
                unreachable.append(index)
                replies[index] = {}
            elif isinstance(reply, BaseException):
                raise reply
        return self._stats(replies, unreachable)

    async def _on_drain(self) -> None:
        await _cancel(self._rebalance_task)
        self._rebalance_task = None

    async def _on_closed(self) -> None:
        for link in self.links:
            await link.close()

    def _hello(self, tenant: str) -> dict:
        return {"shard": self.place(tenant) if tenant else None}

    async def _dispatch(self, request: dict, tenant: str = "") -> dict:
        op = request.get("op", "submit")
        try:
            if op == "stats":
                return await self.stats()
            if op == "submit":
                return await self._forward(request, tenant)
        except ConnectionError as error:
            return {"error": f"shard unreachable: {error}"}
        raise ValueError(f"unknown op {op!r}")

    async def _forward(self, request: dict, tenant: str) -> dict:
        """Relay one submission to its tenant's shard."""
        if self._draining:
            raise ValueError("router is draining; submission refused")
        tenant = str(request.get("tenant", tenant) or "")
        shard = self.place(tenant)
        self.arrivals += 1
        self.routed[shard] += 1
        self.per_tenant[tenant] = self.per_tenant.get(tenant, 0) + 1
        self._window_tenant[tenant] = self._window_tenant.get(tenant, 0) + 1
        forward = {
            key: value for key, value in request.items() if key != "tag"
        }
        forward["tenant"] = tenant
        response = await self.links[shard].request(forward)
        response["shard"] = shard
        self.responses += 1
        return response

    # ------------------------------------------------------------------
    async def stats(self) -> dict:
        """Router counters, every shard's own stats, the aggregate, and
        the conservation cross-check; raises ``ConnectionError`` when a
        shard is unreachable."""
        return self._stats(await self._shard_stats())

    def _stats(self, shard_stats: List[dict], unreachable: Sequence[int] = ()) -> dict:
        aggregate = {"arrivals": 0, "served": 0, "missed": 0, "shed": 0}
        for one in shard_stats:
            for key in aggregate:
                aggregate[key] += int(one.get(key, 0) or 0)
        aggregate["miss_ratio"] = round(
            aggregate["missed"] / aggregate["served"], 4
        ) if aggregate["served"] else 0.0
        return {
            "arrivals": self.arrivals,
            "responses": self.responses,
            "routed": list(self.routed),
            "placement": dict(sorted(self._placement.items())),
            "per_tenant": dict(sorted(self.per_tenant.items())),
            "migrations": [m.as_dict() for m in self.migrations],
            "rebalance_passes": self.rebalance_passes,
            "shards": shard_stats,
            "aggregate": aggregate,
            "unreachable": list(unreachable),
            "conservation": self.conservation(shard_stats, unreachable),
            "draining": self._draining,
        }

    async def _shard_stats(self) -> List[dict]:
        return list(
            await asyncio.gather(
                *(link.request({"op": "stats"}) for link in self.links)
            )
        )

    def conservation(
        self, shard_stats: Sequence[dict], unreachable: Sequence[int] = ()
    ) -> dict:
        """The cross-check: router arrivals == Σ shard arrivals, and --
        once the farm is drained -- Σ shard (served + shed) == arrivals
        (``served`` includes deadline misses; every accepted query
        departs exactly once).  With any shard ``unreachable`` the sums
        are incomplete, so nothing is verified."""
        verified = not unreachable
        shard_arrivals = sum(
            int(one.get("arrivals", 0) or 0) for one in shard_stats
        )
        served = sum(int(one.get("served", 0) or 0) for one in shard_stats)
        shed = sum(int(one.get("shed", 0) or 0) for one in shard_stats)
        settled = served + shed
        return {
            "router_arrivals": self.arrivals,
            "shard_arrivals": shard_arrivals,
            "settled": settled,
            "responses": self.responses,
            #: False when a shard could not report its counters.
            "verified": verified,
            #: Arrival conservation holds at any instant.
            "ok": verified
            and shard_arrivals == self.arrivals
            and settled <= shard_arrivals,
            #: True once drained: every arrival settled and answered.
            "complete": verified
            and shard_arrivals == self.arrivals
            and settled == shard_arrivals
            and self.responses == self.arrivals,
        }

    # ------------------------------------------------------------------
    async def _rebalance_loop(self) -> None:
        """Poll every shard's batch feedback and migrate on skew."""
        while True:
            await asyncio.sleep(self.rebalance_interval)
            try:
                shard_stats = await self._shard_stats()
            except ConnectionError:
                continue
            self.rebalance_passes += 1
            self._maybe_migrate(shard_stats)

    def _maybe_migrate(self, shard_stats: List[dict]) -> None:
        """One rebalance pass over one batch-feedback window.

        Load per shard = window arrivals weighted by the degradation
        the shard itself reports (miss ratio, queued disk seconds from
        the ``stats`` op).  When the hottest exceeds the coldest by
        more than ``skew_threshold`` of the mean, one tenant moves hot
        -> cold -- the one whose window traffic best halves the gap.
        """
        arrivals = [int(one.get("arrivals", 0) or 0) for one in shard_stats]
        window = [
            max(0, now - before)
            for now, before in zip(arrivals, self._last_shard_arrivals)
        ]
        self._last_shard_arrivals = arrivals
        tenant_window = self._window_tenant
        self._window_tenant = {}
        if sum(window) < self.min_skew_arrivals:
            return
        loads = [
            window[i]
            * (1.0 + float(shard_stats[i].get("miss_ratio", 0.0) or 0.0))
            + float(shard_stats[i].get("disk_queue_s", 0.0) or 0.0)
            for i in range(len(window))
        ]
        hot = max(range(len(loads)), key=loads.__getitem__)
        cold = min(range(len(loads)), key=loads.__getitem__)
        if hot == cold:
            return
        mean = sum(loads) / len(loads)
        if loads[hot] - loads[cold] <= self.skew_threshold * max(mean, 1.0):
            return
        tenant = self._pick_tenant(
            hot, cold, tenant_window, window[hot] - window[cold]
        )
        if tenant is None:
            return
        self._placement[tenant] = cold
        self.migrations.append(
            Migration(
                tenant=tenant,
                source=hot,
                target=cold,
                at_wall=asyncio.get_running_loop().time() - self._t0,
            )
        )

    def _pick_tenant(
        self,
        hot: int,
        cold: int,
        tenant_window: Dict[str, int],
        arrival_gap: int,
    ) -> Optional[str]:
        """The hot shard's tenant whose migration best halves the
        window-arrival gap; ``None`` when no move strictly improves.

        A zero-traffic tenant is still a valid move when the cold
        shard hosts nothing at all (the packed cold-start case) --
        spreading placement is the improvement there.
        """
        candidates = sorted(
            tenant
            for tenant, shard in self._placement.items()
            if shard == hot
        )
        if not candidates:
            return None
        cold_hosts_any = any(
            shard == cold for shard in self._placement.values()
        )
        best: Optional[str] = None
        best_score: Optional[float] = None
        for tenant in candidates:
            load = tenant_window.get(tenant, 0)
            improves = 0 < load < arrival_gap
            spreads = not cold_hosts_any and len(candidates) >= 2
            if not improves and not spreads:
                continue
            score = abs(arrival_gap - 2 * load)
            if best_score is None or score < best_score:
                best, best_score = tenant, score
        return best
