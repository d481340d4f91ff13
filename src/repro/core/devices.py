"""The host-agnostic device core: one disk model, one buffer pool, any clock.

The paper's results hinge on its device model -- Earliest-Deadline
disk queues with an elevator tie-break among equal priorities, a small
(256-KByte) per-disk prefetch cache, sequential-stream tracking that
makes scan continuations pay pure transfer time, and a buffer pool
whose unreserved pages form an LRU data cache.  Two hosts need that
model: the discrete-event simulator (:mod:`repro.rtdbs.disk`,
:mod:`repro.rtdbs.query_manager`) and the live serving layer
(:mod:`repro.serve.dataplane`, :mod:`repro.serve.gateway`).  This
module holds the *pure* logic they share -- no simulator clock, no
event loop, no wall time:

* :class:`PrefetchCache` -- the per-disk LRU page cache (reads fully
  covered by recently transferred pages cost no arm time);
* :class:`LRUDataCache` -- the buffer pool's page-granular LRU region
  with a dynamically adjustable capacity;
* :class:`BufferPool` -- the Buffer Manager of Section 4.2: the
  per-query workspace reservations, enforced against the pool size,
  plus the LRU region over whatever they leave unreserved;
* :class:`DeviceCore` -- one disk's physical state (head position,
  sweep direction, bounded sequential-stream tails, prefetch cache)
  plus the ``Seek + RotateDelay + Transfer`` pricing of Section 4.2
  and the ED-queue selection with the exact elevator tie-break.

Hosts wrap a :class:`DeviceCore` in a thin time-stamped adapter: the
DES adapter schedules completion events on the simulator clock, the
live adapter hands arm occupancy to asyncio tasks -- but the decision
of *which* request runs next, *what* it costs, and *which* pages are
cached afterwards is taken here, identically, once.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

READ = "read"
WRITE = "write"


class PrefetchCache:
    """LRU cache of recently transferred pages (one per disk).

    Backed by a plain insertion-ordered dict: recency refresh is a
    delete-and-reinsert, eviction pops from the iteration front.  Plain
    dicts beat ``OrderedDict`` on every operation this hot path uses.
    """

    def __init__(self, capacity_pages: int):
        if capacity_pages <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity_pages
        self._pages: dict = {}
        self.hits = 0
        self.misses = 0

    def contains_all(self, start_page: int, npages: int) -> bool:
        """True when every page of the range is cached (a free read)."""
        pages = self._pages
        for page in range(start_page, start_page + npages):
            if page not in pages:
                return False
        return True

    def touch(self, start_page: int, npages: int) -> None:
        """Record a hit: refresh the pages' recency."""
        self.hits += 1
        pages = self._pages
        pop = pages.pop
        for page in range(start_page, start_page + npages):
            pop(page)
            pages[page] = None

    def insert(self, start_page: int, npages: int) -> None:
        """Record a transfer: install the pages, evicting LRU ones.

        Evictions are deferred to the end of the block: the surviving
        set (the ``capacity`` most recently touched pages) is identical
        to per-page eviction, without a capacity test on every page.
        """
        self.misses += 1
        pages = self._pages
        pop = pages.pop
        for page in range(start_page, start_page + npages):
            pop(page, None)
            pages[page] = None
        excess = len(pages) - self.capacity
        if excess > 0:
            victims = list(islice(pages, excess))
            for page in victims:
                del pages[page]

    def __len__(self) -> int:
        return len(self._pages)


class LRUDataCache:
    """Page-granular LRU cache with a dynamically adjustable capacity.

    Pages are keyed by a single packed integer (``disk << 48 | page``)
    rather than a ``(disk, page)`` tuple: the cache is consulted on
    every cacheable read, and integer keys avoid a tuple allocation and
    hash per page on that hot path.  The backing store is a plain
    insertion-ordered dict (recency refresh = delete-and-reinsert),
    which outperforms ``OrderedDict`` on every operation used here.
    """

    _DISK_SHIFT = 48  # pages-per-disk fits comfortably below 2**48

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"negative capacity: {capacity}")
        self._capacity = capacity
        self._pages: dict = {}
        self.hits = 0
        self.misses = 0

    @property
    def capacity(self) -> int:
        """Current capacity in pages."""
        return self._capacity

    @capacity.setter
    def capacity(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative capacity: {value}")
        self._capacity = value
        self._evict_excess()

    def _evict_excess(self) -> None:
        pages = self._pages
        excess = len(pages) - self._capacity
        if excess > 0:
            victims = list(islice(pages, excess))
            for key in victims:
                del pages[key]

    def __len__(self) -> int:
        return len(self._pages)

    def contains_all(self, disk: int, start_page: int, npages: int) -> bool:
        """True when the whole range is cached (counts one hit/miss)."""
        pages = self._pages
        base = (disk << self._DISK_SHIFT) + start_page
        for key in range(base, base + npages):
            if key not in pages:
                self.misses += 1
                return False
        self.hits += 1
        pop = pages.pop
        for key in range(base, base + npages):
            pop(key)
            pages[key] = None
        return True

    def insert(self, disk: int, start_page: int, npages: int) -> None:
        """Install pages just read from disk, evicting LRU victims.

        Evictions are deferred to the end of the range; the surviving
        set (the ``capacity`` most recently touched pages) is the same
        as with per-page eviction.
        """
        if self._capacity == 0:
            return
        pages = self._pages
        pop = pages.pop
        base = (disk << self._DISK_SHIFT) + start_page
        for key in range(base, base + npages):
            pop(key, None)
            pages[key] = None
        self._evict_excess()


class GrantOversubscribedError(RuntimeError):
    """An allocation vector violated the memory conservation law.

    A ``RuntimeError``, not a ``ValueError``: the serve front end
    answers a ``ValueError`` as a client error, and an oversubscribing
    policy is a server fault.
    """


class BufferPool:
    """The buffer pool: workspace reservations plus LRU over the rest.

    Section 4.2: query operators (sorts and joins) *reserve* buffers as
    workspaces and manage those pages themselves; the non-reserved
    remainder of the pool is an LRU data cache that retains recently
    read operand pages, so concurrent scans of the same relation skip
    disk reads.  Both hosts install every broker decision here:

    * the **reservation ledger** holds each query's granted pages.  The
      policy decides the grants; :meth:`apply` re-checks them
      independently and raises :class:`GrantOversubscribedError` on a
      negative grant or an oversubscribed pool, so a broken policy
      fails loudly instead of silently thrashing;
    * the **LRU region** (:attr:`cache`) shrinks and grows with the
      reservations: its capacity is always the unreserved page count.

    ``invariants`` is an optional
    :class:`repro.rtdbs.invariants.InvariantChecker`; ``None`` (the
    default) keeps ledger updates hook-free.
    """

    def __init__(self, total_pages: int):
        if total_pages <= 0:
            raise ValueError(f"buffer pool must be positive, got {total_pages}")
        self.total_pages = total_pages
        self._reserved: Dict[int, int] = {}
        self.cache = LRUDataCache(total_pages)
        self.invariants = None

    @property
    def reserved_pages(self) -> int:
        """Total pages currently reserved by queries."""
        return sum(self._reserved.values())

    @property
    def free_pages(self) -> int:
        """Pages not reserved (the LRU region's capacity)."""
        return self.total_pages - self.reserved_pages

    def reservation_of(self, qid: int) -> int:
        """Pages reserved by one query (0 when none)."""
        return self._reserved.get(qid, 0)

    # -- the reservation ledger -----------------------------------------
    def apply(self, allocation: Dict[int, int]) -> None:
        """Install a full allocation vector (absent queries hold 0)."""
        total = 0
        for qid, pages in allocation.items():
            if pages < 0:
                raise GrantOversubscribedError(
                    f"query {qid} granted {pages} < 0 pages"
                )
            total += pages
        if total > self.total_pages:
            raise GrantOversubscribedError(
                f"allocation of {total} pages exceeds the "
                f"{self.total_pages}-page pool"
            )
        self._reserved = {qid: pages for qid, pages in allocation.items() if pages > 0}
        self._ledger_changed()

    def release(self, qid: int) -> None:
        """Drop one query's reservation (departure or abort)."""
        if self._reserved.pop(qid, None) is not None:
            self._ledger_changed()

    def resize(self, total_pages: int) -> None:
        """Re-bound the pool (an external memory consumer came or went).

        Shrinking below the pages currently reserved would leave the
        ledger inconsistent, so the caller must reallocate first.
        """
        if total_pages <= 0:
            raise ValueError(f"buffer pool must be positive, got {total_pages}")
        if total_pages < self.reserved_pages:
            raise GrantOversubscribedError(
                f"cannot shrink the pool to {total_pages} pages while "
                f"{self.reserved_pages} are still reserved"
            )
        self.total_pages = total_pages
        self._ledger_changed()

    def _ledger_changed(self) -> None:
        self.cache.capacity = self.free_pages
        if self.invariants is not None:
            self.invariants.check_buffers(self)

    # -- the LRU region ---------------------------------------------------
    def read_hit(self, disk: int, start_page: int, npages: int) -> bool:
        """Whether a cacheable read is fully served from the pool."""
        return self.cache.contains_all(disk, start_page, npages)

    def install(self, disk: int, start_page: int, npages: int) -> None:
        """Retain pages that just arrived from disk."""
        self.cache.insert(disk, start_page, npages)

    @property
    def hits(self) -> int:
        return self.cache.hits

    @property
    def misses(self) -> int:
        return self.cache.misses

    @property
    def hit_ratio(self) -> float:
        consulted = self.cache.hits + self.cache.misses
        return self.cache.hits / consulted if consulted else 0.0


class DeviceCore:
    """One disk's physical state and shared scheduling/pricing logic.

    Every mutable fact about the disk that both hosts must agree on
    lives here: the head position (cylinders), the elevator sweep
    direction, the tails of recently active sequential streams
    (bounded by the modelled prefetch-cache size -- beyond that bound
    interleaved scans evict each other's tails and sequentiality is
    genuinely lost, the physical face of thrashing), and the
    :class:`PrefetchCache` itself.

    ``rotation_stream`` supplies stochastic rotational delays when the
    resource config asks for them; hosts without a seeded stream (the
    live plane) price the deterministic half-rotation instead.
    """

    __slots__ = (
        "head",
        "direction",
        "cache",
        "sequential_continuations",
        "fault_multiplier",
        "_streams",
        "_max_streams",
        "_rotation_stream",
        "_cylinder_size",
        "_num_cylinders",
        "_pages_per_disk",
        "_transfer_s",
        "_rotation_s",
        "_half_rotation_s",
        "_stochastic_rotation",
        "_seek_time",
    )

    def __init__(self, resources, rotation_stream=None):
        #: Current head position, cylinders; starts at the middle.
        self.head = resources.num_cylinders // 2
        #: Elevator sweep direction: +1 inward, -1 outward.
        self.direction = 1
        #: Tails of recently active sequential streams.  A request that
        #: starts exactly at a tracked tail continues that stream and
        #: pays pure transfer -- no seek, no rotational delay -- which
        #: is what the paper's 256-KByte prefetch cache buys: several
        #: interleaved sequential scans each stay efficient.  The
        #: number of simultaneously tracked streams is bounded by the
        #: cache size (256 KB / 32 pages ~ a handful of block streams);
        #: beyond that, streams evict each other and sequentiality is
        #: lost.  (Insertion-ordered plain dict; oldest tail is the
        #: iteration front.)
        self._streams: dict = {}
        self._max_streams = max(1, resources.disk_cache_pages // resources.block_size)
        self.sequential_continuations = 0
        #: Service-time degradation factor (fault injection): 1.0 means
        #: a healthy device; a degraded window multiplies every priced
        #: access.  The DES host never touches it, so bit-identity of
        #: the no-fault path is structural.
        self.fault_multiplier = 1.0
        self.cache = PrefetchCache(resources.disk_cache_pages)
        self._rotation_stream = rotation_stream
        self._cylinder_size = resources.cylinder_size
        self._num_cylinders = resources.num_cylinders
        self._pages_per_disk = resources.pages_per_disk
        self._transfer_s = resources.transfer_s_per_page
        self._rotation_s = resources.rotation_s
        self._half_rotation_s = resources.rotation_s / 2.0
        self._stochastic_rotation = resources.stochastic_rotation
        self._seek_time = resources.seek_time

    # ------------------------------------------------------------------
    # geometry and pricing
    # ------------------------------------------------------------------
    @property
    def pages_per_disk(self) -> int:
        return self._pages_per_disk

    def cylinder_of(self, page: int) -> int:
        return page // self._cylinder_size

    def read_hit(self, start_page: int, npages: int) -> bool:
        """Consult the prefetch cache; a full hit refreshes recency."""
        if self.cache.contains_all(start_page, npages):
            self.cache.touch(start_page, npages)
            return True
        return False

    def service_time(self, start_page: int, npages: int, cylinder: int) -> float:
        """Price one access from the current head/stream state.

        A request starting exactly at a tracked stream tail is a
        sequential continuation: prefetched, pure transfer.  Anything
        else pays ``Seek(distance) + RotateDelay + Transfer`` with
        ``Seek(n) = SeekFactor * sqrt(n)`` [Bitt88].
        """
        transfer = npages * self._transfer_s
        if start_page in self._streams:
            self.sequential_continuations += 1
            if self.fault_multiplier != 1.0:
                return transfer * self.fault_multiplier
            return transfer
        seek = self._seek_time(abs(cylinder - self.head))
        if self._stochastic_rotation and self._rotation_stream is not None:
            rotate = self._rotation_stream.uniform(0.0, self._rotation_s)
        else:
            rotate = self._half_rotation_s
        if self.fault_multiplier != 1.0:
            return (seek + rotate + transfer) * self.fault_multiplier
        return seek + rotate + transfer

    def detour_service_time(self, npages: int) -> float:
        """Price an access without touching head or stream state.

        Used for rerouted reads during a fault window: a replica disk
        serves a foreign address range, so the usual positional pricing
        would alias its own geometry.  Charges the average random seek
        (one third of the cylinder span [Bitt88]) plus the deterministic
        half rotation plus transfer -- stateless, so the replica's own
        streams and prefetch contents are unaffected.
        """
        seek = self._seek_time(self._num_cylinders // 3)
        service = seek + self._half_rotation_s + npages * self._transfer_s
        if self.fault_multiplier != 1.0:
            return service * self.fault_multiplier
        return service

    def note_transfer(self, start_page: int, npages: int) -> None:
        """Record a served access: head movement, stream tails, cache.

        The head lands on the last cylinder touched and the sweep
        direction follows the movement; the access's end becomes a
        tracked stream tail (evicting the oldest beyond the bound);
        the transferred pages are installed in the prefetch cache.
        """
        end_cylinder = (start_page + npages - 1) // self._cylinder_size
        if end_cylinder != self.head:
            self.direction = 1 if end_cylinder > self.head else -1
        self.head = end_cylinder
        streams = self._streams
        streams.pop(start_page, None)
        streams[start_page + npages] = None
        while len(streams) > self._max_streams:
            del streams[next(iter(streams))]
        self.cache.insert(start_page, npages)

    # ------------------------------------------------------------------
    # ED queue selection with the elevator tie-break
    # ------------------------------------------------------------------
    def select(self, queue: List[Tuple[float, int, object]]) -> Optional[object]:
        """Pop the highest-priority entry; elevator order among ties.

        ``queue`` is a heap of ``(priority, seq, item)`` where ``item``
        exposes ``cancelled`` (skipped and dropped) and ``cylinder``
        (the tie-break key).  Reverses the sweep direction when no tied
        request lies ahead of the head -- exactly the DES semantics.
        """
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        if not queue:
            return None
        top = heapq.heappop(queue)
        if not queue or queue[0][0] != top[0]:
            return top[2]  # common case: unique priority, no re-push
        # Collect the (rare) priority ties and pick by elevator order.
        ties: List[Tuple[float, int, object]] = [top]
        while queue and queue[0][0] == top[0]:
            entry = heapq.heappop(queue)
            if not entry[2].cancelled:
                ties.append(entry)
        if len(ties) == 1:
            return ties[0][2]
        chosen = self.elevator_choice([entry[2] for entry in ties])
        for entry in ties:
            if entry[2] is not chosen:
                heapq.heappush(queue, entry)
        return chosen

    def elevator_choice(self, requests: Sequence[object]) -> object:
        """Nearest cylinder in the sweep direction, else reverse sweep."""
        head = self.head
        ahead = [
            req
            for req in requests
            if (req.cylinder - head) * self.direction >= 0
        ]
        if ahead:
            return min(ahead, key=lambda req: abs(req.cylinder - head))
        self.direction *= -1
        return min(requests, key=lambda req: abs(req.cylinder - head))
