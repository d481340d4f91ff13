"""The live data plane: real pages, real grants, shared and contended.

Four pieces back the live serving layer's execution substrate:

* :class:`PageStore` -- a sparse in-memory "disk": page-granular byte
  storage with deterministic content for never-written (base relation)
  pages.  Operator disk accesses move real bytes through it, so the
  worker pool does genuine memory traffic rather than sleeping through
  a model.
* :class:`LiveDisk` -- the contended disk model: an Earliest-Deadline
  service queue per disk with the elevator tie-break, wrapped around
  the same :class:`~repro.core.devices.DeviceCore` the simulator's
  :class:`~repro.rtdbs.disk.Disk` uses -- head position, sweep
  direction, sequential-stream tails, the per-disk prefetch cache, and
  the ``Seek + RotateDelay + Transfer`` pricing are one implementation
  shared by both hosts, so concurrent queries' accesses genuinely
  queue, urgent chunks overtake patient ones, and interleaving scans
  break each other's sequential streams exactly as the DES predicts.
* :class:`LiveDataPlane` -- the bundle the gateway hands to operators:
  the paper's :class:`~repro.rtdbs.database.Database` layout (same
  placement rules, same seeded streams as the simulator), one
  :class:`PageStore` + :class:`LiveDisk` per disk, and the
  :class:`~repro.queries.base.OperatorContext` wired to the database's
  temp-extent allocators.
* :data:`LiveBufferPool` -- the *shared* buffer pool, which is the
  simulator's own :class:`~repro.core.devices.BufferPool`: a grant
  ledger that raises :class:`GrantOversubscribedError` on any
  conservation-law violation, plus one cross-query LRU region over the
  unreserved remainder.  Every concurrent query and tenant consults
  the same pool, so one tenant's operand scan can serve another's
  re-read -- and one tenant's memory reservations shrink everyone's
  cache.
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Dict, List, Tuple

from repro.core.devices import BufferPool, DeviceCore, GrantOversubscribedError
from repro.queries.base import OperatorContext
from repro.rtdbs.config import SimulationConfig
from repro.rtdbs.database import Database
from repro.sim.rng import Streams

#: The live name of the one buffer pool both hosts share.
LiveBufferPool = BufferPool


class GrantLeakError(RuntimeError):
    """The gateway closed with grants still held in the ledger."""


class _DiskWaiter:
    """One chunk waiting for a disk arm: the ED-heap entry payload.

    Exposes the two attributes :meth:`DeviceCore.select` reads --
    ``cancelled`` (expired waiters are skipped and dropped) and
    ``cylinder`` (the elevator tie-break key).
    """

    __slots__ = ("future", "cylinder")

    def __init__(self, future: asyncio.Future, cylinder: int):
        self.future = future
        self.cylinder = cylinder

    @property
    def cancelled(self) -> bool:
        return self.future.cancelled()


class LiveDisk:
    """One live disk: an ED+elevator service queue over the shared core.

    Concurrent queries' service chunks queue here in Earliest-Deadline
    order with the elevator tie-break -- the arm is non-shareable, and
    :meth:`DeviceCore.select` picks the next holder exactly the way the
    DES :class:`~repro.rtdbs.disk.Disk` picks its next request.  A
    loaded disk stretches every access by its queueing delay, urgent
    chunks overtake patient backlogs, and conservation counters prove
    no chunk is ever lost: ``chunks_submitted == chunks_served +
    chunks_cancelled + waiting + in-service``.

    Pricing and physical state (head, sweep direction, stream tails,
    the per-disk prefetch cache) live in the shared
    :class:`~repro.core.devices.DeviceCore`; with no seeded rotation
    stream the live host prices the deterministic half-rotation.
    Reads fully covered by the prefetch cache (:meth:`read_hit`) cost
    no arm time at all, the same short-circuit the DES applies in
    ``Disk.submit_op``.
    """

    def __init__(self, store: PageStore, resources):
        self.store = store
        self.core = DeviceCore(resources)
        self.cache = self.core.cache
        #: Outage-window flag (fault injection).  While set, new chunk
        #: submissions take the gateway's retry/breaker/reroute path
        #: instead of queueing; the no-fault path never sets it.
        self.faulted = False
        self._busy = False
        self._queue: List[Tuple[float, int, _DiskWaiter]] = []
        self._seq = 0
        # -- conservation counters -------------------------------------
        self.chunks_submitted = 0
        self.chunks_served = 0
        self.chunks_cancelled = 0
        # -- contention telemetry --------------------------------------
        #: Wall seconds chunks spent waiting for the arm.
        self.queue_seconds = 0.0
        #: Wall seconds the arm spent in service.
        self.busy_seconds = 0.0
        #: Individual disk accesses served (a chunk batches several).
        self.accesses = 0

    @property
    def sequential_continuations(self) -> int:
        return self.core.sequential_continuations

    def cylinder_of(self, page: int) -> int:
        return self.core.cylinder_of(page)

    def read_hit(self, start_page: int, npages: int) -> bool:
        """Whether a read is fully served by the per-disk prefetch cache."""
        return self.core.read_hit(start_page, npages)

    def service_time(self, start_page: int, npages: int) -> float:
        """Price one access (simulated seconds) with the DES rules.

        Advances the shared physical state exactly as the simulator's
        disk does on completion: head movement, sweep direction, the
        stream tail, and the prefetch-cache installation.
        """
        cylinder = self.core.cylinder_of(start_page)
        service = self.core.service_time(start_page, npages, cylinder)
        self.core.note_transfer(start_page, npages)
        return service

    def detour_service_time(self, npages: int) -> float:
        """Price a rerouted (foreign-address) access on this disk.

        Stateless on purpose: a replica serving another disk's address
        range must not pollute its own head position, stream tails or
        prefetch cache with aliased page numbers.  See
        :meth:`DeviceCore.detour_service_time`.
        """
        return self.core.detour_service_time(npages)

    @property
    def in_service(self) -> bool:
        return self._busy

    @property
    def queue_depth(self) -> int:
        """Live waiters (excluding any chunk in service)."""
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    async def acquire(self, priority: float = 0.0, cylinder: int = 0) -> float:
        """Join the ED queue; returns the wall seconds spent waiting.

        ``priority`` is the chunk's deadline (smaller = more urgent),
        ``cylinder`` its first access's cylinder for the elevator
        tie-break among equal deadlines.
        """
        self.chunks_submitted += 1
        if not self._busy:
            self._busy = True
            return 0.0
        loop = asyncio.get_running_loop()
        waiter = _DiskWaiter(loop.create_future(), cylinder)
        self._seq += 1
        heapq.heappush(self._queue, (priority, self._seq, waiter))
        started = loop.time()
        try:
            await waiter.future  # the releasing holder hands the arm over
        except asyncio.CancelledError:
            self.chunks_cancelled += 1
            if waiter.future.done() and not waiter.future.cancelled():
                # The arm was handed over in the same loop pass the
                # expiry cancelled us: pass it on or it leaks.
                self.release()
            raise
        waited = loop.time() - started
        self.queue_seconds += waited
        return waited

    def release(self) -> None:
        waiter = self.core.select(self._queue)
        if waiter is None:
            self._busy = False
        else:
            waiter.future.set_result(None)


class PageStore:
    """Sparse page-granular byte storage for one live 'disk'.

    Pages never written return deterministic seeded content (the page's
    address hashed into a repeating pattern), standing in for base
    relation data laid out at database build time; written pages
    (operator spool output) are retained verbatim.  ``payload_bytes``
    decouples the live page payload from the model's 8 KB ``PageSize``
    so a laptop-scale server does real byte movement without gigabytes
    of resident relations.
    """

    def __init__(self, disk: int, payload_bytes: int = 256):
        if payload_bytes <= 0:
            raise ValueError(f"payload must be positive, got {payload_bytes}")
        self.disk = disk
        self.payload_bytes = payload_bytes
        self._pages: Dict[int, bytes] = {}
        self.pages_read = 0
        self.pages_written = 0
        # Zero-copy replay machinery: one reusable scratch buffer (all
        # replayed reads land here via memcpy -- no per-read joined
        # bytes object) and one shared immutable blank page (every
        # spooled page aliases it -- no per-write allocation).
        self._scratch = bytearray(payload_bytes)
        self._scratch_view = memoryview(self._scratch)
        self._blank = bytes(payload_bytes)

    def _template(self, page: int) -> bytes:
        # Cheap deterministic content: the page address smeared over
        # the payload (distinct pages -> distinct bytes, reproducible).
        seed = (self.disk * 1_000_003 + page * 2_654_435_761) & 0xFFFFFFFF
        word = seed.to_bytes(4, "little")
        repeats = -(-self.payload_bytes // 4)
        return (word * repeats)[: self.payload_bytes]

    def read(self, start_page: int, npages: int) -> bytes:
        """Materialise ``npages`` of real bytes (a genuine copy)."""
        pages = self._pages
        chunks: List[bytes] = []
        for page in range(start_page, start_page + npages):
            data = pages.get(page)
            chunks.append(data if data is not None else self._template(page))
        self.pages_read += npages
        return b"".join(chunks)

    def replay_read(self, start_page: int, npages: int) -> int:
        """Move ``npages`` of real bytes without materialising a copy.

        The disk-service replay only needs the byte *traffic* (the
        joined result of :meth:`read` was always discarded); each page
        is memcpy'd into the reusable scratch buffer through a
        memoryview, so the hot path allocates nothing.  Returns the
        bytes moved.
        """
        pages = self._pages
        view = self._scratch_view
        blank = self._blank
        for page in range(start_page, start_page + npages):
            data = pages.get(page)
            view[:] = data if data is not None else blank
        self.pages_read += npages
        return npages * self.payload_bytes

    def write(self, start_page: int, payload: bytes) -> int:
        """Store ``payload`` page by page; returns pages written."""
        step = self.payload_bytes
        npages = max(1, -(-len(payload) // step))
        for index in range(npages):
            chunk = payload[index * step : (index + 1) * step]
            if len(chunk) < step:
                chunk = chunk + b"\x00" * (step - len(chunk))
            self._pages[start_page + index] = chunk
        self.pages_written += npages
        return npages

    def write_blank(self, start_page: int, npages: int) -> None:
        """Spool ``npages`` of operator output (content irrelevant)."""
        blank = self._blank  # shared immutable page: no allocation
        pages = self._pages
        for page in range(start_page, start_page + npages):
            pages[page] = blank
        self.pages_written += npages

    def __len__(self) -> int:
        return len(self._pages)


class LiveDataPlane:
    """Everything a live operator touches: layout, pages, temp space.

    Builds the same :class:`Database` the simulator would (identical
    placement streams from the config seed), so live queries scan the
    very relations the DES predicts for, then backs each disk with a
    :class:`PageStore` for real byte movement.
    """

    def __init__(self, config: SimulationConfig, payload_bytes: int = 256):
        self.config = config
        self.streams = Streams(config.seed)
        self.database = Database(config.database, config.resources, self.streams)
        self.stores = [
            PageStore(disk, payload_bytes)
            for disk in range(config.resources.num_disks)
        ]
        #: The contended service queues, one per store.
        self.disks = [LiveDisk(store, config.resources) for store in self.stores]
        self.context = OperatorContext(
            tuples_per_page=config.tuples_per_page,
            block_size=config.resources.block_size,
            costs=config.cpu_costs,
            allocate_temp=lambda disk, pages: self.database.temp_space(disk).allocate(pages),
            release_temp=lambda temp: self.database.temp_space(temp.disk).release(temp),
        )

