"""The request-stream interpreter: one reading of an operator, any clock.

An operator is a generator of resource requests (:mod:`repro.queries.
requests`).  The paper's Query Manager (Section 4) reads that stream
and runs it: CPU bursts, disk accesses that first pay the Table 4
"start an I/O" cost, and waits for memory.  :func:`steps` is that
reading, once, for both hosts -- the DES
:class:`~repro.rtdbs.query_manager.QueryManager` turns each step into
simulator events, the live :class:`~repro.serve.gateway.LiveGateway`
into paid wall time.  It yields ``(kind, payload, install)`` tuples:

* ``(CPU_WORK, instructions, False)`` -- a :class:`CPUBurst` (always,
  even with zero work), or the per-block burst of a cacheable read the
  :class:`~repro.core.devices.BufferPool` fully holds (only when it is
  positive: the read itself costs nothing);
* ``(DISK_IO, access, install)`` -- any other :class:`DiskAccess`.  The
  host charges ``access.cpu`` plus the start-I/O cost on the CPU, then
  the access on its disk; ``install`` marks a cacheable read, whose
  pages the host installs in the pool once the access completes;
* ``(GRANT_WAIT, grant, False)`` -- an :class:`AllocationWait` while the
  query holds no memory.  A wait that raced with a re-grant (the grant
  is already positive) is skipped.  The check and the host's
  ``grant.on_change`` registration run without a suspension point in
  between, so no award can slip through.

Pricing stays with the hosts: the DES prices an access when its disk
dequeues it, with the head wherever it is then, while the live host
prices at accrual.  Both price through
:class:`~repro.core.devices.DeviceCore`.
"""

from __future__ import annotations

from repro.queries.requests import READ, AllocationWait, CPUBurst, DiskAccess

#: Step kinds (the first element of every yielded tuple).
CPU_WORK = "cpu_work"
DISK_IO = "disk_io"
GRANT_WAIT = "grant_wait"


def steps(job, pool):
    """Interpret ``job.operator.run()`` against the buffer pool ``pool``."""
    grant = job.grant
    read_hit = pool.read_hit
    for request in job.operator.run():
        request_type = type(request)
        if request_type is DiskAccess:
            cacheable_read = request.kind == READ and request.cacheable
            if cacheable_read and read_hit(
                request.disk, request.start_page, request.npages
            ):
                if request.cpu > 0.0:
                    yield CPU_WORK, request.cpu, False
                continue
            yield DISK_IO, request, cacheable_read
        elif request_type is CPUBurst:
            yield CPU_WORK, request.instructions, False
        elif request_type is AllocationWait:
            if grant.pages <= 0:
                yield GRANT_WAIT, grant, False
        else:  # pragma: no cover - operator contract violation
            raise TypeError(f"unknown operator request {request!r}")
