"""The CPU Manager: an ED-scheduled, preemptive-resume processor.

The CPU has a MIPS rating (``CPUSpeed``) and is scheduled by Earliest
Deadline [Liu73]: the burst belonging to the query with the most
imminent deadline always holds the processor, preempting (and later
resuming, without lost work) less urgent bursts.
"""

from __future__ import annotations

from repro.rtdbs.config import ResourceParams
from repro.sim.resources import CallbackBurst, PreemptiveServer, ServiceRequest
from repro.sim.simulator import Simulator


class CPU:
    """Thin wrapper binding a :class:`PreemptiveServer` to MIPS units."""

    def __init__(self, sim: Simulator, resources: ResourceParams):
        self.sim = sim
        self.resources = resources
        self._server = PreemptiveServer(sim, rate=resources.cpu_rate, name="cpu")
        self.instructions_executed = 0.0

    def execute(self, instructions: float, priority: float) -> ServiceRequest:
        """Submit a burst of ``instructions`` at ED ``priority``.

        Returns the completion event; the burst may be preempted and
        resumed arbitrarily often before it fires.
        """
        if instructions < 0:
            raise ValueError(f"negative instruction count: {instructions}")
        self.instructions_executed += instructions
        return self._server.submit(instructions, priority)

    def execute_reuse(self, burst: CallbackBurst, instructions: float, priority: float) -> None:
        """Re-submit a recycled :class:`CallbackBurst` with fresh work."""
        self.instructions_executed += instructions
        self._server.resubmit_call(burst, instructions, priority)

    def cancel(self, request: ServiceRequest) -> None:
        """Withdraw a burst (used when a query hits its firm deadline)."""
        self._server.cancel(request)

    def utilization(self) -> float:
        """Fraction of time the CPU has been busy since the run began."""
        return self._server.busy.mean()

    @property
    def busy(self):
        """Time-weighted busy indicator (for windowed PMM statistics)."""
        return self._server.busy

    @property
    def queue_length(self) -> int:
        """Bursts waiting behind the one in service."""
        return self._server.queue_length
