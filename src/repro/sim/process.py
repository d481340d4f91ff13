"""Generator-driven simulation processes.

A process is a Python generator that ``yield``-s :class:`Event` objects.
When a yielded event fires, the process resumes with the event's value as
the result of the ``yield`` expression.  A process is itself an event
(it fires when the generator returns), so processes can wait on each
other.

Processes can be interrupted -- the kernel throws :class:`Interrupt`
into the generator at its current suspension point.

The RTDBS model runs its arrival sources as processes.  Its queries
are not processes: on the per-block hot path, the query manager drives
each one with plain callbacks (see :mod:`repro.rtdbs.query_manager`),
and a firm-deadline abort withdraws its outstanding request instead of
interrupting it.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import Event, Interrupt


class Process(Event):
    """Drives a generator, suspending on each yielded :class:`Event`."""

    __slots__ = ("generator", "name", "_target", "_alive")

    def __init__(
        self,
        sim: "Simulator",  # noqa: F821 - forward ref
        generator: Generator[Event, Any, Any],
        name: str = "",
    ):
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        self._alive = True
        # Bootstrap: start the generator at the current simulation time.
        sim.call_soon(self._bootstrap)

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True until the generator returns, raises, or is interrupted
        without handling the interrupt."""
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        If the process is currently waiting on an event, that wait is
        abandoned (the event may still fire later but will no longer
        resume this process).  Interrupting a dead process is a no-op.
        """
        if not self._alive:
            return
        if self._target is not None:
            # Detach from whatever we were waiting on.
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._target = None
        self.sim.call_soon(self._throw_interrupt, cause)

    # ------------------------------------------------------------------
    # internal machinery
    # ------------------------------------------------------------------
    def _bootstrap(self, _arg: Any = None) -> None:
        if self._alive:
            self._step()

    def _throw_interrupt(self, cause: Any) -> None:
        if not self._alive:
            return
        self._step(throw=Interrupt(cause))

    def _resume(self, event: Event) -> None:
        if not self._alive:
            return
        self._target = None
        if event._ok:
            self._step(send=event._value)
        else:
            self._step(throw=event._value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        try:
            if throw is not None:
                target = self.generator.throw(throw)
            else:
                target = self.generator.send(send)
        except StopIteration as stop:
            self._alive = False
            if not self.triggered and not self.cancelled:
                self.succeed(stop.value)
            return
        except Interrupt:
            # The generator chose not to handle its interruption; treat
            # as a normal (but flagged) termination.
            self._alive = False
            if not self.triggered and not self.cancelled:
                self.succeed(None)
            return
        except BaseException as error:
            self._alive = False
            if not self.triggered and not self.cancelled:
                self.fail(error)
            else:  # pragma: no cover - double fault safety net
                raise
            return

        if not isinstance(target, Event):
            self._alive = False
            self.fail(TypeError(f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target._cancelled:
            self._alive = False
            self.fail(RuntimeError(f"process {self.name!r} waited on cancelled event"))
            return
        self._target = target
        if target._triggered:
            # Already fired: resume on the next kernel step at this time.
            self.sim.call_soon(self._resume, target)
        else:
            target.callbacks.append(self._resume)
