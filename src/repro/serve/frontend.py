"""The JSON-lines front end shared by the live server and the router.

Every query enters the live stack through a
:class:`~repro.serve.server.LiveServer` or a
:class:`~repro.serve.router.ShardRouter`; both speak one protocol, one
JSON object per line each way, written once here.  ``{"op": "hello",
"tenant": ...}`` sets the connection's default tenant (per-request
``"tenant"`` keys override it) and the reply adds the subclass's
placement of it (``"class"`` or ``"shard"``); every other op goes to
the subclass's ``_dispatch``.  Any request may carry a ``"tag"``,
echoed in its response: submit responses arrive at query departure,
out of order on a pipelining connection, so the tag is how a
multiplexing client correlates them.

Hostile or broken clients get structured ``error`` replies (malformed
or non-object JSON, a ``ValueError`` / ``KeyError`` / ``TypeError``
from dispatch, ``internal error`` for anything else); an oversized
line loses the framing, so it gets one error and a clean close (a
half-close, then the rest of the line is read off); a disconnect
cancels the connection's in-flight requests, aborting the queries they
own.  No client can kill the accept loop or wedge another connection.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional


class JsonLinesFrontEnd:
    """One JSON-lines listener: connections, requests, drain, close.

    A subclass binds in ``start`` (through :meth:`_listen`) and
    supplies ``_hello(tenant)`` (the fields a ``hello`` reply adds),
    ``async _dispatch(request, tenant="")`` (every other op), and two
    ``close`` hooks: ``async _on_drain()`` runs once the listener has
    stopped, before the wait for in-flight handlers, and ``async
    _on_closed()`` once every client connection is closed.
    """

    #: readline limit of accepted connections (asyncio's own default).
    READ_LIMIT = 1 << 16

    #: Wall seconds ``close`` waits for in-flight handlers to answer
    #: (bounded, in case a client's transport wedges mid-write).
    IDLE_TIMEOUT = 10.0

    #: What a client that sent an oversized line may still send, and
    #: for how long, before the close (see :meth:`_linger`).
    LINGER_BYTES = 1 << 22
    LINGER_TIMEOUT = 2.0

    def __init__(self) -> None:
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set = set()
        self._draining = False
        self._closing = False
        self._closed = asyncio.Event()
        #: Requests mid-flight in a handler (read, not yet responded).
        self._pending = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # -- lifecycle --------------------------------------------------------
    async def _listen(self, host: str, port: int) -> tuple:
        """Bind the listener; returns ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=self.READ_LIMIT
        )
        address = self._server.sockets[0].getsockname()
        return address[0], address[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    @property
    def draining(self) -> bool:
        return self._draining

    def _stop_accepting(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()

    async def _wait_idle(self, timeout: float) -> None:
        """Wait up to ``timeout`` for every in-flight request to answer."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            pass

    async def close(self) -> None:
        """Graceful, idempotent drain: stop accepting (``draining``
        refuses new work), ``_on_drain``, let in-flight handlers answer
        for up to ``IDLE_TIMEOUT`` seconds, close the connections, then
        ``_on_closed``.  Late or concurrent callers wait for the first
        drain instead of draining twice."""
        if self._closing:
            await self._closed.wait()
            return
        self._closing = True
        try:
            self._stop_accepting()
            await self._on_drain()
            await self._wait_idle(self.IDLE_TIMEOUT)
            for writer in list(self._writers):
                writer.close()
            if self._server is not None:
                await self._server.wait_closed()
                self._server = None
            await self._on_closed()
        finally:
            self._closed.set()

    # -- connections ------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        """One connection: read request lines, serve each in its own task."""
        self._writers.add(writer)
        #: Shared connection state: "hello" sets the default tenant for
        #: every later request (tasks start in arrival order, and hello
        #: has no await before the mutation, so the order holds).
        state = {"tenant": ""}
        lock = asyncio.Lock()  # serialises response writes
        inflight: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Oversized line: the stream's framing is lost.
                    await self._respond(
                        writer, lock, {"error": "request line too long"}
                    )
                    await self._linger(reader, writer)
                    break
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._serve_request(line, state, writer, lock)
                )
                inflight.add(task)
                task.add_done_callback(inflight.discard)
        except (asyncio.CancelledError, ConnectionResetError):
            pass  # shutdown or client vanished: just end quietly
        finally:
            for task in list(inflight):
                task.cancel()  # aborts the queries these requests own
            self._writers.discard(writer)
            writer.close()

    async def _linger(self, reader, writer) -> None:
        """Half-close, then read off what the client still sends (up to
        ``LINGER_BYTES`` within ``LINGER_TIMEOUT`` seconds): a close over
        unread bytes resets the connection, which can destroy the error
        reply before the client reads it."""
        writer.write_eof()
        try:
            await asyncio.wait_for(
                reader.readexactly(self.LINGER_BYTES), self.LINGER_TIMEOUT
            )
        except (asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass  # EOF (the usual end) or the bound

    async def _serve_request(self, line, state, writer, lock) -> None:
        """Parse and serve one request line; always answer something."""
        self._pending += 1
        self._idle.clear()
        tag = None
        try:
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                response = {"error": f"malformed JSON: {error}"}
            else:
                if not isinstance(request, dict):
                    response = {"error": "request must be a JSON object"}
                else:
                    tag = request.get("tag")
                    try:
                        if request.get("op") == "hello":
                            tenant = str(request.get("tenant", ""))
                            state["tenant"] = tenant
                            response = {"tenant": tenant, **self._hello(tenant)}
                        else:
                            response = await self._dispatch(
                                request, state["tenant"]
                            )
                    except (ValueError, KeyError, TypeError) as error:
                        response = {"error": str(error)}
                    except asyncio.CancelledError:
                        raise
                    except Exception as error:
                        # A bug behind the front end must not kill the
                        # connection loop.
                        response = {
                            "error": "internal error: "
                            f"{type(error).__name__}: {error}"
                        }
            if tag is not None:
                response["tag"] = tag
            await self._respond(writer, lock, response)
        except asyncio.CancelledError:
            return  # connection gone: _dispatch cancelled its work
        finally:
            self._pending -= 1
            if self._pending == 0:
                self._idle.set()

    async def _respond(self, writer, lock, response: dict) -> None:
        payload = json.dumps(response).encode() + b"\n"
        try:
            async with lock:
                writer.write(payload)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished before reading its response
