"""Shard-slicing and shard-process management for the routed serve layer.

A *shard* is one full :class:`~repro.serve.server.LiveServer` stack --
its own :class:`~repro.core.broker.MemoryBroker`, ``BufferPool``,
``LiveDisk`` farm and worker gate -- serving a
slice of the scenario's physical resources.  :func:`shard_config`
computes that slice: shard ``i`` of ``N`` gets an even split of the
scenario's disks and buffer-pool pages (remainders go to the low
shards), while the *workload definition* (query classes, rates, slack
ranges) stays global so any shard can serve any tenant.

``of == 1`` is the identity: the config object is returned unchanged,
so an unrouted deployment is byte-identical to what PR 4-7 shipped.

:class:`ServeProcess` launches any ``python -m repro.serve`` command
as a real subprocess, parses its listening banner for the ephemeral
port, and drains it with SIGINT -- the same lifecycle a human operator
or an init system would drive.  :func:`launch_shards` starts a farm of
``serve --shard-id I --of N`` processes with it; the smoke scripts
start the server and the router with it.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.rtdbs.config import SimulationConfig

#: ``repro.serve: ... listening on 127.0.0.1:43211`` -- printed by
#: ``serve`` (and ``route``) once the listener is bound.
BANNER_PATTERN = re.compile(r"listening on ([\d.]+):(\d+)")


def split_evenly(total: int, parts: int) -> List[int]:
    """Split ``total`` into ``parts`` integer shares, remainder to the
    low indices: ``split_evenly(10, 3) == [4, 3, 3]``."""
    if parts < 1:
        raise ValueError(f"parts must be positive, got {parts}")
    base, remainder = divmod(total, parts)
    return [base + (1 if i < remainder else 0) for i in range(parts)]


def shard_config(
    config: SimulationConfig, shard_id: int, of: int
) -> SimulationConfig:
    """The resource slice shard ``shard_id`` of ``of`` serves.

    Disks and buffer-pool pages are split evenly (remainder to the low
    shards); everything else -- workload classes, cost constants, seed
    -- is untouched, so every shard prices deadlines and maps tenants
    identically.  ``of == 1`` returns ``config`` itself (the unrouted
    identity path).
    """
    if of < 1:
        raise ValueError(f"shard count must be positive, got {of}")
    if not 0 <= shard_id < of:
        raise ValueError(f"shard id {shard_id} outside [0, {of})")
    if of == 1:
        return config
    num_disks = config.resources.num_disks
    if of > num_disks:
        raise ValueError(
            f"cannot split {num_disks} disks across {of} shards -- "
            "every shard needs at least one disk"
        )
    disks = split_evenly(num_disks, of)
    pages = split_evenly(config.resources.memory_pages, of)
    if pages[shard_id] < 1:
        raise ValueError(
            f"cannot split {config.resources.memory_pages} pool pages "
            f"across {of} shards"
        )
    resources = replace(
        config.resources,
        num_disks=disks[shard_id],
        memory_pages=pages[shard_id],
    )
    return config.with_overrides(resources=resources)


def serve_env() -> dict:
    """The environment for a ``repro`` subprocess: this process's, with
    the directory holding the ``repro`` package prepended to PYTHONPATH."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


@dataclass
class ServeProcess:
    """One ``python -m repro.serve`` subprocess: launch, banner parse,
    drain, reap."""

    name: str
    process: subprocess.Popen
    host: str = ""
    port: int = 0
    #: Every stdout/stderr line the process printed (diagnostics).
    lines: List[str] = field(default_factory=list)
    _queue: "queue.Queue" = field(default_factory=queue.Queue)
    _eof: bool = False

    # -- launch --------------------------------------------------------
    @classmethod
    def launch(
        cls,
        args: Sequence[str],
        name: str = "server",
        banner: "re.Pattern" = BANNER_PATTERN,
        banner_timeout: float = 30.0,
    ) -> "ServeProcess":
        """Spawn ``python -m repro.serve ARGS`` and wait until a line
        matches ``banner`` (groups: host, port)."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=serve_env(),
        )
        server = cls(name=name, process=process)
        # Read stdout on a thread: a wedged process must trip the
        # banner deadline, not block a readline() forever.
        threading.Thread(target=server._pump, daemon=True).start()
        server._await_banner(banner, banner_timeout)
        return server

    def _pump(self) -> None:
        for line in self.process.stdout:
            self._queue.put(line.rstrip("\n"))
        self._queue.put(None)  # EOF sentinel

    def _await_banner(self, banner: "re.Pattern", timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.process.kill()
                raise RuntimeError(
                    f"{self.name}: no listening banner within {timeout}s; "
                    "output so far:\n" + self.output
                )
            try:
                line = self._queue.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"{self.name} exited ({self.process.wait()}) before "
                    "printing its banner; output:\n" + self.output
                )
            self.lines.append(line)
            match = banner.search(line)
            if match:
                self.host = match.group(1)
                self.port = int(match.group(2))
                return

    # -- teardown ------------------------------------------------------
    def drain(self, timeout: float = 60.0) -> int:
        """SIGINT the process (graceful drain) and reap it, collecting
        the rest of its output.  Returns the exit code; raises
        ``subprocess.TimeoutExpired`` if it outlives ``timeout``."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        code = self.process.wait(timeout=timeout)
        self._collect()
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=10.0)
        self._collect()

    def _collect(self, timeout: float = 10.0) -> None:
        """Move the exited process's remaining output into :attr:`lines`
        (up to the pump's EOF sentinel, bounded by ``timeout``)."""
        deadline = time.monotonic() + timeout
        while not self._eof:
            try:
                line = self._queue.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                return
            if line is None:
                self._eof = True
            else:
                self.lines.append(line)

    @property
    def output(self) -> str:
        return "\n".join(self.lines)

    @property
    def drained_cleanly(self) -> bool:
        """True once the process printed its graceful-drain banner."""
        return "drained cleanly" in self.output

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port


def launch_shards(
    count: int,
    policy: str = "pmm",
    tenants: Optional[int] = None,
    family: str = "mix",
    index: int = 0,
    scenario_seed: int = 0,
    time_scale: float = 0.05,
    shed: bool = False,
    extra_args: Sequence[str] = (),
) -> List[ServeProcess]:
    """Launch ``count`` shard subprocesses; kill them all if any fails
    to come up (no half-built farm leaks)."""
    shards: List[ServeProcess] = []
    try:
        for shard_id in range(count):
            args = [
                "serve",
                "--port", "0",
                "--policy", policy,
                "--shard-id", str(shard_id),
                "--of", str(count),
                "--family", family,
                "--index", str(index),
                "--scenario-seed", str(scenario_seed),
                "--time-scale", str(time_scale),
            ]
            if tenants is not None:
                args += ["--tenants", str(tenants)]
            if shed:
                args.append("--shed")
            shards.append(
                ServeProcess.launch(
                    [*args, *extra_args], name=f"shard {shard_id}/{count}"
                )
            )
    except BaseException:
        for shard in shards:
            shard.kill()
        raise
    return shards
