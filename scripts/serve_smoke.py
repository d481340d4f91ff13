#!/usr/bin/env python
"""Multi-tenant serve smoke: two TCP clients against the real server.

CI's ``serve-smoke`` job runs this: it launches the actual CLI server
process (``python -m repro.serve serve --tenants 2``), connects two
concurrent TCP clients as two different tenants, drives real
submissions through the shared data plane, asserts the per-tenant
report is sane, and then shuts the server down with SIGINT -- which
must drain gracefully (in-flight queries depart, clients get their
responses, exit code 0).

A second leg rehearses the crash path: a fresh server is launched with
``--journal``, SIGKILLed mid-traffic (no drain, no flush beyond the
per-op journal writes), and ``python -m repro.serve recover`` must
replay the journal to a conserved ledger -- exit 0 and the
"ledger conserved" banner.

Run locally with::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.serve.shard import ServeProcess, serve_env  # noqa: E402
from smoke_client import fetch_stats, submissions, tenant_client  # noqa: E402

#: Submissions per tenant.
PER_TENANT = 3


def launch(time_scale: float, extra: tuple = ()) -> ServeProcess:
    """Start the server subprocess and wait for its ready line.
    ``extra`` appends additional CLI flags (e.g. ``--journal``)."""
    return ServeProcess.launch(
        [
            "serve",
            "--port", "0",
            "--tenants", "2",
            "--policy", "pmm",
            "--time-scale", str(time_scale),
            *extra,
        ],
        banner_timeout=60.0,
    )


def check_hello(hello: dict) -> None:
    assert hello["class"], f"tenant {hello['tenant']} got no class mapping: {hello}"


def tenant(host: str, port: int, name: str):
    """One tenant's connection: hello, then PER_TENANT submissions."""
    return tenant_client(
        host,
        port,
        name,
        submissions(PER_TENANT),
        check_hello,
        lambda _response, _request: None,
    )


def check_stats(stats: dict) -> None:
    """Per-tenant report sanity over the shared data plane."""
    per_tenant = stats["per_tenant"]
    assert set(per_tenant) == {"alpha", "beta"}, per_tenant
    for tenant, entry in per_tenant.items():
        assert entry["arrivals"] == PER_TENANT, (tenant, entry)
        assert entry["served"] == PER_TENANT, (tenant, entry)
        assert 0 <= entry["missed"] <= entry["served"], (tenant, entry)
        assert 0.0 <= entry["miss_ratio"] <= 1.0, (tenant, entry)
        assert entry["class"], (tenant, entry)
    served = sum(entry["served"] for entry in per_tenant.values())
    assert stats["served"] == served, stats
    assert stats["arrivals"] == 2 * PER_TENANT, stats
    assert 0.0 <= stats["pool_hit_ratio"] <= 1.0, stats
    assert stats["disk_queue_s"] >= 0.0, stats
    assert stats["disk_busy_s"] > 0.0, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--time-scale", type=float, default=0.02)
    args = parser.parse_args(argv)

    server = launch(args.time_scale)
    try:
        results = asyncio.run(
            asyncio.wait_for(
                _drive(server.host, server.port),
                timeout=240.0,
            )
        )
    except BaseException:
        server.kill()
        raise
    stats = results["stats"]
    check_stats(stats)
    print(
        f"serve-smoke: 2 tenants x {PER_TENANT} queries served "
        f"(miss_ratio={stats['miss_ratio']}, "
        f"pool_hit_ratio={stats['pool_hit_ratio']}, "
        f"disk_queue_s={stats['disk_queue_s']})"
    )

    # Graceful drain: SIGINT must produce a clean exit and the drain
    # banner, with every query already departed.
    try:
        code = server.drain(timeout=120.0)
    except subprocess.TimeoutExpired:
        server.kill()
        raise SystemExit("server did not drain within 120 s of SIGINT")
    if code != 0:
        raise SystemExit(f"server exited {code} after SIGINT:\n{server.output}")
    if "drained cleanly" not in server.output:
        raise SystemExit(f"no drain banner in server output:\n{server.output}")
    print("serve-smoke: graceful drain ok")

    crash_recovery_leg(args.time_scale)
    return 0


async def _pipeline_submissions(host: str, port: int, count: int) -> None:
    """Pipeline ``count`` long-deadline submissions without waiting.

    Submit responses only arrive when queries *depart*; by writing the
    requests and never reading, the queries are left in flight so the
    SIGKILL lands mid-traffic with a populated broker ledger.
    """
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(json.dumps({"op": "hello", "tenant": "alpha"}).encode() + b"\n")
    await writer.drain()
    hello = json.loads(await reader.readline())
    assert hello["tenant"] == "alpha", hello
    for index in range(count):
        writer.write(
            json.dumps(
                {
                    "op": "submit",
                    "type": "sort" if index % 2 == 0 else "hash_join",
                    "pages": 48 + 8 * index,
                    "slack": 1000.0,
                }
            ).encode()
            + b"\n"
        )
    await writer.drain()
    # Leave the connection open long enough for the submissions to be
    # admitted and journalled, then abandon it without reading.
    await asyncio.sleep(0.5)
    writer.close()


def crash_recovery_leg(time_scale: float) -> None:
    """SIGKILL the server mid-traffic; the journal must replay cleanly."""
    journal = Path(
        tempfile.mkdtemp(prefix="serve-smoke-crash-")
    ) / "broker.jsonl"
    server = launch(time_scale, extra=("--journal", str(journal)))
    try:
        asyncio.run(
            asyncio.wait_for(
                _pipeline_submissions(server.host, server.port, 4), timeout=60.0
            )
        )
    except BaseException:
        server.kill()
        raise
    server.kill()  # SIGKILL: no drain, no graceful close, no flush
    if not journal.exists() or not journal.read_text().strip():
        raise SystemExit(f"server never journalled to {journal}")

    recover = subprocess.run(
        [sys.executable, "-m", "repro.serve", "recover",
         "--journal", str(journal)],
        env=serve_env(),
        capture_output=True,
        text=True,
        timeout=120.0,
    )
    output = recover.stdout + recover.stderr
    if recover.returncode != 0:
        raise SystemExit(
            f"journal recovery exited {recover.returncode}:\n{output}"
        )
    if "ledger conserved" not in output:
        raise SystemExit(f"no conservation banner in recovery:\n{output}")
    print("serve-smoke: SIGKILL mid-traffic -> journal replayed to a "
          "conserved ledger")


async def _drive(host: str, port: int) -> dict:
    alpha, beta = await asyncio.gather(
        tenant(host, port, "alpha"),
        tenant(host, port, "beta"),
    )
    stats = await fetch_stats(host, port)
    return {"alpha": alpha, "beta": beta, "stats": stats}


if __name__ == "__main__":
    raise SystemExit(main())
