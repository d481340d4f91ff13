#!/usr/bin/env python
"""Sharded serve smoke: the routed farm over real subprocesses.

CI's ``shard-smoke`` job runs this: it launches the actual router CLI
(``python -m repro.serve route --shards 2 --tenants 2``), which itself
spawns two real shard subprocesses (each a full serve stack on half
the scenario's disks and pool pages).  Two concurrent tenant clients
drive submissions through the router; the script asserts

* every submission is answered with its shard attribution and echoed
  tag (departure-time responses are correlated, not ordered);
* conservation: router arrivals == Σ shard arrivals == Σ shard
  (served + shed), per tenant and in aggregate;
* SIGINT drains the whole farm: the router prints its conservation
  verdict and exits 0, and every shard drains cleanly underneath it.

On any failure the exact reproduction command is printed last.

Run locally with::

    PYTHONPATH=src python scripts/shard_smoke.py
"""

from __future__ import annotations

import argparse
import asyncio
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.serve.shard import ServeProcess  # noqa: E402
from smoke_client import fetch_stats, submissions, tenant_client  # noqa: E402

SHARDS = 2
TENANTS = ("tenant0", "tenant1")
#: Submissions per tenant.
PER_TENANT = 3

REPRO_COMMAND = (
    "PYTHONPATH=src python -m repro.serve route --shards 2 --tenants 2 "
    "--port 0 --time-scale {scale}"
)


def launch(time_scale: float) -> ServeProcess:
    """Start the router CLI (which launches the shard subprocesses)
    and wait for its ready line."""
    return ServeProcess.launch(
        [
            "route",
            "--shards", str(SHARDS),
            "--tenants", str(len(TENANTS)),
            "--port", "0",
            "--policy", "pmm",
            "--time-scale", str(time_scale),
        ],
        name="router",
        banner=re.compile(r"router .*listening on ([\d.]+):(\d+)"),
        banner_timeout=120.0,
    )


def check_hello(hello: dict) -> None:
    assert hello["shard"] in range(SHARDS), hello


def check_response(response: dict, request: dict) -> None:
    assert response["tag"] == request["tag"], response
    assert response["shard"] in range(SHARDS), response


def check_stats(stats: dict) -> None:
    """Conservation across the routed farm."""
    expected = len(TENANTS) * PER_TENANT
    assert stats["arrivals"] == expected, stats
    assert stats["responses"] == expected, stats
    assert sum(stats["routed"]) == expected, stats
    assert stats["per_tenant"] == {
        tenant: PER_TENANT for tenant in TENANTS
    }, stats["per_tenant"]
    conservation = stats["conservation"]
    assert conservation["ok"], conservation
    assert conservation["complete"], conservation
    assert conservation["shard_arrivals"] == expected, conservation
    assert conservation["settled"] == expected, conservation
    shards = stats["shards"]
    assert len(shards) == SHARDS, [s.get("shard") for s in shards]
    for shard_stats in shards:
        shard = shard_stats["shard"]
        assert shard is not None and shard["of"] == SHARDS, shard_stats
        assert shard_stats["served"] + shard_stats["shed"] == shard_stats[
            "arrivals"
        ], shard_stats
    assert sum(s["arrivals"] for s in shards) == expected, shards


async def _drive(host: str, port: int) -> dict:
    results = await asyncio.gather(
        *(
            tenant_client(
                host,
                port,
                tenant,
                submissions(PER_TENANT, tag_prefix=tenant),
                check_hello,
                check_response,
            )
            for tenant in TENANTS
        )
    )
    stats = await fetch_stats(host, port)
    return {"responses": results, "stats": stats}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--time-scale", type=float, default=0.02)
    args = parser.parse_args(argv)

    try:
        return _run(args)
    except BaseException:
        print(
            "shard-smoke failed; reproduce with:\n  "
            + REPRO_COMMAND.format(scale=args.time_scale),
            file=sys.stderr,
        )
        raise


def _run(args) -> int:
    router = launch(args.time_scale)
    try:
        results = asyncio.run(
            asyncio.wait_for(_drive(router.host, router.port), timeout=240.0)
        )
    except BaseException:
        router.kill()
        raise
    stats = results["stats"]
    check_stats(stats)
    aggregate = stats["aggregate"]
    print(
        f"shard-smoke: {len(TENANTS)} tenants x {PER_TENANT} queries routed "
        f"across {SHARDS} shards (miss_ratio={aggregate['miss_ratio']}, "
        f"placement={stats['placement']})"
    )

    # Graceful drain: SIGINT to the router must drain the whole farm --
    # router conservation verdict, exit 0, every shard drained.
    try:
        code = router.drain(timeout=180.0)
    except subprocess.TimeoutExpired:
        router.kill()
        raise SystemExit("router did not drain within 180 s of SIGINT")
    output = router.output
    if code != 0:
        raise SystemExit(f"router exited {code} after SIGINT:\n{output}")
    if "router drained cleanly" not in output:
        raise SystemExit(f"no router drain banner:\n{output}")
    if "conservation ok" not in output:
        raise SystemExit(f"no conservation verdict in drain banner:\n{output}")
    print("shard-smoke: SIGINT drained the farm (router + shards) cleanly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
