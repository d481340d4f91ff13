"""JSON-lines client legs shared by ``serve_smoke.py`` and ``shard_smoke.py``.

Both smokes speak the same protocol to a server or a router: a
tenant's ``hello`` followed by its submissions, each answered on
departure, and a ``stats`` snapshot.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, List, Optional

# Reader line limit: a router's ``stats`` nests every shard's snapshot.
from repro.serve.router import LINE_LIMIT


def submissions(count: int, tag_prefix: Optional[str] = None) -> List[dict]:
    """``count`` small alternating sort / hash-join submissions."""
    requests = []
    for index in range(count):
        request = {
            "op": "submit",
            "type": "sort" if index % 2 == 0 else "hash_join",
            "pages": 8 + 4 * index,
            "slack": 20.0,
        }
        if tag_prefix is not None:
            request["tag"] = f"{tag_prefix}-{index}"
        requests.append(request)
    return requests


async def _roundtrip(reader, writer, request: dict) -> dict:
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


async def tenant_client(
    host: str,
    port: int,
    tenant: str,
    requests: List[dict],
    check_hello: Callable[[dict], None],
    check_response: Callable[[dict, dict], None],
) -> list:
    """One tenant's connection: hello, then each request in turn."""
    reader, writer = await asyncio.open_connection(host, port, limit=LINE_LIMIT)
    try:
        hello = await _roundtrip(reader, writer, {"op": "hello", "tenant": tenant})
        assert hello["tenant"] == tenant, hello
        check_hello(hello)
        responses = []
        for request in requests:
            response = await _roundtrip(reader, writer, request)
            assert "error" not in response, response
            assert response["tenant"] == tenant, response
            check_response(response, request)
            responses.append(response)
        return responses
    finally:
        writer.close()


async def fetch_stats(host: str, port: int) -> dict:
    reader, writer = await asyncio.open_connection(host, port, limit=LINE_LIMIT)
    try:
        return await _roundtrip(reader, writer, {"op": "stats"})
    finally:
        writer.close()
