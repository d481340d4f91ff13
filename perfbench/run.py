#!/usr/bin/env python3
"""The repository benchmark: on-time goodput on live traffic, DES sweep
throughput, and a traced per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload live-steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload des-sweep --seed 4 --seconds 20 --trace 1

Workloads: ``live-steady``, ``live-overload``, ``des-sweep`` (see
``perfbench/README.md``).  Output: ``#`` lines naming the inputs (seed,
config content hash, arrival count), notes and any correctness
violations, then as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1`` (whose spans are written as JSONL under
``.perfbench/``).  Exit status: 0 when every check passed, 1 on any
correctness failure, 2 when the program's source is missing.

``--repin`` rewrites ``perfbench/pins.json`` from a default-seed
``des-sweep`` run instead of checking against it; pass ``--seconds 30``,
the run length in ``BENCHMARK.json``, so the pins cover its grid.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("live-steady", "live-overload", "des-sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repin", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            f"perfbench: {ROOT} holds no src/repro package or no BENCHMARK.json;"
            " run from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    spec = json.loads(spec_path.read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }
    run = workloads.WORKLOADS[args.workload]
    if args.workload == "des-sweep":
        pins = None if args.repin else workloads.load_pins(args.seed)
        outcome = run(args.seed, args.seconds, bool(args.trace), pins=pins)
        if args.repin:
            workloads.write_pins(outcome.grid_counts)
    else:
        outcome = run(args.seed, args.seconds, bool(args.trace))
    if set(outcome.metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(outcome.metrics)} do not match BENCHMARK.json"
            f" {sorted(units)}"
        )

    header = " ".join(f"{key}={value}" for key, value in outcome.header.items())
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} {header}")
    for note in outcome.notes:
        print(f"# {note}")
    for violation in outcome.violations:
        print(f"# VIOLATION: {violation}")
    if outcome.ledger is not None:
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        outcome.ledger.tracer.write_jsonl(
            path, dict(outcome.header, workload=args.workload)
        )
        print(f"# spans: {len(outcome.ledger.tracer.spans)} written to {path.relative_to(ROOT)}")
    correct = not outcome.violations and outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
