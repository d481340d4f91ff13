#!/usr/bin/env python
"""Time the profiled kernel baseline and write ``BENCH_kernel.json``.

This is the perf-trajectory probe: it re-runs the reference experiment
from ``benchmarks/PROFILE.md`` --

    baseline(arrival_rate=0.02, scale=0.1, duration=400.0, seed=3)  # minmax

-- a few times, takes run-only wall-clock (construction excluded, as in
the profile), and records wall clock, deterministic event count, and
events/second so future PRs can diff the trajectory instead of
re-profiling by hand.  It also records ``python_calls``: the cProfile
call count of the busier ``baseline(0.07, ...)`` run that
``tests/test_kernel_perf.py`` gates (construction included).  CI runs
it on every push; run locally with::

    PYTHONPATH=src python scripts/bench_kernel.py [--repeats 7] [--output BENCH_kernel.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path


def time_reference(repeats: int):
    from repro import RTDBSystem, baseline

    samples = []
    events = None
    arrivals = None
    for _ in range(repeats):
        config = baseline(arrival_rate=0.02, scale=0.1, duration=400.0, seed=3)
        system = RTDBSystem(config, "minmax")
        start = time.perf_counter()
        result = system.run()
        samples.append(time.perf_counter() - start)
        if events is None:
            events = system.sim.events_processed
            arrivals = result.arrivals
        else:
            # The run is fully deterministic; a drifting event count
            # means the kernel changed under us mid-measurement.
            assert events == system.sim.events_processed, "non-deterministic run"
    return samples, events, arrivals


def count_calls() -> int:
    """cProfile call count of the call-count reference run."""
    import cProfile
    import pstats

    from repro import RTDBSystem, baseline

    profile = cProfile.Profile()
    profile.enable()
    config = baseline(arrival_rate=0.07, scale=0.1, duration=400.0, seed=3)
    RTDBSystem(config, "minmax").run()
    profile.disable()
    return pstats.Stats(profile).total_calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--output", default="BENCH_kernel.json")
    args = parser.parse_args(argv)

    samples, events, arrivals = time_reference(args.repeats)
    median = statistics.median(samples)
    best = min(samples)
    payload = {
        "experiment": "baseline(arrival_rate=0.02, scale=0.1, duration=400.0, seed=3), minmax",
        "timing_scope": "RTDBSystem.run() only (construction excluded)",
        "repeats": args.repeats,
        "wall_clock_s": {"median": round(median, 4), "min": round(best, 4)},
        "events_processed": events,
        "events_per_s": round(events / median),
        "arrivals": arrivals,
        "python_calls": count_calls(),
        "python_calls_experiment": (
            "baseline(arrival_rate=0.07, scale=0.1, duration=400.0, seed=3), "
            "minmax, construction included"
        ),
        "python": platform.python_version(),
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
