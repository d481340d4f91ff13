"""Performance-regression smoke tests for the simulation hot path.

Three guards keep future PRs from silently re-bloating the kernel:

* an **event-count ceiling** on a fixed-seed baseline run -- the count
  is fully deterministic, so any regression that adds per-block events
  (extra Timeouts, double-step completions, churn in the resource
  pipeline) trips it immediately regardless of machine speed;
* a **Python call-count ceiling** on a busier fixed-seed run (CPython
  3.11 only) -- as deterministic as the event count, it catches a
  per-block function call added to the interpreter, the query driver,
  the disks or the CPU, which moves no event at all;
* an **event-throughput floor** -- deliberately conservative (the
  optimized kernel clears it by an order of magnitude on a developer
  machine) so it only fires on gross wall-clock regressions, not on CI
  jitter.
"""

import cProfile
import platform
import pstats
import sys
import time

import pytest

from repro import RTDBSystem, baseline


#: Deterministic event count of the reference run below, measured after
#: the PR-1 hot-path pass (28 080 events).  The ceiling allows a small
#: allowance for intentional model additions; grow it consciously, not
#: accidentally.
EVENT_COUNT_CEILING = 31_000

#: Minimum events processed per wall-clock second.  The optimized
#: kernel sustains >100k events/s on a laptop; the seed kernel managed
#: ~40k.  A floor of 12k only trips on order-of-magnitude regressions
#: or a return to the pre-optimization event pipeline on slow CI.
THROUGHPUT_FLOOR = 12_000


#: cProfile call count of :func:`call_count_run` (construction and run,
#: CPython 3.11), measured once the DES ran each admitted query as a
#: callback-driven driver instead of a kernel process (the process
#: design counted 4,641,278).  One-time set-up earlier in the process
#: moves it by ~0.1%.  The ceiling allows 2%: each per-block call added
#: anywhere on the block path costs about +72k.
CALL_COUNT = 3_501_013
CALL_COUNT_CEILING = round(CALL_COUNT * 1.02)


def call_count_run() -> int:
    """Python calls to build and run ``baseline(0.07, scale=0.1, 400 s,
    seed 3)`` under MinMax (~72k disk accesses)."""
    profile = cProfile.Profile()
    profile.enable()
    config = baseline(arrival_rate=0.07, scale=0.1, duration=400.0, seed=3)
    RTDBSystem(config, "minmax").run()
    profile.disable()
    return pstats.Stats(profile).total_calls


def reference_run():
    config = baseline(arrival_rate=0.02, scale=0.1, duration=400.0, seed=3)
    system = RTDBSystem(config, "minmax")
    start = time.perf_counter()
    result = system.run()
    elapsed = time.perf_counter() - start
    return system, result, elapsed


@pytest.mark.slow
def test_fixed_seed_event_count_does_not_grow():
    system, result, _elapsed = reference_run()
    events = system.sim.events_processed
    assert events > 0
    assert events <= EVENT_COUNT_CEILING, (
        f"hot path re-bloated: {events} events for the reference run "
        f"(ceiling {EVENT_COUNT_CEILING}); did a resource completion "
        f"grow an extra kernel step?"
    )
    # The run itself must still be the same experiment.
    assert result.served > 0
    assert result.arrivals == 92  # deterministic for seed 3


@pytest.mark.slow
def test_event_throughput_floor():
    system, _result, elapsed = reference_run()
    throughput = system.sim.events_processed / max(elapsed, 1e-9)
    assert throughput >= THROUGHPUT_FLOOR, (
        f"kernel throughput {throughput:.0f} events/s fell below the "
        f"{THROUGHPUT_FLOOR} events/s floor (took {elapsed:.2f}s)"
    )


def test_events_processed_counter_counts_each_step():
    """The counter the guards rely on ticks once per processed entry."""
    from repro.sim.simulator import Simulator

    sim = Simulator()
    fired = []
    for delay in (0.0, 1.0, 2.0):
        sim.timeout(delay)
    sim.call_soon(lambda _arg: fired.append("soon"))
    sim.call_later(1.5, lambda _arg: fired.append("later"))
    sim.run()
    assert fired == ["soon", "later"]
    assert sim.events_processed == 5


@pytest.mark.slow
@pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.version_info[:2] != (3, 11),
    reason="the call count is pinned for CPython 3.11",
)
def test_block_path_call_count_ceiling():
    calls = call_count_run()
    assert calls <= CALL_COUNT_CEILING, (
        f"DES block path re-bloated: {calls:,} Python calls for the "
        f"call-count run (ceiling {CALL_COUNT_CEILING:,}, measured "
        f"{CALL_COUNT:,}); did a per-block call join the query driver, "
        f"steps(), the disks or the CPU?"
    )
