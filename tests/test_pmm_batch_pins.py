"""Fixed-seed pins on Figure 3 points that close PMM batches.

Each point runs until 75 departures, so with ``SampleSize`` 30 the
batch window closes twice and the adaptive policies act on their
feedback mid-run.  (The ``des-sweep`` benchmark pins stop at 15
departures, before any batch closes.)  A drift in batch statistics,
policy adaptation, the request-stream interpreter or the kernel's
event order moves at least one of these counts.
"""

import pytest

from repro import RTDBSystem, baseline
from repro.policies import DEFAULT_POLICIES

SEED = 64
DEPARTURES = 75

#: (rate, policy) -> (arrivals, served, missed, kernel events, batches).
PINS = {
    (0.04, "max"): (79, 75, 4, 20249, 2),
    (0.04, "minmax"): (79, 75, 2, 28818, 2),
    (0.04, "minmax-4"): (79, 75, 1, 27871, 2),
    (0.04, "proportional"): (79, 75, 2, 33241, 2),
    (0.04, "pmm"): (79, 75, 4, 23661, 2),
    (0.04, "fairpmm"): (79, 75, 4, 23661, 2),
    (0.08, "max"): (85, 75, 12, 18439, 2),
    (0.08, "minmax"): (85, 75, 8, 46529, 2),
    (0.08, "minmax-4"): (85, 75, 12, 37690, 2),
    (0.08, "proportional"): (85, 75, 13, 49583, 2),
    (0.08, "pmm"): (85, 75, 6, 37039, 2),
    (0.08, "fairpmm"): (85, 75, 6, 37039, 2),
}


def test_pins_cover_the_default_policies():
    assert {policy for _rate, policy in PINS} == set(DEFAULT_POLICIES)


@pytest.mark.parametrize("rate, policy", sorted(PINS))
def test_fig3_point_through_two_batches(rate, policy):
    config = baseline(arrival_rate=rate, scale=0.1, seed=SEED, duration=36_000.0)
    system = RTDBSystem(config, policy)
    result = system.run(max_completions=DEPARTURES)
    counts = (
        result.arrivals,
        result.served,
        result.missed,
        system.sim.events_processed,
        system.query_manager.batches_delivered,
    )
    assert counts == PINS[rate, policy]
