"""Golden-trace regression: fixed-seed counts for one scenario per family.

These pins guard *two* surfaces at once:

* the **scenario generator** -- if a draw is added, removed, or
  reordered, the scenario's content hash changes and the pinned hash
  fails first, pointing at the generator rather than the kernel;
* the **simulation kernel** -- if event ordering, the cost model, or a
  policy changes behaviour, the arrival/served/missed counts, the
  buffer-pool and prefetch-cache hit counts, or the number of kernel
  events drift while the hash stays put.  The cache and event counts
  catch a change in *how* queries ran (a read served from the wrong
  cache, an extra or missing resource event) even when every query
  still meets or misses exactly as before.

The chosen indices are deliberately *discriminating*: each family's
pinned scenario produces deadline misses and (except heavytail, where
PMM's adaptation happens to cost it one query) distinguishes MinMax
from PMM, so a behaviour change in either policy shows up here.

When a change to simulation semantics is intentional, re-pin by
running the module printout::

    PYTHONPATH=src python tests/test_scenario_golden.py

and bump ``repro.experiments.runner.CACHE_VERSION``.
"""

from dataclasses import dataclass
from typing import Dict, Tuple

import pytest

from repro.rtdbs.system import RTDBSystem
from repro.scenarios import ScenarioGenerator

GOLDEN_SEED = 2026


@dataclass(frozen=True)
class GoldenTrace:
    index: int
    content_hash: str
    #: (arrivals, served, missed, buffer_hits, buffer_misses,
    #: disk_cache_hits, events_processed) under each pinned policy.
    minmax: Tuple[int, ...]
    pmm: Tuple[int, ...]


GOLDEN: Dict[str, GoldenTrace] = {
    "mix": GoldenTrace(
        index=4,
        content_hash="ce73986e483b715e1e585af07e988f0e21578e95a5eec8b9a4471c857412dcd8",
        minmax=(44, 44, 18, 0, 1487, 0, 8285),
        pmm=(44, 44, 14, 0, 1297, 16, 5102),
    ),
    "bursty": GoldenTrace(
        index=4,
        content_hash="3159f0daa39d62e3053c231e128121ca445926fd7d560edfdab9416b168ba3b5",
        minmax=(134, 131, 23, 32, 1379, 118, 5679),
        pmm=(134, 131, 20, 53, 1342, 130, 5235),
    ),
    "phases": GoldenTrace(
        index=2,
        content_hash="256aadec6621b555e47a1f30d8209b1e3e61cd39397277ba773d0b285ed912af",
        minmax=(66, 66, 3, 103, 1084, 15, 2944),
        pmm=(66, 66, 0, 108, 1095, 8, 2781),
    ),
    "multitenant": GoldenTrace(
        index=5,
        content_hash="4a6dabb38d662473f1ce1ae0cc50d5d7d1eee0542fcb8a37a31b05f2fc972d22",
        minmax=(79, 79, 20, 0, 1491, 27, 5877),
        pmm=(79, 79, 15, 0, 1478, 5, 4922),
    ),
    "heavytail": GoldenTrace(
        index=2,
        content_hash="6fb6970a8ab801b65feb5a34cc90b6383e66d45b419e9f759bd6eb2172c5cde1",
        minmax=(63, 63, 5, 94, 435, 36, 1674),
        pmm=(63, 63, 6, 94, 394, 83, 1825),
    ),
}


def _counts(scenario, policy):
    system = RTDBSystem(scenario.config, policy, invariants=True)
    result = system.run()
    return (
        result.arrivals,
        result.served,
        result.missed,
        result.buffer_hits,
        result.buffer_misses,
        result.disk_cache_hits,
        system.sim.events_processed,
    )


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_generator_content_hash_pinned(family):
    golden = GOLDEN[family]
    scenario = ScenarioGenerator(seed=GOLDEN_SEED).generate(family, golden.index)
    assert scenario.content_hash == golden.content_hash, (
        f"the {family} generator's draw sequence changed; if intentional, "
        f"re-pin (see module docstring)"
    )


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_fixed_seed_counts_pinned(family):
    golden = GOLDEN[family]
    scenario = ScenarioGenerator(seed=GOLDEN_SEED).generate(family, golden.index)
    assert _counts(scenario, "minmax") == golden.minmax
    assert _counts(scenario, "pmm") == golden.pmm


if __name__ == "__main__":  # re-pin helper
    for family, golden in GOLDEN.items():
        scenario = ScenarioGenerator(seed=GOLDEN_SEED).generate(family, golden.index)
        print(f'    "{family}": GoldenTrace(')
        print(f"        index={golden.index},")
        print(f'        content_hash="{scenario.content_hash}",')
        print(f'        minmax={_counts(scenario, "minmax")},')
        print(f'        pmm={_counts(scenario, "pmm")},')
        print("    ),")
