"""Layer-attribution self-test for the traced ledger.

A fixed sleep injected into one wrapped entry point during a short
traced ``live-steady`` replay must grow that layer's self-time column by
about the injected total and leave every other column where it was.
Run with::

    python3 -m pytest perfbench/test_attribution.py -q
"""

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from repro.core.broker import MemoryBroker  # noqa: E402
from repro.serve.dataplane import PageStore  # noqa: E402
from tracer import LAYERS  # noqa: E402

SEED = 3
SECONDS = 3.0
#: Total sleep to inject over one traced replay (spread over its calls).
INJECTED_S = 0.4
#: How far the slowed layer may land from the injected total, and how
#: much any other layer may grow, as shares of the injected total.
TOLERANCE = 0.3


def traced_self_times():
    outcome = workloads.Outcome()
    _replay, _config, ledger = workloads.traced_live(
        workloads.replay_steady, SEED, SECONDS, outcome
    )
    assert not outcome.violations, outcome.violations
    return ledger.tracer


@pytest.fixture(scope="module")
def baseline():
    return traced_self_times()


@pytest.mark.parametrize(
    "owner, name, traced_as, layer",
    [
        (MemoryBroker, "reallocate", "broker.reallocate", "core.broker"),
        (PageStore, "replay_read", "dataplane.replay", "serve.dataplane"),
    ],
)
def test_injected_sleep_grows_only_its_layer(
    baseline, monkeypatch, owner, name, traced_as, layer
):
    per_call = INJECTED_S / max(1, baseline.calls[traced_as])
    original = getattr(owner, name)
    slept = [0.0]

    def slowed(*args, **kwargs):
        start = time.perf_counter()
        time.sleep(per_call)
        slept[0] += time.perf_counter() - start
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, slowed)
    injected = traced_self_times()
    grown = {
        column: injected.self_time[column] - baseline.self_time[column]
        for column in LAYERS
    }
    assert slept[0] > INJECTED_S / 4
    assert abs(grown[layer] - slept[0]) <= TOLERANCE * slept[0], grown
    for column in LAYERS:
        if column != layer:
            assert grown[column] <= TOLERANCE * slept[0], (column, grown)
