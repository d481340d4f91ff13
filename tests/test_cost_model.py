"""Unit tests for the stand-alone cost model."""

import pytest

from repro.queries.cost_model import StandAloneCostModel
from repro.rtdbs.config import CPUCosts, ResourceParams


@pytest.fixture
def model():
    return StandAloneCostModel(
        resources=ResourceParams(),
        costs=CPUCosts(),
        tuples_per_page=40,
        fudge_factor=1.1,
    )


def test_cpu_seconds_uses_mips(model):
    assert model.cpu_seconds(40e6) == pytest.approx(1.0)  # 40 MIPS


def test_scan_io_count_rounds_up(model):
    assert model.scan_io_count(6) == 1
    assert model.scan_io_count(7) == 2
    assert model.scan_io_count(600) == 100


def test_sequential_scan_dominated_by_transfer(model):
    resources = model.resources
    time_1200 = model.sequential_scan_seconds(1200)
    pure_transfer = 1200 * resources.transfer_s_per_page
    assert time_1200 > pure_transfer
    assert time_1200 < pure_transfer + 0.1  # one positioning only


def test_scan_time_linear_in_pages(model):
    small = model.sequential_scan_seconds(600)
    large = model.sequential_scan_seconds(1200)
    assert large - small == pytest.approx(
        600 * model.resources.transfer_s_per_page, rel=1e-9
    )


def test_paged_reads_cost_more_per_page_than_scans(model):
    scan = model.sequential_scan_seconds(600) / 600
    paged = model.paged_read_seconds(600) / 600
    assert paged > 2 * scan


def test_join_standalone_in_papers_range(model):
    # The paper's Table 7 puts the average baseline join (R=1200,
    # S=6000) in the 30-40 s band; our calibration targets that window
    # broadly.
    standalone = model.hash_join_standalone(1200, 6000)
    assert 15.0 < standalone < 45.0


def test_join_standalone_monotone_in_operands(model):
    assert model.hash_join_standalone(1200, 6000) > model.hash_join_standalone(600, 3000)
    assert model.hash_join_standalone(1200, 6000) > model.hash_join_standalone(1200, 3000)


def test_sort_standalone_cheaper_than_join(model):
    # Section 5.5's premise: a 1200-page sort loads the system far
    # less than a 1200/6000-page join.
    assert model.sort_standalone(1200) < model.hash_join_standalone(1200, 6000) / 2


def test_two_pass_join_costs_about_three_scans(model):
    one_pass = model.hash_join_standalone(1200, 6000)
    two_pass = model.hash_join_two_pass(1200, 6000)
    assert 2.0 < two_pass / one_pass < 4.0


def test_sort_two_pass_decreases_with_workspace(model):
    tight = model.sort_two_pass(1200, workspace=10)
    roomy = model.sort_two_pass(1200, workspace=200)
    assert roomy < tight


def test_selectivity_scales_join_cpu():
    lean = StandAloneCostModel(
        resources=ResourceParams(),
        costs=CPUCosts(),
        tuples_per_page=40,
        join_selectivity=0.0,
    )
    rich = StandAloneCostModel(
        resources=ResourceParams(),
        costs=CPUCosts(),
        tuples_per_page=40,
        join_selectivity=2.0,
    )
    assert rich.hash_join_standalone(600, 3000) > lean.hash_join_standalone(600, 3000)


# ----------------------------------------------------------------------
# memoized pricing
# ----------------------------------------------------------------------
FAMILIES = ["mix", "bursty", "phases", "multitenant", "heavytail", "memorythief"]


def drawn_shapes(family):
    """The config of a scenario family and every operand shape its
    schedule draws: ``(inner, outer)`` page pairs for joins, page
    counts for sorts."""
    from repro.rtdbs.database import Database
    from repro.scenarios import ScenarioGenerator
    from repro.serve.workload import build_schedule
    from repro.sim.rng import Streams

    config = ScenarioGenerator(0).generate(family, 0).config
    database = Database(config.database, config.resources, Streams(config.seed))
    schedule = build_schedule(config, database)
    joins = {
        (arrival.inner.pages, arrival.outer.pages)
        for arrival in schedule.arrivals
        if arrival.outer is not None
    }
    sorts = {arrival.inner.pages for arrival in schedule.arrivals if arrival.outer is None}
    return config, joins, sorts


@pytest.mark.parametrize("family", FAMILIES)
def test_memoized_price_equals_fresh_price(family):
    config, joins, sorts = drawn_shapes(family)
    assert joins or sorts
    memoized = StandAloneCostModel.from_config(config)
    for inner, outer in joins:  # warm the memo over every shape first
        memoized.hash_join_standalone(inner, outer)
    for pages in sorts:
        memoized.sort_standalone(pages)
    for inner, outer in joins:
        fresh = StandAloneCostModel.from_config(config)
        assert memoized.hash_join_standalone(inner, outer) == fresh.hash_join_standalone(
            inner, outer
        )
    for pages in sorts:
        fresh = StandAloneCostModel.from_config(config)
        assert memoized.sort_standalone(pages) == fresh.sort_standalone(pages)


def test_models_with_different_cpu_costs_share_no_prices():
    def model(costs):
        return StandAloneCostModel(
            resources=ResourceParams(), costs=costs, tuples_per_page=40
        )

    lean = model(CPUCosts())
    heavy_costs = CPUCosts(hash_insert=1_000, sort_copy=640, key_compare=500)
    heavy = model(heavy_costs)
    # Price on one model first, then the same shapes on the other.
    lean_join = lean.hash_join_standalone(600, 3000)
    lean_sort = lean.sort_standalone(1200)
    heavy_join = heavy.hash_join_standalone(600, 3000)
    heavy_sort = heavy.sort_standalone(1200)
    assert heavy_join > lean_join and heavy_sort > lean_sort
    assert heavy_join == model(heavy_costs).hash_join_standalone(600, 3000)
    assert heavy_sort == model(heavy_costs).sort_standalone(1200)
    assert lean.hash_join_standalone(600, 3000) == lean_join
    assert lean.sort_standalone(1200) == lean_sort
