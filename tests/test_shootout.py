"""The scenario-shootout harness: matrix execution + cross-checks + CLI."""

import dataclasses

import pytest

from repro.experiments import runner
from repro.experiments.__main__ import main as cli_main
from repro.experiments.shootout import (
    ORDERING_TOLERANCE,
    ScenarioShootoutReport,
    _cross_check,
    scenario_shootout,
)


@pytest.fixture(autouse=True)
def isolated_engine(tmp_path, monkeypatch):
    """Point the persistent cache at a throwaway directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(runner, "_jobs_override", None)
    monkeypatch.setattr(runner, "_cache_dir_override", None)
    monkeypatch.setattr(runner, "_cache_enabled_override", None)
    runner.clear_cache()
    runner.reset_stats()


def small_shootout(**overrides):
    defaults = dict(
        count=4,
        policies=("max", "minmax"),
        scenario_seed=1,
        jobs=1,
    )
    defaults.update(overrides)
    return scenario_shootout(**defaults)


def test_shootout_matrix_passes_and_renders():
    report = small_shootout()
    assert report.ok, report.failures
    assert len(report.results) == 4
    assert all(set(r) == {"max", "minmax"} for r in report.results)
    rendered = report.render()
    assert "All cross-checks passed." in rendered
    assert "miss[max]" in rendered and "miss[minmax]" in rendered
    # Every grid point went through the engine exactly once.
    assert runner.stats.misses == 8


def test_shootout_warm_rerun_served_from_cache():
    small_shootout()
    cold_misses = runner.stats.misses
    runner.reset_stats()
    report = small_shootout()
    assert report.ok
    assert runner.stats.misses == 0
    assert runner.stats.hits == cold_misses


def test_cross_check_flags_policy_dependent_arrivals():
    report = small_shootout()
    doctored = report.results[0]["max"]
    report.results[0]["max"] = dataclasses.replace(
        doctored, arrivals=doctored.arrivals + 1
    )
    report.checks.clear()
    _cross_check(report)
    assert any("arrival counts differ" in failure for failure in report.failures)
    assert any("repro:" in failure for failure in report.failures)


def test_cross_check_flags_inconsistent_result():
    report = small_shootout()
    doctored = report.results[1]["minmax"]
    report.results[1]["minmax"] = dataclasses.replace(doctored, miss_ratio=1.5)
    report.checks.clear()
    _cross_check(report)
    assert any("minmax" in failure for failure in report.failures)


def test_cross_check_flags_aggregate_ordering_inversion():
    report = small_shootout()
    for by_policy in report.results:
        minmax = by_policy["minmax"]
        by_policy["minmax"] = dataclasses.replace(
            minmax,
            missed=minmax.served,
            miss_ratio=1.0,
        )
    report.checks.clear()
    _cross_check(report)
    assert any("aggregate ordering" in failure for failure in report.failures)
    assert not report.ok


def test_mean_miss_ratio_weights_by_served():
    report = small_shootout()
    served = sum(r["max"].served for r in report.results)
    missed = sum(r["max"].missed for r in report.results)
    expected = missed / served if served else 0.0
    assert report.mean_miss_ratio("max") == pytest.approx(expected)
    assert 0.0 <= report.mean_miss_ratio("max") <= 1.0
    assert ORDERING_TOLERANCE > 0


def test_cli_scenario_shootout(capsys):
    status = cli_main(
        [
            "scenario-shootout",
            "--scenarios",
            "2",
            "--policies",
            "max,minmax",
            "--scenario-seed",
            "1",
            "--jobs",
            "1",
        ]
    )
    output = capsys.readouterr().out
    assert status == 0
    assert "Scenario shootout" in output
    assert "All cross-checks passed." in output
    assert "[engine]" in output


def test_cli_list_includes_shootout(capsys):
    assert cli_main(["--list"]) == 0
    assert "scenario-shootout" in capsys.readouterr().out


def test_shootout_without_invariants_uses_plain_specs():
    report = small_shootout(invariants=False, count=2)
    assert report.ok
    # Different cache keys than the invariant-checked runs.
    assert runner.stats.misses == 4


def test_empty_report_renders():
    report = ScenarioShootoutReport(scenarios=[], policies=("max",), results=[])
    _cross_check(report)
    assert report.ok


def test_shootout_regret_columns_nonnegative():
    report = small_shootout(count=2, regret=True)
    assert report.ok, report.failures
    rendered = report.render()
    assert "regret" in rendered
    for policy in report.policies:
        assert report.regret(policy) >= 0
        assert report.regret_ratio(policy) >= -1e-9
    check_names = {check["name"] for check in report.checks}
    assert {"regret-nonnegative", "oracle-consistency"} <= check_names


def test_cross_check_flags_negative_regret():
    report = small_shootout(count=2, regret=True)
    # Doctor one cell so the "recorded" run beats the oracle's optimum.
    cell = report.oracle[0]["max"]
    report.oracle[0]["max"] = dataclasses.replace(
        cell, misses=cell.recorded_misses + 1
    )
    report.checks.clear()
    _cross_check(report)
    assert any("negative regret" in failure for failure in report.failures)


def test_report_json_schema():
    import json as jsonlib

    report = small_shootout(count=2, regret=True)
    payload = report.to_json()
    jsonlib.dumps(payload)  # JSON-safe end to end
    assert payload["schema_version"] == 1
    assert payload["kind"] == "scenario-shootout"
    assert payload["ok"] is True
    assert payload["policies"] == ["max", "minmax"]
    assert "regret" in payload["columns"]
    for row in payload["rows"]:
        assert row["regret"] >= 0
        assert row["served"] == row["completed"] + row["missed"]
    assert all(check["ok"] for check in payload["checks"])


def test_cli_scenario_shootout_regret_and_json(tmp_path, capsys):
    import json as jsonlib

    out = tmp_path / "report.json"
    status = cli_main(
        [
            "scenario-shootout",
            "--scenarios",
            "2",
            "--policies",
            "max,minmax",
            "--scenario-seed",
            "1",
            "--jobs",
            "1",
            "--regret",
            "--json",
            str(out),
        ]
    )
    output = capsys.readouterr().out
    assert status == 0
    assert "regret" in output
    assert f"[json] report written to {out}" in output
    payload = jsonlib.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert {"regret-nonnegative", "oracle-consistency"} <= {
        check["name"] for check in payload["checks"]
    }


def test_cli_list_includes_oracle(capsys):
    assert cli_main(["--list"]) == 0
    assert "oracle" in capsys.readouterr().out


def test_cli_oracle_prints_schedule(capsys):
    status = cli_main(
        [
            "oracle",
            "--family",
            "bursty",
            "--index",
            "0",
            "--scenario-seed",
            "1",
            "--policy",
            "minmax",
        ]
    )
    output = capsys.readouterr().out
    assert status == 0
    assert "Oracle (" in output
    assert "Optimal schedule" in output
    assert "regret" in output
