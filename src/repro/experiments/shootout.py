"""The differential scenario shootout: matrix x policies, cross-checked.

``scenario_shootout`` fans a generated scenario matrix across all
memory policies through the cached parallel engine (each grid point
runs with the invariant checker attached), then cross-checks the
results *against each other* -- structural laws that no single run can
establish:

* **arrival determinism** -- a scenario's arrival process draws from
  streams no policy decision touches, so every policy must observe the
  *identical* arrival count for the same scenario.  A mismatch means a
  policy leaked into workload generation (or the thinning process lost
  its independence).
* **result sanity** -- every result's counts add up (served =
  completed + missed <= arrivals), ratios and utilisations are in
  range; delegated to the invariant checker's result law.
* **aggregate policy ordering** -- across the whole matrix, MinMax's
  mean miss ratio must not exceed Max's by more than a tolerance: the
  paper's central finding (Section 5.1: Max's insistence on maximum
  allocations is the worst strategy under load) restated as a
  structural regression guard.  Individual scenarios may flip the
  ordering (small samples, weird mixes); the aggregate must not.

With ``regret=True`` every (scenario, policy) cell is additionally
traced and handed to the clairvoyant oracle (:mod:`repro.oracle`),
adding two more laws:

* **regret non-negativity** -- the oracle's miss count lower-bounds
  every realisable schedule's, so ``policy misses - oracle misses``
  must be >= 0 in every cell; a negative regret means the oracle's
  relaxation (or the solver) is broken.
* **oracle consistency** -- the trace the oracle consumed must agree
  with the engine's cached result for the same cell (same departed
  count, same miss count): the recorder faithfully replays the run.

The report is emitted through the unified shootout report API
(:mod:`repro.analysis.report`): a policy-major summary table, the
per-scenario miss matrix as a section, and schema-versioned
``--json`` output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import (
    Column,
    PolicyRow,
    ShootoutReport,
    UnifiedReport,
    check_fail,
    check_pass,
    format_table,
)
from repro.experiments import runner
from repro.policies import DEFAULT_POLICIES
from repro.rtdbs.invariants import InvariantChecker
from repro.rtdbs.system import SimulationResult
from repro.scenarios import Scenario, ScenarioGenerator

#: Aggregate-ordering tolerance: MinMax's mean miss ratio may exceed
#: Max's by at most this much before the shootout fails.
ORDERING_TOLERANCE = 0.05


@dataclass
class ScenarioShootoutReport(UnifiedReport):
    """Everything one shootout produced: results, failures, rendering."""

    scenarios: List[Scenario]
    policies: Tuple[str, ...]
    #: ``results[scenario_index][policy]``.
    results: List[Dict[str, SimulationResult]]
    #: Cross-check verdicts (``{name, ok, detail}``); ``failures`` and
    #: ``ok`` derive from them.
    checks: List[Dict[str, object]] = field(default_factory=list)
    #: ``oracle[scenario_index][policy]`` when run with ``regret=True``.
    oracle: Optional[List[Dict[str, object]]] = None

    def mean_miss_ratio(self, policy: str) -> float:
        """Matrix-wide miss ratio of one policy (total missed / served)."""
        served = sum(r[policy].served for r in self.results if policy in r)
        missed = sum(r[policy].missed for r in self.results if policy in r)
        return missed / served if served else 0.0

    def oracle_misses(self, policy: str) -> Optional[int]:
        """Matrix-wide clairvoyant miss count for one policy's traces."""
        if self.oracle is None:
            return None
        return sum(cell[policy].misses for cell in self.oracle if policy in cell)

    def regret(self, policy: str) -> Optional[int]:
        """Matrix-wide ``policy misses - oracle misses`` (>= 0 when sound)."""
        oracle = self.oracle_misses(policy)
        if oracle is None:
            return None
        missed = sum(r[policy].missed for r in self.results if policy in r)
        return missed - oracle

    def regret_ratio(self, policy: str) -> Optional[float]:
        """Miss-ratio gap: policy mean miss ratio minus the oracle's."""
        if self.oracle is None:
            return None
        served = sum(
            cell[policy].query_count for cell in self.oracle if policy in cell
        )
        misses = self.oracle_misses(policy) or 0
        oracle_ratio = misses / served if served else 0.0
        return self.mean_miss_ratio(policy) - oracle_ratio

    def matrix_section(self) -> str:
        """The per-scenario miss matrix (one row per grid point)."""
        headers = ["scenario", "hash", "arrivals"] + [
            f"miss[{policy}]" for policy in self.policies
        ]
        rows = []
        for scenario, by_policy in zip(self.scenarios, self.results):
            any_result = next(iter(by_policy.values()))
            rows.append(
                [scenario.name, scenario.content_hash[:10], any_result.arrivals]
                + [round(by_policy[policy].miss_ratio, 3) for policy in self.policies]
            )
        rows.append(
            ["(matrix mean)", "", sum(r[self.policies[0]].arrivals for r in self.results)]
            + [round(self.mean_miss_ratio(policy), 3) for policy in self.policies]
        )
        return format_table(
            headers, rows, title="Scenario shootout: miss ratio by policy"
        )

    def unified(self) -> ShootoutReport:
        """Project into the shared :class:`ShootoutReport` surface."""
        columns = [
            Column("arrivals"),
            Column("served"),
            Column("completed"),
            Column("missed"),
            Column("miss_ratio", digits=3),
        ]
        if self.oracle is not None:
            columns += [
                Column("oracle_misses", header="oracle"),
                Column("regret"),
                Column("regret_ratio", digits=3),
            ]
        rows = []
        for policy in self.policies:
            cells = [r[policy] for r in self.results if policy in r]
            values: Dict[str, object] = {
                "arrivals": sum(r.arrivals for r in cells),
                "served": sum(r.served for r in cells),
                "completed": sum(r.completed for r in cells),
                "missed": sum(r.missed for r in cells),
                "miss_ratio": self.mean_miss_ratio(policy),
            }
            if self.oracle is not None:
                values["oracle_misses"] = self.oracle_misses(policy)
                values["regret"] = self.regret(policy)
                values["regret_ratio"] = self.regret_ratio(policy)
            rows.append(PolicyRow(policy=policy, values=values))
        return ShootoutReport(
            kind="scenario-shootout",
            title="Scenario shootout: policy summary",
            columns=columns,
            rows=rows,
            meta={
                "scenarios": len(self.scenarios),
                "scenario_hashes": [s.content_hash for s in self.scenarios],
                "regret": self.oracle is not None,
            },
            sections=[self.matrix_section()],
            checks=self.checks,
        )


def scenario_shootout(
    count: int = 15,
    families: Optional[Sequence[str]] = None,
    policies: Sequence[str] = DEFAULT_POLICIES,
    scenario_seed: int = 0,
    jobs: Optional[int] = None,
    cache: bool = True,
    invariants: bool = True,
    regret: bool = False,
) -> ScenarioShootoutReport:
    """Run the (scenario x policy) matrix and cross-check the results.

    The whole matrix is submitted as **one** :func:`runner.run_many`
    batch, so it saturates the worker pool and lands in the persistent
    cache under each scenario's content-hashed key.  With ``regret``
    each cell is additionally traced and solved by the clairvoyant
    oracle (cached under its own content hash), adding the regret
    columns and the two oracle laws to the cross-check.
    """
    policy_list = tuple(policies)
    scenarios = ScenarioGenerator(scenario_seed).batch(count, families)
    specs = [
        scenario.run_spec(policy, invariants=invariants)
        for scenario in scenarios
        for policy in policy_list
    ]
    flat = runner.run_many(specs, jobs=jobs, cache=cache)
    cursor = iter(flat)
    results: List[Dict[str, SimulationResult]] = [
        {policy: next(cursor) for policy in policy_list} for _ in scenarios
    ]
    oracle: Optional[List[Dict[str, object]]] = None
    if regret:
        from repro.oracle import solve_scenario

        oracle = [
            {
                policy: solve_scenario(
                    scenario, policy, cache=cache, invariants=invariants
                )
                for policy in policy_list
            }
            for scenario in scenarios
        ]
    report = ScenarioShootoutReport(
        scenarios=scenarios, policies=policy_list, results=results, oracle=oracle
    )
    _cross_check(report)
    return report


def _cross_check(report: ScenarioShootoutReport) -> None:
    """Record every violated structural law in ``report.checks``."""
    checker = InvariantChecker()  # unattached: only the result law is used
    for scenario, by_policy in zip(report.scenarios, report.results):
        arrival_counts = {
            policy: result.arrivals for policy, result in by_policy.items()
        }
        if len(set(arrival_counts.values())) > 1:
            check_fail(
                report,
                "arrival-determinism",
                f"{scenario.name} ({scenario.content_hash[:10]}): arrival counts "
                f"differ across policies: {arrival_counts} -- the workload is "
                f"policy-dependent; repro: {scenario.repro_command()}",
            )
        for policy, result in by_policy.items():
            try:
                checker.check_result(result)
            except AssertionError as error:
                check_fail(
                    report,
                    "result-sanity",
                    f"{scenario.name} x {policy}: {error}; "
                    f"repro: {scenario.repro_command(policy)}",
                )
    if "minmax" in report.policies and "max" in report.policies:
        minmax_mean = report.mean_miss_ratio("minmax")
        max_mean = report.mean_miss_ratio("max")
        if minmax_mean > max_mean + ORDERING_TOLERANCE:
            check_fail(
                report,
                "aggregate-ordering",
                f"aggregate ordering violated: MinMax mean miss ratio "
                f"{minmax_mean:.3f} exceeds Max's {max_mean:.3f} by more than "
                f"{ORDERING_TOLERANCE} -- the paper's Section 5.1 ordering "
                f"inverted across the matrix",
            )
    if report.oracle is not None:
        _cross_check_oracle(report)
    for name in (
        "arrival-determinism",
        "result-sanity",
        "aggregate-ordering",
    ):
        check_pass(report, name)
    if report.oracle is not None:
        for name in ("regret-nonnegative", "oracle-consistency"):
            check_pass(report, name)


def _cross_check_oracle(report: ScenarioShootoutReport) -> None:
    """The two oracle laws, checked cell by cell."""
    for scenario, by_policy, by_oracle in zip(
        report.scenarios, report.results, report.oracle
    ):
        for policy, oracle in by_oracle.items():
            result = by_policy[policy]
            if oracle.recorded_misses != result.missed or (
                oracle.query_count != result.served
            ):
                check_fail(
                    report,
                    "oracle-consistency",
                    f"{scenario.name} x {policy}: oracle trace saw "
                    f"{oracle.query_count} departures / {oracle.recorded_misses} "
                    f"misses but the engine recorded {result.served} / "
                    f"{result.missed} -- the recorder diverged from the run; "
                    f"repro: {scenario.repro_command(policy)}",
                )
            if oracle.regret < 0:
                check_fail(
                    report,
                    "regret-nonnegative",
                    f"{scenario.name} x {policy}: negative regret "
                    f"{oracle.regret} (policy missed {oracle.recorded_misses}, "
                    f"oracle missed {oracle.misses}, tag={oracle.tag}) -- the "
                    f"oracle relaxation no longer lower-bounds the broker; "
                    f"repro: {scenario.repro_command(policy)}",
                )
