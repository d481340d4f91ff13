"""Closed-form stand-alone execution times.

The Source assigns ``Deadline = StandAlone * SlackRatio + Arrival``
where *StandAlone* is the time the query would take alone in the system
with its maximum memory allocation (Section 4.1).  These formulas
mirror the simulator's behaviour at zero contention: the query process
alternates CPU bursts and synchronous I/O, so the stand-alone time is
simply the sum of all service demands (expected values used for the
rotational latency).

Both hosts draw their queries from one generator
(:class:`repro.rtdbs.source.QueryGenerator`), and most arrivals repeat
an operand shape already seen, so each model instance memoizes its
stand-alone prices per shape: every shape is priced once.  A memoized
price is the very float the formula returned, so deadlines are
unchanged bit for bit.  :meth:`StandAloneCostModel.from_config` is the
one place a model is built from a simulation config.

An integration test (``tests/test_integration_standalone.py``) checks
that a solo simulated query matches these estimates within a small
tolerance, which keeps the deadline semantics honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.rtdbs.config import CPUCosts, ResourceParams, SimulationConfig


@dataclass(frozen=True)
class StandAloneCostModel:
    """Expected stand-alone times for the two query types."""

    resources: ResourceParams
    costs: CPUCosts
    tuples_per_page: int
    fudge_factor: float = 1.1
    join_selectivity: float = 1.0
    #: Stand-alone prices already computed, per operand shape.
    _join_prices: Dict[Tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _sort_prices: Dict[int, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def from_config(cls, config: SimulationConfig) -> "StandAloneCostModel":
        """The model a simulation config prices its deadlines with."""
        return cls(
            resources=config.resources,
            costs=config.cpu_costs,
            tuples_per_page=config.tuples_per_page,
            fudge_factor=config.workload.fudge_factor,
            join_selectivity=config.workload.join_selectivity,
        )

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------
    def cpu_seconds(self, instructions: float) -> float:
        """Time to execute ``instructions`` on the unloaded CPU."""
        return instructions / self.resources.cpu_rate

    def sequential_scan_seconds(self, pages: int) -> float:
        """Expected disk time to scan ``pages`` sequentially in blocks.

        An uninterrupted sequential stream pays positioning (half a
        rotation plus an average seek) once, then pure transfer: the
        disk model's sequential-continuation rule waives seek and
        rotation for an access starting where the previous one ended.
        """
        resources = self.resources
        positioning = resources.rotation_s / 2.0 + resources.seek_time(
            max(1, resources.num_cylinders // 8)
        )
        return positioning + pages * resources.transfer_s_per_page

    def paged_read_seconds(self, pages: int) -> float:
        """Expected disk time for page-at-a-time reads (merge phase)."""
        resources = self.resources
        per_page = resources.rotation_s / 2.0 + resources.transfer_s_per_page
        # Merge reads hop between runs; charge a short seek per page.
        return pages * (per_page + resources.seek_time(1))

    def scan_io_count(self, pages: int) -> int:
        """Number of I/O operations in a sequential block scan."""
        return math.ceil(pages / self.resources.block_size)

    # ------------------------------------------------------------------
    # query types
    # ------------------------------------------------------------------
    def hash_join_standalone(self, inner_pages: int, outer_pages: int) -> float:
        """Stand-alone time of a one-pass (max memory) hash join."""
        shape = (inner_pages, outer_pages)
        price = self._join_prices.get(shape)
        if price is None:
            price = self._join_prices[shape] = self._price_join(inner_pages, outer_pages)
        return price

    def sort_standalone(self, pages: int) -> float:
        """Stand-alone time of an in-memory (max memory) sort."""
        price = self._sort_prices.get(pages)
        if price is None:
            price = self._sort_prices[pages] = self._price_sort(pages)
        return price

    def _price_join(self, inner_pages: int, outer_pages: int) -> float:
        costs = self.costs
        tuples_per_page = self.tuples_per_page
        io_count = self.scan_io_count(inner_pages) + self.scan_io_count(outer_pages)
        instructions = (
            costs.initiate_query
            + costs.terminate_query
            + io_count * costs.start_io
            + inner_pages * tuples_per_page * costs.hash_insert
            + outer_pages
            * tuples_per_page
            * (costs.hash_probe + self.join_selectivity * costs.hash_output)
        )
        disk = self.sequential_scan_seconds(inner_pages) + self.sequential_scan_seconds(
            outer_pages
        )
        return self.cpu_seconds(instructions) + disk

    def _price_sort(self, pages: int) -> float:
        costs = self.costs
        tuples = pages * self.tuples_per_page
        depth = max(1, math.ceil(math.log2(max(2, tuples))))
        io_count = self.scan_io_count(pages)
        instructions = (
            costs.initiate_query
            + costs.terminate_query
            + io_count * costs.start_io
            + tuples * (depth * costs.key_compare + costs.sort_copy)
        )
        return self.cpu_seconds(instructions) + self.sequential_scan_seconds(pages)

    # ------------------------------------------------------------------
    # two-pass estimates (used by examples / ablations, not deadlines)
    # ------------------------------------------------------------------
    def hash_join_two_pass(self, inner_pages: int, outer_pages: int) -> float:
        """Estimate at the *minimum* allocation: operands are read,
        spooled, and re-read once (Grace-style two-pass join)."""
        costs = self.costs
        tuples_per_page = self.tuples_per_page
        spooled = inner_pages + outer_pages
        io_count = (
            self.scan_io_count(inner_pages)
            + self.scan_io_count(outer_pages)
            + 2 * self.scan_io_count(spooled)
        )
        instructions = (
            costs.initiate_query
            + costs.terminate_query
            + io_count * costs.start_io
            # split pass: copy out both operands
            + spooled * tuples_per_page * costs.hash_output
            # join pass: build + probe
            + inner_pages * tuples_per_page * costs.hash_insert
            + outer_pages
            * tuples_per_page
            * (costs.hash_probe + self.join_selectivity * costs.hash_output)
        )
        disk = (
            self.sequential_scan_seconds(inner_pages)
            + self.sequential_scan_seconds(outer_pages)
            + 3 * self.sequential_scan_seconds(spooled)  # write, re-read... (approx)
        )
        return self.cpu_seconds(instructions) + disk

    def sort_two_pass(self, pages: int, workspace: int) -> float:
        """Estimate of an external sort with the given workspace."""
        costs = self.costs
        tuples_per_page = self.tuples_per_page
        tuples = pages * tuples_per_page
        workspace = max(3, workspace)
        runs = max(1, math.ceil(pages / max(1, 2 * workspace)))
        fanin = max(2, workspace - 1)
        passes = max(0, math.ceil(math.log(max(1, runs), fanin))) if runs > 1 else 0
        depth = max(1, math.ceil(math.log2(max(2, workspace * tuples_per_page))))
        instructions = (
            costs.initiate_query
            + costs.terminate_query
            + tuples * (depth * costs.key_compare + costs.sort_copy)  # run formation
            + passes * tuples * (self._merge_depth(fanin) * costs.key_compare + costs.sort_copy)
        )
        disk = self.sequential_scan_seconds(pages)  # initial read
        if runs > 1:
            disk += self.sequential_scan_seconds(pages)  # run writes
            disk += passes * (
                self.paged_read_seconds(pages) + self.sequential_scan_seconds(pages)
            )
        io_count = self.scan_io_count(pages) * (2 if runs > 1 else 1) + (
            passes * (pages + self.scan_io_count(pages)) if runs > 1 else 0
        )
        instructions += io_count * costs.start_io
        return self.cpu_seconds(instructions) + disk

    @staticmethod
    def _merge_depth(fanin: int) -> int:
        return max(1, math.ceil(math.log2(max(2, fanin))))
