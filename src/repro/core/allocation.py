"""The memory allocation procedures (Section 3.2 and Table 5).

All three allocators take the present queries in **ED order** (most
urgent first) and the free pool size, and return a page allocation per
query.  A query allocated 0 pages is not admitted (or, if it was
running, is suspended).  Admission packs greedily in ED order -- "as
many queries ... as memory permits" (Section 3.2) -- so a query whose
entry requirement does not fit is passed over and the scan continues
with less urgent queries.  (This matters for Max under mixed
workloads: small queries slip past a blocked large one, which is
exactly the Medium-class bias the paper reports in Figure 18.)

* :func:`allocate_max` -- each query receives its maximum demand or
  nothing (the Max strategy; no explicit MPL limit).
* :func:`allocate_minmax` -- the two-pass MinMax procedure: pass one
  hands every admissible query its minimum, pass two tops allocations
  up to the maximum, both in ED order.  At the end the most urgent
  queries hold their maximum, the least urgent their minimum, and at
  most one query something in between -- exactly the paper's invariant.
* :func:`allocate_proportional` -- admits like MinMax but divides
  memory so every admitted query gets the same fraction of its maximum
  demand (never below its minimum): the Proportional-N baseline.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Population size below which the proportional bisection evaluates
#: its clamp-sum with scalar arithmetic instead of numpy: per-call
#: dispatch overhead dominates vectorisation gains on small arrays.
_SCALAR_CUTOVER = 128

#: Relative half-width of the band around the estimated threshold
#: inside which the proportional bisection stops skipping and scans:
#: far wider than float rounding of a grant boundary, far narrower
#: than the spacing of distinct boundaries at realistic page counts.
_GUIDE_BAND = 1e-9


@dataclass(frozen=True)
class QueryDemand:
    """What the allocators need to know about one query."""

    #: Stable query identifier.
    qid: int
    #: ED priority key (the absolute deadline); informational here --
    #: callers pass demands already sorted by it.
    priority: float
    #: Minimum workspace (multi-pass execution).
    min_pages: int
    #: Maximum workspace (one-pass execution).
    max_pages: int
    #: Workload class the query belongs to (used by the fairness
    #: extension; plain PMM and the static baselines ignore it).
    class_name: str = ""

    def __post_init__(self):
        if self.min_pages < 0 or self.max_pages < self.min_pages:
            raise ValueError(
                f"query {self.qid}: bad demand envelope "
                f"[{self.min_pages}, {self.max_pages}]"
            )


def allocate_max(demands: Sequence[QueryDemand], memory: int) -> Dict[int, int]:
    """The Max strategy: maximum allocation or nothing, in ED order."""
    _validate_memory(memory)
    allocation = {demand.qid: 0 for demand in demands}
    remaining = memory
    for demand in demands:
        if demand.max_pages > remaining:
            continue  # blocked: later (smaller) queries may still fit
        allocation[demand.qid] = demand.max_pages
        remaining -= demand.max_pages
    return allocation


def allocate_minmax(
    demands: Sequence[QueryDemand],
    memory: int,
    mpl_limit: Optional[int] = None,
) -> Dict[int, int]:
    """The two-pass MinMax procedure (MinMax-N when ``mpl_limit=N``)."""
    _validate_memory(memory)
    _validate_limit(mpl_limit)
    allocation = {demand.qid: 0 for demand in demands}
    admitted = _admit_by_minimum(demands, memory, mpl_limit)
    remaining = memory - sum(demand.min_pages for demand in admitted)
    for demand in admitted:
        allocation[demand.qid] = demand.min_pages
    # Second pass: top up to the maximum, again most urgent first.
    for demand in admitted:
        if remaining <= 0:
            break
        top_up = min(demand.max_pages - demand.min_pages, remaining)
        allocation[demand.qid] += top_up
        remaining -= top_up
    return allocation


def allocate_proportional(
    demands: Sequence[QueryDemand],
    memory: int,
    mpl_limit: Optional[int] = None,
) -> Dict[int, int]:
    """Proportional-N: equal fraction of each maximum, floored at minima."""
    _validate_memory(memory)
    _validate_limit(mpl_limit)
    allocation = {demand.qid: 0 for demand in demands}
    admitted = _admit_by_minimum(demands, memory, mpl_limit)
    if not admitted:
        return allocation

    mins = [d.min_pages for d in admitted]
    maxs = [d.max_pages for d in admitted]
    # ``_clamp_sum(1.0, ...)``: the product with 1.0 is exact.
    if sum(maxs) <= memory:
        # Exact fast path: every admitted query fits at its maximum.
        # The bisection would converge to low = 1 - 2**-64, whose
        # float64 product with any representable max_pages rounds to
        # exactly max_pages (the perturbation is under half an ulp), so
        # granting each maximum outright yields the identical vector
        # without 64 iterations -- the common case under light load.
        grants = maxs
    else:
        grants = _bisect_grants(mins, maxs, memory)
    for demand, grant in zip(admitted, grants):
        allocation[demand.qid] = grant
    remaining = memory - sum(grants)
    # Hand out integer-rounding leftovers in ED order.
    for demand in admitted:
        if remaining <= 0:
            break
        extra = min(demand.max_pages - allocation[demand.qid], remaining)
        allocation[demand.qid] += extra
        remaining -= extra
    return allocation


# ----------------------------------------------------------------------
def _clamp_sum(fraction: float, mins: Sequence[int], maxs: Sequence[int]) -> int:
    """``sum(clamp(int(fraction * max), min, max))`` over the demands.

    Scalar arithmetic below the cutover (64 numpy dispatches on a
    ~24-element array cost more than the arithmetic), vectorised above
    it.  The float64 product and the int64 truncation are
    IEEE-identical either way, and the sum is integer-exact, so the
    bisection path is bit-for-bit the same whichever body runs.
    """
    if len(maxs) <= _SCALAR_CUTOVER:
        total = 0
        for low_pages, high_pages in zip(mins, maxs):
            pages = int(fraction * high_pages)
            if pages < low_pages:
                pages = low_pages
            elif pages > high_pages:
                pages = high_pages
            total += pages
        return total
    pages = (fraction * np.array(maxs, dtype=np.float64)).astype(np.int64)
    return int(
        np.minimum(
            np.array(maxs, dtype=np.int64),
            np.maximum(np.array(mins, dtype=np.int64), pages),
        ).sum()
    )


def _bisect_grants(mins: Sequence[int], maxs: Sequence[int], memory: int) -> List[int]:
    """Largest-fraction proportional grants by bisection over [0, 1].

    Equivalent to running 64 plain bisection iterations on
    ``_clamp_sum`` and granting ``clamp(int(low * max))`` at the final
    ``low`` -- the procedure the DES goldens pin -- but with three
    grant-exact shortcuts that cut the admission-path cost ~10x:

    * **guided skip** -- the opening iterations, whose midpoints lie
      far from the threshold fraction (where the integer total first
      exceeds ``memory``), are decided without a scan:
      :func:`_threshold_estimate` locates the threshold, and midpoints
      clearly below it go low, clearly above it go high.  The skipped
      decisions are then checked at the resulting bracket ends (the
      total is monotone in the fraction, so one check at the largest
      low and one at the smallest high cover them all), and on a
      mismatch the bisection restarts from [0, 1].  Only queries with
      a grant boundary inside the final narrow bracket stay unpinned;
    * **pinning** -- float64 multiplication is monotone, so once a
      query's clamped grant agrees at both bracket ends it can never
      change again (the final ``low`` lies inside the bracket); its
      term moves into a constant and leaves the per-iteration scan;
    * **single-boundary exit** -- when one unpinned query remains, the
      remaining iterations only resolve *its* grant: the bisection
      invariant ``total(low) <= memory < total(high)`` holds
      throughout, the clamped grant sweeps every integer in
      ``[min, max]`` as the fraction rises, and boundaries are spaced
      ``1/max`` apart (far wider than the final bracket), so the
      converged grant is exactly ``min(max_pages, memory - pinned)``.

    Ties (several queries sharing the binding boundary) never reduce
    to one unpinned query and simply run the full 64 iterations.

    Each bracket end is always a former midpoint (or 0 / 1, where the
    clamped grants are the minimum / maximum), so the grants at both
    ends are carried along instead of recomputed: one product per
    unpinned query per iteration.
    """
    threshold = _threshold_estimate(mins, maxs, memory)
    lower = threshold * (1.0 - _GUIDE_BAND)
    upper = threshold * (1.0 + _GUIDE_BAND)
    low, high = 0.0, 1.0
    skipped = 0
    while skipped < 64:
        mid = (low + high) / 2.0
        if mid <= lower:
            low = mid
        elif mid >= upper:
            high = mid
        else:
            break
        skipped += 1
    # Grants at both bracket ends (at 0 and 1 these are the minima and
    # maxima).  A fraction of at most 1 never lifts ``int(f * max)``
    # above ``max``, so only the floor needs clamping.
    at_low, at_high = [], []
    for low_pages, high_pages in zip(mins, maxs):
        pages = int(low * high_pages)
        at_low.append(low_pages if pages < low_pages else pages)
        pages = int(high * high_pages)
        at_high.append(low_pages if pages < low_pages else pages)
    if (low > 0.0 and sum(at_low) > memory) or (high < 1.0 and sum(at_high) <= memory):
        # Float rounding put a skipped midpoint on the wrong side.
        low, high, skipped = 0.0, 1.0, 0
        at_low, at_high = list(mins), list(maxs)

    grants: List[int] = [0] * len(maxs)
    pinned_sum = 0
    # Unpinned queries as parallel lists: index, envelope, and the
    # clamped grant at each bracket end.
    active = []
    for index, pages in enumerate(at_low):
        if pages == at_high[index]:
            grants[index] = pages
            pinned_sum += pages
        else:
            active.append(index)
    act_mins = [mins[index] for index in active]
    act_maxs = [maxs[index] for index in active]
    at_low = [at_low[index] for index in active]
    at_high = [at_high[index] for index in active]
    for _iteration in range(64 - skipped if len(active) > 1 else 0):
        mid = (low + high) / 2.0
        total = pinned_sum
        at_mid = []
        # How many grants at ``mid`` already match each bracket end:
        # those pin when the other end moves to ``mid``.
        match_low = match_high = 0
        for low_pages, high_pages, low_grant, high_grant in zip(
            act_mins, act_maxs, at_low, at_high
        ):
            pages = int(mid * high_pages)
            if pages < low_pages:
                pages = low_pages
            elif pages > high_pages:
                pages = high_pages
            at_mid.append(pages)
            total += pages
            if pages == low_grant:
                match_low += 1
            elif pages == high_grant:
                match_high += 1
        if total <= memory:
            low = mid
            at_low = at_mid
            pinning = match_high
        else:
            high = mid
            at_high = at_mid
            pinning = match_low
        if pinning:
            keep = []
            for k, pages in enumerate(at_low):
                if pages == at_high[k]:
                    grants[active[k]] = pages
                    pinned_sum += pages
                else:
                    keep.append(k)
            active = [active[k] for k in keep]
            act_mins = [act_mins[k] for k in keep]
            act_maxs = [act_maxs[k] for k in keep]
            at_low = [at_low[k] for k in keep]
            at_high = [at_high[k] for k in keep]
            if len(active) <= 1:
                break
    if len(active) == 1:
        index = active[0]
        budget = memory - pinned_sum
        # The invariant keeps budget >= mins[index]; clamp the top.
        grants[index] = budget if budget < maxs[index] else maxs[index]
    else:
        for index, pages in zip(active, at_low):
            grants[index] = pages
    return grants


def _grants_at(fraction: float, mins: Sequence[int], maxs: Sequence[int]) -> List[int]:
    """``clamp(int(fraction * max), min, max)`` per demand."""
    grants = []
    for low_pages, high_pages in zip(mins, maxs):
        pages = int(fraction * high_pages)
        if pages < low_pages:
            pages = low_pages
        elif pages > high_pages:
            pages = high_pages
        grants.append(pages)
    return grants


def _threshold_estimate(mins: Sequence[int], maxs: Sequence[int], memory: int) -> float:
    """The fraction at which the integer total first exceeds ``memory``.

    In exact arithmetic the total at fraction ``f`` is the sum of the
    minima plus the number of grant boundaries ``k / max`` (one per
    page above each query's minimum) at or below ``f``, so the
    threshold is the boundary that takes the count past the spare
    pages.  A merge over each query's next boundaries counts them off;
    when the spare pages are many, the continuous relaxation
    (:func:`_relaxed_fraction`) first jumps close below the threshold
    so only a few remain.  Float rounding can move a boundary by an
    ulp, which the caller's checks absorb.
    """
    needed = memory + 1 - sum(mins)
    if needed <= 2 * len(mins):
        held = mins
    else:
        held = _grants_at(_relaxed_fraction(mins, maxs, memory + 0.5), mins, maxs)
        needed = memory + 1 - sum(held)
    if needed <= 0:
        return 0.0
    boundaries = [
        ((pages + 1) / high_pages, pages + 1, high_pages)
        for pages, high_pages in zip(held, maxs)
        if pages < high_pages
    ]
    heapq.heapify(boundaries)
    while boundaries:
        boundary, pages, high_pages = boundaries[0]
        needed -= 1
        if needed == 0:
            return boundary
        if pages < high_pages:
            heapq.heapreplace(
                boundaries, ((pages + 1) / high_pages, pages + 1, high_pages)
            )
        else:
            heapq.heappop(boundaries)
    return 1.0


def _relaxed_fraction(mins: Sequence[int], maxs: Sequence[int], target: float) -> float:
    """Solve ``T(f) = target`` for ``T(f) = sum(clamp(f * max, min, max))``.

    ``T`` drops the truncation (under one page per query strictly
    between its bounds), so ``total(f) <= T(f)``: a fraction whose
    relaxed total is ``memory + 1/2`` has an integer total within
    ``memory``.  ``T`` is piecewise linear, each query rising from
    ``f = min/max`` to 1 with slope ``max``; 1.0 if ``target`` is out
    of reach.
    """
    rising = sorted(
        [
            (low_pages / high_pages, low_pages, high_pages)
            for low_pages, high_pages in zip(mins, maxs)
            if high_pages > low_pages
        ]
    )
    # T(f) = offset + slope * f on the current segment.
    offset = sum(mins)
    slope = 0
    for count, (_ratio, low_pages, high_pages) in enumerate(rising, 1):
        offset -= low_pages
        slope += high_pages
        end = rising[count][0] if count < len(rising) else 1.0
        fraction = (target - offset) / slope
        if fraction <= end:
            return fraction
    return 1.0


def _admit_by_minimum(
    demands: Sequence[QueryDemand], memory: int, mpl_limit: Optional[int]
) -> List[QueryDemand]:
    """ED-order admission: minimum requirement as the entry ticket."""
    admitted: List[QueryDemand] = []
    remaining = memory
    for demand in demands:
        if mpl_limit is not None and len(admitted) >= mpl_limit:
            break
        if demand.min_pages > remaining:
            continue  # blocked: keep packing less urgent queries
        admitted.append(demand)
        remaining -= demand.min_pages
    return admitted


def _validate_memory(memory: int) -> None:
    if memory < 0:
        raise ValueError(f"negative memory pool: {memory}")


def _validate_limit(mpl_limit: Optional[int]) -> None:
    if mpl_limit is not None and mpl_limit < 0:
        raise ValueError(f"negative MPL limit: {mpl_limit}")
