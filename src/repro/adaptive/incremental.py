"""Incremental schedule refinement (paper Section 6.2).

For sensor-style applications that perform the same total exchange over
and over, recomputing a schedule from scratch at every invocation is
expensive (``O(P^4)`` for the matching scheduler).  The paper proposes
refining the previous schedule against the directory's *changed*
bandwidths instead.

The refinement here is local search over the order-based schedule form:

1. **Targeted pass** — only senders touching a changed pair re-sort their
   dispatch order by the new costs (longest first, the greedy intuition);
2. **Swap pass** — first-improvement adjacent swaps in sender orders,
   accepted when the executed completion time drops; repeated up to
   ``max_passes`` times.

Each candidate is evaluated with one executor run (``O(P^2 log P)``), so
a full refinement costs ``O(passes * P^3 log P)`` — asymptotically and
practically cheaper than matching from scratch, and the evaluation count
is reported so experiments can chart the cost/quality trade-off.

``evaluation="delta"`` replaces most of those executor runs with an
incremental screen: a candidate changes exactly one sender's order, so
its completion time is first *estimated* by simulating only that
sender's chain against the frozen receiver-busy profiles of the
incumbent execution (everything other senders do is held fixed).
Candidates whose estimate cannot beat the incumbent are rejected
without a full run; only promising ones pay for the executor, and every
*accepted* move is still verified by a full run — so the refined result
is never worse than the stale plan, exactly as in exact mode.  The
estimate never falls below the latest finish among the other senders'
events, and for every sender but the one owning the incumbent's last
finish that is the incumbent's makespan itself: their candidates are
rejected without being priced, so only the owner's moves are simulated
(in plain floats, one receiver-gap scan per destination).  The
default stays exact full re-execution (pinned against the seed by
tests/test_golden_equivalence.py); the serving runtime opts into delta
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.problem import TotalExchangeProblem
from repro.sim.engine import SendOrders, execute_orders
from repro.timing.events import Schedule, event_columns


@dataclass(frozen=True)
class RefineResult:
    """Outcome of :func:`refine_orders`."""

    orders: SendOrders
    schedule: Schedule
    initial_time: float
    evaluations: int
    #: Candidates rejected by the delta screen without a full executor
    #: run (always 0 in the default exact mode).
    screened: int = 0

    @property
    def completion_time(self) -> float:
        return self.schedule.completion_time

    @property
    def improvement(self) -> float:
        """Fractional completion-time reduction over the stale schedule."""
        if self.initial_time == 0:
            return 0.0
        return 1.0 - self.completion_time / self.initial_time


def changed_mask(
    old_cost: np.ndarray,
    new_cost: np.ndarray,
    *,
    rtol: float = 1e-6,
) -> np.ndarray:
    """Boolean ``[src, dst]`` bitmap of pairs that moved beyond ``rtol``.

    Fully vectorized — one subtract/divide/compare over the matrices,
    no per-pair Python.  Pairs appearing from zero count as moved (the
    relative change against a near-zero basis is effectively infinite);
    pairs at zero in both matrices do not.
    """
    old_cost = np.asarray(old_cost, dtype=float)
    new_cost = np.asarray(new_cost, dtype=float)
    if old_cost.shape != new_cost.shape:
        raise ValueError(
            f"cost shapes differ: {old_cost.shape} vs {new_cost.shape}"
        )
    scale = np.maximum(old_cost, 1e-300)
    return np.abs(new_cost - old_cost) / scale > rtol


def dirty_fraction(
    basis: np.ndarray,
    current: np.ndarray,
    *,
    rtol: float = 0.05,
) -> float:
    """Fraction of relevant pairs whose cost moved beyond ``rtol``.

    Relevant pairs are those positive in either matrix.  This is the
    *localisation* signal the repair policy tier gates on: mean drift
    (:func:`repro.runtime.policy.drift_magnitude`) cannot distinguish
    uniform repricing (where delta repair degenerates to a tail append
    of everything) from a few links moving a lot (where it shines).
    """
    moved = changed_mask(basis, current, rtol=rtol)
    relevant = (np.asarray(basis) > 0) | (np.asarray(current) > 0)
    total = int(np.count_nonzero(relevant))
    if not total:
        return 0.0
    return float(np.count_nonzero(moved & relevant)) / total


def changed_pairs(
    old: TotalExchangeProblem,
    new: TotalExchangeProblem,
    *,
    rtol: float = 1e-6,
) -> Set[Tuple[int, int]]:
    """Pairs whose cost moved by more than ``rtol`` relatively."""
    if old.num_procs != new.num_procs:
        raise ValueError("instances differ in processor count")
    moved = changed_mask(old.cost, new.cost, rtol=rtol)
    srcs, dsts = np.nonzero(moved)
    return set(zip(srcs.tolist(), dsts.tolist()))


class _Screen:
    """The delta screen of one incumbent execution.

    A candidate that differs from the incumbent only in ``src``'s row is
    estimated as ``max(other_max, chain_end)``.  ``other_max`` is the
    latest finish among the incumbent's positive-duration events not
    sent by ``src`` (0.0 if there is none); ``chain_end`` is where
    ``src``'s serialized chain ends when it is simulated first-fit into
    the receiver gaps those events leave.  Everything other senders do
    is held at its incumbent timing.  A heuristic screen, not a bound —
    accepted moves are always verified by a full executor run.
    """

    def __init__(self, incumbent: Schedule, cost: np.ndarray):
        self._incumbent = incumbent
        self._cost = cost
        self._profiles: dict = {}
        starts, srcs, _, durations = event_columns(incumbent)
        positive = durations > 0
        # Each sender's latest positive finish.  The latest among the
        # *other* senders is then the overall latest for everyone but the
        # sender that owns it, which sees the runner-up.
        last = np.zeros(cost.shape[0])
        np.maximum.at(
            last, srcs[positive], starts[positive] + durations[positive]
        )
        self._owner = int(last.argmax())
        self._latest = float(last[self._owner])
        last[self._owner] = 0.0
        self._runner_up = float(last.max())

    def other_max(self, src: int) -> float:
        return self._runner_up if src == self._owner else self._latest

    def _profile(self, src: int) -> Tuple[list, list, list]:
        """Per-receiver busy starts and finishes (sorted by start) of the
        incumbent's positive events not sent by ``src``, plus ``src``'s
        cost row, all as plain floats."""
        n = self._cost.shape[0]
        starts, srcs, dsts, durations = event_columns(self._incumbent)
        sel = (srcs != src) & (durations > 0)
        starts = starts[sel]
        dsts = dsts[sel]
        finishes = starts + durations[sel]
        order = np.lexsort((starts, dsts))
        bounds = np.searchsorted(dsts[order], np.arange(n + 1)).tolist()
        starts = starts[order].tolist()
        finishes = finishes[order].tolist()
        spans = list(zip(bounds, bounds[1:]))
        return (
            [starts[lo:hi] for lo, hi in spans],
            [finishes[lo:hi] for lo, hi in spans],
            self._cost[src].tolist(),
        )

    def estimate(self, src: int, row: Sequence[int]) -> float:
        """Estimated completion of the candidate giving ``src`` ``row``."""
        profile = self._profiles.get(src)
        if profile is None:
            profile = self._profiles[src] = self._profile(src)
        busy_starts, busy_finishes, durations = profile
        t = 0.0
        for dst in row:
            duration = durations[dst]
            if duration <= 0:
                continue
            # gap 0 is [t, first busy start); gap i >= 1 opens at busy
            # interval i - 1's finish (clamped to t); the gap after the
            # last busy interval is open-ended, so it always fits.
            start = t
            for busy_start, busy_finish in zip(
                busy_starts[dst], busy_finishes[dst]
            ):
                if start + duration <= busy_start + 1e-12:
                    break
                start = busy_finish if busy_finish > t else t
            t = start + duration
        return max(self.other_max(src), t)


def refine_orders(
    orders: Sequence[Sequence[int]],
    new_problem: TotalExchangeProblem,
    *,
    old_problem: Optional[TotalExchangeProblem] = None,
    max_passes: int = 2,
    evaluation: str = "execute",
) -> RefineResult:
    """Refine ``orders`` for ``new_problem``'s costs.

    ``old_problem`` (the instance the orders were built for) focuses the
    targeted pass on senders whose costs actually changed; without it,
    every sender is treated as changed.

    ``evaluation`` selects how candidates are costed: ``"execute"`` (the
    default) runs the full executor per candidate, exactly the seed
    behaviour; ``"delta"`` screens each candidate first with an
    incremental single-sender estimate against the incumbent's frozen
    receiver profiles and only executes promising ones.  Accepted moves
    are always verified by a full run in both modes.
    """
    if max_passes < 0:
        raise ValueError(f"max_passes must be >= 0, got {max_passes}")
    if evaluation not in ("execute", "delta"):
        raise ValueError(
            f"evaluation must be 'execute' or 'delta', got {evaluation!r}"
        )
    delta = evaluation == "delta"
    current: List[List[int]] = [list(sender) for sender in orders]
    n = new_problem.num_procs
    cost = new_problem.cost
    evaluations = 0
    screened = 0

    def run(candidate: SendOrders) -> Schedule:
        nonlocal evaluations
        evaluations += 1
        return execute_orders(new_problem, candidate, validate=False)

    incumbent = run(current)
    initial_time = incumbent.completion_time
    best_time = initial_time
    # The delta screen of the incumbent; dropped whenever a move is
    # accepted.
    screen: Optional[_Screen] = None

    # Every candidate differs from `current` in exactly one sender row, so
    # both passes mutate `current` in place and undo rejected moves instead
    # of deep-copying all P rows per evaluation (the seed behaviour, an
    # O(P^2) copy per candidate that dominated refinement at scale).  The
    # accept/reject decisions, and therefore the result, are unchanged —
    # tests/test_golden_equivalence.py pins this against the seed logic.

    def pruned(src: int, margin: float) -> bool:
        """Whether the screen rejects every reordering of ``src``'s row.

        The estimate is at least ``other_max``, so a sender whose
        ``other_max`` already misses the bar fails whatever its chain
        does.  That is every sender but the owner of the incumbent's
        last finish, so only the owner's moves are ever priced.
        """
        nonlocal screen
        if screen is None:
            screen = _Screen(incumbent, cost)
        return not screen.other_max(src) < best_time - margin

    def try_move(src: int, margin: float) -> bool:
        """Cost the mutated ``current``; accept iff it beats the best."""
        nonlocal best_time, incumbent, screened, screen
        if delta and (
            pruned(src, margin)
            or not screen.estimate(src, current[src]) < best_time - margin
        ):
            screened += 1
            return False
        schedule = run(current)
        if schedule.completion_time < best_time - margin:
            best_time = schedule.completion_time
            incumbent = schedule
            screen = None
            return True
        return False

    # Pass 1: re-sort affected senders longest-first under the new costs.
    if old_problem is not None:
        affected = {src for src, _ in changed_pairs(old_problem, new_problem)}
    else:
        affected = set(range(n))
    for src in sorted(affected):
        old_row = current[src]
        current[src] = sorted(old_row, key=lambda dst: (-cost[src, dst], dst))
        if not try_move(src, 0.0):
            current[src] = old_row

    # Pass 2+: first-improvement adjacent swaps.
    for _ in range(max_passes):
        improved = False
        for src in range(n):
            row = current[src]
            if delta and pruned(src, 1e-12):
                # Each swap of this row would be screened out and undone.
                screened += max(len(row) - 1, 0)
                continue
            for k in range(len(row) - 1):
                row[k], row[k + 1] = row[k + 1], row[k]
                if try_move(src, 1e-12):
                    improved = True
                else:
                    row[k], row[k + 1] = row[k + 1], row[k]
        if not improved:
            break

    # Rejected moves are undone, so `current` is the incumbent's orders
    # and re-executing it would rebuild the incumbent bit for bit.
    return RefineResult(
        orders=current,
        schedule=incumbent,
        initial_time=initial_time,
        evaluations=evaluations,
        screened=screened,
    )
