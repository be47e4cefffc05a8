"""The numpy delta screen of ``refine_orders``, frozen as a test reference.

:func:`repro.adaptive.incremental.refine_orders` with
``evaluation="delta"`` used to build a numpy receiver profile for every
sender it screened and to price each candidate with a handful of numpy
calls per destination.  It now prunes every sender whose candidates
cannot pass the screen and prices the rest in plain floats.  The old
screen and its loop moved here, verbatim, so that
``tests/test_refine_differential.py`` can hold the new code to it: the
same orders, the same schedule, the same ``evaluations``, ``screened``
and ``initial_time``.

Do not "fix" or optimize this module: its value is fidelity to the
decisions the delta screen must reproduce.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.adaptive.incremental import RefineResult, changed_pairs
from repro.core.problem import TotalExchangeProblem
from repro.sim.engine import SendOrders, execute_orders
from repro.timing.events import Schedule


def _receiver_profiles(
    schedule: Schedule, src: int, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Frozen receiver-busy profiles of ``schedule`` excluding ``src``.

    Returns ``(busy_starts, busy_finishes, bounds, other_max)`` where
    receiver ``d``'s intervals (sorted by start) live at
    ``[bounds[d]:bounds[d + 1])`` and ``other_max`` is the latest finish
    among all events not sent by ``src``.
    """
    from repro.timing.events import event_columns

    starts, srcs, dsts, durations = event_columns(schedule)
    sel = (srcs != src) & (durations > 0)
    starts = starts[sel]
    dsts = dsts[sel]
    finishes = starts + durations[sel]
    other_max = float(finishes.max()) if finishes.size else 0.0
    order = np.lexsort((starts, dsts))
    dsts = dsts[order]
    bounds = np.searchsorted(dsts, np.arange(n + 1))
    return starts[order], finishes[order], bounds, other_max


def _screen_estimate(
    profiles: Tuple[np.ndarray, np.ndarray, np.ndarray, float],
    src: int,
    row: Sequence[int],
    cost: np.ndarray,
) -> float:
    """Estimated completion of a candidate differing only in ``src``'s row.

    Simulates ``src``'s serialized chain first-fit into the frozen
    receiver gaps; everything else is held at its incumbent timing.  A
    heuristic screen, not a bound — accepted moves are always verified
    by a full executor run.
    """
    busy_starts, busy_finishes, bounds, other_max = profiles
    t = 0.0
    for dst in row:
        duration = cost[src, dst]
        if duration <= 0:
            continue
        lo = bounds[dst]
        hi = bounds[dst + 1]
        if lo == hi:
            t += duration
            continue
        # gap 0: [t, first busy start); gap i >= 1: from busy interval
        # i - 1's finish (clamped to t); the gap after the last busy
        # interval always fits.
        gap_starts = np.concatenate(
            ([t], np.maximum(busy_finishes[lo:hi], t))
        )
        gap_ends = np.concatenate((busy_starts[lo:hi], [np.inf]))
        ok = gap_starts + duration <= gap_ends + 1e-12
        start = float(gap_starts[int(np.argmax(ok))])
        t = start + duration
    return max(other_max, t)


def refine_orders_reference(
    orders: Sequence[Sequence[int]],
    new_problem: TotalExchangeProblem,
    *,
    old_problem: Optional[TotalExchangeProblem] = None,
    max_passes: int = 2,
) -> RefineResult:
    """``refine_orders(..., evaluation="delta")`` with the numpy screen."""
    if max_passes < 0:
        raise ValueError(f"max_passes must be >= 0, got {max_passes}")
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
    # src -> frozen receiver profiles of the incumbent execution;
    # invalidated wholesale whenever a move is accepted.
    profiles: dict = {}

    def try_move(src: int, margin: float) -> bool:
        """Cost the mutated ``current``; accept iff it beats the best."""
        nonlocal best_time, incumbent, screened
        prof = profiles.get(src)
        if prof is None:
            prof = profiles[src] = _receiver_profiles(incumbent, src, n)
        estimate = _screen_estimate(prof, src, current[src], cost)
        if not estimate < best_time - margin:
            screened += 1
            return False
        schedule = run(current)
        if schedule.completion_time < best_time - margin:
            best_time = schedule.completion_time
            incumbent = schedule
            profiles.clear()
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
            for k in range(len(row) - 1):
                row[k], row[k + 1] = row[k + 1], row[k]
                if try_move(src, 1e-12):
                    improved = True
                else:
                    row[k], row[k + 1] = row[k + 1], row[k]
        if not improved:
            break

    return RefineResult(
        orders=current,
        schedule=execute_orders(new_problem, current, validate=False),
        initial_time=initial_time,
        evaluations=evaluations,
        screened=screened,
    )
