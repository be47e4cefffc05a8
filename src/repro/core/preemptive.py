"""Preemptive optimum via Birkhoff-von Neumann decomposition.

Preemptive open shop is polynomial (Gonzalez & Sahni, the paper's
reference [11]): the lower bound ``t_lb`` is *achievable* if transfers
may be interrupted and resumed.  The classical construction pads the
cost matrix to constant row/column sums ``t_lb`` and decomposes it into
a convex combination of permutation matrices (Birkhoff-von Neumann);
running each permutation for its weight, one after another, completes
every message in exactly ``t_lb``.

This quantifies the paper's Section 3.4 no-partitioning decision from
the other side: :func:`schedule_preemptive` is what total exchange
*could* achieve with free preemption, and
:func:`preemption_startup_penalty` is what the model says the extra
message start-ups would really cost — usually far more than the
``t_max - t_lb`` gap the heuristics leave on the table.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.problem import TotalExchangeProblem
from repro.timing.events import CommEvent, Schedule

#: Numerical floor below which a residual entry counts as zero.
_EPS = 1e-9


def balance_matrix(cost: np.ndarray) -> Tuple[np.ndarray, float]:
    """Pad ``cost`` to constant row/column sums.

    Returns ``(padded, r)`` with every row and column of ``padded``
    summing to ``r = max(row sums, column sums)``.  Greedy water-filling:
    repeatedly pour the smaller of the current row/column deficits into
    any deficient cell; each pour zeroes at least one deficit, so it
    terminates in at most ``2n`` pours.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    padded = cost.copy()
    r = float(max(padded.sum(axis=1).max(), padded.sum(axis=0).max()))
    row_deficit = r - padded.sum(axis=1)
    col_deficit = r - padded.sum(axis=0)
    while True:
        rows = np.nonzero(row_deficit > _EPS)[0]
        cols = np.nonzero(col_deficit > _EPS)[0]
        if len(rows) == 0 or len(cols) == 0:
            break
        i, j = int(rows[0]), int(cols[0])
        pour = min(row_deficit[i], col_deficit[j])
        padded[i, j] += pour
        row_deficit[i] -= pour
        col_deficit[j] -= pour
    return padded, r


def bvn_decomposition(
    matrix: np.ndarray, *, max_terms: int = 10_000
) -> List[Tuple[float, np.ndarray]]:
    """Decompose a constant-line-sum matrix into weighted permutations.

    Each step finds a perfect matching on the support of the residual
    (one exists by Birkhoff's theorem while the matrix has equal row and
    column sums), takes the minimum matched entry as the weight, and
    subtracts.  At least one entry zeroes per step, so at most ``n^2``
    terms are produced.
    """
    from scipy.optimize import linear_sum_assignment

    residual = np.asarray(matrix, dtype=float).copy()
    n = residual.shape[0]
    line_sums = residual.sum(axis=1)
    if not (
        np.allclose(line_sums, line_sums[0], atol=1e-6)
        and np.allclose(residual.sum(axis=0), line_sums[0], atol=1e-6)
    ):
        raise ValueError(
            "matrix must have constant row and column sums; use "
            "balance_matrix first"
        )
    terms: List[Tuple[float, np.ndarray]] = []
    for _ in range(max_terms):
        if residual.max() <= _EPS:
            break
        support = (residual > _EPS).astype(float)
        rows, cols = linear_sum_assignment(support, maximize=True)
        if support[rows, cols].sum() < n - 1e-9:
            raise RuntimeError(
                "no perfect matching on residual support; matrix was not "
                "balanced"
            )
        permutation = np.empty(n, dtype=int)
        permutation[rows] = cols
        weight = float(residual[rows, cols].min())
        residual[rows, cols] -= weight
        terms.append((weight, permutation))
    else:
        raise RuntimeError(f"decomposition exceeded {max_terms} terms")
    return terms


def schedule_preemptive(problem: TotalExchangeProblem) -> Schedule:
    """The preemptive optimum: completion time exactly ``t_lb``.

    Each decomposition term runs as one time slot; within a slot the
    active permutation's pairs transfer simultaneously (a permutation
    never conflicts at a port).  A message's pieces are emitted as
    separate events and clipped to its true remaining cost, so slack
    introduced by the padding shows up as idle time, not traffic.
    """
    cost = problem.cost
    n = problem.num_procs
    if n == 1:
        return Schedule(num_procs=1)
    padded, _ = balance_matrix(cost)
    terms = bvn_decomposition(padded)
    remaining = cost.copy()
    events: List[CommEvent] = []
    clock = 0.0
    for weight, permutation in terms:
        for src in range(n):
            dst = int(permutation[src])
            if src == dst and cost[src, dst] == 0:
                continue
            piece = min(weight, remaining[src, dst])
            if piece <= _EPS:
                continue
            events.append(
                CommEvent(start=clock, src=src, dst=dst, duration=piece)
            )
            remaining[src, dst] -= piece
        clock += weight
    return Schedule.from_events(n, events)


def preemption_counts(problem: TotalExchangeProblem) -> Tuple[int, int]:
    """``(time slots, total message pieces)`` of the preemptive optimum."""
    schedule = schedule_preemptive(problem)
    slots = len({event.start for event in schedule})
    return slots, len(schedule)


def preemption_startup_penalty(
    problem: TotalExchangeProblem, latency: np.ndarray
) -> float:
    """Extra start-up time the preemptive pieces would really cost.

    Every piece beyond a message's first pays that pair's start-up cost
    again under the paper's model — the concrete number behind the
    Section 3.4 no-partitioning argument.
    """
    latency = np.asarray(latency, dtype=float)
    schedule = schedule_preemptive(problem)
    pieces: dict = {}
    for event in schedule:
        pieces[(event.src, event.dst)] = pieces.get((event.src, event.dst), 0) + 1
    return float(
        sum(
            (count - 1) * latency[src, dst]
            for (src, dst), count in pieces.items()
            if count > 1
        )
    )
