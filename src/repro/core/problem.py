"""The total-exchange scheduling problem (paper Section 4.1).

Every processor holds a distinct message for every other processor; the
``P x P`` communication matrix gives the transfer time of each message
under the analytical model.  The goal is a valid schedule (one send and
one receive per node at a time) minimising completion time.  The decision
version, TOT_EXCH, is NP-complete for ``P > 2`` (Theorem 1, by reduction
from open shop scheduling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.directory.service import DirectorySnapshot
from repro.model.cost import cost_matrix as build_cost_matrix
from repro.model.messages import SizeSpec
from repro.util.rng import RngLike
from repro.util.validation import check_square_matrix


@dataclass(frozen=True)
class TotalExchangeProblem:
    """A total-exchange instance.

    Attributes
    ----------
    cost:
        ``[src, dst]`` transfer times in seconds.  NOTE: the paper's
        matrix ``C`` is receiver-major (``C_{i,j}`` = time from ``P_j`` to
        ``P_i``); use :meth:`from_paper_matrix` / :meth:`paper_matrix` to
        convert.  Diagonal entries are normally zero (local copies are
        free) but may be positive — Theorem 2's tight instance uses
        self-messages, which occupy both ports of their node at once.
    sizes:
        Optional ``[src, dst]`` message sizes in bytes (informational).
    """

    cost: np.ndarray
    sizes: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        cost = check_square_matrix("cost", self.cost, nonnegative=True)
        cost = cost.copy()
        cost.flags.writeable = False
        object.__setattr__(self, "cost", cost)
        if self.sizes is not None:
            sizes = check_square_matrix("sizes", self.sizes, nonnegative=True)
            if sizes.shape != cost.shape:
                raise ValueError(
                    f"sizes shape {sizes.shape} != cost shape {cost.shape}"
                )
            sizes = sizes.copy()
            sizes.flags.writeable = False
            object.__setattr__(self, "sizes", sizes)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls,
        snapshot: DirectorySnapshot,
        sizes: Union[np.ndarray, SizeSpec],
        *,
        rng: RngLike = None,
    ) -> "TotalExchangeProblem":
        """Build an instance from a directory snapshot and message sizes."""
        if isinstance(sizes, SizeSpec):
            size_matrix = sizes.sizes(snapshot.num_procs, rng=rng)
        else:
            size_matrix = np.asarray(sizes, dtype=float)
        cost = build_cost_matrix(snapshot, size_matrix)
        return cls(cost=cost, sizes=size_matrix)

    @classmethod
    def _from_checked(cls, cost, sizes=None) -> "TotalExchangeProblem":
        """Shares ``cost`` (from checked inputs) and ``sizes`` (checked,
        read-only) uncopied; checks only that the cost is finite."""
        if not np.isfinite(cost).all():
            raise ValueError("cost must contain only finite values")
        cost.flags.writeable = False
        problem = object.__new__(cls)
        problem.__dict__.update(cost=cost, sizes=sizes)
        return problem

    @classmethod
    def from_paper_matrix(cls, paper_c: np.ndarray) -> "TotalExchangeProblem":
        """Build from a matrix in the paper's receiver-major convention."""
        paper_c = check_square_matrix("paper_c", paper_c, nonnegative=True)
        return cls(cost=paper_c.T)

    # -- queries ------------------------------------------------------------

    @property
    def num_procs(self) -> int:
        return self.cost.shape[0]

    def paper_matrix(self) -> np.ndarray:
        """The cost matrix in the paper's receiver-major convention."""
        return self.cost.T.copy()

    def size_of(self, src: int, dst: int) -> float:
        """Message size in bytes (0 when sizes are not tracked)."""
        if self.sizes is None:
            return 0.0
        return float(self.sizes[src, dst])

    def send_totals(self) -> np.ndarray:
        """Per-processor total send time (row sums, including diagonal)."""
        return self.cost.sum(axis=1)

    def recv_totals(self) -> np.ndarray:
        """Per-processor total receive time (column sums, incl. diagonal)."""
        return self.cost.sum(axis=0)

    def lower_bound(self) -> float:
        """``t_lb``: the busiest send or receive port (paper Section 4.1).

        No schedule can finish before the maximum over processors of the
        larger of its total send time and total receive time.
        """
        return float(
            max(self.send_totals().max(), self.recv_totals().max())
        )

    def positive_events(self):
        """All ``(src, dst)`` pairs requiring a real (nonzero-cost) event."""
        srcs, dsts = np.nonzero(self.cost)
        return list(zip(srcs.tolist(), dsts.tolist()))

    def scaled(self, factor: float) -> "TotalExchangeProblem":
        """A copy with every cost multiplied by ``factor`` (> 0)."""
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        sizes = None if self.sizes is None else self.sizes.copy()
        return TotalExchangeProblem(cost=self.cost * factor, sizes=sizes)

    def restricted_to(self, pairs) -> "TotalExchangeProblem":
        """A copy keeping only ``pairs``; other entries zeroed.

        Used by rescheduling: the *remaining* communication after a
        checkpoint is the original problem restricted to unsent pairs.
        """
        keep = np.zeros_like(self.cost, dtype=bool)
        for src, dst in pairs:
            keep[src, dst] = True
        cost = np.where(keep, self.cost, 0.0)
        sizes = None if self.sizes is None else np.where(keep, self.sizes, 0.0)
        return TotalExchangeProblem(cost=cost, sizes=sizes)


def example_problem() -> TotalExchangeProblem:
    """A 5-processor running example in the spirit of the paper's Figure 3.

    The paper's Figures 3-8 use a 5-processor instance given only
    pictorially; this hand-constructed instance exhibits the same
    phenomena.  With lower bound 16 (processor 0's total send time), the
    baseline caterpillar completes at 24 (stalled by the long early
    events), max/min matching and greedy at 18, and the open shop
    heuristic at exactly the lower bound — the qualitative ordering of
    the paper's Figures 4 and 6-8 (see ``examples/quickstart.py``).
    """
    cost = np.array(
        [
            [0.0, 1.0, 3.0, 4.0, 8.0],
            [3.0, 0.0, 9.0, 2.0, 1.0],
            [2.0, 1.0, 0.0, 4.0, 3.0],
            [2.0, 4.0, 1.0, 0.0, 1.0],
            [2.0, 1.0, 1.0, 4.0, 0.0],
        ]
    )
    return TotalExchangeProblem(cost=cost)


def tight_baseline_instance(epsilon: float = 1e-3) -> TotalExchangeProblem:
    """Theorem 2's tight instance: baseline takes ~``P/2`` x lower bound.

    The paper gives the 4-processor receiver-major matrix::

        C = [[e, e, e, e],
             [e, 1, e, e],
             [1, 1, e, e],
             [1, e, e, e]]

    whose caterpillar critical path chains all four unit entries
    (completion time 4) while the lower bound is ``2 + 2e``, so the ratio
    approaches ``P/2 = 2`` as ``e -> 0``.  Note the nonzero diagonal:
    ``C[1,1]`` is a self-message, allowed by the schedule semantics (it
    occupies both ports of node 1).
    """
    if not (0 < epsilon < 1):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    e = float(epsilon)
    paper_c = np.array(
        [
            [e, e, e, e],
            [e, 1.0, e, e],
            [1.0, 1.0, e, e],
            [1.0, e, e, e],
        ]
    )
    return TotalExchangeProblem.from_paper_matrix(paper_c)
