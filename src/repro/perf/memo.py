"""Schedule and lower-bound memoization keyed by cost-matrix digest.

Experiment drivers repeatedly rebuild the *same* instances: every
``(workload, P, trial)`` cell of a sweep is seeded deterministically, so
re-running a figure, pooling quality stats after a sweep, or measuring
scheduling overhead recomputes schedules for cost matrices that were
already solved in this process.  The caches here key on a SHA-256 digest
of the cost (and size) matrix bytes, so *any* two problems with
bit-identical matrices share an entry — regardless of how they were
constructed.

Caches are bounded LRU; hit/miss counters are kept so experiments can
report how much recomputation they avoided.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.problem import TotalExchangeProblem
from repro.timing.events import Schedule


def cost_digest(
    cost: np.ndarray,
    sizes: Optional[np.ndarray] = None,
    *,
    mask: Optional[np.ndarray] = None,
) -> str:
    """Hex digest of a cost matrix (and optional size matrix).

    Shape is folded in so a flattened matrix cannot collide with a
    differently shaped one with the same bytes.  ``mask`` folds in an
    availability mask (surviving nodes/links): a blackout changes which
    links may be used without changing a single cost number, so two
    identical matrices under different availability must not share an
    entry.  ``mask=None`` keeps the historical digest.
    """
    cost = np.ascontiguousarray(np.asarray(cost, dtype=float))
    hasher = hashlib.sha256()
    hasher.update(repr(cost.shape).encode("ascii"))
    hasher.update(cost.tobytes())
    if sizes is not None:
        sizes = np.ascontiguousarray(np.asarray(sizes, dtype=float))
        hasher.update(b"|sizes|")
        hasher.update(sizes.tobytes())
    if mask is not None:
        mask = np.ascontiguousarray(np.asarray(mask, dtype=bool))
        hasher.update(b"|mask|")
        hasher.update(repr(mask.shape).encode("ascii"))
        hasher.update(np.packbits(mask).tobytes())
    return hasher.hexdigest()


def problem_digest(
    problem: TotalExchangeProblem, *, mask: Optional[np.ndarray] = None
) -> str:
    """Digest of a problem's cost and size matrices (and availability)."""
    return cost_digest(problem.cost, problem.sizes, mask=mask)


def schedule_digest(schedule: Schedule) -> str:
    """Hex digest of a schedule's sorted event stream.

    Hashes the canonical ``(start, src, dst)``-sorted view, so two
    schedules digest equal exactly when their timing diagrams are
    bit-identical — regardless of which constructor (event list, lazy
    columns) built them or in which order events were emitted.  Golden
    tests pin these digests to hold planners byte-stable across
    refactors.
    """
    events = schedule.events
    count = len(events)
    columns = np.empty((count, 5))
    for index, event in enumerate(events):
        columns[index, 0] = event.start
        columns[index, 1] = event.src
        columns[index, 2] = event.dst
        columns[index, 3] = event.duration
        columns[index, 4] = event.size
    hasher = hashlib.sha256()
    hasher.update(repr((schedule.num_procs, count)).encode("ascii"))
    hasher.update(np.ascontiguousarray(columns).tobytes())
    return hasher.hexdigest()


def _schedule_key(
    problem: TotalExchangeProblem,
    scheduler: Callable,
    name: Optional[str],
    mask: Optional[np.ndarray],
) -> Tuple[str, str]:
    """The cache key of ``scheduler``'s schedule for ``problem``."""
    if name is None:
        module = getattr(scheduler, "__module__", "?")
        qualname = getattr(scheduler, "__qualname__", repr(scheduler))
        name = f"{module}.{qualname}"
    return problem_digest(problem, mask=mask), name


class ScheduleCache:
    """Bounded LRU cache of ``(problem digest, scheduler) -> Schedule``.

    The scheduler component of the key is its qualified name (or an
    explicit ``name=``), so two registry schedulers never collide; two
    *distinct* anonymous callables sharing a qualified name would, so
    pass ``name=`` when caching ad-hoc lambdas.
    """

    def __init__(self, maxsize: int = 512):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple[str, str], Schedule]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _get(self, key: Tuple[str, str]):
        """The entry under ``key`` (now most recent), or None; counts a
        hit or a miss."""
        cached = self._entries.get(key)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return cached

    def _set(self, key: Tuple[str, str], value) -> None:
        """Store ``value`` as the most recent entry, evicting the least
        recent one beyond ``maxsize``."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def get_or_compute(
        self,
        problem: TotalExchangeProblem,
        scheduler: Callable[[TotalExchangeProblem], Schedule],
        *,
        name: Optional[str] = None,
        mask: Optional[np.ndarray] = None,
    ) -> Schedule:
        """Return the cached schedule, computing and storing it on a miss."""
        key = _schedule_key(problem, scheduler, name, mask)
        schedule = self._get(key)
        if schedule is None:
            schedule = scheduler(problem)
            self._set(key, schedule)
        return schedule

    def lookup(
        self,
        problem: TotalExchangeProblem,
        scheduler: Callable[[TotalExchangeProblem], Schedule],
        *,
        name: Optional[str] = None,
        mask: Optional[np.ndarray] = None,
    ) -> Optional[Schedule]:
        """The cached schedule, or None; counts a hit or a miss.

        Unlike :meth:`get_or_compute`, a miss does *not* invoke the
        scheduler — callers that must guard the computation (deadlines,
        fallbacks) use ``lookup`` + :meth:`put` so failed or substituted
        results never poison the cache.  ``mask`` keys the entry to an
        availability mask (see :func:`cost_digest`) so repaired-world
        lookups cannot answer with a pre-failure plan.
        """
        return self._get(_schedule_key(problem, scheduler, name, mask))

    def put(
        self,
        problem: TotalExchangeProblem,
        scheduler: Callable[[TotalExchangeProblem], Schedule],
        schedule: Schedule,
        *,
        name: Optional[str] = None,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Seed the cache with an already-computed schedule.

        Lets callers that had to run a scheduler anyway (e.g. while
        timing it) donate the result, so a later cached call is a hit
        instead of a recomputation.
        """
        self._set(_schedule_key(problem, scheduler, name, mask), schedule)

    def aux_lookup(self, kind: str, digest: str):
        """A non-schedule artifact stored under ``(kind, digest)``, or None.

        The aux store shares this cache's LRU budget and counters.  The
        hierarchical scheduler keeps detected cluster assignments here
        (``kind="clusters"``) keyed by the cost digest, so serving ticks
        that revisit a previously seen world skip re-clustering.
        """
        return self._get((f"aux:{kind}", digest))

    def aux_put(self, kind: str, digest: str, value) -> None:
        """Store a non-schedule artifact under ``(kind, digest)``."""
        self._set((f"aux:{kind}", digest), value)

    def wrap(
        self,
        scheduler: Callable[[TotalExchangeProblem], Schedule],
        *,
        name: Optional[str] = None,
    ) -> Callable[[TotalExchangeProblem], Schedule]:
        """A drop-in scheduler that answers from this cache."""

        def cached_scheduler(problem: TotalExchangeProblem) -> Schedule:
            return self.get_or_compute(problem, scheduler, name=name)

        cached_scheduler.__name__ = getattr(
            scheduler, "__name__", "scheduler"
        ) + "_cached"
        return cached_scheduler

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


#: Process-wide default cache used by the experiment drivers.
_DEFAULT_CACHE = ScheduleCache()

#: Digest -> lower bound, bounded like the schedule cache.
_LB_CACHE: "OrderedDict[str, float]" = OrderedDict()
_LB_MAXSIZE = 4096


def default_schedule_cache() -> ScheduleCache:
    """The process-wide schedule cache shared by experiment drivers."""
    return _DEFAULT_CACHE


def lower_bound_cached(problem: TotalExchangeProblem) -> float:
    """``problem.lower_bound()`` memoized by cost-matrix digest."""
    key = cost_digest(problem.cost)
    cached = _LB_CACHE.get(key)
    if cached is not None:
        _LB_CACHE.move_to_end(key)
        return cached
    value = problem.lower_bound()
    _LB_CACHE[key] = value
    if len(_LB_CACHE) > _LB_MAXSIZE:
        _LB_CACHE.popitem(last=False)
    return value
