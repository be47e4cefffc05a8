"""Per-tenant state for the scheduler daemon.

A tenant is one client workload with its own session: a
:class:`TenantProfile` (pure spec strings — the same
:mod:`repro.util.spec` grammar every factory speaks) describes it, and
:class:`TenantState` owns the live
:class:`~repro.runtime.session.AdaptiveSession` built from it.

The schedule cache is how tenants share plans:
:class:`ShardedScheduleCache` hashes a tenant's *cohort* (its profile
minus the tenant name and the policy) onto a small fixed set of
:class:`~repro.perf.memo.ScheduleCache` shards.  Every tenant of one
cohort therefore reads and writes the same shard, so a cohort leader's
reschedule answers each follower's own cache lookup, while a hot cohort
thrashing its shard cannot evict every other cohort's plans.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.directory.factory import make_directory
from repro.model.messages import MixedSizes, UniformSizes
from repro.core.problem import TotalExchangeProblem
from repro.perf.memo import ScheduleCache, problem_digest
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.policy import PolicyConfig
from repro.runtime.session import AdaptiveSession
from repro.serve.state import restore_session_state, session_state
from repro.util.spec import parse_spec
from repro.workloads.mltraining import (
    allreduce_ring_sizes,
    parameter_server_sizes,
)

#: Directory flavours whose state is a pure function of (spec, seed,
#: time) — rebuilding and advancing to the recorded clock reproduces
#: them exactly, so their tenants survive drain/restart bit-identically.
RESUMABLE_FLAVOURS = frozenset(
    {"static", "gusto", "drift", "dynamics", "forecast"}
)

_WORKLOADS = ("mixed", "uniform", "ring", "ps")


def make_workload_sizes(
    spec: str, num_procs: int, *, rng: Any = None
) -> np.ndarray:
    """Build a ``[src, dst]`` byte-size matrix from a workload spec.

    The grammar is the shared ``name[:key=value,...]`` spec grammar:

    * ``mixed[:small_bytes=...,large_bytes=...,small_probability=...]``
      — the paper's random small/large mix (needs ``rng``).
    * ``uniform[:size_bytes=...]`` — every pair moves the same bytes.
    * ``ring[:block_bytes=...]`` — one ring all-reduce step
      (:func:`~repro.workloads.mltraining.allreduce_ring_sizes`).
    * ``ps[:block_bytes=...,servers=...]`` — parameter-server fan-in
      (:func:`~repro.workloads.mltraining.parameter_server_sizes`).
    """
    name, options = parse_spec(
        spec, known=_WORKLOADS, kind="workload spec", name_kind="workload"
    )
    if name == "mixed":
        return MixedSizes(**options).sizes(num_procs, rng=rng)
    if name == "uniform":
        return UniformSizes(**options).sizes(num_procs, rng=rng)
    if name == "ring":
        block = float(options.pop("block_bytes", 1 << 20))
        return allreduce_ring_sizes(num_procs, block, **options)
    block = float(options.pop("block_bytes", 1 << 20))
    return parameter_server_sizes(num_procs, block, **options)


@dataclass(frozen=True)
class TenantProfile:
    """Everything needed to (re)build one tenant's session, as specs."""

    tenant: str
    procs: int = 8
    scheduler: str = "openshop"
    directory: str = "drift:sigma=0.02"
    workload: str = "mixed"
    seed: int = 0
    policy: Dict[str, Any] = field(default_factory=dict)

    @property
    def directory_flavour(self) -> str:
        name, _ = parse_spec(self.directory, kind="directory spec")
        return name

    @property
    def resumable(self) -> bool:
        return self.directory_flavour in RESUMABLE_FLAVOURS

    @property
    def cohort(self) -> Tuple[int, str, str, str, int]:
        """The profile minus the tenant name and the policy: tenants of
        one cohort plan the same problem at the same clock."""
        return (
            self.procs, self.scheduler, self.directory, self.workload,
            self.seed,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "procs": self.procs,
            "scheduler": self.scheduler,
            "directory": self.directory,
            "workload": self.workload,
            "seed": self.seed,
            "policy": dict(self.policy),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TenantProfile":
        return cls(
            tenant=str(payload["tenant"]),
            procs=int(payload["procs"]),
            scheduler=str(payload["scheduler"]),
            directory=str(payload["directory"]),
            workload=str(payload["workload"]),
            seed=int(payload["seed"]),
            policy=dict(payload.get("policy", {})),
        )


class ShardedScheduleCache:
    """A fixed set of :class:`ScheduleCache` shards keyed by cohort.

    The shard index is a stable CRC of the cohort
    (:attr:`TenantProfile.cohort`), so every tenant of one cohort lands
    on the same shard — across connections and across daemon restarts.
    """

    def __init__(self, num_shards: int = 8, *, maxsize_per_shard: int = 256):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)
        self._shards = [
            ScheduleCache(maxsize=maxsize_per_shard)
            for _ in range(self.num_shards)
        ]

    def shard_index(self, cohort: Tuple) -> int:
        return zlib.crc32(repr(cohort).encode("utf-8")) % self.num_shards

    def shard_for(self, cohort: Tuple) -> ScheduleCache:
        return self._shards[self.shard_index(cohort)]

    def stats(self) -> Dict[str, Any]:
        per_shard = [shard.stats() for shard in self._shards]
        totals: Dict[str, Any] = {"shards": self.num_shards}
        for key in ("hits", "misses", "entries"):
            totals[key] = sum(int(s.get(key, 0)) for s in per_shard)
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        return totals


class TenantState:
    """One tenant's live session plus its serving counters."""

    def __init__(
        self,
        profile: TenantProfile,
        *,
        cache: Optional[ScheduleCache] = None,
        metrics: Optional[RuntimeMetrics] = None,
    ):
        self.profile = profile
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        self.directory = make_directory(
            profile.directory, num_procs=profile.procs, rng=profile.seed
        )
        rng = np.random.default_rng(profile.seed)
        self.sizes = make_workload_sizes(
            profile.workload, self.directory.num_procs, rng=rng
        )
        self.session = AdaptiveSession(
            self.directory,
            self.sizes,
            scheduler=profile.scheduler,
            policy=PolicyConfig(**profile.policy),
            cache=cache,
            metrics=self.metrics,
            rng=rng,
        )
        self.requests_served = 0
        self.restored = False
        # One cohort at one clock plans one problem unless the directory
        # redraws per query (``noisy``/``perturb``); parsed once, here.
        self.batchable = profile.directory_flavour in RESUMABLE_FLAVOURS

    # -- cross-tenant batching ----------------------------------------------

    def planning_problem(self) -> TotalExchangeProblem:
        """The instance a tick at the directory's current clock plans
        against (the serving benchmark and tests read it)."""
        return TotalExchangeProblem.from_snapshot(
            self.directory.snapshot(), self.sizes
        )

    # The serving benchmark (``servebench``) times this name, so it stays
    # until the benchmark stops wrapping it; nothing in ``src`` calls it.
    def planning_digest(self, problem: TotalExchangeProblem) -> str:
        return problem_digest(problem)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe state: profile + session internals + clock."""
        if not self.profile.resumable:
            raise ValueError(
                f"tenant {self.profile.tenant!r} uses directory flavour "
                f"{self.profile.directory_flavour!r}, which redraws from an "
                f"RNG on every query and cannot be resumed bit-identically; "
                f"resumable flavours: {sorted(RESUMABLE_FLAVOURS)}"
            )
        return {
            "profile": self.profile.to_dict(),
            "session": session_state(self.session),
            "directory_time": float(self.directory.time),
            "requests_served": self.requests_served,
        }

    @classmethod
    def restore(
        cls,
        payload: Dict[str, Any],
        *,
        cache: Optional[ScheduleCache] = None,
        metrics: Optional[RuntimeMetrics] = None,
    ) -> "TenantState":
        """Rebuild a tenant from :meth:`snapshot` output.

        The directory is reconstructed from its spec and advanced to the
        recorded clock; the session internals are written back verbatim.
        """
        profile = TenantProfile.from_dict(payload["profile"])
        state = cls(profile, cache=cache, metrics=metrics)
        target = float(payload["directory_time"])
        behind = target - state.directory.time
        if behind < -1e-9:
            raise ValueError(
                f"restored clock {target} is behind the fresh directory's "
                f"{state.directory.time}"
            )
        if behind > 0:
            state.directory.advance(behind)
        restore_session_state(state.session, payload["session"])
        state.requests_served = int(payload.get("requests_served", 0))
        state.restored = True
        return state
