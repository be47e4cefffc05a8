"""A fresh serving process loads only the code serving runs.

scipy and networkx serve the matching, preemptive and hierarchical
schedulers and the link-level topology model; no open-shop serving tick
calls them.  Each probe here runs in a fresh interpreter, because an
import is a per-process cost: with both packages blocked the serving
paths must still run, and a registry scheduler's backend must be loaded
by ``make_scheduler`` rather than by its first call, where a tick's
deadline or a bench clock would count it.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core.registry import iter_specs
from repro.directory.factory import make_directory
from repro.model.messages import MixedSizes
from repro.perf import memo
from repro.perf.bench import TIERS
from repro.perf.memo import ScheduleCache
from repro.runtime.session import AdaptiveSession
from tests.conftest import random_problem

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

#: Makes ``import scipy`` / ``import networkx`` raise in the probe.
BLOCK = """
import sys
for name in ("scipy", "networkx"):
    sys.modules[name] = None
"""

#: ``heavy()``: the scipy and networkx modules the probe has loaded.
HEAVY = """
import sys
def heavy():
    return {m for m in sys.modules
            if m.partition(".")[0] in ("scipy", "networkx")}
"""


def _probe(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this package; its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_serving_runs_with_scipy_and_networkx_blocked():
    out = _probe(BLOCK + """
import numpy as np
import repro, repro.serve.daemon, repro.cli
from repro.network.generators import clustered_pairwise_parameters
from repro.directory.service import DirectorySnapshot
from repro.runtime.session import AdaptiveSession
from repro.serve.tenants import TenantProfile, TenantState
from repro.sim import replay

def decisions(session, ticks, dt=1.0):
    return [session.tick(dt=0.0 if k == 0 else dt).event.decision
            for k in range(ticks)]

# a fleet cohort leader (P=8): the cold reschedule, reuse and refine
leader = TenantState(TenantProfile(
    "t-000", procs=8, directory="drift:sigma=0.02,ticks=41,seed=5", seed=5))
fleet = decisions(leader.session, 40)
assert {"reschedule", "reuse", "refine"} <= set(fleet), fleet
# warm reschedules too, forced by a tight plan-age cap
stale = TenantState(TenantProfile(
    "t-001", procs=8, directory="drift:sigma=0.02,ticks=41,seed=5", seed=5,
    policy={"max_plan_age_ticks": 2}))
assert decisions(stale.session, 7).count("reschedule") >= 3

# the mixed heavy tenant (P=192, sigma 0.6) replans every tick
heavy = TenantState(TenantProfile(
    "heavy", procs=192, directory="drift:sigma=0.6,ticks=4,seed=7", seed=7))
assert decisions(heavy.session, 3) == ["reschedule"] * 3

# the storm session (P=256) repairs its plan on storm ticks
latency, bandwidth = clustered_pairwise_parameters(256, cluster_size=64, rng=3)
trace = replay.drift_storm_trace(
    DirectorySnapshot(latency=latency, bandwidth=bandwidth), ticks=9,
    storm_every=4, storm_nodes=13, storm_sigma=0.8, calm_sigma=0.004, seed=4)
sizes = np.full((256, 256), 1e6)
np.fill_diagonal(sizes, 0.0)
storm = AdaptiveSession(replay.TraceDirectory(trace), sizes)
assert "repair" in decisions(storm, 9), "no repair tick"
print("served")
""")
    assert out == "served"


#: Every registry scheduler, and each matching backend by option.
SCHEDULERS = [(spec.name, {}) for spec in iter_specs()] + [
    ("max_matching", {"backend": backend})
    for backend in ("scipy", "networkx", "auction")
]


@pytest.mark.parametrize(
    "name, options", SCHEDULERS,
    ids=[name + "".join(f"-{v}" for v in opts.values())
         for name, opts in SCHEDULERS],
)
def test_a_first_call_after_make_scheduler_imports_nothing(name, options):
    # hierarchical runs on a clustered instance, so that it clusters
    out = _probe(HEAVY + f"""
from repro.core.registry import make_scheduler
from repro.perf.bench import bench_instance, clustered_instance
if {name!r} == "hierarchical":
    problem = clustered_instance(12, cluster_size=4)
else:
    problem = bench_instance(6)
scheduler = make_scheduler({name!r}, **{options!r})
before = heavy()
scheduler(problem)
print(sorted(heavy() - before))
""")
    assert out == "[]"


def test_a_matching_sessions_cold_tick_times_the_algorithm_alone():
    out = _probe(HEAVY + """
from repro.directory.factory import make_directory
from repro.model.messages import MixedSizes
from repro.runtime.session import AdaptiveSession
session = AdaptiveSession(
    make_directory("drift:sigma=0.02,ticks=4,seed=3", num_procs=8, rng=3),
    MixedSizes(), scheduler="max_matching", rng=3)
before = heavy()
event = session.tick().event
assert event.decision == "reschedule" and not event.fallback, event
assert not heavy() - before, sorted(heavy() - before)
print(event.scheduler_elapsed)
""")
    # an import of scipy.optimize takes hundreds of milliseconds; eight
    # P=8 assignment problems take about one
    assert float(out) < 0.05


def test_the_startup_tier_counts_no_scipy_or_networkx_module():
    payload = TIERS["startup"].produce(repeats=1)
    assert payload["heavy_modules"] == 0
    assert 0.0 < payload["import_daemon_s"] == payload["meta"]["import_s"][0]


def _counting_digests(monkeypatch):
    calls = []
    real = memo.problem_digest

    def counted(problem, **kwargs):
        calls.append(problem)
        return real(problem, **kwargs)

    monkeypatch.setattr(memo, "problem_digest", counted)
    return calls


def _session(cache):
    directory = make_directory(
        "drift:sigma=0.02,ticks=4,seed=9", num_procs=8, rng=9
    )
    return AdaptiveSession(directory, MixedSizes(), cache=cache, rng=9)


def test_a_missed_plan_is_digested_once_and_a_hit_once(monkeypatch):
    digests = _counting_digests(monkeypatch)
    cache = ScheduleCache()
    leader = _session(cache)
    assert leader.tick().event.cache_hit is False  # miss, then put
    assert len(digests) == 1
    assert cache.stats() == {
        "entries": 1, "hits": 0, "misses": 1, "hit_rate": 0.0,
    }
    follower = _session(cache)  # same cohort: same problem, same clock
    assert follower.tick().event.cache_hit is True
    assert len(digests) == 2
    assert cache.stats() == {
        "entries": 1, "hits": 1, "misses": 1, "hit_rate": 0.5,
    }


def test_put_reuses_only_the_key_of_the_lookup_it_follows(monkeypatch):
    digests = _counting_digests(monkeypatch)
    cache = ScheduleCache()
    a, b = random_problem(4, seed=1), random_problem(4, seed=2)
    mask = a.cost > 0

    def plan(problem):
        return problem

    assert cache.lookup(a, plan, mask=mask) is None
    cache.put(a, plan, "plan-a", mask=mask)
    assert len(digests) == 1
    # a put that does not follow its own miss digests its own key
    assert cache.lookup(a, plan) is None
    cache.put(b, plan, "plan-b")
    cache.put(a, plan, "plan-a-unmasked")
    assert len(digests) == 4
    assert cache.lookup(a, plan, mask=mask) == "plan-a"
    assert cache.lookup(a, plan) == "plan-a-unmasked"
    assert cache.lookup(b, plan) == "plan-b"
    assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 3
