"""Tests for cluster detection and the hierarchical two-level scheduler.

Covers: threshold/partition detection on planted two-level instances,
the degenerate delegations (one cluster -> flat open shop bit-identically,
all singletons -> flat matching), splice validity at P in {8, 64, 256}
under the full invariant oracle, the clustered adversarial family, the
vectorized schedule checker, cluster-assignment reuse (drift and digest
paths), and the AdaptiveSession integration.
"""

import numpy as np
import pytest

from repro.check.instances import build_instance
from repro.check.oracle import oracle_violations
from repro.core.clustering import (
    ClusterAssignment,
    cluster_permutation,
    detect_clusters,
    detect_threshold,
)
from repro.core.hierarchical import (
    HierarchicalScheduler,
    schedule_hierarchical,
)
from repro.core.matching import schedule_matching_max
from repro.core.openshop import schedule_openshop
from repro.core.problem import TotalExchangeProblem
from repro.perf.memo import ScheduleCache
from repro.timing.validate import check_schedule
from tests.conftest import random_problem


def planted_problem(
    num_procs: int,
    cluster_size: int,
    *,
    seed: int = 0,
    separation: float = 25.0,
) -> TotalExchangeProblem:
    """A two-level instance with known contiguous clusters."""
    rng = np.random.default_rng(seed)
    labels = np.arange(num_procs) // cluster_size
    k = int(labels[-1]) + 1
    intra = rng.uniform(0.9, 1.1, size=(num_procs, num_procs))
    level = rng.uniform(separation, 2 * separation, size=(k, k))
    cost = intra * level[np.ix_(labels, labels)]
    same = labels[:, None] == labels[None, :]
    cost[same] = intra[same]
    np.fill_diagonal(cost, 0.0)
    return TotalExchangeProblem(cost=cost)


class TestClustering:
    def test_planted_partition_recovered(self):
        problem = planted_problem(24, 6)
        assignment = detect_clusters(problem.cost)
        assert assignment.num_clusters == 4
        expected = np.arange(24) // 6
        assert np.array_equal(assignment.labels, expected)

    def test_members_and_permutation_consistent(self):
        problem = planted_problem(20, 5)
        assignment = detect_clusters(problem.cost)
        members = assignment.members()
        assert sorted(np.concatenate(members).tolist()) == list(range(20))
        perm, offsets = cluster_permutation(assignment)
        for c, block in enumerate(members):
            span = perm[offsets[c]:offsets[c + 1]]
            assert np.array_equal(span, block)

    def test_flat_instance_is_one_cluster(self):
        problem = random_problem(12, seed=4)
        assignment = detect_clusters(problem.cost)
        assert assignment.num_clusters == 1

    def test_all_equal_is_one_cluster(self):
        cost = np.full((8, 8), 3.0)
        np.fill_diagonal(cost, 0.0)
        assert detect_clusters(cost).num_clusters == 1
        assert detect_threshold(cost) is None

    def test_tiny_threshold_yields_singletons(self):
        problem = random_problem(7, seed=1)
        assignment = detect_clusters(problem.cost, threshold=1e-12)
        assert assignment.num_clusters == 7

    def test_zero_matrix_and_single_node(self):
        assert detect_clusters(np.zeros((5, 5))).num_clusters == 1
        assert detect_clusters(np.zeros((1, 1))).num_clusters == 1

    def test_asymmetric_links_do_not_merge(self):
        # One fast direction must not count as proximity: the weight is
        # the max of the two directions.
        cost = np.array([
            [0.0, 0.1, 50.0],
            [60.0, 0.0, 50.0],
            [50.0, 50.0, 0.0],
        ])
        assignment = detect_clusters(cost, threshold=1.0)
        assert assignment.num_clusters == 3

    def test_gap_factor_validation(self):
        with pytest.raises(ValueError, match="gap_factor"):
            detect_threshold(np.zeros((3, 3)), gap_factor=1.0)

    def test_labels_read_only(self):
        assignment = detect_clusters(planted_problem(12, 4).cost)
        with pytest.raises(ValueError):
            assignment.labels[0] = 5


class TestDegenerateDelegation:
    def test_one_cluster_is_flat_openshop_bit_identical(self):
        problem = random_problem(10, seed=2)
        hier = schedule_hierarchical(problem)
        flat = schedule_openshop(problem)
        assert hier.events == flat.events

    def test_all_singletons_is_flat_matching_bit_identical(self):
        problem = random_problem(8, seed=3)
        hier = schedule_hierarchical(problem, threshold=1e-12)
        flat = schedule_matching_max(problem)
        assert hier.events == flat.events

    def test_unknown_intra_kernel_rejected(self):
        problem = random_problem(4, seed=0)
        with pytest.raises(ValueError, match="intra kernel"):
            schedule_hierarchical(problem, intra="quantum")

    def test_mismatched_assignment_rejected(self):
        problem = random_problem(4, seed=0)
        assignment = ClusterAssignment(
            labels=np.zeros(6, dtype=np.intp), threshold=1.0
        )
        with pytest.raises(ValueError, match="assignment covers"):
            schedule_hierarchical(problem, assignment=assignment)


class TestSpliceValidity:
    @pytest.mark.parametrize("num_procs,cluster_size", [
        (8, 2), (64, 8), (256, 32),
    ])
    def test_spliced_schedule_passes_full_oracle(self, num_procs, cluster_size):
        problem = planted_problem(num_procs, cluster_size)
        schedule = schedule_hierarchical(problem)
        violations = oracle_violations(
            problem, schedule, scheduler="hierarchical"
        )
        assert violations == []
        check_schedule(schedule, problem.cost)

    def test_uneven_and_singleton_clusters(self):
        # 3 clusters of very different sizes, one a singleton.
        rng = np.random.default_rng(7)
        labels = np.array([0] * 9 + [1] * 4 + [2])
        n = labels.shape[0]
        intra = rng.uniform(0.9, 1.1, (n, n))
        level = rng.uniform(30.0, 60.0, (3, 3))
        cost = intra * level[np.ix_(labels, labels)]
        same = labels[:, None] == labels[None, :]
        cost[same] = intra[same]
        np.fill_diagonal(cost, 0.0)
        problem = TotalExchangeProblem(cost=cost)
        assignment = detect_clusters(cost)
        assert assignment.num_clusters == 3
        schedule = schedule_hierarchical(problem)
        assert oracle_violations(
            problem, schedule, scheduler="hierarchical"
        ) == []

    def test_clustered_family_clean_under_oracle(self):
        for seed in range(6):
            for p in (3, 9, 17):
                inst = build_instance("clustered", p, seed)
                schedule = schedule_hierarchical(inst.problem)
                assert oracle_violations(
                    inst.problem, schedule, scheduler="hierarchical"
                ) == [], (p, seed)

    def test_greedy_intra_kernel_valid(self):
        problem = planted_problem(24, 6, seed=5)
        schedule = schedule_hierarchical(problem, intra="greedy")
        assert oracle_violations(
            problem, schedule, scheduler="hierarchical"
        ) == []

    def test_quality_on_clustered_platform(self):
        problem = planted_problem(64, 8)
        schedule = schedule_hierarchical(problem)
        ratio = schedule.completion_time / problem.lower_bound()
        assert ratio <= 1.25

    def test_sizes_carried_through(self):
        problem = planted_problem(12, 4)
        sized = TotalExchangeProblem(
            cost=problem.cost,
            sizes=np.where(problem.cost > 0, 2048.0, 0.0),
        )
        schedule = schedule_hierarchical(sized)
        positive = [e for e in schedule if e.duration > 0]
        assert positive and all(e.size == 2048.0 for e in positive)


class TestClusteredFamily:
    def test_registered_and_deterministic(self):
        a = build_instance("clustered", 16, 3).problem.cost
        b = build_instance("clustered", 16, 3).problem.cost
        assert np.array_equal(a, b)
        assert np.all(a >= 0)
        assert np.all(np.diag(a) == 0)

    def test_exhibits_two_level_structure_somewhere(self):
        # At least some seeds must present a detectable gap with
        # multiple clusters — otherwise the family never exercises the
        # two-level path.
        hits = 0
        for seed in range(10):
            inst = build_instance("clustered", 20, seed)
            k = detect_clusters(inst.problem.cost).num_clusters
            if 1 < k < 20:
                hits += 1
        assert hits >= 3


class TestAssignmentReuse:
    def test_small_drift_reuses_clustering(self):
        scheduler = HierarchicalScheduler()
        problem = planted_problem(16, 4)
        scheduler(problem)
        assert scheduler.clusterings == 1
        drifted = TotalExchangeProblem(cost=problem.cost * 1.02)
        scheduler(drifted)
        assert scheduler.clusterings == 1
        assert scheduler.cluster_reuses == 1

    def test_large_drift_reclusters(self):
        scheduler = HierarchicalScheduler(drift_tolerance=0.1)
        problem = planted_problem(16, 4)
        scheduler(problem)
        shifted = TotalExchangeProblem(cost=problem.cost * 3.0)
        scheduler(shifted)
        assert scheduler.clusterings == 2

    def test_digest_cache_hit_on_revisit(self):
        scheduler = HierarchicalScheduler()
        cache = ScheduleCache()
        scheduler.bind_cluster_cache(cache)
        first = planted_problem(16, 4, seed=0)
        other = planted_problem(16, 4, seed=9, separation=80.0)
        scheduler(first)
        scheduler(other)  # large drift: re-clusters, digests both
        assert scheduler.clusterings == 2
        scheduler(first)  # exact revisit of a past world
        assert scheduler.cluster_cache_hits == 1
        assert scheduler.clusterings == 2

    def test_aux_store_roundtrip_and_eviction(self):
        cache = ScheduleCache(maxsize=2)
        cache.aux_put("clusters", "d1", "a1")
        assert cache.aux_lookup("clusters", "d1") == "a1"
        assert cache.aux_lookup("clusters", "d2") is None
        cache.aux_put("clusters", "d2", "a2")
        cache.aux_put("clusters", "d3", "a3")  # evicts d1
        assert cache.aux_lookup("clusters", "d1") is None

    def test_explicit_threshold_propagates(self):
        scheduler = HierarchicalScheduler(threshold=1e-12)
        problem = random_problem(6, seed=0)
        assert (
            scheduler(problem).events
            == schedule_matching_max(problem).events
        )


class TestRegistryIntegration:
    def test_spec_registered_as_extra(self):
        from repro.core.registry import get_spec, iter_specs, make_scheduler
        from repro.timing.events import Schedule

        spec = get_spec("hierarchical")
        assert spec.tier == "extra"
        assert spec.guarantee is None
        assert "hierarchical" in {s.name for s in iter_specs(tier="extra")}
        problem = planted_problem(12, 4)
        schedule = make_scheduler("hierarchical")(problem)
        assert isinstance(schedule, Schedule)
        configured = make_scheduler("hierarchical", gap_factor=2.0)
        assert isinstance(configured(problem), Schedule)

    def test_flows_through_run_check(self, tmp_path):
        from repro.check import run_check
        from repro.check.differential import default_schedulers

        assert "hierarchical" in default_schedulers()
        report = run_check(
            seeds=8, p_max=6, out_dir=str(tmp_path), include_exact=False
        )
        assert report.ok
        assert "hierarchical" in report.schedulers


class TestSessionIntegration:
    def _directory(self, num_procs):
        from repro.directory import StaticDirectory

        problem = planted_problem(num_procs, 4)
        with np.errstate(divide="ignore"):
            bandwidth = np.where(
                problem.cost > 0, 1e6 / problem.cost, np.inf
            )
        return StaticDirectory(
            latency=np.zeros_like(problem.cost), bandwidth=bandwidth
        )

    def test_session_binds_cluster_cache(self):
        from repro.runtime.session import AdaptiveSession

        scheduler = HierarchicalScheduler()
        session = AdaptiveSession(
            self._directory(12),
            np.full((12, 12), 1e6) - np.diag(np.full(12, 1e6)),
            scheduler=scheduler,
        )
        assert scheduler._cluster_cache is session.cache
        result = session.tick()
        assert result.schedule.num_procs == 12
        assert scheduler.clusterings >= 1

    def test_session_by_name(self):
        from repro.runtime.session import AdaptiveSession

        session = AdaptiveSession(
            self._directory(8),
            np.full((8, 8), 1e6) - np.diag(np.full(8, 1e6)),
            scheduler="hierarchical",
        )
        assert session.scheduler_name == "hierarchical"
        result = session.tick()
        assert result.schedule.num_procs == 8
