"""The table-driven bench regression guard and the tier table it reads."""

import json
import pathlib

import pytest

from repro.perf.bench import GUARANTEE, TIERS, Metric, run_tier, tier_of
from repro.perf.regression import (
    MISSING,
    bench_regressions,
    load_bench,
    resolve_path,
    tier_regressions,
)

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_core.json"

SCALE = {
    "meta": {"workload": "clustered"},
    "hierarchical": {"ratio_to_lb": 1.10, "seconds": 10.0},
    "openshop": {"ratio_to_lb": 1.001, "seconds": 6.0},
}

DRIFT = {
    "meta": {"ticks": 8},
    "repair": {"p50_s": 0.4, "p99_s": 4.0, "mean_s": 1.0},
    "full": {"p50_s": 5.0, "p99_s": 6.0, "mean_s": 5.0},
    "speedup_p50": 12.0,
    "makespan_ratio_max": 1.05,
}

COLLECTIVES = {
    "meta": {"size_bytes": 1048576.0},
    "broadcast_log": {
        "seconds": 0.01, "completion_s": 1.2, "events": 63,
    },
    "allreduce_rs_ag": {
        "seconds": 0.02, "completion_s": 11.8, "events": 8064,
    },
    "broadcast_log_vs_binomial": 1.8,
    "allreduce_pipelined_vs_lockstep": 1.7,
}

STRAGGLER_SECTION = "collectives_allreduce_straggler_p512"

STRAGGLER = {
    "meta": {"ticks": 8},
    "tick_latency": {"p50_s": 0.003, "p99_s": 0.08, "max_s": 0.1},
    "makespan": {
        "baseline_s": 1.0, "straggler_worst_s": 8.0,
        "degradation_max": 8.0,
    },
}


SOAK = {
    "meta": {"tenants": 6, "ticks": 40},
    "ok": True,
    "oracle_checks": 240,
    "oracle_violations": 0,
    "alerts_fired": 1,
    "alerts_resolved": 1,
    "daemon": {
        "accepted": 160, "served": 160, "dropped": 0,
        "zero_loss": True, "restart_bit_identical": True,
    },
    "backup_bit_identical": True,
    "store": {"segments": 6, "sealed_segments": 6, "records_written": 400},
    "wall_s": 3.0,
}


def _check(section, committed, fresh):
    """Judge one section by the metrics of the tier that owns it."""
    return bench_regressions({section: committed}, {section: fresh})


def _with(record, **overrides):
    out = json.loads(json.dumps(record))
    for dotted, value in overrides.items():
        node = out
        *path, leaf = dotted.split("__")
        for key in path:
            node = node[key]
        node[leaf] = value
    return out


class TestScaleRegressions:
    def test_identical_passes(self):
        assert _check("scale_p1024", SCALE, SCALE) == []

    def test_quality_within_rtol_passes(self):
        fresh = _with(SCALE, hierarchical__ratio_to_lb=1.10 * 1.04)
        assert _check("scale_p1024", SCALE, fresh) == []

    def test_quality_regression_fails(self):
        fresh = _with(SCALE, hierarchical__ratio_to_lb=1.10 * 1.06)
        problems = _check("scale_p1024", SCALE, fresh)
        assert len(problems) == 1
        assert "ratio_to_lb" in problems[0]

    def test_seconds_need_gross_regression(self):
        # 9x slower is machine noise; 11x is a real slowdown
        assert _check(
            "scale_p1024", SCALE, _with(SCALE, openshop__seconds=54.0)
        ) == []
        problems = _check(
            "scale_p1024", SCALE, _with(SCALE, openshop__seconds=66.0)
        )
        assert len(problems) == 1 and "seconds" in problems[0]

    def test_missing_scheduler_reported(self):
        fresh = json.loads(json.dumps(SCALE))
        del fresh["openshop"]
        problems = _check("scale_p1024", SCALE, fresh)
        assert any("disappeared" in p for p in problems)

    def test_quality_improvement_passes(self):
        fresh = _with(SCALE, hierarchical__ratio_to_lb=1.02)
        assert _check("scale_p1024", SCALE, fresh) == []


class TestDriftRegressions:
    def test_identical_passes(self):
        assert _check("drift_response_p1024", DRIFT, DRIFT) == []

    def test_makespan_ratio_is_tight(self):
        fresh = _with(DRIFT, makespan_ratio_max=1.05 * 1.06)
        problems = _check("drift_response_p1024", DRIFT, fresh)
        # the 5% quality rule fires (and so does the 1.10 guarantee)
        assert any("regressed" in p for p in problems)
        assert all("makespan_ratio_max" in p for p in problems)

    def test_speedup_gets_intermediate_slack(self):
        # 12x -> 5x survives (CI variance); 12x -> 3x fails
        assert _check(
            "drift_response_p1024", DRIFT, _with(DRIFT, speedup_p50=5.0)
        ) == []
        problems = _check(
            "drift_response_p1024", DRIFT, _with(DRIFT, speedup_p50=3.0)
        )
        assert len(problems) == 1 and "speedup_p50" in problems[0]

    def test_repair_latency_is_loose(self):
        assert _check(
            "drift_response_p1024", DRIFT, _with(DRIFT, repair__p50_s=3.9)
        ) == []
        problems = _check(
            "drift_response_p1024", DRIFT, _with(DRIFT, repair__p50_s=4.1)
        )
        assert len(problems) == 1 and "repair.p50_s" in problems[0]


class TestCollectivesRegressions:
    def test_identical_passes(self):
        assert _check("collectives_p64", COLLECTIVES, COLLECTIVES) == []
        assert _check(STRAGGLER_SECTION, STRAGGLER, STRAGGLER) == []

    def test_completion_is_tight(self):
        fresh = _with(COLLECTIVES, broadcast_log__completion_s=1.2 * 1.06)
        problems = _check("collectives_p64", COLLECTIVES, fresh)
        assert len(problems) == 1 and "completion_s" in problems[0]

    def test_planning_seconds_are_loose(self):
        assert _check(
            "collectives_p64", COLLECTIVES,
            _with(COLLECTIVES, broadcast_log__seconds=0.09),
        ) == []
        problems = _check(
            "collectives_p64", COLLECTIVES,
            _with(COLLECTIVES, broadcast_log__seconds=0.11),
        )
        assert len(problems) == 1 and "seconds" in problems[0]

    def test_headline_ratio_must_not_drop(self):
        fresh = _with(COLLECTIVES, broadcast_log_vs_binomial=1.8 * 0.9)
        problems = _check("collectives_p64", COLLECTIVES, fresh)
        assert len(problems) == 1
        assert "broadcast_log_vs_binomial" in problems[0]
        # improving is fine
        assert _check(
            "collectives_p64", COLLECTIVES,
            _with(COLLECTIVES, broadcast_log_vs_binomial=2.5),
        ) == []

    def test_disappeared_entry_reported(self):
        fresh = json.loads(json.dumps(COLLECTIVES))
        del fresh["allreduce_rs_ag"]
        problems = _check("collectives_p64", COLLECTIVES, fresh)
        assert any("disappeared" in p for p in problems)

    def test_straggler_degradation_is_tight(self):
        fresh = _with(STRAGGLER, makespan__degradation_max=8.0 * 1.06)
        problems = _check(STRAGGLER_SECTION, STRAGGLER, fresh)
        assert len(problems) == 1 and "degradation_max" in problems[0]

    def test_tick_latency_is_loose(self):
        assert _check(
            STRAGGLER_SECTION, STRAGGLER,
            _with(STRAGGLER, tick_latency__p50_s=0.029),
        ) == []
        problems = _check(
            STRAGGLER_SECTION, STRAGGLER,
            _with(STRAGGLER, tick_latency__p50_s=0.031),
        )
        assert len(problems) == 1 and "tick_latency.p50_s" in problems[0]

    def test_dispatched_by_tier_prefix(self):
        committed = {
            "collectives_p64": COLLECTIVES,
            STRAGGLER_SECTION: STRAGGLER,
        }
        fresh = {
            "collectives_p64": _with(
                COLLECTIVES, broadcast_log__completion_s=9.9
            ),
            STRAGGLER_SECTION: _with(
                STRAGGLER, makespan__degradation_max=9.9
            ),
        }
        problems = bench_regressions(committed, fresh)
        assert len(problems) == 2
        assert any("completion_s" in p for p in problems)
        assert any("degradation_max" in p for p in problems)


class TestBenchRegressions:
    def test_only_shared_tiers_compared(self):
        committed = {"scale_p1024": SCALE, "drift_response_p256": DRIFT}
        fresh = {
            "scale_p1024": _with(SCALE, hierarchical__ratio_to_lb=9.9),
            "scale_hier_p2048": SCALE,  # no committed baseline: skipped
        }
        problems = bench_regressions(committed, fresh)
        assert len(problems) == 1
        assert problems[0].startswith("scale_p1024")

    def test_empty_or_missing_extra_passes(self):
        assert bench_regressions(None, {"scale_p1024": SCALE}) == []
        assert bench_regressions({"scale_p1024": SCALE}, {}) == []

    def test_clean_pass_across_kinds(self):
        extra = {"scale_p1024": SCALE, "drift_response_p1024": DRIFT}
        assert bench_regressions(extra, json.loads(json.dumps(extra))) == []

    def test_load_bench_roundtrip(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"extra": {"scale_p1024": SCALE}}))
        record = load_bench(path)
        assert record["extra"]["scale_p1024"]["openshop"]["seconds"] == 6.0


class TestSoakRegressions:
    def test_identical_passes(self):
        assert _check("soak_smoke", SOAK, SOAK) == []

    def test_guarantees_are_absolute(self):
        # each broken guarantee is reported regardless of the baseline
        for override, needle in [
            ({"ok": False}, "ok"),
            ({"oracle_violations": 1}, "oracle_violations"),
            ({"daemon__dropped": 3}, "daemon.dropped"),
            ({"daemon__zero_loss": False}, "daemon.zero_loss"),
            ({"daemon__restart_bit_identical": False},
             "daemon.restart_bit_identical"),
            ({"backup_bit_identical": False}, "backup_bit_identical"),
            ({"alerts_fired": 0}, "alerts_fired"),
            ({"alerts_resolved": 0}, "alerts_resolved"),
            ({"store__sealed_segments": 0}, "store.sealed_segments"),
        ]:
            fresh = _with(SOAK, **override)
            problems = _check("soak_smoke", SOAK, fresh)
            assert problems, f"override {override} not caught"
            assert any(needle in p for p in problems), (override, problems)

    def test_wall_time_is_loose(self):
        ok = _with(SOAK, wall_s=29.0)
        assert _check("soak_smoke", SOAK, ok) == []
        slow = _with(SOAK, wall_s=31.0)
        problems = _check("soak_smoke", SOAK, slow)
        assert len(problems) == 1 and "wall_s" in problems[0]

    def test_dispatched_by_prefix(self):
        fresh = _with(SOAK, oracle_violations=2)
        problems = bench_regressions(
            {"soak_smoke": SOAK}, {"soak_smoke": fresh}
        )
        assert len(problems) == 1
        assert problems[0].startswith("soak_smoke")


class TestTierTable:
    def test_every_committed_section_has_a_tier(self):
        extra = load_bench(BENCH_JSON)["extra"]
        assert {section: tier_of(section) for section in extra
                if tier_of(section) is None} == {}

    def test_every_guarded_path_resolves_in_the_committed_record(self):
        # A mistyped path must not pass silently the way an absent
        # section does: each metric reaches a value in every committed
        # section its tier owns, and the record holds its guarantees.
        extra = load_bench(BENCH_JSON)["extra"]
        guarded = set()
        for section, payload in extra.items():
            metrics = TIERS[tier_of(section)].metrics
            for metric in metrics:
                values = resolve_path(payload, metric.path)
                assert values, (section, metric.path)
                assert all(v is not MISSING for _, v in values), (
                    section, metric.path,
                )
            assert tier_regressions(section, payload, payload, metrics) == []
            guarded.add(tier_of(section))
        # every guarded tier but the CI-only smoke run is in the record
        assert {
            name for name, tier in TIERS.items() if tier.metrics
        } - guarded == {"smoke"}

    def test_smoke_guarantees_hold_on_a_fresh_run(self):
        run = run_tier("smoke", (8,))
        assert run.problems == []
        kernels = run.sections[""]["kernels"]["8"]
        for metric in TIERS["smoke"].metrics:
            assert metric.path.rsplit(".", 1)[1] in kernels

    def test_refine_tier_reproduces_the_committed_decisions(self):
        # The refine tier's quality numbers are deterministic: the same
        # seeded tenant must make the same refine decisions.
        fresh = run_tier("refine", (8,)).sections["refine_p8"]
        committed = load_bench(BENCH_JSON)["extra"]["refine_p8"]
        assert fresh["meta"] == committed["meta"]
        assert fresh["evaluations"] == committed["evaluations"]
        assert fresh["predicted_makespan_s"] == (
            committed["predicted_makespan_s"]
        )

    def test_guarantees_need_no_baseline(self):
        fresh = _with(STRAGGLER, makespan__degradation_max=1.5)
        metrics = TIERS["straggler"].metrics
        problems = tier_regressions("s", None, fresh, metrics)
        assert len(problems) == 1 and "degradation_max" in problems[0]
        assert tier_regressions("s", None, STRAGGLER, metrics) == []

    def test_missing_guaranteed_value_is_reported(self):
        presence = [Metric("kernels.*.openshop", GUARANTEE)]
        fresh = {"kernels": {"16": {"openshop": {}}, "32": {}}}
        assert tier_regressions("k", None, fresh, presence) == [
            "k: kernels.32.openshop is missing"
        ]

    def test_shared_section_pattern_split_by_size(self):
        assert tier_of("scale_p1024") == "scale_flat"
        assert tier_of("scale_p2048") == "scale"
        with pytest.raises(ValueError, match="scale_flat"):
            run_tier("scale", (1024,))
