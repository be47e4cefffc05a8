"""Snapshot perturbation tests."""

import numpy as np
import pytest

from repro.directory.perturb import perturb_snapshot
from repro.directory.service import DirectorySnapshot


def make_snapshot(n=4):
    latency = np.full((n, n), 0.02)
    np.fill_diagonal(latency, 0.0)
    bandwidth = np.full((n, n), 1e6)
    np.fill_diagonal(bandwidth, np.inf)
    return DirectorySnapshot(latency=latency, bandwidth=bandwidth)


def test_identity_without_args():
    snap = make_snapshot()
    out = perturb_snapshot(snap)
    assert np.array_equal(out.latency, snap.latency)
    assert np.array_equal(out.bandwidth, snap.bandwidth)


def test_bandwidth_noise_changes_values():
    snap = make_snapshot()
    out = perturb_snapshot(snap, bandwidth_sigma=0.5, rng=0)
    off = ~np.eye(4, dtype=bool)
    assert not np.allclose(out.bandwidth[off], snap.bandwidth[off])
    # latencies untouched
    assert np.array_equal(out.latency, snap.latency)


def test_symmetric_noise():
    snap = make_snapshot()
    out = perturb_snapshot(snap, bandwidth_sigma=0.5, symmetric=True, rng=1)
    assert np.allclose(out.bandwidth, out.bandwidth.T)


def test_asymmetric_noise():
    snap = make_snapshot()
    out = perturb_snapshot(snap, bandwidth_sigma=0.5, symmetric=False, rng=1)
    off = ~np.eye(4, dtype=bool)
    assert not np.allclose(out.bandwidth[off], out.bandwidth.T[off])


def test_degrade_pairs():
    snap = make_snapshot()
    out = perturb_snapshot(snap, degrade_pairs=[(0, 1)], degrade_factor=4.0)
    assert out.bandwidth[0, 1] == pytest.approx(2.5e5)
    assert out.bandwidth[1, 0] == pytest.approx(2.5e5)  # symmetric
    assert out.bandwidth[0, 2] == pytest.approx(1e6)


def test_degrade_one_way():
    snap = make_snapshot()
    out = perturb_snapshot(
        snap, degrade_pairs=[(0, 1)], degrade_factor=4.0, symmetric=False
    )
    assert out.bandwidth[0, 1] == pytest.approx(2.5e5)
    assert out.bandwidth[1, 0] == pytest.approx(1e6)


def test_degrade_diagonal_raises():
    with pytest.raises(ValueError):
        perturb_snapshot(make_snapshot(), degrade_pairs=[(1, 1)])


def test_degrade_factor_below_one_raises():
    with pytest.raises(ValueError):
        perturb_snapshot(make_snapshot(), degrade_factor=0.5)


def test_time_delta():
    out = perturb_snapshot(make_snapshot(), time_delta=30.0)
    assert out.time == pytest.approx(30.0)


def test_diagonal_stays_clean():
    out = perturb_snapshot(
        make_snapshot(), bandwidth_sigma=1.0, latency_sigma=1.0, rng=2
    )
    assert np.all(np.diag(out.latency) == 0.0)
    assert np.all(np.isinf(np.diag(out.bandwidth)))


def test_deterministic_by_seed():
    snap = make_snapshot()
    a = perturb_snapshot(snap, bandwidth_sigma=0.3, rng=7)
    b = perturb_snapshot(snap, bandwidth_sigma=0.3, rng=7)
    assert np.array_equal(a.bandwidth, b.bandwidth)


def test_an_unperturbed_matrix_is_shared_not_copied():
    snap = make_snapshot()
    out = perturb_snapshot(snap, bandwidth_sigma=0.3, rng=3)
    assert out.latency is snap.latency
    assert out.bandwidth is not snap.bandwidth
    assert not out.bandwidth.flags.writeable
    same = perturb_snapshot(snap, time_delta=1.0)
    assert same.latency is snap.latency and same.bandwidth is snap.bandwidth


@pytest.mark.parametrize("diagonal", [0.5, -0.0])
def test_an_unperturbed_latency_gets_a_clean_diagonal(diagonal):
    latency = np.full((4, 4), 0.02)
    np.fill_diagonal(latency, diagonal)
    snap = DirectorySnapshot(latency=latency, bandwidth=np.full((4, 4), 1e6))
    out = perturb_snapshot(snap, bandwidth_sigma=0.3, rng=3)
    assert out.latency is not snap.latency
    assert not np.signbit(np.diag(out.latency)).any()
    assert np.all(np.diag(out.latency) == 0.0)
    off = ~np.eye(4, dtype=bool)
    assert np.array_equal(out.latency[off], snap.latency[off])
    assert not out.latency.flags.writeable
    assert snap.latency[0, 0] == diagonal  # the input is untouched


def test_degrading_copies_a_shared_bandwidth():
    snap = make_snapshot()
    perturb_snapshot(snap, degrade_pairs=[(0, 1)], degrade_factor=4.0)
    assert snap.bandwidth[0, 1] == 1e6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_built_matrices_are_checked_like_the_constructor_checks():
    # exp of a huge draw underflows a bandwidth to 0 ...
    with pytest.raises(ValueError, match="bandwidths must be positive"):
        perturb_snapshot(make_snapshot(8), bandwidth_sigma=1e4, rng=0)
    # ... and overflows to inf, which times a zero latency is NaN
    snap = DirectorySnapshot(
        latency=np.zeros((8, 8)), bandwidth=np.full((8, 8), 1e6)
    )
    with pytest.raises(ValueError, match="latencies must be non-negative"):
        perturb_snapshot(snap, latency_sigma=1e4, rng=0)


def test_symmetric_noise_is_the_mirrored_upper_triangle():
    # the mirror indices are cached per size; two sizes in turn
    for n in (5, 3, 5):
        snap = make_snapshot(n)
        out = perturb_snapshot(snap, bandwidth_sigma=0.5, rng=n)
        factors = np.exp(np.random.default_rng(n).normal(0.0, 0.5, (n, n)))
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        expected = np.where(upper, factors, factors.T)
        np.fill_diagonal(expected, 1.0)
        assert np.array_equal(out.bandwidth, snap.bandwidth * expected)
