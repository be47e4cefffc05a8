"""Directory service tests (static + snapshots)."""

import numpy as np
import pytest

from repro.directory.service import DirectorySnapshot
from repro.directory.static import StaticDirectory, gusto_directory


def snap_matrices(n=3):
    latency = np.full((n, n), 0.02)
    np.fill_diagonal(latency, 0.0)
    bandwidth = np.full((n, n), 1e6)
    np.fill_diagonal(bandwidth, np.inf)
    return latency, bandwidth


class TestDirectorySnapshot:
    def test_pair_query(self):
        latency, bandwidth = snap_matrices()
        snap = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
        t, b = snap.pair(0, 1)
        assert t == pytest.approx(0.02)
        assert b == pytest.approx(1e6)

    def test_transfer_time_model(self):
        latency, bandwidth = snap_matrices()
        snap = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
        # T + m/B = 0.02 + 1e6/1e6 = 1.02
        assert snap.transfer_time(0, 1, 1e6) == pytest.approx(1.02)

    def test_transfer_time_self_is_free(self):
        latency, bandwidth = snap_matrices()
        snap = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
        assert snap.transfer_time(1, 1, 1e9) == 0.0

    def test_immutable(self):
        latency, bandwidth = snap_matrices()
        snap = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
        with pytest.raises(ValueError):
            snap.latency[0, 1] = 99.0

    def test_source_mutation_does_not_leak(self):
        latency, bandwidth = snap_matrices()
        snap = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
        latency[0, 1] = 123.0
        assert snap.latency[0, 1] == pytest.approx(0.02)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            DirectorySnapshot(latency=np.zeros((2, 3)), bandwidth=np.ones((2, 3)))
        with pytest.raises(ValueError):
            DirectorySnapshot(latency=np.zeros((2, 2)), bandwidth=np.ones((3, 3)))

    def test_rejects_nonpositive_bandwidth(self):
        latency, bandwidth = snap_matrices()
        bandwidth[0, 1] = 0.0
        with pytest.raises(ValueError):
            DirectorySnapshot(latency=latency, bandwidth=bandwidth)

    def test_rejects_nan_bandwidth_keeps_infinite_diagonal(self):
        latency = np.zeros((2, 2))
        with pytest.raises(ValueError, match="bandwidths must be positive"):
            DirectorySnapshot(
                latency=latency, bandwidth=[[np.inf, np.nan], [1e6, np.inf]]
            )
        snap = DirectorySnapshot(
            latency=latency, bandwidth=[[np.inf, 1e6], [1e6, np.inf]]
        )
        assert np.isinf(np.diagonal(snap.bandwidth)).all()

    def test_rejects_negative_latency(self):
        latency, bandwidth = snap_matrices()
        latency[0, 1] = -1.0
        with pytest.raises(ValueError):
            DirectorySnapshot(latency=latency, bandwidth=bandwidth)

    def test_index_validation(self):
        latency, bandwidth = snap_matrices()
        snap = DirectorySnapshot(latency=latency, bandwidth=bandwidth)
        with pytest.raises(ValueError):
            snap.pair(5, 0)


class TestStaticDirectory:
    def test_snapshot_constant_over_time(self):
        latency, bandwidth = snap_matrices()
        directory = StaticDirectory(latency=latency, bandwidth=bandwidth)
        before = directory.snapshot()
        directory.advance(100.0)
        after = directory.snapshot()
        assert np.array_equal(before.latency, after.latency)
        assert after.time == pytest.approx(100.0)

    def test_advance_negative_raises(self):
        latency, bandwidth = snap_matrices()
        directory = StaticDirectory(latency=latency, bandwidth=bandwidth)
        with pytest.raises(ValueError):
            directory.advance(-1.0)

    def test_convenience_queries(self):
        latency, bandwidth = snap_matrices()
        directory = StaticDirectory(latency=latency, bandwidth=bandwidth)
        assert directory.latency(0, 1) == pytest.approx(0.02)
        assert directory.bandwidth(0, 1) == pytest.approx(1e6)
        assert directory.num_procs == 3


def test_gusto_directory():
    directory = gusto_directory()
    assert directory.num_procs == 5
    # AMES -> USC-ISI: 12 ms, 2044 kbit/s
    assert directory.latency(0, 3) == pytest.approx(0.012)
    assert directory.bandwidth(0, 3) == pytest.approx(2044 * 125.0)
