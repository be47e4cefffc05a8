"""End-to-end daemon tests: admission control, backpressure, batching,
drain/restart resume, and crash-resistance against hostile frames.

Most tests run a real :class:`SchedulerDaemon` event loop in a thread
against a unix socket in ``tmp_path`` and speak the actual wire
protocol through :class:`DaemonClient`; the cohort-batching tests feed
``_run_batch`` directly, so each batch is exactly the one they build.
"""

import json
import threading

import pytest

from repro.serve import (
    DaemonClient,
    DaemonConfig,
    SchedulerDaemon,
)
from repro.serve.daemon import _Connection
from repro.serve.protocol import (
    DrainRequest,
    ErrorResponse,
    OpenRequest,
    OpenResponse,
    ScheduleRequest,
    ScheduleResponse,
    decode_response,
    encode_message,
)
from repro.serve.tenants import TenantProfile, TenantState
from repro.timing.validate import check_schedule


def start_daemon(tmp_path, **overrides):
    sock = str(tmp_path / "daemon.sock")
    config = DaemonConfig(socket_path=sock, **overrides)
    daemon = SchedulerDaemon(config)
    daemon.bind()
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    return daemon, thread, sock


def stop_daemon(daemon, thread):
    daemon.request_stop()
    thread.join(timeout=10)
    assert not thread.is_alive()


# -- basic flow -------------------------------------------------------------


def test_hello_open_schedule(tmp_path):
    daemon, thread, sock = start_daemon(tmp_path)
    try:
        with DaemonClient(sock) as client:
            hello = client.hello()
            assert hello.tenants == 0 and not hello.draining
            opened = client.open("alpha", procs=5, seed=3)
            assert opened.tenant == "alpha"
            assert opened.procs == 5
            assert opened.tick == 0 and not opened.restored
            first = client.schedule("alpha")
            assert isinstance(first, ScheduleResponse)
            assert first.tick == 0
            assert first.decision in (
                "reuse", "refine", "repair", "reschedule"
            )
            assert first.executed_s > 0
            second = client.schedule("alpha")
            assert second.tick == 1
            assert client.hello().tenants == 1
    finally:
        stop_daemon(daemon, thread)
    assert daemon.counters["served"] == 2


def test_open_is_idempotent(tmp_path):
    daemon, thread, sock = start_daemon(tmp_path)
    try:
        with DaemonClient(sock) as client:
            client.open("alpha", procs=5)
            client.schedule("alpha")
            reopened = client.open("alpha", procs=5)
            assert reopened.tick == 1
            assert daemon.counters["opened"] == 1
    finally:
        stop_daemon(daemon, thread)


def test_open_bad_spec_is_clean_error(tmp_path):
    daemon, thread, sock = start_daemon(tmp_path)
    try:
        with DaemonClient(sock) as client:
            with pytest.raises(RuntimeError, match="malformed"):
                client.open("alpha", scheduler="frobnicator")
            with pytest.raises(RuntimeError, match="malformed"):
                client.open("beta", directory="drift:sigma=huh")
            # the daemon is still serving and neither tenant leaked in
            assert client.hello().tenants == 0
    finally:
        stop_daemon(daemon, thread)


def test_unknown_tenant(tmp_path):
    daemon, thread, sock = start_daemon(tmp_path)
    try:
        with DaemonClient(sock) as client:
            response = client.schedule("ghost")
            assert isinstance(response, ErrorResponse)
            assert response.code == "unknown_tenant"
            assert response.retry_after_s is None
    finally:
        stop_daemon(daemon, thread)


# -- admission control and backpressure -------------------------------------


def test_saturated_rejection_carries_retry_after(tmp_path):
    daemon, thread, sock = start_daemon(tmp_path, max_queue=1)
    burst = 32
    try:
        with DaemonClient(sock) as client:
            client.open("alpha", procs=4)
            for _ in range(burst):
                client.send(ScheduleRequest(tenant="alpha"))
            responses = [client.recv() for _ in range(burst)]
    finally:
        stop_daemon(daemon, thread)
    rejected = [r for r in responses if isinstance(r, ErrorResponse)]
    served = [r for r in responses if isinstance(r, ScheduleResponse)]
    assert rejected, "a 1-deep queue must shed most of a 32-burst"
    assert len(served) + len(rejected) == burst
    for error in rejected:
        assert error.code == "saturated"
        assert error.retry_after_s is not None and error.retry_after_s > 0
    assert daemon.counters["rejected_saturated"] == len(rejected)
    assert daemon.counters["accepted"] == daemon.counters["served"]


def test_backpressure_flag_past_high_watermark(tmp_path):
    # batch_max=2 keeps later requests sitting in the queue while the
    # early ones are answered, so those responses see a real depth
    daemon, thread, sock = start_daemon(
        tmp_path, max_queue=64, high_watermark=0.05, batch_max=2
    )
    burst = 16
    try:
        with DaemonClient(sock) as client:
            client.open("alpha", procs=4)
            for _ in range(burst):
                client.send(ScheduleRequest(tenant="alpha"))
            responses = [client.recv() for _ in range(burst)]
    finally:
        stop_daemon(daemon, thread)
    assert all(isinstance(r, ScheduleResponse) for r in responses)
    # the early responses see the rest of the burst still queued
    assert any(r.queue_depth > 0 for r in responses)
    assert any(r.backpressure for r in responses)
    # depth drains monotonically within one pipelined burst
    assert responses[-1].queue_depth == 0


def test_draining_rejects_with_retry_after(tmp_path):
    state_file = str(tmp_path / "state.json")
    daemon, thread, sock = start_daemon(tmp_path)
    try:
        with DaemonClient(sock) as client:
            client.open("alpha", procs=4)
            client.schedule("alpha")
            drained = client.drain(state_file)
            assert drained.tenants == 1
            response = client.schedule("alpha")
            assert isinstance(response, ErrorResponse)
            assert response.code == "draining"
            assert response.retry_after_s is not None
            assert client.hello().draining
    finally:
        stop_daemon(daemon, thread)
    assert daemon.counters["rejected_draining"] == 1
    assert daemon.counters["accepted"] == daemon.counters["served"]


def test_snapshot_keeps_serving(tmp_path):
    state_file = str(tmp_path / "snap.json")
    daemon, thread, sock = start_daemon(tmp_path)
    try:
        with DaemonClient(sock) as client:
            client.open("alpha", procs=4)
            client.schedule("alpha")
            snap = client.snapshot(state_file)
            assert snap.tenants == 1 and snap.path == state_file
            # unlike drain, snapshot leaves admission open
            assert isinstance(client.schedule("alpha"), ScheduleResponse)
            assert not client.hello().draining
    finally:
        stop_daemon(daemon, thread)
    payload = json.loads((tmp_path / "snap.json").read_text())
    assert payload["format"] == "repro/daemon-state"
    assert len(payload["tenants"]) == 1


# -- cross-tenant batching --------------------------------------------------


def test_same_cohort_requests_batch(tmp_path):
    daemon, thread, sock = start_daemon(tmp_path)
    cohort = ["a", "b", "c", "d"]
    try:
        with DaemonClient(sock) as client:
            for tenant in cohort:
                client.open(tenant, procs=6, seed=42)
            # one write, so the daemon reads the whole burst in one
            # select round and queues it together
            client._sock.sendall(b"".join(
                encode_message(ScheduleRequest(tenant=tenant))
                for tenant in cohort
            ))
            responses = [client.recv() for _ in cohort]
    finally:
        stop_daemon(daemon, thread)
    assert all(isinstance(r, ScheduleResponse) for r in responses)
    # same specs + same seed + same clock => one planning digest: the
    # whole burst runs as one group and says so
    assert all(r.batched for r in responses)
    assert daemon.counters["batched"] >= len(cohort) - 1
    # and batching must not change the answer: identical decisions
    assert len({r.decision for r in responses}) == 1
    assert len({r.predicted_s for r in responses}) == 1
    assert len({r.executed_s for r in responses}) == 1


def test_batched_equals_unbatched(tmp_path):
    """The batched cohort's responses are bit-identical to a lone
    control session ticked the ordinary way."""
    daemon, thread, sock = start_daemon(tmp_path)
    try:
        with DaemonClient(sock) as client:
            for tenant in ("a", "b", "c"):
                client.open(tenant, procs=6, seed=7)
            ticks = 3
            per_tick = []
            for _ in range(ticks):
                for tenant in ("a", "b", "c"):
                    client.send(ScheduleRequest(tenant=tenant))
                per_tick.append([client.recv() for _ in range(3)])
    finally:
        stop_daemon(daemon, thread)
    control = TenantState(TenantProfile(tenant="control", procs=6, seed=7))
    for tick, responses in enumerate(per_tick):
        result = control.session.tick(dt=1.0)
        check_schedule(result.schedule, require_coverage=False)
        for response in responses:
            assert response.tick == tick
            assert response.decision == result.event.decision
            assert response.predicted_s == result.event.predicted_makespan
            assert response.executed_s == result.event.executed_makespan


class _RecordingSocket:
    """Takes every byte the daemon flushes."""

    def __init__(self):
        self.data = bytearray()

    def send(self, data):
        self.data.extend(data)
        return len(data)


#: Four tenant ids that a per-tenant hash spreads over four shards.
COHORT = ["a", "b", "c", "d"]


def _in_process_daemon(tenants, **profile):
    """A daemon with ``tenants`` opened on one profile, driven without a
    socket."""
    daemon = SchedulerDaemon(DaemonConfig())
    for tenant in tenants:
        opened = daemon._open(OpenRequest(tenant=tenant, **profile))
        assert isinstance(opened, OpenResponse), opened
    return daemon


def _run_batches(daemon, batches):
    """Serve each list of tenant ids as one ``_run_batch``; returns the
    decoded responses in order."""
    sock = _RecordingSocket()
    conn = _Connection(sock)
    for tenants in batches:
        daemon._run_batch(
            [(conn, ScheduleRequest(tenant=tenant)) for tenant in tenants]
        )
    return [decode_response(line) for line in sock.data.splitlines()]


def _serve_cohort_three_rounds():
    daemon = _in_process_daemon(COHORT, procs=6, seed=42)
    responses = _run_batches(daemon, [COHORT] * 3)
    assert [r.decision for r in responses] == (
        ["reschedule"] * 4 + ["reuse"] * 8
    )
    assert all(r.batched for r in responses)
    # the leader's cold reschedule misses and its followers hit its
    # plan in the cohort's shard; the reuse rounds look nothing up
    cache = daemon.stats()["cache"]
    assert (cache["hits"], cache["misses"]) == (3, 1)


def test_cache_stats_count_only_the_ticks_lookups():
    """The cache statistics are the sessions' own lookups: batching a
    cohort reads no plan on the side."""
    _serve_cohort_three_rounds()


def test_batching_never_probes_the_planning_problem(monkeypatch):
    """Grouping reads profiles and clocks only: with the planning probe
    gone, the cohort still batches and hits the same way."""

    def probe(*_args):
        raise AssertionError("the daemon built a planning problem")

    monkeypatch.setattr(TenantState, "planning_problem", probe)
    monkeypatch.setattr(TenantState, "planning_digest", probe)
    _serve_cohort_three_rounds()


def test_a_cohort_shares_one_cache_shard():
    daemon = _in_process_daemon(COHORT, procs=6, seed=42)
    daemon._open(OpenRequest(tenant="e", procs=6, seed=43))
    cohort = daemon.tenants["a"].profile.cohort
    shard = daemon.cache.shard_for(cohort)
    assert all(daemon.tenants[t].session.cache is shard for t in COHORT)
    assert daemon.tenants["e"].profile.cohort != cohort


def test_cohort_split_across_batches_shares_its_plan():
    daemon = _in_process_daemon(COHORT, procs=6, seed=42)
    responses = _run_batches(daemon, [COHORT[:2], COHORT[2:]])
    assert [r.decision for r in responses] == ["reschedule"] * 4
    # the second batch's leader finds the first batch's plan
    assert [r.cache_hit for r in responses] == [False, True, True, True]
    assert [r.batched for r in responses] == [True] * 4
    assert daemon.counters["batched"] == 2


@pytest.mark.parametrize("directory", ["static", "drift:ticks=2"])
def test_batched_counts_followers_answered_from_the_cache(directory):
    """On a directory that stops changing, the cohort reuses its plan
    after the cold round: only that round's followers count."""
    daemon = _in_process_daemon(
        COHORT, procs=6, seed=42, directory=directory
    )
    responses = _run_batches(daemon, [COHORT] * 4)
    assert all(r.batched for r in responses)
    assert [r.cache_hit for r in responses] == (
        [False] + [True] * 3 + [False] * 12
    )
    assert daemon.counters["batched"] == 3


def test_a_tenants_ticks_keep_their_order_within_a_batch():
    """A tenant's second advancing request runs unbatched, and so does
    its zero-``dt`` request after that: each answer is the tick a lone
    session serves for the same ``dt`` sequence."""
    daemon = _in_process_daemon(["a"], procs=6, seed=42)
    sock = _RecordingSocket()
    conn = _Connection(sock)
    dts = [1.0, 1.0, 0.0]
    daemon._run_batch([(conn, ScheduleRequest("a", dt=dt)) for dt in dts])
    responses = [decode_response(line) for line in sock.data.splitlines()]
    control = TenantState(TenantProfile(tenant="a", procs=6, seed=42))
    for response, dt in zip(responses, dts):
        result = control.session.tick(dt=dt)
        assert response.tick == result.event.tick
        assert response.predicted_s == result.event.predicted_makespan
        assert response.executed_s == result.event.executed_makespan


def test_restored_tenant_rejoins_its_cohort_shard(tmp_path):
    state_file = str(tmp_path / "state.json")
    daemon = _in_process_daemon(["a"], procs=6, seed=42)
    _run_batches(daemon, [["a"]])
    daemon._handle_control(DrainRequest(path=state_file))
    resumed = SchedulerDaemon(DaemonConfig(resume_from=state_file))
    resumed._open(OpenRequest(tenant="b", procs=6, seed=42))
    restored = resumed.tenants["a"]
    assert restored.restored
    shard = resumed.cache.shard_for(restored.profile.cohort)
    assert restored.session.cache is shard
    assert resumed.tenants["b"].session.cache is shard


def test_noisy_tenants_never_batch(tmp_path):
    daemon, thread, sock = start_daemon(tmp_path)
    try:
        with DaemonClient(sock) as client:
            for tenant in ("a", "b"):
                client.open(
                    tenant, procs=4, directory="noisy:sigma=0.1", seed=7
                )
            for tenant in ("a", "b"):
                client.send(ScheduleRequest(tenant=tenant))
            responses = [client.recv() for _ in range(2)]
    finally:
        stop_daemon(daemon, thread)
    assert all(isinstance(r, ScheduleResponse) for r in responses)
    assert not any(r.batched for r in responses)
    assert daemon.counters["batched"] == 0


# -- drain / restart --------------------------------------------------------


def test_drain_restart_is_bit_identical(tmp_path):
    state_file = str(tmp_path / "state.json")
    ticks_before = 4
    daemon1, thread1, sock = start_daemon(tmp_path)
    try:
        with DaemonClient(sock) as client:
            client.open("alpha", procs=6, seed=11)
            before = [
                client.schedule("alpha") for _ in range(ticks_before)
            ]
            drained = client.drain(state_file)
            assert drained.tenants == 1
    finally:
        stop_daemon(daemon1, thread1)
    assert daemon1.counters["accepted"] == daemon1.counters["served"]
    assert all(isinstance(r, ScheduleResponse) for r in before)

    daemon2, thread2, sock = start_daemon(tmp_path, resume_from=state_file)
    assert daemon2.counters["restored"] == 1
    try:
        with DaemonClient(sock) as client:
            reopened = client.open("alpha", procs=6, seed=11)
            assert reopened.restored
            assert reopened.tick == ticks_before
            after = [client.schedule("alpha") for _ in range(3)]
    finally:
        stop_daemon(daemon2, thread2)

    # Control: one uninterrupted session, same profile, same dt stream.
    control = TenantState(TenantProfile(tenant="alpha", procs=6, seed=11))
    for response in before + after:
        result = control.session.tick(dt=1.0)
        check_schedule(result.schedule, require_coverage=False)
        assert response.tick == result.event.tick
        assert response.decision == result.event.decision
        assert response.predicted_s == result.event.predicted_makespan
        assert response.executed_s == result.event.executed_makespan


def test_resume_rejects_foreign_state_file(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="not a daemon state file"):
        SchedulerDaemon(
            DaemonConfig(
                socket_path=str(tmp_path / "d.sock"),
                resume_from=str(bogus),
            )
        )


def test_non_resumable_flavour_fails_snapshot_cleanly(tmp_path):
    state_file = str(tmp_path / "state.json")
    daemon, thread, sock = start_daemon(tmp_path)
    try:
        with DaemonClient(sock) as client:
            client.open("noisy", procs=4, directory="noisy:sigma=0.1")
            with pytest.raises(RuntimeError, match="internal"):
                client.snapshot(state_file)
            # an un-snapshotable tenant must not kill the daemon
            assert client.hello().tenants == 1
    finally:
        stop_daemon(daemon, thread)


# -- hostile input ----------------------------------------------------------


def test_garbage_frames_get_error_responses(tmp_path):
    daemon, thread, sock = start_daemon(tmp_path)
    garbage = [
        b"not json",
        b"{",
        b'{"v":99,"type":"hello"}',
        b'{"v":1,"type":"frobnicate"}',
        b'{"v":1,"type":"schedule"}',
        b'{"v":1,"type":"schedule","tenant":"t","dt":"fast"}',
        b'{"v":1,"type":"open","tenant":"t","procs":true}',
        b'[1,2,3]',
    ]
    try:
        with DaemonClient(sock) as client:
            for line in garbage:
                response = client.send_raw(line)
                assert isinstance(response, ErrorResponse), line
                assert response.code in (
                    "malformed", "version", "unknown_type"
                ), line
            # after all that abuse, normal service continues
            client.open("alpha", procs=4)
            assert isinstance(client.schedule("alpha"), ScheduleResponse)
    finally:
        stop_daemon(daemon, thread)
    assert daemon.counters["protocol_errors"] == len(garbage)


def test_bad_dt_is_malformed_and_service_continues(tmp_path):
    daemon, thread, sock = start_daemon(tmp_path)
    bad = [
        b'{"v":1,"type":"schedule","tenant":"a","dt":-1}',
        b'{"v":1,"type":"schedule","tenant":"a","dt":NaN}',
    ]
    try:
        with DaemonClient(sock) as client:
            client.open("a", procs=4)
            client.open("b", procs=4)
            assert isinstance(client.schedule("a"), ScheduleResponse)
            clock = daemon.tenants["a"].directory.time
            for line in bad:
                response = client.send_raw(line)
                assert isinstance(response, ErrorResponse), line
                assert response.code == "malformed", line
            # the other tenant keeps being served, and the first
            # tenant's clock never moved
            assert isinstance(client.schedule("b"), ScheduleResponse)
            assert daemon.tenants["a"].directory.time == clock
            assert client.schedule("a").tick == 1
    finally:
        stop_daemon(daemon, thread)
    assert daemon.counters["protocol_errors"] == len(bad)


def test_oversized_frame_does_not_kill_daemon(tmp_path):
    daemon, thread, sock = start_daemon(tmp_path)
    from repro.serve.protocol import MAX_FRAME_BYTES

    try:
        client = DaemonClient(sock)
        try:
            client.send_raw(b"x" * (MAX_FRAME_BYTES + 4096))
        except (ConnectionError, BrokenPipeError, OSError):
            pass  # the daemon may slam the door mid-send; that is fine
        finally:
            client.close()
        # the invariant: the daemon survives and serves fresh clients
        with DaemonClient(sock) as fresh:
            assert fresh.hello().tenants == 0
    finally:
        stop_daemon(daemon, thread)


# -- ops wiring: rejection hints, metrics store, backups ---------------------


def test_open_during_drain_rejected_with_retry_after(tmp_path):
    # A tenant opened after the drain snapshot would be silently lost
    # across the restart; the daemon must reject it like any other
    # admission rejection, backoff hint included.
    state_file = str(tmp_path / "state.json")
    daemon, thread, sock = start_daemon(tmp_path)
    try:
        with DaemonClient(sock) as client:
            client.open("alpha", procs=4)
            client.drain(state_file)
            client.send(OpenRequest(tenant="latecomer", procs=4))
            response = client.recv()
            assert isinstance(response, ErrorResponse)
            assert response.code == "draining"
            assert response.retry_after_s is not None
            assert response.retry_after_s > 0
            # ...and the tenant did not leak into the drained state
            assert client.hello().tenants == 1
    finally:
        stop_daemon(daemon, thread)
    assert daemon.counters["rejected_draining"] == 1


def test_every_admission_rejection_carries_retry_after(tmp_path):
    # Saturated and draining rejections both carry the hint; only
    # unknown_tenant (a caller bug, not a capacity signal) omits it.
    daemon, thread, sock = start_daemon(tmp_path, max_queue=1)
    try:
        with DaemonClient(sock) as client:
            client.open("alpha", procs=4)
            for _ in range(16):
                client.send(ScheduleRequest(tenant="alpha"))
            responses = [client.recv() for _ in range(16)]
            rejected = [
                r for r in responses if isinstance(r, ErrorResponse)
            ]
            assert rejected
            assert all(r.retry_after_s is not None for r in rejected)
            client.drain(str(tmp_path / "state.json"))
            drain_reject = client.schedule("alpha")
            assert isinstance(drain_reject, ErrorResponse)
            assert drain_reject.retry_after_s is not None
    finally:
        stop_daemon(daemon, thread)


def test_daemon_counters_property_is_a_snapshot(tmp_path):
    daemon, thread, sock = start_daemon(tmp_path)
    try:
        with DaemonClient(sock) as client:
            client.open("alpha", procs=4)
            client.schedule("alpha")
        counters = daemon.counters
        assert counters["served"] == 1
        # mutating the snapshot must not touch the daemon's metrics
        counters["served"] = 999
        assert daemon.counters["served"] == 1
        assert set(SchedulerDaemon.COUNTER_NAMES) <= set(daemon.counters)
    finally:
        stop_daemon(daemon, thread)


def test_ops_dir_writes_store_and_backup(tmp_path):
    from repro.ops import BackupManager, MetricsStore

    ops_dir = tmp_path / "ops"
    state_file = str(tmp_path / "state.json")
    daemon, thread, sock = start_daemon(tmp_path, ops_dir=str(ops_dir))
    try:
        with DaemonClient(sock) as client:
            client.open("alpha", procs=4)
            for _ in range(3):
                client.schedule("alpha")
            stats = client.stats()
            assert "ops" in stats
            assert stats["ops"]["store"]["records_written"] >= 3
            client.drain(state_file)
    finally:
        stop_daemon(daemon, thread)
    # the drain snapshot also landed as a verified, retained backup
    backups = BackupManager(ops_dir / "backups")
    assert backups.latest() is not None
    verdict = backups.verify()
    assert verdict["bit_identical"] and verdict["tenants"] == 1
    # shutdown sealed the store; every response left a persisted record
    store = MetricsStore(ops_dir / "store")
    responses = list(store.iter_records(kind="daemon.response"))
    assert len(responses) == 3
    assert all("ts" in r and "decision" in r for r in responses)
    counters = [
        r for r in store.iter_records(kind="counters")
    ]
    assert counters and counters[-1]["counters"]["served"] == 3
    store.close()


def test_external_sink_sees_daemon_rejections(tmp_path):
    from repro.ops.sink import MetricsSink

    class Capture(MetricsSink):
        def __init__(self):
            self.records = []

        def emit(self, event):
            self.records.append(dict(event))

    capture = Capture()
    sock = str(tmp_path / "daemon.sock")
    daemon = SchedulerDaemon(
        DaemonConfig(socket_path=sock, max_queue=1), sink=capture
    )
    daemon.bind()
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    try:
        with DaemonClient(sock) as client:
            client.open("alpha", procs=4)
            for _ in range(8):
                client.send(ScheduleRequest(tenant="alpha"))
            for _ in range(8):
                client.recv()
    finally:
        stop_daemon(daemon, thread)
    kinds = {r["kind"] for r in capture.records}
    assert "daemon.response" in kinds
    assert "daemon.reject" in kinds
    assert all("ts" in r for r in capture.records)
