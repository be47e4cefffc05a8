"""The scheduler daemon: many tenants, one event loop, one socket.

:class:`SchedulerDaemon` multiplexes every tenant's
:class:`~repro.runtime.session.AdaptiveSession` over a line-delimited
JSON protocol (:mod:`repro.serve.protocol`) on a unix socket (TCP
optional).  The loop is deliberately single-threaded: scheduling work
is CPU-bound and shares the cache shards, so a second thread would buy
contention, not throughput — concurrency comes from the bounded queue
and batching instead.

Load-shedding story, in order:

1. **Admission control.**  ``schedule`` requests enter a bounded queue;
   when it is full the daemon answers ``error/saturated`` with a
   ``retry_after_s`` hint instead of queueing unboundedly.  Control
   requests (hello/stats/drain/...) bypass the queue.
2. **Backpressure signalling.**  Every ``scheduled`` response carries
   the queue depth and a ``backpressure`` flag once the queue crosses
   the high watermark, so well-behaved clients slow down *before*
   hitting admission control.
3. **Cross-tenant batching.**  Queued requests are drained in batches
   and grouped by planning-problem digest: tenants in the same cohort
   (same specs, same seed, same clock) need the same schedule, so one
   leader computes it and donates it to every follower's cache shard —
   N scheduler invocations become 1 + (N-1) cache hits.

Drain/restart: ``drain`` stops admission, flushes the queue, then
snapshots every tenant (:mod:`repro.serve.state`) to a JSON state file;
a new daemon started with ``resume_from`` rebuilds each tenant and
continues its session bit-identically (decisions, makespans, digests —
the cache is recomputed, not restored).
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass
from threading import Event
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.ops.backup import BackupManager
from repro.ops.sink import MetricsSink, MultiSink, StoreSink
from repro.ops.store import MetricsStore
from repro.runtime.metrics import RuntimeMetrics
from repro.serve import protocol
from repro.serve.protocol import (
    DrainRequest,
    DrainResponse,
    ErrorResponse,
    HelloRequest,
    HelloResponse,
    OpenRequest,
    OpenResponse,
    ProtocolError,
    ScheduleRequest,
    ScheduleResponse,
    ShutdownRequest,
    ShutdownResponse,
    SnapshotRequest,
    SnapshotResponse,
    StatsRequest,
    StatsResponse,
    encode_message,
)
from repro.serve.tenants import ShardedScheduleCache, TenantProfile, TenantState

#: Format tag of the daemon's drain/snapshot state file.
DAEMON_STATE_FORMAT = "repro/daemon-state"


@dataclass
class DaemonConfig:
    """Tuning knobs for one daemon instance."""

    #: Unix socket path.  Empty + ``port`` set -> TCP instead.
    socket_path: str = ""
    #: TCP bind host (used only when ``socket_path`` is empty).
    host: str = "127.0.0.1"
    #: TCP port (0 = ephemeral; read the bound port off ``address``).
    port: int = 0
    #: Bounded request-queue capacity (admission control beyond this).
    max_queue: int = 256
    #: Queue fill fraction above which responses flag backpressure.
    high_watermark: float = 0.75
    #: Backoff hint attached to saturated/draining rejections.
    retry_after_s: float = 0.05
    #: Max schedule requests drained per batching round.
    batch_max: int = 64
    #: Cache shards (tenants hash onto these).
    cache_shards: int = 8
    #: LRU capacity of each shard.
    cache_maxsize_per_shard: int = 256
    #: Default drain/snapshot target.
    state_file: str = ""
    #: Resume source: a state file written by a previous drain.
    resume_from: str = ""
    #: Selector poll timeout.
    poll_interval_s: float = 0.05
    #: Ops directory: when set, the daemon persists its publish stream
    #: into a rotating JSONL store at ``<ops_dir>/store`` and writes a
    #: verified state backup to ``<ops_dir>/backups`` on every
    #: snapshot/drain.
    ops_dir: str = ""
    #: How many state backups ``<ops_dir>/backups`` retains.
    backup_retention: int = 5


class _Connection:
    """Per-client buffers."""

    __slots__ = ("sock", "inbuf", "outbuf", "closing")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.closing = False


class SchedulerDaemon:
    """A long-running multi-tenant scheduling service."""

    #: Counter names the daemon maintains (all present even when zero).
    COUNTER_NAMES = (
        "accepted",
        "served",
        "rejected_saturated",
        "rejected_draining",
        "protocol_errors",
        "internal_errors",
        "batched",
        "opened",
        "restored",
    )

    def __init__(
        self,
        config: Optional[DaemonConfig] = None,
        *,
        sink: Optional[MetricsSink] = None,
    ):
        self.config = config if config is not None else DaemonConfig()
        self.cache = ShardedScheduleCache(
            self.config.cache_shards,
            maxsize_per_shard=self.config.cache_maxsize_per_shard,
        )
        self.tenants: Dict[str, TenantState] = {}
        self._queue: Deque[Tuple[_Connection, ScheduleRequest]] = deque()
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._stop = False
        self.draining = False
        self.ready = Event()
        self.address: Any = None
        self._started_at = time.monotonic()
        # All daemon observability flows through MetricsSink: counters
        # and the decision-latency histogram aggregate in-memory in
        # ``self.metrics``; per-response/rejection records additionally
        # fan out to the caller's sink and — under ``--ops-dir`` — to
        # the rotating JSONL store.
        self.metrics = RuntimeMetrics()
        self.decision_latency = self.metrics.histogram(
            "decision_latency_s", keep=4096
        )
        self.store: Optional[MetricsStore] = None
        self.backups: Optional[BackupManager] = None
        external: list = []
        if sink is not None:
            external.append(sink)
        if self.config.ops_dir:
            ops_root = os.path.join(self.config.ops_dir, "store")
            self.store = MetricsStore(ops_root)
            external.append(
                StoreSink(self.store, source="daemon", kind="daemon.event")
            )
            self.backups = BackupManager(
                os.path.join(self.config.ops_dir, "backups"),
                retention=self.config.backup_retention,
            )
        self._emit_sink: Optional[MetricsSink] = (
            MultiSink(external) if external else None
        )
        self._counter_sink: MetricsSink = MultiSink([self.metrics] + external)
        for name in self.COUNTER_NAMES:
            self._counter_sink.counter(name)
        if self.config.resume_from:
            self._resume(self.config.resume_from)

    # -- metrics plumbing ---------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        """Counter values as one plain dict (reads only — increments go
        through the sink)."""
        return {
            name: self.metrics.counter(name).value
            for name in self.COUNTER_NAMES
        }

    def _count(self, name: str, amount: int = 1) -> None:
        self._counter_sink.counter(name).inc(amount)

    def _emit(self, record: Dict[str, Any]) -> None:
        if self._emit_sink is not None:
            record.setdefault("ts", time.time())
            self._emit_sink.emit(record)

    # -- lifecycle ----------------------------------------------------------

    def bind(self) -> Any:
        """Create the listening socket; returns the bound address."""
        if self._listener is not None:
            return self.address
        if self.config.socket_path:
            path = self.config.socket_path
            if os.path.exists(path):
                os.unlink(path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            self.address = path
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.config.host, self.config.port))
            self.address = listener.getsockname()
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, None)
        self.ready.set()
        return self.address

    def request_stop(self) -> None:
        """Ask the event loop to exit after the current round."""
        self._stop = True

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`request_stop` or ``shutdown``."""
        self.bind()
        assert self._selector is not None
        try:
            while not self._stop:
                events = self._selector.select(self.config.poll_interval_s)
                for key, _mask in events:
                    if key.data is None:
                        self._accept()
                    else:
                        self._service(key.data)
                self._process_queue()
        finally:
            self._shutdown_sockets()

    def _shutdown_sockets(self) -> None:
        if self._selector is not None:
            for key in list(self._selector.get_map().values()):
                conn = key.data
                try:
                    self._selector.unregister(key.fileobj)
                except (KeyError, ValueError):
                    pass
                if conn is not None:
                    conn.sock.close()
            self._selector.close()
            self._selector = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self.config.socket_path and os.path.exists(self.config.socket_path):
            os.unlink(self.config.socket_path)
        if self._emit_sink is not None:
            self._emit_sink.flush()
        if self.store is not None:
            self.store.close()
        self.ready.clear()

    # -- socket plumbing ----------------------------------------------------

    def _accept(self) -> None:
        assert self._listener is not None and self._selector is not None
        try:
            sock, _addr = self._listener.accept()
        except BlockingIOError:
            return
        sock.setblocking(False)
        conn = _Connection(sock)
        self._selector.register(
            sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn
        )

    def _close(self, conn: _Connection) -> None:
        assert self._selector is not None
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()
        # Drop queued work from a vanished client.
        self._queue = deque(
            item for item in self._queue if item[0] is not conn
        )

    def _service(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(65536)
        except BlockingIOError:
            chunk = None
        except OSError:
            self._close(conn)
            return
        if chunk == b"":
            self._close(conn)
            return
        if chunk:
            conn.inbuf.extend(chunk)
            if (
                len(conn.inbuf) > protocol.MAX_FRAME_BYTES
                and b"\n" not in conn.inbuf
            ):
                self._send(
                    conn,
                    ErrorResponse(
                        "malformed",
                        f"frame exceeds {protocol.MAX_FRAME_BYTES} bytes "
                        f"without a newline",
                    ),
                )
                conn.closing = True
                conn.inbuf.clear()
            while True:
                newline = conn.inbuf.find(b"\n")
                if newline < 0:
                    break
                line = bytes(conn.inbuf[:newline])
                del conn.inbuf[: newline + 1]
                if line.strip():
                    self._handle_line(conn, line)
        self._flush(conn)

    def _send(self, conn: _Connection, message: Any) -> None:
        conn.outbuf.extend(encode_message(message))

    def _flush(self, conn: _Connection) -> None:
        if not conn.outbuf:
            if conn.closing:
                self._close(conn)
            return
        try:
            sent = conn.sock.send(bytes(conn.outbuf))
            del conn.outbuf[:sent]
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        if conn.closing and not conn.outbuf:
            self._close(conn)

    # -- request handling ---------------------------------------------------

    def _handle_line(self, conn: _Connection, line: bytes) -> None:
        try:
            request = protocol.decode_request(line)
        except ProtocolError as exc:
            self._count("protocol_errors")
            self._send(conn, ErrorResponse(exc.code, str(exc)))
            return
        if isinstance(request, ScheduleRequest):
            self._admit(conn, request)
            return
        try:
            response = self._handle_control(request)
        except Exception as exc:  # noqa: BLE001 — serving must not die
            self._count("internal_errors")
            response = ErrorResponse(
                "internal", f"{type(exc).__name__}: {exc}"
            )
        self._send(conn, response)
        if isinstance(request, ShutdownRequest):
            conn.closing = True
            self._stop = True

    def _reject(self, conn: _Connection, code: str, message: str) -> None:
        """Admission rejection: counted, emitted, and always carrying a
        ``retry_after_s`` backoff hint."""
        self._count(f"rejected_{code}")
        self._emit({"kind": "daemon.reject", "code": code})
        self._send(
            conn,
            ErrorResponse(
                code, message, retry_after_s=self.config.retry_after_s
            ),
        )

    def _admit(self, conn: _Connection, request: ScheduleRequest) -> None:
        if self.draining:
            self._reject(
                conn,
                "draining",
                "daemon is draining; retry against the restarted instance",
            )
            return
        if len(self._queue) >= self.config.max_queue:
            self._reject(
                conn,
                "saturated",
                f"request queue full ({self.config.max_queue})",
            )
            return
        if request.tenant not in self.tenants:
            self._send(
                conn,
                ErrorResponse(
                    "unknown_tenant",
                    f"tenant {request.tenant!r} has no open session; "
                    f"send an 'open' request first",
                ),
            )
            return
        self._count("accepted")
        self._queue.append((conn, request))

    def _handle_control(self, request: Any) -> Any:
        if isinstance(request, HelloRequest):
            return HelloResponse(
                tenants=len(self.tenants),
                uptime_s=time.monotonic() - self._started_at,
                draining=self.draining,
            )
        if isinstance(request, OpenRequest):
            return self._open(request)
        if isinstance(request, StatsRequest):
            return StatsResponse(stats=self.stats())
        if isinstance(request, SnapshotRequest):
            path = request.path or self.config.state_file
            count = self._write_state(path)
            return SnapshotResponse(tenants=count, path=path)
        if isinstance(request, DrainRequest):
            self.draining = True
            flushed = len(self._queue)
            self._process_queue(flush_all=True)
            path = request.path or self.config.state_file
            count = self._write_state(path)
            return DrainResponse(tenants=count, path=path, flushed=flushed)
        if isinstance(request, ShutdownRequest):
            return ShutdownResponse(served=self.counters["served"])
        raise TypeError(f"unhandled request {type(request).__name__}")

    def _open(self, request: OpenRequest) -> Any:
        if self.draining:
            # A tenant opened after the drain snapshot would be silently
            # lost across the restart; reject it with the same backoff
            # hint every other admission rejection carries.
            self._count("rejected_draining")
            self._emit({"kind": "daemon.reject", "code": "draining"})
            return ErrorResponse(
                "draining",
                "daemon is draining; a tenant opened now would miss the "
                "state snapshot — open against the restarted instance",
                retry_after_s=self.config.retry_after_s,
            )
        existing = self.tenants.get(request.tenant)
        if existing is not None:
            return OpenResponse(
                tenant=request.tenant,
                procs=existing.profile.procs,
                tick=existing.session.tick_index,
                restored=existing.restored,
            )
        profile = TenantProfile(
            tenant=request.tenant,
            procs=request.procs,
            scheduler=request.scheduler,
            directory=request.directory,
            workload=request.workload,
            seed=request.seed,
            policy=dict(request.policy),
        )
        try:
            state = TenantState(
                profile, cache=self.cache.shard_for(request.tenant)
            )
        except (KeyError, ValueError, TypeError) as exc:
            return ErrorResponse(
                "malformed", f"cannot open tenant: {exc}"
            )
        self.tenants[request.tenant] = state
        self._count("opened")
        return OpenResponse(
            tenant=request.tenant, procs=state.directory.num_procs
        )

    # -- batched scheduling -------------------------------------------------

    def _process_queue(self, flush_all: bool = False) -> None:
        while self._queue:
            batch: List[Tuple[_Connection, ScheduleRequest]] = []
            while self._queue and len(batch) < self.config.batch_max:
                batch.append(self._queue.popleft())
            self._run_batch(batch)
            if not flush_all:
                break

    def _run_batch(
        self, batch: List[Tuple[_Connection, ScheduleRequest]]
    ) -> None:
        # Phase 1: advance every tenant's clock, probe the planning
        # problem where that is safe, and group by digest.
        groups: Dict[str, List[Tuple[_Connection, ScheduleRequest, Any]]] = {}
        singles: List[Tuple[_Connection, ScheduleRequest]] = []
        advanced: set = set()
        for conn, request in batch:
            state = self.tenants.get(request.tenant)
            if state is None:
                self._send(
                    conn,
                    ErrorResponse(
                        "unknown_tenant",
                        f"tenant {request.tenant!r} has no open session",
                    ),
                )
                continue
            if not state.batchable:
                singles.append((conn, request))
                continue
            # One tenant may appear twice in a batch; advance once per
            # queue entry, in order, exactly as sequential ticks would.
            if request.dt and request.tenant in advanced:
                # Second tick of the same tenant in one batch: run it
                # unbatched to keep per-tenant ordering trivially right.
                singles.append((conn, request))
                continue
            advanced.add(request.tenant)
            if request.dt:
                state.directory.advance(request.dt)
            problem = state.planning_problem()
            digest = state.planning_digest(problem)
            key = f"{digest}:{state.session.scheduler_name}"
            groups.setdefault(key, []).append((conn, request, problem))
        for members in groups.values():
            self._run_group(members)
        for conn, request in singles:
            self._respond_tick(
                conn, request, dt=request.dt, batched=False
            )

    def _run_group(
        self, members: List[Tuple[_Connection, ScheduleRequest, Any]]
    ) -> None:
        """Tick a same-digest cohort: leader computes, followers hit."""
        leader_conn, leader_req, leader_problem = members[0]
        batched = len(members) > 1
        self._respond_tick(leader_conn, leader_req, dt=0.0, batched=batched)
        plan = None
        if batched:
            leader_state = self.tenants[leader_req.tenant]
            plan = leader_state.peek_plan(leader_problem)
        for conn, request, problem in members[1:]:
            state = self.tenants[request.tenant]
            if plan is not None:
                state.seed_plan(problem, plan)
                self._count("batched")
            self._respond_tick(conn, request, dt=0.0, batched=True)

    def _respond_tick(
        self,
        conn: _Connection,
        request: ScheduleRequest,
        *,
        dt: float,
        batched: bool,
    ) -> None:
        state = self.tenants[request.tenant]
        started = time.monotonic()
        try:
            result = state.session.tick(dt=dt)
        except Exception as exc:  # noqa: BLE001 — serving must not die
            self._count("internal_errors")
            self._send(
                conn,
                ErrorResponse("internal", f"{type(exc).__name__}: {exc}"),
            )
            self._flush(conn)
            return
        latency = time.monotonic() - started
        self.metrics.observe("decision_latency_s", latency)
        state.requests_served += 1
        self._count("served")
        event = result.event
        depth = len(self._queue)
        backpressure = (
            depth >= self.config.high_watermark * self.config.max_queue
        )
        self._send(
            conn,
            ScheduleResponse(
                tenant=request.tenant,
                tick=event.tick,
                decision=event.decision,
                predicted_s=event.predicted_makespan,
                executed_s=event.executed_makespan,
                regret_s=event.regret,
                cache_hit=event.cache_hit,
                fallback=event.fallback,
                batched=batched,
                decision_latency_s=latency,
                queue_depth=depth,
                backpressure=backpressure,
            ),
        )
        self._emit(
            {
                "kind": "daemon.response",
                "tenant": request.tenant,
                "tick": event.tick,
                "decision": event.decision,
                "fallback": event.fallback,
                "cache_hit": event.cache_hit,
                "batched": batched,
                "decision_latency_s": latency,
                "queue_depth": depth,
                "backpressure": backpressure,
            }
        )
        self._flush(conn)

    # -- state file ---------------------------------------------------------

    def state_payload(self) -> Dict[str, Any]:
        """The daemon's full resumable state as one JSON document (the
        same shape ``resume_from`` consumes and backups verify)."""
        return {
            "format": DAEMON_STATE_FORMAT,
            "version": 1,
            "tenants": [
                state.snapshot() for state in self.tenants.values()
            ],
        }

    def _write_state(self, path: str) -> int:
        if not path:
            raise ValueError(
                "no snapshot path: pass one in the request or set "
                "DaemonConfig.state_file"
            )
        payload = self.state_payload()
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
        if self.backups is not None:
            self.backups.write(payload)
        return len(self.tenants)

    def _resume(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("format") != DAEMON_STATE_FORMAT:
            raise ValueError(
                f"{path}: not a daemon state file "
                f"(format={payload.get('format')!r})"
            )
        for entry in payload.get("tenants", []):
            tenant = str(entry["profile"]["tenant"])
            self.tenants[tenant] = TenantState.restore(
                entry, cache=self.cache.shard_for(tenant)
            )
            self._count("restored")

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        latency = {
            "count": self.decision_latency.count,
            "p50_s": self.decision_latency.percentile(50.0),
            "p99_s": self.decision_latency.percentile(99.0),
            "max_s": self.decision_latency.max or 0.0,
        }
        stats = {
            "tenants": len(self.tenants),
            "queue_depth": len(self._queue),
            "max_queue": self.config.max_queue,
            "draining": self.draining,
            "uptime_s": time.monotonic() - self._started_at,
            "counters": dict(self.counters),
            "cache": self.cache.stats(),
            "decision_latency": latency,
        }
        if self.store is not None:
            stats["ops"] = {
                "store": self.store.stats(),
                "backups": (
                    [str(p) for p in self.backups.paths()]
                    if self.backups is not None
                    else []
                ),
            }
        return stats
