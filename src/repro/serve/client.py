"""Typed sync client and the load generator for the scheduler daemon.

:class:`DaemonClient` is a thin blocking wrapper over one socket: it
frames requests, parses responses into the protocol dataclasses, and
turns admission-control rejections into values (never exceptions) so
callers can implement their own backoff.

:class:`LoadGenerator` is the closed-loop driver CI and the bench use:
``tenants`` simulated clients drawn from a small number of *cohorts*
(same procs/seed/specs), so the daemon's cohort batching has
cross-tenant hits to find, issuing schedule requests as fast as the
daemon answers and honouring every ``retry_after_s`` hint.  Its
:class:`LoadReport` is the contract the acceptance bar checks: requests
per second, latency percentiles, and the guarantee that every rejection
carried a retry hint (``dropped == 0``).
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.serve import protocol
from repro.serve.protocol import (
    DrainResponse,
    ErrorResponse,
    HelloResponse,
    OpenResponse,
    ScheduleResponse,
    SnapshotResponse,
    StatsResponse,
    encode_message,
)
from repro.util.stats import percentile


class DaemonClient:
    """Blocking line-protocol client for one daemon connection.

    ``address`` is a unix-socket path (str) or a ``(host, port)`` tuple.
    """

    def __init__(self, address: Any, *, timeout_s: float = 10.0):
        self.address = address
        if isinstance(address, str):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            address = tuple(address)
        self._sock.settimeout(timeout_s)
        self._sock.connect(address)
        self._buffer = bytearray()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- framing ------------------------------------------------------------

    def _read_line(self) -> bytes:
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                return line
            chunk = self._sock.recv(65536)
            if chunk == b"":
                raise ConnectionError("daemon closed the connection")
            self._buffer.extend(chunk)

    def call(self, request: Any) -> Any:
        """Send one request, return the decoded response dataclass."""
        self._sock.sendall(encode_message(request))
        return protocol.decode_response(self._read_line())

    def send(self, request: Any) -> None:
        """Fire one request without waiting (pipelining); pair with
        :meth:`recv` — responses arrive in request order."""
        self._sock.sendall(encode_message(request))

    def recv(self) -> Any:
        """Read the next pipelined response."""
        return protocol.decode_response(self._read_line())

    def send_raw(self, line: bytes) -> Any:
        """Send a raw frame (fuzzing hook); returns the decoded response."""
        if not line.endswith(b"\n"):
            line += b"\n"
        self._sock.sendall(line)
        return protocol.decode_response(self._read_line())

    # -- typed helpers ------------------------------------------------------

    def hello(self) -> HelloResponse:
        return self._expect(protocol.HelloRequest(), HelloResponse)

    def open(
        self,
        tenant: str,
        *,
        procs: int = 8,
        scheduler: str = "openshop",
        directory: str = "drift:sigma=0.02",
        workload: str = "mixed",
        seed: int = 0,
        policy: Optional[Dict[str, Any]] = None,
    ) -> OpenResponse:
        return self._expect(
            protocol.OpenRequest(
                tenant=tenant,
                procs=procs,
                scheduler=scheduler,
                directory=directory,
                workload=workload,
                seed=seed,
                policy=dict(policy or {}),
            ),
            OpenResponse,
        )

    def schedule(self, tenant: str, *, dt: float = 1.0) -> Any:
        """One scheduling decision.

        Returns a :class:`ScheduleResponse`, or an :class:`ErrorResponse`
        (``saturated``/``draining``/...) — rejections are values here, not
        exceptions, so callers drive their own backoff.
        """
        response = self.call(protocol.ScheduleRequest(tenant=tenant, dt=dt))
        if not isinstance(response, (ScheduleResponse, ErrorResponse)):
            raise ConnectionError(
                f"unexpected response {type(response).__name__}"
            )
        return response

    def stats(self) -> Dict[str, Any]:
        return self._expect(protocol.StatsRequest(), StatsResponse).stats

    def snapshot(self, path: str = "") -> SnapshotResponse:
        return self._expect(
            protocol.SnapshotRequest(path=path), SnapshotResponse
        )

    def drain(self, path: str = "") -> DrainResponse:
        return self._expect(protocol.DrainRequest(path=path), DrainResponse)

    def shutdown(self) -> Any:
        return self.call(protocol.ShutdownRequest())

    def _expect(self, request: Any, cls: type) -> Any:
        response = self.call(request)
        if isinstance(response, ErrorResponse):
            raise RuntimeError(
                f"daemon error [{response.code}]: {response.message}"
            )
        if not isinstance(response, cls):
            raise ConnectionError(
                f"expected {cls.__name__}, got {type(response).__name__}"
            )
        return response


@dataclass
class LoadReport:
    """What one load-generation run measured."""

    duration_s: float
    tenants: int
    cohorts: int
    requests: int
    accepted: int
    retried: int
    dropped: int  #: rejections WITHOUT a retry_after hint — must be 0
    errors: int
    requests_per_s: float
    decision_p50_s: float
    decision_p99_s: float
    latency_p50_s: float
    latency_p99_s: float
    decisions: Dict[str, int] = field(default_factory=dict)
    batched: int = 0
    cache_hits: int = 0
    backpressured: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "duration_s": self.duration_s,
            "tenants": self.tenants,
            "cohorts": self.cohorts,
            "requests": self.requests,
            "accepted": self.accepted,
            "retried": self.retried,
            "dropped": self.dropped,
            "errors": self.errors,
            "requests_per_s": self.requests_per_s,
            "decision_p50_s": self.decision_p50_s,
            "decision_p99_s": self.decision_p99_s,
            "latency_p50_s": self.latency_p50_s,
            "latency_p99_s": self.latency_p99_s,
            "decisions": dict(self.decisions),
            "batched": self.batched,
            "cache_hits": self.cache_hits,
            "backpressured": self.backpressured,
        }


class LoadGenerator:
    """Closed-loop multi-tenant load against one daemon.

    ``tenants`` ids are spread over ``cohorts`` identical profiles
    (procs/scheduler/directory/workload/seed all shared within a
    cohort), so concurrent same-cohort requests share a planning-problem
    digest and exercise the daemon's cross-tenant batching.
    """

    def __init__(
        self,
        address: Any,
        *,
        tenants: int = 100,
        cohorts: int = 16,
        procs: int = 6,
        scheduler: str = "openshop",
        directory: str = "drift:sigma=0.02",
        workload: str = "mixed",
        workloads: Optional[Sequence[str]] = None,
        connections: int = 4,
        dt: float = 1.0,
        timeout_s: float = 30.0,
    ):
        if tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {tenants}")
        if cohorts < 1 or cohorts > tenants:
            raise ValueError(
                f"cohorts must be in [1, {tenants}], got {cohorts}"
            )
        if workloads is not None and len(workloads) != cohorts:
            raise ValueError(
                f"workloads must have one spec per cohort "
                f"({cohorts}), got {len(workloads)}"
            )
        self.address = address
        self.num_tenants = tenants
        self.cohorts = cohorts
        self.procs = procs
        self.scheduler = scheduler
        self.directory = directory
        #: Per-cohort workload specs (heavy-tail tenant mixes); falls
        #: back to the single shared ``workload`` spec.
        self.workloads = list(workloads) if workloads is not None else None
        self.workload = workload
        self.connections = max(1, min(connections, tenants))
        self.dt = dt
        self.timeout_s = timeout_s

    def workload_for(self, cohort: int) -> str:
        if self.workloads is not None:
            return self.workloads[cohort]
        return self.workload

    def tenant_ids(self) -> List[str]:
        return [f"t-{index:04d}" for index in range(self.num_tenants)]

    def open_all(self) -> None:
        """Open every tenant session (idempotent)."""
        with DaemonClient(self.address, timeout_s=self.timeout_s) as client:
            for index, tenant in enumerate(self.tenant_ids()):
                cohort = index % self.cohorts
                client.open(
                    tenant,
                    procs=self.procs,
                    scheduler=self.scheduler,
                    directory=self.directory,
                    workload=self.workload_for(cohort),
                    seed=cohort,
                )

    def run(
        self,
        duration_s: float = 10.0,
        *,
        max_requests: Optional[int] = None,
        open_first: bool = True,
    ) -> LoadReport:
        """Drive closed-loop load for ``duration_s`` (or ``max_requests``).

        Round-robins tenants across a few persistent connections; a
        ``saturated`` response sleeps the advertised ``retry_after_s``
        and retries the same tenant, so every admission-control
        rejection is observed and honoured, never silently dropped.
        """
        if open_first:
            self.open_all()
        clients = [
            DaemonClient(self.address, timeout_s=self.timeout_s)
            for _ in range(self.connections)
        ]
        # Same-cohort tenants are issued as one pipelined burst so their
        # same-clock requests sit in the daemon's queue together — that
        # is what cross-tenant batching feeds on.  Bursting also keeps a
        # cohort's clocks in lockstep (every member sees every round).
        cohort_members: List[List[str]] = [[] for _ in range(self.cohorts)]
        for index, tenant in enumerate(self.tenant_ids()):
            cohort_members[index % self.cohorts].append(tenant)
        requests = accepted = retried = dropped = errors = 0
        batched = cache_hits = backpressured = 0
        decisions: Dict[str, int] = {}
        decision_latencies: List[float] = []
        wire_latencies: List[float] = []
        started = time.monotonic()
        deadline = started + duration_s
        round_index = 0
        try:
            while time.monotonic() < deadline:
                if max_requests is not None and requests >= max_requests:
                    break
                cohort = round_index % self.cohorts
                client = clients[round_index % len(clients)]
                round_index += 1
                pending = list(cohort_members[cohort])
                while pending:
                    burst_started = time.monotonic()
                    for tenant in pending:
                        client.send(
                            protocol.ScheduleRequest(
                                tenant=tenant, dt=self.dt
                            )
                        )
                    requests += len(pending)
                    rejected: List[str] = []
                    retry_hint = 0.0
                    for tenant in pending:
                        response = client.recv()
                        wire_latencies.append(
                            time.monotonic() - burst_started
                        )
                        if isinstance(response, ErrorResponse):
                            if response.retry_after_s is None:
                                dropped += 1
                            elif response.code == "saturated":
                                retried += 1
                                rejected.append(tenant)
                                retry_hint = max(
                                    retry_hint, response.retry_after_s
                                )
                            else:
                                errors += 1
                            continue
                        accepted += 1
                        decisions[response.decision] = (
                            decisions.get(response.decision, 0) + 1
                        )
                        decision_latencies.append(
                            response.decision_latency_s
                        )
                        if response.batched:
                            batched += 1
                        if response.cache_hit:
                            cache_hits += 1
                        if response.backpressure:
                            backpressured += 1
                    pending = rejected
                    if pending:
                        # Honour the hint so rejected members catch the
                        # cohort back up instead of being dropped.
                        time.sleep(min(retry_hint or 0.01, 0.25))
                    if max_requests is not None and requests >= max_requests:
                        break
        finally:
            for client in clients:
                client.close()
        elapsed = max(time.monotonic() - started, 1e-9)
        return LoadReport(
            duration_s=elapsed,
            tenants=self.num_tenants,
            cohorts=self.cohorts,
            requests=requests,
            accepted=accepted,
            retried=retried,
            dropped=dropped,
            errors=errors,
            requests_per_s=accepted / elapsed,
            decision_p50_s=percentile(decision_latencies, 50.0),
            decision_p99_s=percentile(decision_latencies, 99.0),
            latency_p50_s=percentile(wire_latencies, 50.0),
            latency_p99_s=percentile(wire_latencies, 99.0),
            decisions=decisions,
            batched=batched,
            cache_hits=cache_hits,
            backpressured=backpressured,
        )
