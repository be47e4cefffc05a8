"""The ``fleet`` and ``mixed`` workloads: the daemon in its own process,
load from this single-threaded process over at most two connections.

The loop is closed: one cohort's requests go out as one pipelined burst
on the main connection and the next burst waits for every reply.  In
``mixed`` the heavy tenant sends one request per round of bursts on a
second connection and nobody waits for its reply; replies are collected
between bursts and at the end of the run.
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from servebench.noise import steal_ticks
from servebench.specs import Plan, Tenant

ROOT = Path(__file__).resolve().parent.parent
CLK_TCK = os.sysconf("SC_CLK_TCK")
READY_TIMEOUT_S = 60.0
IO_TIMEOUT_S = 120.0


class Connection:
    """A blocking line-protocol connection with a read buffer.

    Unlike :class:`repro.serve.client.DaemonClient` it sends a
    pre-encoded burst in one write and returns raw lines, so the timed
    loop neither encodes nor decodes; decoding waits until it ends.
    """

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(IO_TIMEOUT_S)
        self.sock.connect(path)
        self.buffer = bytearray()

    def send(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def _take_line(self) -> Optional[bytes]:
        newline = self.buffer.find(b"\n")
        if newline < 0:
            return None
        line = bytes(self.buffer[:newline])
        del self.buffer[: newline + 1]
        return line

    def read_line(self) -> bytes:
        while True:
            line = self._take_line()
            if line is not None:
                return line
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buffer.extend(chunk)

    def poll_lines(self) -> List[bytes]:
        """Every complete line available without blocking."""
        while select.select([self.sock], [], [], 0)[0]:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buffer.extend(chunk)
        lines = []
        while (line := self._take_line()) is not None:
            lines.append(line)
        return lines

    def call(self, message):
        from repro.serve.protocol import decode_response, encode_message

        self.send(encode_message(message))
        return decode_response(self.read_line())

    def close(self) -> None:
        self.sock.close()


class DaemonProcess:
    """The daemon launcher as a child process."""

    def __init__(self, run_dir: Path, trace_out: Optional[Path] = None):
        self.socket_path = str(run_dir / "daemon.sock")
        command = [
            sys.executable,
            str(Path("servebench") / "daemon_main.py"),
            "--socket",
            self.socket_path,
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if line.strip() != "ready":
            self.stop()
            raise RuntimeError(f"daemon did not start (got {line!r})")

    def cpu_s(self) -> float:
        """User + system CPU seconds of the daemon so far."""
        with open(f"/proc/{self.proc.pid}/stat", "r", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def stop(self) -> None:
        """Ask for a shutdown, then make sure the process has ended."""
        if self.proc.poll() is None:
            try:
                from repro.serve.protocol import ShutdownRequest

                conn = Connection(self.socket_path)
                try:
                    conn.call(ShutdownRequest())
                finally:
                    conn.close()
                self.proc.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Session:
    """A daemon with every tenant opened and cold-ticked."""

    daemon: DaemonProcess
    main: Connection
    heavy: Optional[Connection]
    #: spawn -> last cold reply, on the shared monotonic clock
    window: Tuple[float, float]
    #: (tenant, tick) -> (decision, executed_s) of the cold ticks
    cold: Dict[Tuple[str, int], Tuple[str, float]] = field(default_factory=dict)

    def close(self) -> None:
        self.main.close()
        if self.heavy is not None:
            self.heavy.close()
        self.daemon.stop()

    @property
    def setup_s(self) -> float:
        return self.window[1] - self.window[0]


def _schedule_payload(tenants: List[Tenant], dt: float) -> bytes:
    from repro.serve.protocol import ScheduleRequest, encode_message

    return b"".join(
        encode_message(ScheduleRequest(tenant=t.name, dt=dt)) for t in tenants
    )


def _answers(lines: List[bytes]) -> Tuple[Dict, List[str]]:
    """Decoded schedule responses keyed by (tenant, tick), plus errors."""
    from repro.serve.protocol import ScheduleResponse, decode_response

    answers: Dict[Tuple[str, int], Tuple[str, float]] = {}
    errors: List[str] = []
    for line in lines:
        response = decode_response(line)
        if isinstance(response, ScheduleResponse):
            answers[(response.tenant, response.tick)] = (
                response.decision,
                response.executed_s,
            )
        else:
            errors.append(repr(response))
    return answers, errors


def set_up(plan: Plan, run_dir: Path, trace_out: Optional[Path] = None) -> Session:
    """Spawn the daemon, open every tenant, serve each one's cold tick."""
    from repro.serve.protocol import (
        OpenRequest,
        OpenResponse,
        decode_response,
        encode_message,
    )

    started = time.perf_counter()
    daemon = DaemonProcess(run_dir, trace_out)
    try:
        main = Connection(daemon.socket_path)
        heavy = Connection(daemon.socket_path) if plan.heavy else None
        main.send(b"".join(
            encode_message(OpenRequest(**t.open_fields()))
            for t in plan.tenants
        ))
        opened = [decode_response(main.read_line()) for _ in plan.tenants]
        if heavy is not None:
            opened.append(heavy.call(OpenRequest(**plan.heavy.open_fields())))
        if not all(isinstance(r, OpenResponse) for r in opened):
            raise RuntimeError(f"open failed: {opened}")
        lines = []
        for members in plan.cohorts:
            main.send(_schedule_payload(members, 0.0))
            lines += [main.read_line() for _ in members]
        if heavy is not None:
            heavy.send(_schedule_payload([plan.heavy], 0.0))
            lines.append(heavy.read_line())
        window = (started, time.perf_counter())
        cold, errors = _answers(lines)
        if errors:
            raise RuntimeError(f"cold ticks failed: {errors[:3]}")
    except BaseException:
        daemon.stop()
        raise
    return Session(daemon, main, heavy, window, cold)


def _daemon_counts(main: Connection) -> Dict[str, float]:
    from repro.serve.protocol import StatsRequest

    stats = main.call(StatsRequest()).stats
    counters = stats["counters"]
    return {
        "accepted": counters["accepted"],
        "served": counters["served"],
        "batched": counters["batched"],
        "rejected": counters["rejected_saturated"] + counters["rejected_draining"],
        "errors": counters["internal_errors"] + counters["protocol_errors"],
        "hits": stats["cache"]["hits"],
        "misses": stats["cache"]["misses"],
    }


@dataclass
class Served:
    """What the timed phase observed."""

    window: Tuple[float, float]
    latencies_s: List[float]
    answers: Dict[Tuple[str, int], Tuple[str, float]]
    errors: List[str]
    cpu_s: float
    steal_ticks: int
    counts: Dict[str, float]


def serve(plan: Plan, session: Session) -> Served:
    """The timed phase: ``plan.rounds`` rounds of one burst per cohort."""
    bursts = [
        (_schedule_payload(members, 1.0), len(members))
        for members in plan.cohorts
    ]
    heavy_request = (
        _schedule_payload([plan.heavy], 1.0) if plan.heavy else b""
    )
    main, heavy = session.main, session.heavy
    before = _daemon_counts(main)
    latencies: List[float] = []
    lines: List[bytes] = []
    heavy_lines: List[bytes] = []
    clock = time.perf_counter
    steal0 = steal_ticks()
    cpu0 = session.daemon.cpu_s()
    t0 = clock()
    for _ in range(plan.rounds):
        if heavy is not None:
            heavy.send(heavy_request)
        for payload, count in bursts:
            sent = clock()
            main.send(payload)
            for _ in range(count):
                lines.append(main.read_line())
                latencies.append(clock() - sent)
            if heavy is not None:
                heavy_lines += heavy.poll_lines()
    if heavy is not None:
        while len(heavy_lines) < plan.rounds:
            heavy_lines.append(heavy.read_line())
    t1 = clock()
    cpu1 = session.daemon.cpu_s()
    steal1 = steal_ticks()
    after = _daemon_counts(main)
    answers, errors = _answers(lines + heavy_lines)
    return Served(
        window=(t0, t1),
        latencies_s=latencies,
        answers=answers,
        errors=errors,
        cpu_s=cpu1 - cpu0,
        steal_ticks=steal1 - steal0,
        counts={key: after[key] - before[key] for key in after},
    )
