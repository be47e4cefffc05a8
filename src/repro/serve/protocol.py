"""The daemon's wire protocol: versioned, strictly validated, one line
per message.

Every entry point — the CLI ``daemon`` subcommand, the daemon event
loop, the typed client, the load generator, tests and benches — speaks
exactly this protocol; there is no side-channel kwargs surface.  A
message is one JSON object on one ``\\n``-terminated line:

.. code-block:: json

    {"v": 1, "type": "schedule", "tenant": "t-17", "dt": 1.0}

Rules the codec enforces (and the fuzz tests pin):

* ``v`` must equal :data:`PROTOCOL_VERSION`.  Version skew is a clean
  ``error`` response with code ``"version"`` — never a crash, never a
  silent misparse.
* ``type`` selects one registered dataclass; unknown types, unknown
  fields, missing required fields, wrong field types and out-of-range
  values (a negative or non-finite ``dt``) each raise
  :class:`ProtocolError` with code ``"malformed"`` and a message naming
  the offending token.
* Frames above :data:`MAX_FRAME_BYTES` and frames that are not a single
  JSON object are rejected the same way, so a truncated or garbage line
  costs one error response and nothing else.

Responses mirror requests: every request type has a success response
type, and any failure is the single :class:`ErrorResponse` shape whose
``retry_after_s`` field carries the admission-control backoff hint
(``"saturated"`` / ``"draining"`` responses always set it — the load
generator's zero-dropped-without-retry-after contract keys on this).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Type

#: The one protocol version this build speaks.
PROTOCOL_VERSION = 1

#: Hard cap on one frame's encoded size (prevents a hostile client from
#: ballooning the daemon's read buffer).
MAX_FRAME_BYTES = 1 << 20

#: Stable error codes (the client switches on these, so they are API).
ERROR_CODES = (
    "malformed",      # unparseable/oversized frame or bad field
    "version",        # v != PROTOCOL_VERSION
    "unknown_type",   # type not registered
    "unknown_tenant", # schedule for a tenant never opened
    "saturated",      # admission control: queue full (retry_after_s set)
    "draining",       # daemon is draining (retry_after_s set)
    "internal",       # handler raised; daemon kept serving
)


class ProtocolError(ValueError):
    """A frame the codec refuses, with a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Message dataclasses.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HelloRequest:
    """Handshake / liveness probe."""


@dataclass(frozen=True)
class OpenRequest:
    """Create (or re-attach to) one tenant's session.

    All configuration is spec strings in the :mod:`repro.util.spec`
    grammar — the same strings ``make_scheduler`` / ``make_directory``
    / ``make_workload_sizes`` accept everywhere else.
    """

    tenant: str
    procs: int = 8
    scheduler: str = "openshop"
    directory: str = "drift:sigma=0.02"
    workload: str = "mixed"
    seed: int = 0
    policy: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ScheduleRequest:
    """Serve one total exchange for ``tenant`` (advance directory ``dt``)."""

    tenant: str
    dt: float = 1.0

    def __post_init__(self) -> None:
        # A directory clock only moves forward, and a NaN would stick in
        # it for good.
        if not math.isfinite(self.dt) or self.dt < 0:
            raise ValueError(
                f"dt must be a finite number >= 0, got {self.dt!r}"
            )


@dataclass(frozen=True)
class StatsRequest:
    """Daemon-wide counters, queue state and per-shard cache stats."""


@dataclass(frozen=True)
class SnapshotRequest:
    """Write every tenant's session state to ``path`` (daemon keeps going)."""

    path: str = ""


@dataclass(frozen=True)
class DrainRequest:
    """Stop admitting, flush the queue, snapshot to ``path``."""

    path: str = ""


@dataclass(frozen=True)
class ShutdownRequest:
    """Stop the event loop after responding."""


@dataclass(frozen=True)
class HelloResponse:
    server: str = "repro-scheduler-daemon"
    tenants: int = 0
    uptime_s: float = 0.0
    draining: bool = False


@dataclass(frozen=True)
class OpenResponse:
    tenant: str
    procs: int
    tick: int = 0
    restored: bool = False


@dataclass(frozen=True)
class ScheduleResponse:
    """One scheduling decision, with the backpressure facet every
    response carries (``queue_depth`` / ``backpressure``)."""

    tenant: str
    tick: int
    decision: str
    predicted_s: float
    executed_s: float
    regret_s: float
    cache_hit: bool = False
    fallback: bool = False
    batched: bool = False
    decision_latency_s: float = 0.0
    queue_depth: int = 0
    backpressure: bool = False


@dataclass(frozen=True)
class StatsResponse:
    stats: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SnapshotResponse:
    tenants: int
    path: str


@dataclass(frozen=True)
class DrainResponse:
    tenants: int
    path: str
    flushed: int = 0


@dataclass(frozen=True)
class ShutdownResponse:
    served: int = 0


@dataclass(frozen=True)
class ErrorResponse:
    """The one failure shape.  ``retry_after_s`` is the admission-control
    hint: set on every ``saturated``/``draining`` rejection, so a client
    can distinguish "back off and retry" from a hard error."""

    code: str
    message: str
    retry_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ValueError(
                f"unknown error code {self.code!r}; known: {ERROR_CODES}"
            )


_REQUEST_TYPES: Dict[str, Type] = {
    "hello": HelloRequest,
    "open": OpenRequest,
    "schedule": ScheduleRequest,
    "stats": StatsRequest,
    "snapshot": SnapshotRequest,
    "drain": DrainRequest,
    "shutdown": ShutdownRequest,
}

_RESPONSE_TYPES: Dict[str, Type] = {
    "hello-ok": HelloResponse,
    "opened": OpenResponse,
    "scheduled": ScheduleResponse,
    "stats": StatsResponse,
    "snapshot-ok": SnapshotResponse,
    "drained": DrainResponse,
    "bye": ShutdownResponse,
    "error": ErrorResponse,
}

_TYPE_TAGS: Dict[Type, str] = {
    **{cls: tag for tag, cls in _REQUEST_TYPES.items()},
    **{cls: tag for tag, cls in _RESPONSE_TYPES.items()},
}

#: Each message type's field names, in declaration order.
_FIELD_NAMES: Dict[Type, Tuple[str, ...]] = {
    cls: tuple(f.name for f in dataclasses.fields(cls)) for cls in _TYPE_TAGS
}


# ---------------------------------------------------------------------------
# Strict field validation.
# ---------------------------------------------------------------------------

_SCALARS = {str: "str", int: "int", float: "float", bool: "bool"}


def _check_field(tag: str, name: str, value: Any, annotation: Any) -> Any:
    """Validate one field value against its (simple) annotation.

    The protocol deliberately uses only ``str``/``int``/``float``/
    ``bool``/``dict`` and ``Optional[float]`` so validation stays exact:
    bools are not ints, ints promote to floats, nothing else coerces.
    """
    text = str(annotation)
    if "Optional" in text or "None" in text:
        if value is None:
            return None
        annotation = float if "float" in text else str
    if annotation in (float, "float"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError(
                "malformed",
                f"field {name!r} of {tag!r} must be a number, "
                f"got {value!r}",
            )
        return float(value)
    if annotation in (int, "int"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(
                "malformed",
                f"field {name!r} of {tag!r} must be an int, got {value!r}",
            )
        return value
    if annotation in (bool, "bool"):
        if not isinstance(value, bool):
            raise ProtocolError(
                "malformed",
                f"field {name!r} of {tag!r} must be a bool, got {value!r}",
            )
        return value
    if annotation in (str, "str"):
        if not isinstance(value, str):
            raise ProtocolError(
                "malformed",
                f"field {name!r} of {tag!r} must be a string, "
                f"got {value!r}",
            )
        return value
    # Dict[str, Any] payloads (policy overrides, stats).
    if not isinstance(value, dict) or any(
        not isinstance(key, str) for key in value
    ):
        raise ProtocolError(
            "malformed",
            f"field {name!r} of {tag!r} must be a string-keyed object, "
            f"got {value!r}",
        )
    return value


def _decode(line: bytes | str, registry: Dict[str, Type], kind: str) -> Any:
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(
                "malformed",
                f"frame of {len(line)} bytes exceeds {MAX_FRAME_BYTES}",
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("malformed", f"frame is not UTF-8: {exc}")
    elif len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "malformed",
            f"frame of {len(line)} chars exceeds {MAX_FRAME_BYTES}",
        )
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("malformed", f"frame is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise ProtocolError(
            "malformed", f"frame must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.pop("v", None)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "version",
            f"protocol version {version!r} unsupported; "
            f"this daemon speaks v{PROTOCOL_VERSION}",
        )
    tag = payload.pop("type", None)
    cls = registry.get(tag)
    if cls is None:
        raise ProtocolError(
            "unknown_type",
            f"unknown {kind} type {tag!r}; known: {', '.join(registry)}",
        )
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise ProtocolError(
            "malformed", f"unknown field(s) {unknown} for {kind} {tag!r}"
        )
    kwargs = {}
    for name, f in fields.items():
        if name in payload:
            kwargs[name] = _check_field(tag, name, payload[name], f.type)
        elif (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ):
            raise ProtocolError(
                "malformed", f"{kind} {tag!r} requires field {name!r}"
            )
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ProtocolError("malformed", str(exc))


def decode_request(line: bytes | str) -> Any:
    """One wire line -> a request dataclass (or :class:`ProtocolError`)."""
    return _decode(line, _REQUEST_TYPES, "request")


def decode_response(line: bytes | str) -> Any:
    """One wire line -> a response dataclass (or :class:`ProtocolError`)."""
    return _decode(line, _RESPONSE_TYPES, "response")


def encode_message(message: Any) -> bytes:
    """A request/response dataclass -> one ``\\n``-terminated wire line."""
    cls = type(message)
    tag = _TYPE_TAGS.get(cls)
    if tag is None:
        raise TypeError(f"{cls.__name__} is not a protocol message")
    # Field values go to the encoder as they are: ``dataclasses.asdict``
    # would deep-copy every one of them first, for the same bytes.
    payload = {"v": PROTOCOL_VERSION, "type": tag}
    for name in _FIELD_NAMES[cls]:
        payload[name] = getattr(message, name)
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def error_line(
    code: str, message: str, *, retry_after_s: Optional[float] = None
) -> bytes:
    """Shorthand: an encoded :class:`ErrorResponse` line."""
    return encode_message(
        ErrorResponse(code=code, message=message, retry_after_s=retry_after_s)
    )


def request_types() -> Tuple[str, ...]:
    """Registered request type tags (stable order)."""
    return tuple(_REQUEST_TYPES)
