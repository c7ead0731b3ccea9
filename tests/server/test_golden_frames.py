"""Golden wire frames: the protocol's bytes are pinned, not just round-tripped.

``data/golden_frames.json`` holds one case per line. Each case names a
message type, its fields, the payload bytes and the framed bytes. It also
records the verdict for every strict payload prefix: ``null`` when the
framed prefix is rejected, else the message it decodes to. The test checks
that encoding reproduces the bytes, that decoding gives back the message,
and that every prefix gets the same verdict. Decode-only cases hold older
or non-canonical payloads that must still be accepted, and cases whose
``message`` is ``null`` hold payloads that must be rejected.

Regenerate the file only for a deliberate wire-format change::

    PYTHONPATH=src python -m tests.server.test_golden_frames
"""

import json
import struct
import zlib
from pathlib import Path

import pytest

from repro.server import protocol
from repro.server.protocol import (
    HEADER_SIZE,
    MAGIC,
    TRAILER_SIZE,
    VERSION,
    BatchRequest,
    DeleteRequest,
    ErrorResponse,
    GetRequest,
    GetResponse,
    MergeRequest,
    MultiGetRequest,
    MultiGetResponse,
    OkResponse,
    PingRequest,
    PongResponse,
    ProtocolError,
    PutRequest,
    ScanRequest,
    ScanResponse,
    StatsHistoryRequest,
    StatsHistoryResponse,
    StatsRequest,
    StatsResponse,
    TraceContext,
    TxnCommitRequest,
    encode_frame,
    try_decode_frame,
)

GOLDEN = Path(__file__).parent / "data" / "golden_frames.json"

# -- JSON form of messages ------------------------------------------------------


def to_json(value):
    """A JSON-able, exactly comparable rendering of a message or field."""
    if isinstance(value, TraceContext):
        return {"trace": [value.trace_id, value.span_id, value.sampled]}
    if isinstance(value, bytes):
        return {"hex": value.hex()}
    if isinstance(value, float):
        return {"f64": value.hex()}
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    if isinstance(value, protocol.Message):
        fields = {name: to_json(v) for name, v in vars(value).items()}
        return {"type": type(value).__name__, "fields": fields}
    return value  # str, int, bool, None


def from_json(value):
    if isinstance(value, list):
        return tuple(from_json(v) for v in value)
    if isinstance(value, dict):
        if "trace" in value:
            return TraceContext(*value["trace"])
        if "hex" in value:
            return bytes.fromhex(value["hex"])
        if "f64" in value:
            return float.fromhex(value["f64"])
        cls = getattr(protocol, value["type"])
        return cls(**{k: from_json(v) for k, v in value["fields"].items()})
    return value


def frame_payload(msg_type: int, payload: bytes) -> bytes:
    body = struct.pack(">HBBI", MAGIC, VERSION, msg_type, len(payload)) + payload
    return body + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)


def verdict(msg_type: int, payload: bytes):
    """The decoded message as JSON, or None when the frame is rejected."""
    try:
        decoded = try_decode_frame(frame_payload(msg_type, payload))
    except ProtocolError:
        return None
    assert decoded is not None, "a complete frame must decode or be rejected"
    return to_json(decoded[0])


# -- the cases --------------------------------------------------------------------

_TRACE = TraceContext(trace_id="3f2a9c", span_id="b7", sampled=True)
_UNSAMPLED = TraceContext(trace_id="t" * 140, span_id="", sampled=False)
_IDEM = ("client-a", 7)
_BIG_IDEM = ("c" * 130, 2**40 + 5)
_ALL_OPS = (
    ("put", b"k1", b"v1"),
    ("delete", b"k2", b""),
    ("merge", b"k3", b"\x01", "counter"),
    ("put_ttl", b"k4", b"v4", 2.5),
)


def _encoded_cases():
    return [
        ("ping_bare", PingRequest()),
        ("ping_traced", PingRequest(tenant="t", trace=_TRACE)),
        ("ping_unsampled_long_trace", PingRequest(tenant="tén✓", trace=_UNSAMPLED)),
        ("stats_bare", StatsRequest(tenant="t")),
        ("stats_traced", StatsRequest(trace=_TRACE)),
        ("stats_history_bare", StatsHistoryRequest()),
        ("stats_history_varint", StatsHistoryRequest(tenant="t", last_n=300, trace=_TRACE)),
        ("get_bare", GetRequest(tenant="t", key=b"k")),
        ("get_traced", GetRequest(tenant="t", key=b"k", trace=_TRACE)),
        ("get_long_key", GetRequest(tenant="t", key=bytes(range(200)))),
        ("put_bare", PutRequest(tenant="t", key=b"k", value=b"v")),
        ("put_ttl", PutRequest(tenant="t", key=b"k", value=b"v", ttl=2.5)),
        ("put_traced", PutRequest(tenant="t", key=b"k", value=b"v", trace=_TRACE)),
        ("put_idem_no_trace", PutRequest(tenant="t", key=b"k", value=b"v", idem=_IDEM)),
        (
            "put_ttl_trace_idem",
            PutRequest(
                tenant="t", key=b"k", value=b"v" * 150, ttl=-0.0,
                trace=_TRACE, idem=_BIG_IDEM,
            ),
        ),
        ("delete_bare", DeleteRequest(tenant="t", key=b"k")),
        ("delete_traced", DeleteRequest(tenant="t", key=b"k", trace=_TRACE)),
        ("delete_idem_no_trace", DeleteRequest(tenant="t", key=b"k", idem=_IDEM)),
        ("delete_trace_idem", DeleteRequest(tenant="", key=b"", trace=_TRACE, idem=_IDEM)),
        ("multi_get_empty", MultiGetRequest(tenant="t")),
        (
            "multi_get_keys",
            MultiGetRequest(tenant="t", keys=(b"a", b"", b"z" * 130), trace=_TRACE),
        ),
        ("scan_default", ScanRequest(tenant="t")),
        ("scan_start_only", ScanRequest(tenant="t", start=b"a", limit=5)),
        (
            "scan_bounded",
            ScanRequest(tenant="t", start=b"", end=b"zz", limit=0, trace=_TRACE),
        ),
        ("scan_big_limit", ScanRequest(tenant="t", end=b"q", limit=2**32)),
        ("batch_empty", BatchRequest(tenant="t")),
        ("batch_all_kinds", BatchRequest(tenant="t", ops=_ALL_OPS)),
        ("batch_traced", BatchRequest(tenant="t", ops=_ALL_OPS[:1], trace=_TRACE)),
        ("batch_idem_no_trace", BatchRequest(tenant="t", ops=_ALL_OPS[2:], idem=_IDEM)),
        (
            "batch_trace_idem",
            BatchRequest(tenant="t", ops=_ALL_OPS[1:2], trace=_TRACE, idem=_BIG_IDEM),
        ),
        ("merge_default_operator", MergeRequest(tenant="t", key=b"k", operand=b"\x01")),
        (
            "merge_idem_no_trace",
            MergeRequest(tenant="t", key=b"k", operand=b"", operator="max", idem=_IDEM),
        ),
        (
            "merge_traced",
            MergeRequest(tenant="t", key=b"k", operand=b"9", trace=_TRACE),
        ),
        ("txn_empty", TxnCommitRequest(tenant="t")),
        (
            "txn_read_set_and_ops",
            TxnCommitRequest(
                tenant="t", read_set=((b"b", 2**40), (b"a", 0)), ops=_ALL_OPS
            ),
        ),
        ("txn_traced", TxnCommitRequest(tenant="t", read_set=((b"a", 3),), trace=_TRACE)),
        ("txn_idem_no_trace", TxnCommitRequest(tenant="t", ops=_ALL_OPS[:1], idem=_IDEM)),
        (
            "txn_trace_idem",
            TxnCommitRequest(
                tenant="t", read_set=((b"a", 1),), ops=_ALL_OPS[3:],
                trace=_UNSAMPLED, idem=_BIG_IDEM,
            ),
        ),
        ("pong_zero", PongResponse()),
        ("pong_values", PongResponse(server_uptime_s=1.5, engine_uptime_s=12345.25)),
        ("stats_response_default", StatsResponse()),
        ("stats_response_long", StatsResponse(payload_json='{"k": "' + "x" * 200 + '"}')),
        ("get_response_absent", GetResponse()),
        ("get_response_found", GetResponse(found=True, value=b"v", seqno=7)),
        ("get_response_big", GetResponse(found=True, value=b"w" * 300, seqno=2**40)),
        ("ok_default", OkResponse()),
        ("ok_zero", OkResponse(count=0)),
        ("ok_varint", OkResponse(count=100000)),
        ("multi_get_response_empty", MultiGetResponse()),
        (
            "multi_get_response_rows",
            MultiGetResponse(entries=((b"a", True, b"1"), (b"b", False, b""))),
        ),
        ("scan_response_empty", ScanResponse()),
        (
            "scan_response_truncated",
            ScanResponse(items=((b"a", b"1"), (b"b", b""), (b"c" * 130, b"3")), truncated=True),
        ),
        ("error_default", ErrorResponse()),
        ("error_unicode", ErrorResponse(code="conflict", message="clé ✗ changed")),
        ("stats_history_response_default", StatsHistoryResponse()),
        (
            "stats_history_response_doc",
            StatsHistoryResponse(payload_json='{"samples": 0, "series": {}}'),
        ),
    ]


def _decode_only_cases():
    """Payloads current encoders never emit that must still decode (older
    peers, explicit absent flags) or must be rejected (``None``)."""
    return [
        ("put_older_peer_no_ttl_flag", PutRequest, b"\x01t\x01k\x01v",
         PutRequest(tenant="t", key=b"k", value=b"v")),
        ("get_response_older_peer_no_seqno", GetResponse, b"\x01\x01v",
         GetResponse(found=True, value=b"v")),
        ("get_explicit_absent_trace", GetRequest, b"\x01t\x01k\x00",
         GetRequest(tenant="t", key=b"k")),
        ("put_explicit_absent_trailers", PutRequest, b"\x01t\x01k\x01v\x00\x00\x00",
         PutRequest(tenant="t", key=b"k", value=b"v")),
        ("ping_no_trace_block", PingRequest, b"\x00", PingRequest()),
        ("merge_older_peer_no_trailers", MergeRequest, b"\x01t\x01k\x01\x01\x07counter",
         MergeRequest(tenant="t", key=b"k", operand=b"\x01")),
        ("ping_absent_trace_then_junk", PingRequest, b"\x01t\x00\xff", None),
        ("ping_bad_trace_flag", PingRequest, b"\x01t\x02", None),
        ("ping_bad_utf8", PingRequest, b"\x02\xff\xfe", None),
        ("get_response_bad_bool", GetResponse, b"\x07\x01x\x00", None),
        ("batch_unknown_kind", BatchRequest, b"\x00\x01\x09", None),
        ("pong_short", PongResponse, b"\x00" * 15, None),
        ("pong_long", PongResponse, b"\x00" * 17, None),
        ("ok_trailing", OkResponse, b"\x01\x00", None),
        ("get_idem_not_accepted", GetRequest, b"\x01t\x01k\x00\x01\x01c\x01", None),
        ("scan_response_short_count", ScanResponse, b"\x00\x02\x01a\x01b", None),
    ]


def build_cases():
    cases = []
    for name, message in _encoded_cases():
        payload = message.encode_payload()
        cases.append((name, type(message), payload, message, True))
    for name, cls, payload, message in _decode_only_cases():
        cases.append((name, cls, payload, message, False))
    out = []
    for name, cls, payload, message, encodes in cases:
        out.append({
            "name": name,
            "type": cls.__name__,
            "encodes": encodes,
            "message": to_json(message) if message is not None else None,
            "frame": frame_payload(cls.TYPE, payload).hex(),
            "prefixes": [verdict(cls.TYPE, payload[:i]) for i in range(len(payload))],
        })
    return out


def write_golden(path: Path = GOLDEN) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(case, sort_keys=True, ensure_ascii=True) for case in build_cases()]
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n")


def load_golden():
    return json.loads(GOLDEN.read_text())


# -- the test -------------------------------------------------------------------

_CASES = load_golden() if GOLDEN.exists() else []


@pytest.mark.parametrize("case", _CASES, ids=[c["name"] for c in _CASES])
def test_golden_frame(case):
    cls = getattr(protocol, case["type"])
    frame = bytes.fromhex(case["frame"])
    payload = frame[HEADER_SIZE:-TRAILER_SIZE]
    if case["message"] is None:
        with pytest.raises(ProtocolError):
            try_decode_frame(frame)
    else:
        message = from_json(case["message"])
        assert type(message) is cls
        if case["encodes"]:
            assert encode_frame(message) == frame
        decoded, end = try_decode_frame(frame)
        assert end == len(frame)
        assert decoded == message
        assert to_json(decoded) == case["message"]
    verdicts = [verdict(cls.TYPE, payload[:i]) for i in range(len(payload))]
    assert verdicts == case["prefixes"]


if __name__ == "__main__":
    write_golden()
    print(f"wrote {len(load_golden())} cases to {GOLDEN}")
