"""The framed binary wire protocol spoken between LSMClient and LSMServer.

Every message travels in one length-prefixed, CRC-checked frame:

====== ===== =========================================================
offset bytes field
====== ===== =========================================================
0      2     magic ``0x4C53`` (``b"LS"``, big-endian)
2      1     protocol version (currently 1)
3      1     message type (see the ``*Request``/``*Response`` classes)
4      4     payload length ``N`` (big-endian u32)
8      N     payload (typed encoding below)
8+N    4     CRC32 over bytes ``[0, 8+N)`` — header *and* payload
====== ===== =========================================================

Each message class declares its payload as ``(field, codec)`` pairs plus
the optional trailing blocks it accepts (see :class:`Message`); one generic
codec encodes and decodes every type. Field codecs reuse the
:mod:`repro.common.encoding` conventions: unsigned LEB128 varints for
counts and lengths, varint-length-prefixed byte strings for
keys/values/tenant ids. Floats are fixed 8-byte IEEE-754 big-endian.
A decoder rejects (``ProtocolError``) any frame with a bad
magic, unknown version or type, an over-limit length, a CRC mismatch, or
payload bytes left over after the typed decode — so corruption anywhere
in a frame is detected, never silently accepted.

The module is transport-agnostic: :func:`encode_frame` /
:class:`FrameDecoder` work on byte strings; :func:`send_message` /
:func:`recv_message` adapt them to a blocking socket.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Type

from repro.common.encoding import (
    decode_varint,
    encode_varint,
    get_length_prefixed,
    put_length_prefixed,
)
from repro.errors import ReproError
from repro.observe.tracing import TraceContext

MAGIC = 0x4C53  # b"LS"
VERSION = 1
#: Hard ceiling on a frame's payload; guards the server against a client
#: (or line noise) declaring a multi-gigabyte allocation.
DEFAULT_MAX_PAYLOAD = 8 << 20

_HEADER = struct.Struct(">HBBI")  # magic, version, type, payload length
_CRC = struct.Struct(">I")
_F64 = struct.Struct(">d")
HEADER_SIZE = _HEADER.size
TRAILER_SIZE = _CRC.size


class ProtocolError(ReproError):
    """A frame or payload violated the wire format (corrupt, truncated, unknown)."""


class RemoteError(ReproError):
    """The server answered with an :class:`ErrorResponse` (code + message)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.remote_message = message


# -- field codecs -------------------------------------------------------------


class Codec(NamedTuple):
    """How one field travels: ``put(out, value)`` appends it to a payload and
    ``get(buf, offset)`` reads it back as ``(value, next_offset)``."""

    put: Callable[[bytearray, Any], None]
    get: Callable[[bytes, int], Tuple[Any, int]]


def _put_str(out: bytearray, text: str) -> None:
    put_length_prefixed(out, text.encode("utf-8"))


def _get_str(buf: bytes, offset: int) -> Tuple[str, int]:
    raw, offset = get_length_prefixed(buf, offset)
    try:
        return raw.decode("utf-8"), offset
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid utf-8 in string field: {exc}") from None


def _get_bool(buf: bytes, offset: int) -> Tuple[bool, int]:
    if offset >= len(buf):
        raise ProtocolError("truncated boolean field")
    byte = buf[offset]
    if byte not in (0, 1):
        raise ProtocolError(f"boolean field holds {byte}, expected 0 or 1")
    return bool(byte), offset + 1


def _get_f64(buf: bytes, offset: int) -> Tuple[float, int]:
    if offset + _F64.size > len(buf):
        raise ProtocolError("truncated f64 field")
    return _F64.unpack_from(buf, offset)[0], offset + _F64.size


STR = Codec(_put_str, _get_str)
#: Payloads are ``bytes``, so the slice ``get_length_prefixed`` returns is
#: already an independent ``bytes`` value.
BYTES = Codec(put_length_prefixed, get_length_prefixed)
UINT = Codec(lambda out, n: out.extend(encode_varint(n)), decode_varint)
BOOL = Codec(lambda out, flag: out.append(1 if flag else 0), _get_bool)
F64 = Codec(lambda out, x: out.extend(_F64.pack(x)), _get_f64)


def optional(codec: Codec) -> Codec:
    """A presence flag, then the value when present; absent is None."""
    put, get = codec

    def put_optional(out: bytearray, value: Any) -> None:
        if value is None:
            out.append(0)
        else:
            out.append(1)
            put(out, value)

    def get_optional(buf: bytes, offset: int) -> Tuple[Any, int]:
        present, offset = _get_bool(buf, offset)
        return get(buf, offset) if present else (None, offset)

    return Codec(put_optional, get_optional)


def since_v1(codec: Codec, default: Any) -> Codec:
    """A field added after the first release. It is always written, but an
    older peer's payload may end before it, which decodes as ``default``."""
    get = codec.get

    def get_or_default(buf: bytes, offset: int) -> Tuple[Any, int]:
        return (default, offset) if offset == len(buf) else get(buf, offset)

    return Codec(codec.put, get_or_default)


def _row(codecs: Tuple[Codec, ...]) -> Codec:
    """Codecs back to back as one tuple value (a lone codec stays itself)."""
    if len(codecs) == 1:
        return codecs[0]
    puts = tuple(codec.put for codec in codecs)
    gets = tuple(codec.get for codec in codecs)

    def put_row(out: bytearray, row: tuple) -> None:
        for put, value in zip(puts, row):
            put(out, value)

    def get_row(buf: bytes, offset: int) -> Tuple[tuple, int]:
        row = []
        for get in gets:
            value, offset = get(buf, offset)
            row.append(value)
        return tuple(row), offset

    return Codec(put_row, get_row)


def seq(*codecs: Codec) -> Codec:
    """A varint count, then that many items; with several codecs each item
    is a row tuple."""
    put, get = _row(codecs)

    def put_seq(out: bytearray, items: tuple) -> None:
        out.extend(encode_varint(len(items)))
        for item in items:
            put(out, item)

    def get_seq(buf: bytes, offset: int) -> Tuple[tuple, int]:
        count, offset = decode_varint(buf, offset)
        items = []
        for _ in range(count):
            item, offset = get(buf, offset)
            items.append(item)
        return tuple(items), offset

    return Codec(put_seq, get_seq)


_WIRE_OP_KINDS = ("put", "delete", "merge", "put_ttl")
#: The kind-specific extra after an op's key and value, by kind byte.
_WIRE_OP_EXTRAS = (None, None, STR, F64)


def _put_batch_op(out: bytearray, op: tuple) -> None:
    kind, key, value, extra = op
    kind_byte = _WIRE_OP_KINDS.index(kind)
    out.append(kind_byte)
    put_length_prefixed(out, key)
    put_length_prefixed(out, value)
    if _WIRE_OP_EXTRAS[kind_byte] is not None:
        _WIRE_OP_EXTRAS[kind_byte].put(out, extra)


def _get_batch_op(buf: bytes, offset: int) -> Tuple[tuple, int]:
    if offset >= len(buf):
        raise ProtocolError("truncated batch op")
    kind_byte = buf[offset]
    if kind_byte >= len(_WIRE_OP_KINDS):
        raise ProtocolError(f"unknown batch op kind {kind_byte}")
    key, offset = get_length_prefixed(buf, offset + 1)
    value, offset = get_length_prefixed(buf, offset)
    extra = None
    if _WIRE_OP_EXTRAS[kind_byte] is not None:
        extra, offset = _WIRE_OP_EXTRAS[kind_byte].get(buf, offset)
    return (_WIRE_OP_KINDS[kind_byte], key, value, extra), offset


#: One normalized batch/transaction op: kind byte, key, value, then the
#: operator name (merge) or TTL seconds (put_ttl).
BATCH_OP = Codec(_put_batch_op, _get_batch_op)

_TRACE_ROW = _row((STR, STR, BOOL))


def _get_trace(buf: bytes, offset: int) -> Tuple[TraceContext, int]:
    (trace_id, span_id, sampled), offset = _TRACE_ROW.get(buf, offset)
    return TraceContext(trace_id=trace_id, span_id=span_id, sampled=sampled), offset


#: The optional trailing blocks, in the order they appear on the wire.
#: ``trace`` propagates the caller's trace context; ``idem`` is the
#: ``(client_id, token)`` pair that, with the tenant, keys the server's
#: request-dedup table so a retried mutation is applied at most once.
_TRAILER_CODECS = {
    "trace": Codec(
        lambda out, t: _TRACE_ROW.put(out, (t.trace_id, t.span_id, t.sampled)),
        _get_trace,
    ),
    "idem": _row((STR, UINT)),
}


# -- message classes ----------------------------------------------------------

_MESSAGE_TYPES: Dict[int, Type["Message"]] = {}


class Message:
    """Base class: every frame body is one typed, round-trippable message.

    A subclass declares its payload and writes no codec code:

    * ``TYPE``: the frame's message-type byte;
    * ``WIRE``: ``(field, codec)`` pairs in wire order, which need not be
      the dataclass field order;
    * ``TRAILERS``: the optional trailing blocks it accepts, ``("trace",)``
      or ``("trace", "idem")``;
    * ``OP`` (requests only): the op name the server dispatches, meters and
      traces the request under. A request with ``"idem"`` in ``TRAILERS``
      mutates state and carries an idempotency token under a retry policy.

    Defining the subclass registers ``TYPE`` with the frame decoder.

    Trailer rule: each trailer is a presence flag, then its block. Absent
    trailers at the end are not written, so a payload may simply end after
    its last ``WIRE`` field (the image of frames from before the blocks
    existed). An absent trailer before a present one is an explicit 0 flag.
    """

    TYPE = -1
    OP = ""
    WIRE: Tuple[Tuple[str, Codec], ...] = ()
    TRAILERS: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.TYPE in _MESSAGE_TYPES:  # pragma: no cover - module definition bug
            raise ValueError(f"duplicate message type 0x{cls.TYPE:02x}")
        _MESSAGE_TYPES[cls.TYPE] = cls
        names = tuple(name for name, _ in cls.WIRE) + cls.TRAILERS
        codecs = [codec for _, codec in cls.WIRE] + [
            since_v1(optional(_TRAILER_CODECS[name]), None) for name in cls.TRAILERS
        ]
        getter = attrgetter(*names)
        cls._values = staticmethod(
            getter if len(names) > 1 else lambda message: (getter(message),)
        )
        cls._names = names
        cls._puts = tuple(codec.put for codec in codecs)
        cls._gets = tuple(codec.get for codec in codecs)

    def encode_payload(self) -> bytes:
        values = self._values(self)
        end = len(values)
        while end > len(self.WIRE) and values[end - 1] is None:
            end -= 1  # trailing absent trailers are not written
        out = bytearray()
        for put, value in zip(self._puts, values[:end]):
            put(out, value)
        return bytes(out)

    @classmethod
    def decode_payload(cls, buf: bytes) -> "Message":
        fields = {}
        offset = 0
        for name, get in zip(cls._names, cls._gets):
            fields[name], offset = get(buf, offset)
        _expect_end(buf, offset)
        return cls(**fields)


def _expect_end(buf: bytes, offset: int) -> None:
    if offset != len(buf):
        raise ProtocolError(
            f"{len(buf) - offset} trailing byte(s) after payload decode"
        )


@dataclass(frozen=True)
class PingRequest(Message):
    """Liveness probe; answered by :class:`PongResponse`."""

    TYPE = 0x01
    OP = "ping"
    WIRE = (("tenant", STR),)
    TRAILERS = ("trace",)
    tenant: str = ""
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class StatsRequest(Message):
    """Request the server's JSON stats snapshot (metrics + engine + tenants)."""

    TYPE = 0x02
    OP = "stats"
    WIRE = (("tenant", STR),)
    TRAILERS = ("trace",)
    tenant: str = ""
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class GetRequest(Message):
    TYPE = 0x03
    OP = "get"
    WIRE = (("tenant", STR), ("key", BYTES))
    TRAILERS = ("trace",)
    tenant: str
    key: bytes
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class PutRequest(Message):
    """Single durable write; ``ttl`` (simulated seconds) is an optional
    expiry, added after the first release (an older peer's payload ends
    after ``value``)."""

    TYPE = 0x04
    OP = "put"
    WIRE = (
        ("tenant", STR), ("key", BYTES), ("value", BYTES),
        ("ttl", since_v1(optional(F64), None)),
    )
    TRAILERS = ("trace", "idem")
    tenant: str
    key: bytes
    value: bytes
    ttl: Optional[float] = None
    trace: Optional[TraceContext] = None
    idem: Optional[Tuple[str, int]] = None


@dataclass(frozen=True)
class DeleteRequest(Message):
    TYPE = 0x05
    OP = "delete"
    WIRE = (("tenant", STR), ("key", BYTES))
    TRAILERS = ("trace", "idem")
    tenant: str
    key: bytes
    trace: Optional[TraceContext] = None
    idem: Optional[Tuple[str, int]] = None


@dataclass(frozen=True)
class MultiGetRequest(Message):
    TYPE = 0x06
    OP = "multi_get"
    WIRE = (("tenant", STR), ("keys", seq(BYTES)))
    TRAILERS = ("trace",)
    tenant: str
    keys: Tuple[bytes, ...] = ()
    trace: Optional[TraceContext] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(bytes(k) for k in self.keys))


@dataclass(frozen=True)
class ScanRequest(Message):
    """Range scan; ``start``/``end`` are inclusive bounds (None = unbounded),
    mirroring :meth:`LSMTree.scan`. ``limit`` caps the reply's entry count
    (the server clamps it to its own ``scan_limit_max``)."""

    TYPE = 0x07
    OP = "scan"
    WIRE = (
        ("tenant", STR), ("start", optional(BYTES)), ("end", optional(BYTES)),
        ("limit", UINT),
    )
    TRAILERS = ("trace",)
    tenant: str
    start: Optional[bytes] = None
    end: Optional[bytes] = None
    limit: int = 1000
    trace: Optional[TraceContext] = None


def _normalize_wire_ops(ops) -> "Tuple[tuple, ...]":
    """Validate/normalize wire batch ops (shared by Batch and TxnCommit).

    Accepted shapes: ``("put", key, value)``, ``("delete", key, b"")``
    (value ignored), ``("merge", key, operand, operator)``, and
    ``("put_ttl", key, value, ttl_seconds)``. 3-tuples for put/delete are
    normalized to carry their implicit extra (None).
    """
    normalized = []
    for op in ops:
        kind, key, value = op[0], op[1], op[2]
        extra = op[3] if len(op) > 3 else None
        if kind not in _WIRE_OP_KINDS:
            raise ValueError(
                f"batch op kind must be one of {_WIRE_OP_KINDS}, got {kind!r}"
            )
        if kind == "merge":
            extra = str(extra if extra is not None else "counter")
        elif kind == "put_ttl":
            if extra is None:
                raise ValueError("put_ttl op requires a ttl seconds extra")
            extra = float(extra)
        else:
            extra = None
        normalized.append((kind, bytes(key), bytes(value or b""), extra))
    return tuple(normalized)


@dataclass(frozen=True)
class BatchRequest(Message):
    """Atomically ordered writes: ``ops`` are ``(kind, key, value[, extra])``
    tuples with kind ``put`` / ``delete`` / ``merge`` / ``put_ttl`` —
    ``extra`` is the operator name (merge) or the TTL in simulated seconds
    (put_ttl). Normalized ops always carry the 4th element."""

    TYPE = 0x08
    OP = "batch"
    WIRE = (("tenant", STR), ("ops", seq(BATCH_OP)))
    TRAILERS = ("trace", "idem")
    tenant: str
    ops: Tuple[tuple, ...] = ()
    trace: Optional[TraceContext] = None
    idem: Optional[Tuple[str, int]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", _normalize_wire_ops(self.ops))


@dataclass(frozen=True)
class MergeRequest(Message):
    """A single merge-operand write for a named (pre-registered) operator."""

    TYPE = 0x0A
    OP = "merge"
    WIRE = (
        ("tenant", STR), ("key", BYTES), ("operand", BYTES), ("operator", STR),
    )
    TRAILERS = ("trace", "idem")
    tenant: str
    key: bytes
    operand: bytes
    operator: str = "counter"
    trace: Optional[TraceContext] = None
    idem: Optional[Tuple[str, int]] = None


@dataclass(frozen=True)
class TxnCommitRequest(Message):
    """An optimistic-transaction commit: read-set fingerprints + write ops.

    ``read_set`` maps each footprint key to the seqno the client observed
    (the ``GetResult.seqno`` the server reported; 0 = absent). The server
    validates under the engine mutex and answers ``OkResponse`` or an
    ``ErrorResponse`` with code ``conflict``.
    """

    TYPE = 0x0B
    OP = "txn_commit"
    WIRE = (
        ("tenant", STR), ("read_set", seq(BYTES, UINT)), ("ops", seq(BATCH_OP)),
    )
    TRAILERS = ("trace", "idem")
    tenant: str
    read_set: Tuple[Tuple[bytes, int], ...] = ()
    ops: Tuple[tuple, ...] = ()
    trace: Optional[TraceContext] = None
    idem: Optional[Tuple[str, int]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "read_set",
            tuple(sorted((bytes(k), int(s)) for k, s in dict(self.read_set).items())),
        )
        object.__setattr__(self, "ops", _normalize_wire_ops(self.ops))


@dataclass(frozen=True)
class StatsHistoryRequest(Message):
    """Request the server's time-series history (the sampler's ring buffers).

    ``last_n`` limits each series to its most recent N points (0 = all
    retained points).
    """

    TYPE = 0x09
    OP = "stats_history"
    WIRE = (("tenant", STR), ("last_n", UINT))
    TRAILERS = ("trace",)
    tenant: str = ""
    last_n: int = 0
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class PongResponse(Message):
    TYPE = 0x81
    WIRE = (("server_uptime_s", F64), ("engine_uptime_s", F64))
    server_uptime_s: float = 0.0
    engine_uptime_s: float = 0.0


@dataclass(frozen=True)
class StatsResponse(Message):
    """The server's stats snapshot as a JSON document (UTF-8)."""

    TYPE = 0x82
    WIRE = (("payload_json", STR),)
    payload_json: str = "{}"


@dataclass(frozen=True)
class GetResponse(Message):
    """Point-lookup reply. ``seqno`` is the newest observed version of the
    key (0 when absent) — the fingerprint optimistic transactions validate
    against; added after the first release (older peers' payloads end after
    ``value`` and decode as seqno 0)."""

    TYPE = 0x83
    WIRE = (("found", BOOL), ("value", BYTES), ("seqno", since_v1(UINT, 0)))
    found: bool = False
    value: bytes = b""
    seqno: int = 0


@dataclass(frozen=True)
class OkResponse(Message):
    """Acknowledges a write; ``count`` is the records applied (batch size)."""

    TYPE = 0x84
    WIRE = (("count", UINT),)
    count: int = 1


@dataclass(frozen=True)
class MultiGetResponse(Message):
    """Per-key results, in the request's key order: ``(key, found, value)``."""

    TYPE = 0x85
    WIRE = (("entries", seq(BYTES, BOOL, BYTES)),)
    entries: Tuple[Tuple[bytes, bool, bytes], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "entries",
            tuple((bytes(k), bool(f), bytes(v)) for k, f, v in self.entries),
        )


@dataclass(frozen=True)
class ScanResponse(Message):
    """Scan results; ``truncated`` signals the limit cut the range short."""

    TYPE = 0x86
    WIRE = (("truncated", BOOL), ("items", seq(BYTES, BYTES)))
    items: Tuple[Tuple[bytes, bytes], ...] = ()
    truncated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "items", tuple((bytes(k), bytes(v)) for k, v in self.items)
        )


@dataclass(frozen=True)
class ErrorResponse(Message):
    """A failed request. ``code`` is machine-readable (``bad_request``,
    ``throttled``, ``engine``, ``internal``, ``shutting_down``, ``busy``,
    ``overloaded``)."""

    TYPE = 0x8F
    WIRE = (("code", STR), ("message", STR))
    code: str = "internal"
    message: str = ""


@dataclass(frozen=True)
class StatsHistoryResponse(Message):
    """The sampler's ring-buffer series as a JSON document (UTF-8).

    Shape: ``{"samples": n, "capacity": c, "series": {name: {"kind":
    "cumulative"|"level", "t": [...], "v": [...]}}}`` — the direct rendering
    of :meth:`~repro.observe.TimeSeriesSampler.as_dict`.
    """

    TYPE = 0x87
    WIRE = (("payload_json", STR),)
    payload_json: str = "{}"


REQUEST_TYPES = tuple(cls for cls in _MESSAGE_TYPES.values() if cls.OP)
RESPONSE_TYPES = tuple(cls for cls in _MESSAGE_TYPES.values() if not cls.OP)


# -- framing ------------------------------------------------------------------


def encode_frame(message: Message) -> bytes:
    """Serialize one message into a complete CRC-trailed frame."""
    payload = message.encode_payload()
    header = _HEADER.pack(MAGIC, VERSION, message.TYPE, len(payload))
    body = header + payload
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def try_decode_frame(
    buf: bytes, offset: int = 0, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> Optional[Tuple[Message, int]]:
    """Decode one frame at ``offset`` if fully buffered.

    Returns:
        ``(message, next_offset)``, or None when more bytes are needed.

    Raises:
        ProtocolError: on a structurally invalid frame (bad magic/version/
            type/length/CRC, or a payload that does not decode exactly).
    """
    available = len(buf) - offset
    if available < HEADER_SIZE:
        return None
    magic, version, msg_type, length = _HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic 0x{magic:04x} (expected 0x{MAGIC:04x})")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if length > max_payload:
        raise ProtocolError(f"frame payload {length} exceeds limit {max_payload}")
    total = HEADER_SIZE + length + TRAILER_SIZE
    if available < total:
        return None
    body_end = offset + HEADER_SIZE + length
    (expected_crc,) = _CRC.unpack_from(buf, body_end)
    actual_crc = zlib.crc32(bytes(buf[offset:body_end])) & 0xFFFFFFFF
    if actual_crc != expected_crc:
        raise ProtocolError(
            f"frame CRC mismatch (stored 0x{expected_crc:08x}, "
            f"computed 0x{actual_crc:08x})"
        )
    cls = _MESSAGE_TYPES.get(msg_type)
    if cls is None:
        raise ProtocolError(f"unknown message type 0x{msg_type:02x}")
    payload = bytes(buf[offset + HEADER_SIZE : body_end])
    try:
        message = cls.decode_payload(payload)
    except ProtocolError:
        raise
    except (ValueError, struct.error) as exc:
        raise ProtocolError(f"malformed {cls.__name__} payload: {exc}") from None
    return message, offset + total


def decode_frame(
    buf: bytes, offset: int = 0, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> Tuple[Message, int]:
    """Like :func:`try_decode_frame` but truncation is an error."""
    decoded = try_decode_frame(buf, offset, max_payload)
    if decoded is None:
        raise ProtocolError("truncated frame")
    return decoded


@dataclass
class FrameDecoder:
    """A streaming frame accumulator for a byte-oriented transport.

    Feed it arbitrary chunks; it returns every newly completed message (and
    also queues them for :meth:`next_message`), keeping the unconsumed tail
    buffered. A :class:`ProtocolError` raised by :meth:`feed` poisons the
    stream (resynchronizing inside a corrupt byte stream is not safe for a
    length-prefixed format).
    """

    max_payload: int = DEFAULT_MAX_PAYLOAD
    _buffer: bytearray = field(default_factory=bytearray)
    _ready: "deque" = field(default_factory=deque)

    def feed(self, data: bytes) -> List[Message]:
        self._buffer.extend(data)
        messages: List[Message] = []
        offset = 0
        while True:
            decoded = try_decode_frame(self._buffer, offset, self.max_payload)
            if decoded is None:
                break
            message, offset = decoded
            messages.append(message)
        if offset:
            del self._buffer[:offset]
        self._ready.extend(messages)
        return messages

    def next_message(self) -> Optional[Message]:
        """Pop one already-decoded message, or None if none is queued."""
        return self._ready.popleft() if self._ready else None

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)


# -- socket adapters ----------------------------------------------------------


def send_message(sock, message: Message) -> None:
    """Write one message as a frame to a blocking socket."""
    sock.sendall(encode_frame(message))


def recv_message(
    sock, decoder: FrameDecoder, recv_bytes: int = 64 << 10
) -> Optional[Message]:
    """Read exactly one message from a blocking socket.

    Frames already buffered in ``decoder`` (a previous recv may have pulled
    several) are drained before the socket is read again. Returns None on a
    clean EOF at a frame boundary.

    Raises:
        ProtocolError: on EOF inside a frame or on a corrupt frame.
    """
    while True:
        queued = decoder.next_message()
        if queued is not None:
            return queued
        chunk = sock.recv(recv_bytes)
        if not chunk:
            if decoder.pending_bytes:
                raise ProtocolError("connection closed mid-frame")
            return None
        decoder.feed(chunk)
