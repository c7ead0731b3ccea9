"""Wire protocol properties: round-trips, truncation, and corruption."""

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.protocol import (
    DEFAULT_MAX_PAYLOAD,
    HEADER_SIZE,
    MAGIC,
    TRAILER_SIZE,
    VERSION,
    BatchRequest,
    DeleteRequest,
    ErrorResponse,
    FrameDecoder,
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
    REQUEST_TYPES,
    RESPONSE_TYPES,
    ScanRequest,
    ScanResponse,
    StatsHistoryRequest,
    StatsHistoryResponse,
    StatsRequest,
    StatsResponse,
    TraceContext,
    TxnCommitRequest,
    _MESSAGE_TYPES,
    decode_frame,
    encode_frame,
    try_decode_frame,
)
from tests.server.test_golden_frames import load_golden

# -- strategies ----------------------------------------------------------------

_text = st.text(max_size=24)
_key = st.binary(max_size=48)
_value = st.binary(max_size=48)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_limit = st.integers(min_value=0, max_value=2**32)
# Every request may carry the optional trailing trace-context block.
_trace = st.none() | st.builds(
    TraceContext, trace_id=_text, span_id=_text, sampled=st.booleans()
)

# Mixed-kind write ops: puts/deletes as legacy triples, merges and TTL'd
# puts with their kind-specific extras.
_wire_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["put", "delete"]), _key, _value),
        st.tuples(st.just("merge"), _key, _value, st.text(min_size=1, max_size=12)),
        st.tuples(st.just("put_ttl"), _key, _value, _floats),
    ),
    max_size=6,
).map(tuple)

_REQUEST_STRATEGIES = {
    PingRequest: st.builds(PingRequest, tenant=_text, trace=_trace),
    StatsRequest: st.builds(StatsRequest, tenant=_text, trace=_trace),
    GetRequest: st.builds(GetRequest, tenant=_text, key=_key, trace=_trace),
    PutRequest: st.builds(
        PutRequest,
        tenant=_text,
        key=_key,
        value=_value,
        ttl=st.none() | _floats,
        trace=_trace,
    ),
    DeleteRequest: st.builds(DeleteRequest, tenant=_text, key=_key, trace=_trace),
    MultiGetRequest: st.builds(
        MultiGetRequest,
        tenant=_text,
        keys=st.lists(_key, max_size=6).map(tuple),
        trace=_trace,
    ),
    ScanRequest: st.builds(
        ScanRequest,
        tenant=_text,
        start=st.none() | _key,
        end=st.none() | _key,
        limit=_limit,
        trace=_trace,
    ),
    BatchRequest: st.builds(
        BatchRequest,
        tenant=_text,
        ops=_wire_ops,
        trace=_trace,
    ),
    MergeRequest: st.builds(
        MergeRequest,
        tenant=_text,
        key=_key,
        operand=_value,
        operator=_text,
        trace=_trace,
    ),
    TxnCommitRequest: st.builds(
        TxnCommitRequest,
        tenant=_text,
        read_set=st.lists(
            st.tuples(_key, st.integers(min_value=0, max_value=2**40)),
            max_size=6,
            unique_by=lambda pair: pair[0],
        ).map(tuple),
        ops=_wire_ops,
        trace=_trace,
    ),
    StatsHistoryRequest: st.builds(
        StatsHistoryRequest,
        tenant=_text,
        last_n=st.integers(min_value=0, max_value=2**20),
        trace=_trace,
    ),
}

_RESPONSE_STRATEGIES = {
    PongResponse: st.builds(
        PongResponse, server_uptime_s=_floats, engine_uptime_s=_floats
    ),
    StatsResponse: st.builds(StatsResponse, payload_json=_text),
    GetResponse: st.builds(
        GetResponse,
        found=st.booleans(),
        value=_value,
        seqno=st.integers(min_value=0, max_value=2**40),
    ),
    OkResponse: st.builds(OkResponse, count=st.integers(min_value=0, max_value=2**40)),
    MultiGetResponse: st.builds(
        MultiGetResponse,
        entries=st.lists(
            st.tuples(_key, st.booleans(), _value), max_size=6
        ).map(tuple),
    ),
    ScanResponse: st.builds(
        ScanResponse,
        items=st.lists(st.tuples(_key, _value), max_size=6).map(tuple),
        truncated=st.booleans(),
    ),
    ErrorResponse: st.builds(ErrorResponse, code=_text, message=_text),
    StatsHistoryResponse: st.builds(StatsHistoryResponse, payload_json=_text),
}

_requests = st.one_of(*_REQUEST_STRATEGIES.values())
_responses = st.one_of(*_RESPONSE_STRATEGIES.values())
_messages = st.one_of(_requests, _responses)


# -- round trips ---------------------------------------------------------------


class TestRoundTrip:
    @given(_messages)
    def test_every_frame_round_trips(self, message):
        frame = encode_frame(message)
        decoded, end = decode_frame(frame)
        assert decoded == message
        assert end == len(frame)

    @given(_messages, st.integers(min_value=1, max_value=7))
    def test_streaming_decoder_any_chunking(self, message, chunk):
        frame = encode_frame(message)
        decoder = FrameDecoder()
        seen = []
        for i in range(0, len(frame), chunk):
            seen.extend(decoder.feed(frame[i : i + chunk]))
        assert seen == [message]
        assert decoder.pending_bytes == 0

    @given(st.lists(_messages, min_size=2, max_size=4))
    def test_back_to_back_frames_decode_in_order(self, messages):
        stream = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        assert decoder.feed(stream) == messages
        # next_message drains the same queue
        decoder2 = FrameDecoder()
        decoder2.feed(stream)
        drained = []
        while (msg := decoder2.next_message()) is not None:
            drained.append(msg)
        assert drained == messages

    def test_all_registered_types_covered(self):
        # The strategies above and the golden frames must exercise every
        # registered type, and the exported request/response lists must
        # name exactly the registered types.
        registered = set(_MESSAGE_TYPES.values())
        assert set(REQUEST_TYPES) | set(RESPONSE_TYPES) == registered
        assert set(_REQUEST_STRATEGIES) == set(REQUEST_TYPES)
        assert set(_RESPONSE_STRATEGIES) == set(RESPONSE_TYPES)
        golden = {case["type"] for case in load_golden() if case["encodes"]}
        assert golden == {cls.__name__ for cls in registered}


# -- truncation ----------------------------------------------------------------


class TestTruncation:
    @given(_messages, st.data())
    def test_any_strict_prefix_is_incomplete_not_corrupt(self, message, data):
        frame = encode_frame(message)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        assert try_decode_frame(frame[:cut]) is None

    @given(_messages)
    def test_decode_frame_raises_on_truncation(self, message):
        frame = encode_frame(message)
        with pytest.raises(ProtocolError):
            decode_frame(frame[: len(frame) - 1])

    def test_mid_frame_eof_detected_by_socket_reader(self):
        # recv_message raises when the peer dies inside a frame.
        from repro.server.protocol import recv_message

        frame = encode_frame(PingRequest(tenant="t"))

        class HalfSocket:
            def __init__(self):
                self.chunks = [frame[: len(frame) // 2], b""]

            def recv(self, n):
                return self.chunks.pop(0)

        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_message(HalfSocket(), FrameDecoder())


# -- corruption ----------------------------------------------------------------


class TestCorruption:
    @settings(max_examples=200)
    @given(_messages, st.data())
    def test_single_byte_corruption_never_yields_a_message(self, message, data):
        frame = bytearray(encode_frame(message))
        pos = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        frame[pos] ^= flip
        try:
            decoded = try_decode_frame(bytes(frame))
        except ProtocolError:
            return  # rejected loudly: the property holds
        # A grown length field can make the frame look incomplete — also
        # acceptable. What must never happen is a silently decoded message.
        assert decoded is None

    def _frame(self, msg_type, payload, magic=MAGIC, version=VERSION, crc=None):
        header = struct.pack(">HBBI", magic, version, msg_type, len(payload))
        body = header + payload
        if crc is None:
            crc = zlib.crc32(body) & 0xFFFFFFFF
        return body + struct.pack(">I", crc)

    def test_bad_magic_rejected(self):
        with pytest.raises(ProtocolError, match="magic"):
            try_decode_frame(self._frame(0x01, b"\x00", magic=0xDEAD))

    def test_unknown_version_rejected(self):
        with pytest.raises(ProtocolError, match="version"):
            try_decode_frame(self._frame(0x01, b"\x00", version=9))

    def test_unknown_message_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            try_decode_frame(self._frame(0x7F, b""))

    def test_crc_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="CRC"):
            try_decode_frame(self._frame(0x01, b"\x00", crc=0))

    def test_over_limit_payload_rejected_before_buffering(self):
        header = struct.pack(
            ">HBBI", MAGIC, VERSION, 0x01, DEFAULT_MAX_PAYLOAD + 1
        )
        with pytest.raises(ProtocolError, match="exceeds limit"):
            try_decode_frame(header)

    def test_trailing_payload_bytes_rejected(self):
        # A structurally valid frame whose payload has junk after the
        # typed fields must not decode (every decoder calls _expect_end).
        # b"\x00" decodes as "no trace context"; the 0xff after it is junk.
        payload = PingRequest(tenant="t").encode_payload() + b"\x00\xff"
        with pytest.raises(ProtocolError, match="trailing"):
            try_decode_frame(self._frame(PingRequest.TYPE, payload))

    def test_bad_trace_flag_byte_rejected(self):
        # A trailing byte that is neither a valid trace block nor absent.
        payload = PingRequest(tenant="t").encode_payload() + b"\xff"
        with pytest.raises(ProtocolError, match="boolean"):
            try_decode_frame(self._frame(PingRequest.TYPE, payload))

    def test_trace_block_round_trips_and_is_optional_on_the_wire(self):
        bare = GetRequest(tenant="t", key=b"k")
        traced = GetRequest(
            tenant="t", key=b"k",
            trace=TraceContext(trace_id="abc123", span_id="d4", sampled=True),
        )
        # The traceless payload is byte-identical to the pre-trace format.
        assert bare.encode_payload() == b"\x01t\x01k"
        for message in (bare, traced):
            decoded, _ = decode_frame(encode_frame(message))
            assert decoded == message

    def test_bad_bool_byte_rejected(self):
        payload = b"\x07" + GetResponse(found=True, value=b"x").encode_payload()[1:]
        with pytest.raises(ProtocolError, match="boolean"):
            try_decode_frame(self._frame(GetResponse.TYPE, payload))

    def test_invalid_utf8_tenant_rejected(self):
        payload = b"\x02\xff\xfe"  # length-2 string that is not utf-8
        with pytest.raises(ProtocolError, match="utf-8"):
            try_decode_frame(self._frame(PingRequest.TYPE, payload))

    def test_unknown_batch_kind_rejected(self):
        out = bytearray()
        out.append(0)  # empty tenant string
        out.append(1)  # one op
        out.append(9)  # kind byte out of range
        with pytest.raises(ProtocolError, match="batch op kind"):
            try_decode_frame(self._frame(BatchRequest.TYPE, bytes(out)))

    def test_header_and_trailer_sizes_documented(self):
        frame = encode_frame(OkResponse(count=1))
        payload = OkResponse(count=1).encode_payload()
        assert len(frame) == HEADER_SIZE + len(payload) + TRAILER_SIZE
