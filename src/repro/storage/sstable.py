"""Sorted String Tables: the immutable sorted-run file format.

An SSTable is written once (by a flush or a compaction), sealed, and then only
read. On creation it packs entries into fixed-size data blocks and builds the
auxiliary structures the tutorial surveys:

* a **search index** over the data blocks — classic fence pointers by default,
  or any :class:`~repro.indexes.base.SearchIndex` (learned indexes, etc.);
* an optional **point filter** (Bloom and friends) consulted before any I/O;
* an optional **range filter** (prefix Bloom / SuRF / Rosetta / SNARF)
  consulted before range scans;
* an optional **per-block hash index** for O(1) in-block lookup.

Index and filter payloads are also written to the file as trailing blocks so
that flush/compaction write-amplification accounts for them, exactly as in
LevelDB/RocksDB; at read time the in-memory copies are used (the tutorial:
"such light-weight data structures are typically pre-fetched to memory").
"""

from __future__ import annotations

import bisect
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Union

from repro.common.encoding import (
    decode_varint,
    encode_varint,
    get_length_prefixed,
)
from repro.common.entry import Entry, EntryKind
from repro.errors import CorruptionError, ReproError
from repro.storage.block_device import BlockDevice
from repro.storage.compression import (
    FRAME_MAGIC as _FRAME_MAGIC,
    Codec,
    codec_by_id,
    get_codec,
    is_compressed_frame,
)

# Compressed-frame layout (SegmentDB-style: sizes + data + checksum; the
# compressed size is implicit in the payload length):
#
#   +-------+----------+---------------------+-----------------+-----------+
#   | magic | codec_id | varint uncompressed | compressed data | crc32 (4) |
#   +-------+----------+---------------------+-----------------+-----------+
#
# The trailing CRC covers every preceding byte, i.e. the *compressed* payload
# plus its header, so bit rot is detected before the codec runs. Legacy
# blocks (and every block written with compression='none') keep the seed
# layout ``crc32 | body``; parse_block() accepts both, so files written
# before this format — and WAL/value-log blocks, which never compress —
# keep working unchanged.


@dataclass
class ProbeStats:
    """Filter/index accounting for one or more point lookups."""

    filter_probes: int = 0
    filter_negatives: int = 0
    false_positives: int = 0
    index_probes: int = 0
    blocks_read: int = 0
    cache_hits: int = 0  # block accesses served from the block cache

    def merge(self, other: "ProbeStats") -> None:
        self.filter_probes += other.filter_probes
        self.filter_negatives += other.filter_negatives
        self.false_positives += other.false_positives
        self.index_probes += other.index_probes
        self.blocks_read += other.blocks_read
        self.cache_hits += other.cache_hits


# Estimated resident cost of one decoded Entry beyond its key/value bytes:
# the Entry object (four __slots__) plus two bytes-object headers. Used for
# cache charge accounting, where the budget must bound *decoded* memory.
_ENTRY_RESIDENT_OVERHEAD = 72


def _decoded_charge(entries: Sequence[Entry]) -> int:
    """Resident size of a decoded block: key and value bytes plus per-entry overhead."""
    charge = 56  # the DataBlock itself + entries list header
    for entry in entries:
        charge += len(entry.key) + len(entry.value) + _ENTRY_RESIDENT_OVERHEAD
    return charge


def _offset_typecode(block_size: int) -> str:
    """Array typecode wide enough for every entry offset in a block body."""
    return "H" if block_size <= 0xFFFF else "I"


class DataBlock:
    """A parsed data block: sorted entries plus an optional hash index.

    A block built by :meth:`lazy` holds a checksum-verified body and its
    entry offsets instead of entries: :meth:`find` bisects the offsets and
    decodes only the matching entry, and the first access to
    :attr:`entries` decodes the whole body and drops it.
    """

    __slots__ = ("_entries", "_lazy", "hash_index", "_keys", "_charge")

    def __init__(self, entries: Optional[List[Entry]], build_hash_index: bool = False) -> None:
        self._entries = entries
        self._lazy: "Optional[tuple[bytes, Sequence[int]]]" = None
        self.hash_index = (
            {entry.key: i for i, entry in enumerate(entries)} if build_hash_index else None
        )
        self._keys: Optional[List[bytes]] = None  # built on first binary search
        self._charge: Optional[int] = None  # decoded resident size, computed once

    @classmethod
    def lazy(cls, body: bytes, offsets: Sequence[int], charge: int) -> "DataBlock":
        """Wrap a verified block body searched through its entry offsets.

        ``offsets`` holds each entry's start in ``body``; ``charge`` is the
        decoded block's :attr:`charge_bytes`, so caching the body costs the
        cache no more headroom than caching its entries would.
        """
        block = cls(None)
        block._lazy = (body, offsets)
        block._charge = charge
        return block

    @property
    def entries(self) -> List[Entry]:
        """The block's entries, decoded from a lazy block's body on first use."""
        entries = self._entries
        if entries is None:
            lazy = self._lazy
            if lazy is None:  # another thread decoded between the two reads
                return self._entries
            entries = self._entries = _decode_entries(lazy[0], None)
            self._lazy = None
        return entries

    def keys_list(self) -> List[bytes]:
        """The block's sorted key list, decoded once and cached.

        Cached blocks are probed and window-sliced many times; rebuilding
        this list per access dominated the point-read profile.
        """
        keys = self._keys
        if keys is None:
            keys = self._keys = [entry.key for entry in self.entries]
        return keys

    def find(self, key: bytes) -> Optional[Entry]:
        """Locate ``key`` via the offsets, the hash index, or binary search."""
        lazy = self._lazy
        if lazy is not None:
            return _find_at_offsets(lazy[0], lazy[1], key)
        if self.hash_index is not None:
            idx = self.hash_index.get(key)
            return self.entries[idx] if idx is not None else None
        keys = self.keys_list()
        idx = bisect.bisect_left(keys, key)
        entries = self.entries
        if idx < len(entries) and entries[idx].key == key:
            return entries[idx]
        return None

    @property
    def charge_bytes(self) -> int:
        """Resident (decoded) size for cache accounting.

        This is what the block costs while cached — key and value bytes plus
        per-entry object overhead — **not** its on-device size. Compressed
        files would otherwise let the uncompressed cache tier hold several
        times its configured budget in decoded memory. A lazy block is
        charged the same, which bounds its body from above.
        """
        charge = self._charge
        if charge is None:
            charge = self._charge = _decoded_charge(self.entries)
        return charge

    @property
    def first_key(self) -> bytes:
        return self.entries[0].key

    @property
    def last_key(self) -> bytes:
        return self.entries[-1].key


def _find_at_offsets(body: bytes, offsets: Sequence[int], key: bytes) -> Optional[Entry]:
    """Bisect a verified body's entry offsets for ``key``; decode only the match.

    The checksum was verified before any offset is trusted, so a malformed
    field here means the offsets disagree with the body: reported as
    corruption, never as an ``IndexError``.
    """
    try:
        lo, hi = 0, len(offsets)
        while lo < hi:
            mid = (lo + hi) >> 1
            length, pos = decode_varint(body, offsets[mid])
            end = pos + length
            probe = body[pos:end]
            if probe < key:
                lo = mid + 1
            elif probe > key:
                hi = mid
            else:
                seqno, pos = decode_varint(body, end)
                kind_byte = body[pos]
                if kind_byte > 3:  # PUT, DELETE, MERGE, PUT_TTL
                    raise CorruptionError(f"invalid entry kind {kind_byte}")
                value, _ = get_length_prefixed(body, pos + 1)
                return Entry(key=probe, seqno=seqno, kind=_ENTRY_KINDS[kind_byte], value=value)
        return None
    except (IndexError, ValueError) as exc:
        raise CorruptionError(f"entry offsets disagree with block body: {exc}") from exc


def _encode_body(entries: Sequence[Entry], offsets=None) -> bytearray:
    """Pack entries into the (uncompressed) block body.

    One flat loop with bound locals: `bytearray.__iadd__` and the interned
    single-byte varints keep per-entry allocation to the unavoidable minimum
    (this runs once per block per flush/compaction, inside the write path).
    When ``offsets`` (an array or list) is given, each entry's start in the
    body is appended to it — the positions a point lookup bisects.
    """
    body = bytearray(encode_varint(len(entries)))
    varint = encode_varint
    append = body.append
    mark = (offsets if offsets is not None else []).append
    for entry in entries:
        key = entry.key
        value = entry.value
        mark(len(body))
        body += varint(len(key))
        body += key
        body += varint(entry.seqno)
        append(int(entry.kind))
        body += varint(len(value))
        body += value
    return body


def encode_block(
    entries: Sequence[Entry], codec: Optional[Codec] = None, offsets=None
) -> "tuple[bytes, int, int]":
    """Serialize entries into an on-device payload, optionally compressed.

    With no codec (or the ``none`` codec) the legacy ``crc32 | body`` layout
    is emitted, bit-identical to pre-compression files. Otherwise the block
    is compressed and framed (see ``_FRAME_MAGIC``); blocks the codec cannot
    shrink below their legacy size are stored in the legacy layout instead —
    a per-block decision :func:`parse_block` resolves transparently — so a
    compressed table is never larger than an uncompressed one. ``offsets``
    receives each entry's start in the uncompressed body.

    Returns:
        ``(payload, uncompressed_size, stored_size)`` where the sizes are the
        legacy payload size and ``len(payload)`` — the compression-ratio
        counters' inputs.
    """
    body = _encode_body(entries, offsets)
    uncompressed_size = 4 + len(body)
    if codec is not None and codec.codec_id != 0:
        compressed = codec.compress(bytes(body))
        frame = bytearray((_FRAME_MAGIC, codec.codec_id))
        frame += encode_varint(len(body))
        frame += compressed
        if len(frame) + 4 < uncompressed_size:
            frame += zlib.crc32(frame).to_bytes(4, "big")
            return bytes(frame), uncompressed_size, len(frame)
    payload = zlib.crc32(body).to_bytes(4, "big") + bytes(body)
    return payload, uncompressed_size, uncompressed_size


def serialize_block(entries: Sequence[Entry], codec: Optional[Codec] = None) -> bytes:
    """Serialize entries into the on-device block payload.

    The payload is checksummed, so every consumer of :func:`parse_block` —
    data blocks, value-log blocks, WAL frames — detects bit rot (verified by
    the fault-injection tests and the integrity scrubber). Pass a
    :class:`~repro.storage.compression.Codec` to emit a compressed frame.
    """
    return encode_block(entries, codec)[0]


def _decode_entries(body, stored_crc: Optional[int]) -> List[Entry]:
    """Decode a block body (``varint count`` + packed entries) into entries.

    ``body`` is any bytes-like object; the hot path hands a ``memoryview`` so
    field slicing never copies — the single ``bytes()`` per key/value below
    is the only copy made (and a no-op when the backing buffer is ``bytes``).
    When ``stored_crc`` is given it is verified *after* decoding, preserving
    the legacy contract that truncation surfaces as ``ValueError`` (spanning
    consumers like the value log's jumbo scan retry with more blocks).
    """
    count, pos = decode_varint(body, 0)
    entries: List[Entry] = []
    append = entries.append
    kinds = _ENTRY_KINDS
    for _ in range(count):
        key, pos = get_length_prefixed(body, pos)
        seqno, pos = decode_varint(body, pos)
        kind_byte = body[pos]
        if kind_byte > 3:  # PUT, DELETE, MERGE, PUT_TTL
            raise CorruptionError(f"invalid entry kind {kind_byte}")
        pos += 1
        value, pos = get_length_prefixed(body, pos)
        append(Entry(key=bytes(key), seqno=seqno, kind=kinds[kind_byte], value=bytes(value)))
    if stored_crc is not None and zlib.crc32(body) != stored_crc:
        raise CorruptionError("block checksum mismatch")
    return entries


_ENTRY_KINDS = tuple(EntryKind(i) for i in range(4))


def _framed_body(view: memoryview) -> bytes:
    """Verify a compressed frame and return its decompressed body.

    Raises only CorruptionError on any damage.
    """
    n = len(view)
    stored_crc = int.from_bytes(view[n - 4 :], "big")
    if zlib.crc32(view[: n - 4]) != stored_crc:
        raise CorruptionError("compressed block checksum mismatch")
    codec = codec_by_id(view[1])
    try:
        uncompressed_size, pos = decode_varint(view, 2)
    except ValueError as exc:
        raise CorruptionError(f"invalid compressed frame: {exc}") from exc
    if pos > n - 4:
        raise CorruptionError("invalid compressed frame: header overruns payload")
    return codec.decompress(view[pos : n - 4], uncompressed_size)


def _block_body(payload) -> bytes:
    """Checksum-verify a whole data-block payload; return its uncompressed body.

    Accepts the legacy ``crc32 | body`` layout and compressed frames. A
    payload that looks framed but fails as a frame is tried as a legacy
    block whose leading checksum happens to mimic a frame header (one in
    2^32); if that fails too, the frame's error is raised.

    Raises:
        CorruptionError: on any damage, truncation included — the checksum
            is checked before the body is used.
    """
    n = len(payload)
    if n < 4:
        raise CorruptionError(f"block of {n} bytes is too short")
    view = payload if isinstance(payload, memoryview) else memoryview(payload)
    framed_err: Optional[CorruptionError] = None
    if is_compressed_frame(view):
        try:
            return _framed_body(view)
        except CorruptionError as exc:
            framed_err = exc
    body = view[4:]
    if zlib.crc32(body) != int.from_bytes(view[:4], "big"):
        raise framed_err or CorruptionError("block checksum mismatch")
    return bytes(body)


def parse_block(payload, detect_frames: bool = True) -> List[Entry]:
    """Inverse of :func:`serialize_block`; accepts legacy and framed blocks.

    A payload that *looks* framed (magic byte + known codec id) is decoded
    through its codec; its trailing CRC disambiguates the one-in-2^32 legacy
    block whose leading checksum happens to mimic a frame header — on frame
    corruption the intact-legacy interpretation is tried before giving up.
    Accepts any bytes-like payload; a ``memoryview`` is decoded without
    copying the body.

    Args:
        payload: the on-device bytes.
        detect_frames: consumers that never write compressed frames *and*
            parse partial payloads (the value log's jumbo spans) pass False,
            both skipping the header probe and keeping truncation errors
            typed as ``ValueError`` — a frame-looking prefix must extend,
            not quarantine.

    Raises:
        CorruptionError: when the checksum does not match under either
            layout, or decompression fails.
        ValueError: on truncated legacy input (spanning consumers retry with
            more blocks; see the value log's jumbo scan).
    """
    if not payload:
        return []
    n = len(payload)
    if n < 4:
        raise CorruptionError(f"block of {n} bytes is too short")
    view = payload if isinstance(payload, memoryview) else memoryview(payload)
    if detect_frames and is_compressed_frame(view):
        # Frame-detecting consumers hand in whole payloads, so the checksum
        # is verified before anything is decoded.
        try:
            return _decode_entries(_block_body(view), None)
        except (ValueError, IndexError) as exc:
            # The checksum passed but the content is unusable (a checksum
            # collision or mis-framed data): corruption at this layer.
            raise CorruptionError(f"invalid block body: {exc}") from exc
    return _decode_entries(view[4:], int.from_bytes(view[:4], "big"))


def _entry_encoded_size(entry: Entry) -> int:
    """Upper bound on the serialized size of one entry (varints <= 5 bytes here)."""
    return len(entry.key) + len(entry.value) + 12


class SSTable:
    """A sealed sorted run file and its in-memory auxiliary structures.

    Construct through :class:`SSTableBuilder`; never directly.
    """

    def __init__(
        self,
        device: BlockDevice,
        file_id: int,
        num_data_blocks: int,
        block_first_keys: List[bytes],
        block_last_keys: List[bytes],
        block_offsets: "List[array]",
        block_charges: "array",
        entry_count: int,
        tombstone_count: int,
        search_index,
        point_filter,
        range_filter,
        hash_index: bool,
        aux_blocks: int,
        uncompressed_data_bytes: int = 0,
        compressed_data_bytes: int = 0,
    ) -> None:
        self._device = device
        self.file_id = file_id
        # Per-table compression accounting (equal when uncompressed): the
        # legacy payload bytes the data region *would* occupy vs. what it
        # actually does. The tree folds these into its ratio counters.
        self.uncompressed_data_bytes = uncompressed_data_bytes
        self.compressed_data_bytes = compressed_data_bytes
        self.num_data_blocks = num_data_blocks
        self._block_first_keys = block_first_keys
        self._block_last_keys = block_last_keys
        # Per data block: each entry's start in the uncompressed body (a
        # point lookup bisects these) and the decoded block's cache charge.
        # Both are functions of the block's bytes, so they live in memory
        # only and are recomputed by rebuild_sstable.
        self._block_offsets = block_offsets
        self._block_charges = block_charges
        self._offsets_bytes = block_charges.itemsize * len(block_charges) + sum(
            offsets.itemsize * len(offsets) for offsets in block_offsets
        )
        self.entry_count = entry_count
        self.tombstone_count = tombstone_count
        self.search_index = search_index
        self.point_filter = point_filter
        self.range_filter = range_filter
        self._hash_index = hash_index
        self.aux_blocks = aux_blocks
        self.hotness = 0  # access counter; used by ElasticBF and pickers
        self.refs = 0  # pin count: live tree + open snapshots (managed by LSMTree)
        self.born_at = 0  # flush tick when written (staleness clock; set by LSMTree)

    # -- metadata ------------------------------------------------------------

    @property
    def fence_keys(self) -> List[bytes]:
        """The decoded fence-pointer array: first key of each data block.

        Cached in memory for the table's lifetime (decoded once at build or
        recovery). Subcompaction planning bisects these to split a
        compaction's key space into block-aligned ranges.
        """
        return self._block_first_keys

    @property
    def min_key(self) -> bytes:
        return self._block_first_keys[0]

    @property
    def max_key(self) -> bytes:
        return self._block_last_keys[-1]

    @property
    def size_bytes(self) -> int:
        """Payload bytes on device (data + auxiliary blocks)."""
        return self._device.file_size(self.file_id)

    @property
    def memory_bytes(self) -> int:
        """In-memory footprint of the auxiliary structures."""
        total = sum(len(key) for key in self._block_first_keys) + self._offsets_bytes
        if self.search_index is not None:
            total += self.search_index.size_bytes
        if self.point_filter is not None:
            total += self.point_filter.size_bytes
        if self.range_filter is not None:
            total += self.range_filter.size_bytes
        return total

    def overlaps(self, lo: bytes, hi: bytes) -> bool:
        """True when the table's key range intersects the closed range [lo, hi]."""
        return not (hi < self.min_key or lo > self.max_key)

    def contains_key_range(self, key: bytes) -> bool:
        return self.min_key <= key <= self.max_key

    # -- reads ---------------------------------------------------------------

    def get(
        self,
        key: bytes,
        stats: Optional[ProbeStats] = None,
        cache=None,
        digest: Optional[int] = None,
    ) -> Optional[Entry]:
        """Point lookup inside this run file.

        Returns the entry (possibly a tombstone) or None when absent. The
        filter is consulted first; a negative answer costs no I/O. When
        ``digest`` is given and the filter supports digest probes, the
        precomputed digest is reused (shared hashing, tutorial §II-B.2).
        """
        if not self.contains_key_range(key):
            return None
        guard = self._device.guard
        if self.point_filter is not None:
            if stats is not None:
                stats.filter_probes += 1
            try:
                probe_digest = getattr(self.point_filter, "may_contain_digest", None)
                if digest is not None and probe_digest is not None:
                    positive = probe_digest(digest)
                else:
                    positive = self.point_filter.may_contain(key)
            except ReproError:
                # Broken filter: its negatives cannot be trusted, so degrade
                # to probing the data blocks instead of failing the get.
                positive = True
                if guard is not None:
                    guard.note_degraded_read()
            if not positive:
                if stats is not None:
                    stats.filter_negatives += 1
                return None

        try:
            lo, hi = self._locate_blocks(key, stats)
        except ReproError:
            # Broken index: scan every data block rather than fail the get.
            lo, hi = 0, self.num_data_blocks - 1
            if guard is not None:
                guard.note_degraded_read()
        for block_no in range(lo, hi + 1):
            if key < self._block_first_keys[block_no] or key > self._block_last_keys[block_no]:
                continue
            block = self._load_block(block_no, cache, stats)
            entry = block.find(key)
            if entry is not None:
                return entry
        if stats is not None and self.point_filter is not None:
            stats.false_positives += 1
        return None

    def iter_entries(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        cache=None,
        stats: Optional[ProbeStats] = None,
        readahead: int = 1,
    ) -> Iterator[Entry]:
        """Yield entries with ``start <= key <= end`` in key order.

        Blocks are fetched lazily so a consumer that stops early does not pay
        for the rest of the file. With ``readahead > 1`` (and no read guard
        installed) uncached blocks are fetched in coalesced spans of up to
        that many blocks per device request — one seek buys the whole span
        even when other threads interleave their own reads.
        """
        first_block = 0 if start is None else self._first_block_for(start)
        last_block = self.num_data_blocks - 1
        if end is not None:
            # Blocks whose first key exceeds ``end`` cannot contribute.
            last_block = bisect.bisect_right(self._block_first_keys, end) - 1
        if last_block < first_block:
            return
        if readahead > 1 and self._device.guard is None:
            from repro.parallel.coalesce import CoalescingReader

            reader = CoalescingReader(
                self._device,
                self.file_id,
                span=readahead,
                cache=cache,
                stats=stats,
                hash_index=self._hash_index,
            )
            blocks = reader.iter_blocks(first_block, last_block)
        else:
            blocks = (
                self._load_block(block_no, cache, stats)
                for block_no in range(first_block, last_block + 1)
            )
        # Fused emission: instead of re-testing the range per entry, bisect
        # the (cached) key list once per boundary block and hand interior
        # blocks to ``yield from`` whole — the per-entry dispatch this
        # removes dominated long-scan and merge profiles.
        for block in blocks:
            entries = block.entries
            lo = 0
            if start is not None and entries[0].key < start:
                lo = bisect.bisect_left(block.keys_list(), start)
            if end is not None and entries[-1].key > end:
                hi = bisect.bisect_right(block.keys_list(), end, lo)
                yield from entries[lo:hi]
                return
            if lo:
                yield from entries[lo:]
            else:
                yield from entries

    def get_many(
        self,
        keys: Sequence[bytes],
        stats: Optional[ProbeStats] = None,
        cache=None,
        span: int = 8,
    ) -> "dict[bytes, Entry]":
        """Batched point lookup: resolve many keys with coalesced block I/O.

        Phase one consults filters and fence pointers for every key without
        touching the device; phase two loads the union of candidate blocks,
        grouping adjacent ones into multi-block device requests; phase three
        resolves each key against its loaded blocks. Per-key filter/index
        accounting matches what per-key :meth:`get` calls would record.

        Returns a dict of ``key -> Entry`` (tombstones included) for the
        keys present in this table; absent keys are simply omitted. Falls
        back to per-key :meth:`get` when a read guard is installed, so
        retry/quarantine semantics stay per block.
        """
        if self._device.guard is not None or span < 2:
            out = {}
            for key in keys:
                entry = self.get(key, stats, cache)
                if entry is not None:
                    out[key] = entry
            return out

        candidates: "List[tuple[bytes, List[int]]]" = []
        needed: "set[int]" = set()
        for key in keys:
            if not self.contains_key_range(key):
                continue
            if self.point_filter is not None:
                if stats is not None:
                    stats.filter_probes += 1
                try:
                    positive = self.point_filter.may_contain(key)
                except ReproError:
                    positive = True  # broken filter: degrade to probing
                if not positive:
                    if stats is not None:
                        stats.filter_negatives += 1
                    continue
            try:
                lo, hi = self._locate_blocks(key, stats)
            except ReproError:
                lo, hi = 0, self.num_data_blocks - 1
            blocks = [
                block_no
                for block_no in range(lo, hi + 1)
                if self._block_first_keys[block_no] <= key <= self._block_last_keys[block_no]
            ]
            if not blocks:
                if stats is not None and self.point_filter is not None:
                    stats.false_positives += 1
                continue
            candidates.append((key, blocks))
            needed.update(blocks)
        if not candidates:
            return {}

        from repro.parallel.coalesce import CoalescingReader

        reader = CoalescingReader(
            self._device,
            self.file_id,
            span=span,
            cache=cache,
            stats=stats,
            hash_index=self._hash_index,
        )
        loaded = reader.load_many(sorted(needed))
        out = {}
        for key, blocks in candidates:
            for block_no in blocks:
                entry = loaded[block_no].find(key)
                if entry is not None:
                    out[key] = entry
                    break
            else:
                if stats is not None and self.point_filter is not None:
                    stats.false_positives += 1
        return out

    def keys(self) -> Iterator[bytes]:
        """Yield every key in the table (used by filter rebuilds and tests)."""
        for entry in self.iter_entries():
            yield entry.key

    # -- lifecycle -----------------------------------------------------------

    def delete(self) -> None:
        """Drop the underlying file (called when a compaction obsoletes it)."""
        if self._device.file_exists(self.file_id):
            self._device.delete_file(self.file_id)

    # -- internals -----------------------------------------------------------

    def _first_block_for(self, key: bytes) -> int:
        """Index of the first block whose key range may include ``key``."""
        idx = bisect.bisect_left(self._block_last_keys, key)
        return min(idx, self.num_data_blocks - 1)

    def _locate_blocks(self, key: bytes, stats: Optional[ProbeStats]) -> "tuple[int, int]":
        if stats is not None:
            stats.index_probes += 1
        if self.search_index is not None:
            lo, hi = self.search_index.locate(key)
            lo = max(lo, 0)
            hi = min(hi, self.num_data_blocks - 1)
            return lo, hi
        block = self._first_block_for(key)
        return block, block

    def _load_block(self, block_no: int, cache, stats: Optional[ProbeStats]) -> DataBlock:
        if stats is not None:
            stats.blocks_read += 1
        guard = self._device.guard

        def decode(payload) -> "tuple[DataBlock, int]":
            return self._decode_block(block_no, payload)

        def loader() -> "tuple[DataBlock, int]":
            if guard is not None:
                return guard.read_parsed(self._device, self.file_id, block_no, decode)[1]
            return decode(self._device.read_block(self.file_id, block_no))

        if cache is not None:
            key = (self.file_id, block_no)
            if stats is not None and cache.contains(key):
                stats.cache_hits += 1
            if guard is None and hasattr(cache, "get_or_load_block"):
                # Two-tier path: a compressed-tier hit decodes in memory
                # (CPU only); a full miss reads the device once and feeds
                # both tiers. With a guard installed the per-block guarded
                # loader below keeps retry/quarantine semantics.
                return cache.get_or_load_block(
                    key, lambda: self._device.read_block(self.file_id, block_no), decode
                )
            return cache.get_or_load(key, loader)
        return loader()[0]

    def _decode_block(self, block_no: int, payload) -> "tuple[DataBlock, int]":
        """Turn a data block's payload into a block plus its cache charge.

        The checksum is verified before any offset is trusted; the returned
        block bisects its offsets for point lookups and decodes its entries
        only when iterated. Tables with a per-block hash index decode every
        entry up front, since the hash map needs every key.
        """
        body = _block_body(payload)
        charge = self._block_charges[block_no]
        if self._hash_index:
            return DataBlock(_decode_entries(body, None), True), charge
        return DataBlock.lazy(body, self._block_offsets[block_no], charge), charge


# Factories let the engine plug in any index/filter without import cycles:
# they receive the full sorted key list plus each key's block number.
IndexFactory = Callable[[Sequence[bytes], Sequence[int]], object]
FilterFactory = Callable[[Sequence[bytes]], object]


def rebuild_sstable(
    device: BlockDevice,
    file_id: int,
    index_factory: Optional[IndexFactory] = None,
    filter_factory: Optional[FilterFactory] = None,
    range_filter_factory: Optional[FilterFactory] = None,
    hash_index: bool = False,
) -> SSTable:
    """Reconstruct an SSTable object from its on-device file (recovery path).

    Data blocks are scanned to recover keys and block boundaries; the
    in-memory auxiliary structures (fences, filters, indexes) are rebuilt by
    the supplied factories — the real-engine equivalent of loading the filter
    and index blocks. Auxiliary padding blocks (zero-filled) terminate the
    data region.

    Raises:
        ValueError: if the file holds no data blocks.
    """
    first_keys: List[bytes] = []
    last_keys: List[bytes] = []
    block_offsets: "List[array]" = []
    block_charges = array("I")
    typecode = _offset_typecode(device.block_size)
    keys: List[bytes] = []
    block_of_key: List[int] = []
    entry_count = 0
    tombstones = 0
    uncompressed_bytes = 0
    compressed_bytes = 0
    total_blocks = device.num_blocks(file_id)
    data_blocks = 0
    for block_no in range(total_blocks):
        payload = device.read_block(file_id, block_no)
        if not payload.strip(b"\x00"):
            break  # zero-filled auxiliary padding: end of the data region
        entries = parse_block(payload)
        if not entries:
            break
        compressed_bytes += len(payload)
        if is_compressed_frame(payload):
            # The frame header declares the body's decoded size; +4 restores
            # the legacy payload size the ratio counters compare against.
            uncompressed_bytes += 4 + decode_varint(payload, 2)[0]
        else:
            uncompressed_bytes += len(payload)
        data_blocks += 1
        first_keys.append(entries[0].key)
        last_keys.append(entries[-1].key)
        offsets = array(typecode)
        _encode_body(entries, offsets)  # the encoder is deterministic: same positions
        block_offsets.append(offsets)
        block_charges.append(_decoded_charge(entries))
        for entry in entries:
            keys.append(entry.key)
            block_of_key.append(block_no)
            entry_count += 1
            if entry.is_tombstone:
                tombstones += 1
    if not data_blocks:
        raise ValueError(f"file {file_id} holds no data blocks")
    return SSTable(
        device=device,
        file_id=file_id,
        num_data_blocks=data_blocks,
        block_first_keys=first_keys,
        block_last_keys=last_keys,
        block_offsets=block_offsets,
        block_charges=block_charges,
        entry_count=entry_count,
        tombstone_count=tombstones,
        search_index=index_factory(keys, block_of_key) if index_factory else None,
        point_filter=filter_factory(keys) if filter_factory else None,
        range_filter=range_filter_factory(keys) if range_filter_factory else None,
        hash_index=hash_index,
        aux_blocks=total_blocks - data_blocks,
        uncompressed_data_bytes=uncompressed_bytes,
        compressed_data_bytes=compressed_bytes,
    )


class SSTableBuilder:
    """Streams sorted entries into data blocks and builds the aux structures.

    Args:
        device: target block device.
        block_size: data-block payload budget (defaults to the device's).
        index_factory: builds the block search index from ``(keys, block_nos)``;
            None disables indexing (every lookup scans from a bisected guess).
        filter_factory: builds the point filter from the key list.
        range_filter_factory: builds the range filter from the key list.
        hash_index: attach a per-block hash map for O(1) in-block search.
        write_buffer_blocks: finished data blocks held back and appended as
            one coalesced span (:meth:`BlockDevice.append_blocks`); 1 (the
            default) appends each block immediately. Parallel subcompaction
            workers buffer so their interleaved appends to one shared
            device stay sequential instead of paying a head switch each.
        codec: block compression codec (a :class:`Codec` instance or a
            registry name); None or ``'none'`` writes the legacy layout.
            Blocks the codec cannot shrink are stored uncompressed, so the
            per-table ratio counters reflect what actually hit the device.
    """

    def __init__(
        self,
        device: BlockDevice,
        block_size: Optional[int] = None,
        index_factory: Optional[IndexFactory] = None,
        filter_factory: Optional[FilterFactory] = None,
        range_filter_factory: Optional[FilterFactory] = None,
        hash_index: bool = False,
        write_buffer_blocks: int = 1,
        codec: "Optional[Union[Codec, str]]" = None,
    ) -> None:
        self._device = device
        self._block_size = block_size or device.block_size
        if self._block_size > device.block_size:
            raise ValueError("table block size cannot exceed device block size")
        self._index_factory = index_factory
        self._filter_factory = filter_factory
        self._range_filter_factory = range_filter_factory
        self._hash_index = hash_index
        if isinstance(codec, str):
            codec = get_codec(codec)
        self._codec = codec if codec is not None and codec.codec_id != 0 else None
        self._uncompressed_bytes = 0
        self._stored_bytes = 0
        if write_buffer_blocks < 1:
            raise ValueError("write_buffer_blocks must be at least 1")
        self._write_buffer_blocks = write_buffer_blocks
        self._write_buffer: List[bytes] = []

        self._file_id = device.create_file()
        self._pending: List[Entry] = []
        self._pending_size = len(encode_varint(0))
        self._keys: List[bytes] = []
        self._block_of_key: List[int] = []
        self._block_first_keys: List[bytes] = []
        self._block_last_keys: List[bytes] = []
        self._offset_typecode = _offset_typecode(self._block_size)
        self._block_offsets: "List[array]" = []
        self._block_charges = array("I")
        self._entry_count = 0
        self._tombstones = 0
        self._last_key: Optional[bytes] = None
        self._finished = False

    def add(self, entry: Entry) -> None:
        """Append the next entry; keys must arrive in strictly increasing order."""
        if self._finished:
            raise RuntimeError("builder already finished")
        if self._last_key is not None and entry.key <= self._last_key:
            raise ValueError(
                f"entries must be added in strictly increasing key order "
                f"({entry.key!r} after {self._last_key!r})"
            )
        self._last_key = entry.key

        size = _entry_encoded_size(entry)
        if self._pending and self._pending_size + size > self._block_size:
            self._flush_block()
        self._pending.append(entry)
        self._pending_size += size
        self._keys.append(entry.key)
        self._block_of_key.append(len(self._block_first_keys))
        self._entry_count += 1
        if entry.is_tombstone:
            self._tombstones += 1

    def add_all(self, entries) -> None:
        """Convenience: add every entry from an iterable."""
        for entry in entries:
            self.add(entry)

    @property
    def entry_count(self) -> int:
        return self._entry_count

    def finish(self) -> SSTable:
        """Seal the file and return the readable table.

        Raises:
            ValueError: when no entries were added (empty tables are illegal;
                callers should simply skip creating them).
        """
        if self._finished:
            raise RuntimeError("builder already finished")
        if not self._entry_count:
            self._device.delete_file(self._file_id)
            raise ValueError("cannot build an empty SSTable")
        if self._pending:
            self._flush_block()
        self._drain_writes()
        self._finished = True

        search_index = (
            self._index_factory(self._keys, self._block_of_key)
            if self._index_factory is not None
            else None
        )
        point_filter = (
            self._filter_factory(self._keys) if self._filter_factory is not None else None
        )
        range_filter = (
            self._range_filter_factory(self._keys)
            if self._range_filter_factory is not None
            else None
        )

        aux_blocks = self._write_aux_blocks(search_index, point_filter, range_filter)
        self._device.seal_file(self._file_id)
        return SSTable(
            device=self._device,
            file_id=self._file_id,
            num_data_blocks=len(self._block_first_keys),
            block_first_keys=self._block_first_keys,
            block_last_keys=self._block_last_keys,
            block_offsets=self._block_offsets,
            block_charges=self._block_charges,
            entry_count=self._entry_count,
            tombstone_count=self._tombstones,
            search_index=search_index,
            point_filter=point_filter,
            range_filter=range_filter,
            hash_index=self._hash_index,
            aux_blocks=aux_blocks,
            uncompressed_data_bytes=self._uncompressed_bytes,
            compressed_data_bytes=self._stored_bytes,
        )

    def abandon(self) -> None:
        """Discard a partially written table (compaction error paths)."""
        if not self._finished and self._device.file_exists(self._file_id):
            self._device.delete_file(self._file_id)
        self._finished = True

    # -- internals -----------------------------------------------------------

    def _flush_block(self) -> None:
        offsets = array(self._offset_typecode)
        payload, uncompressed, stored = encode_block(self._pending, self._codec, offsets)
        self._block_offsets.append(offsets)
        self._block_charges.append(_decoded_charge(self._pending))
        self._uncompressed_bytes += uncompressed
        self._stored_bytes += stored
        if self._write_buffer_blocks > 1:
            self._write_buffer.append(payload)
            if len(self._write_buffer) >= self._write_buffer_blocks:
                self._drain_writes()
        else:
            self._device.append_block(self._file_id, payload)
        self._block_first_keys.append(self._pending[0].key)
        self._block_last_keys.append(self._pending[-1].key)
        self._pending = []
        self._pending_size = len(encode_varint(0))

    def _drain_writes(self) -> None:
        if self._write_buffer:
            self._device.append_blocks(self._file_id, self._write_buffer)
            self._write_buffer = []

    def _write_aux_blocks(self, search_index, point_filter, range_filter) -> int:
        """Persist index/filter payload sizes as trailing blocks.

        The in-memory structures are authoritative at read time; these writes
        exist so flush/compaction write-amplification includes the auxiliary
        data, as it does in real engines.
        """
        aux_bytes = sum(len(key) for key in self._block_first_keys)
        for structure in (search_index, point_filter, range_filter):
            if structure is not None:
                aux_bytes += structure.size_bytes
        blocks = 0
        remaining = aux_bytes
        while remaining > 0:
            chunk = min(remaining, self._block_size)
            self._device.append_block(self._file_id, b"\x00" * chunk)
            remaining -= chunk
            blocks += 1
        return blocks
