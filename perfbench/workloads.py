"""Workload definitions, input generation and the answer oracle.

Everything a run sends is derived from one ``--seed``. Each consumer draws
from its own ``numpy.random.SeedSequence(seed, spawn_key=...)`` stream, so
the preload order, the value bytes and every client's op stream are
statistically independent even though they share the seed.

Key space
---------
``slots`` = 5/4 x ``keys``. Slot ``s`` holds a *present* key when
``s % 5 != 4``; the other slots are *absent* keys, interleaved inside the
key range so that a get of one passes every run's min/max check and is
answered by the filters. Present key ``p`` (0 <= p < keys) lives in slot
``p + p // 4``. Client ``c`` owns the present keys with ``p % 2 == c`` and
is the only writer of them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

GET, PUT, DELETE, SCAN = 0, 1, 2, 3
#: Latency classes the benchmark reports: puts and deletes are both writes.
OP_CLASS = {GET: "get", PUT: "write", DELETE: "write", SCAN: "scan"}

CLIENTS = 2
VALUE_BYTES = 98
KEY_FORMAT = b"user%08d"
PRELOAD_VERSION = 0
#: Model state of a key whose last write failed: it may or may not have
#: been applied, so only the shape of its answers can be checked.
UNKNOWN = -1

# Stream purposes for SeedSequence spawn keys.
_STREAM_PRELOAD, _STREAM_VALUES, _STREAM_OPS, _STREAM_ZIPF = 1, 2, 3, 4


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the store it runs against.

    Attributes:
        name: workload name as ``BENCHMARK.json`` lists it.
        mix: op -> share of the op stream.
        absent_get_share: share of gets aimed at absent slots.
        zipf_theta: None for uniform keys, else the zipfian skew.
        scan_len: keys per scan (the scan's ``limit``).
        buffer_bytes: memtable size (flush threshold).
        cache_bytes: decoded block-cache budget.
        warm_cache: scan the whole store into the cache before serving.
        main_class: the latency class ``main_p50_us``/``main_p99_us`` report.
    """

    name: str
    mix: Dict[int, float]
    absent_get_share: float
    zipf_theta: Optional[float]
    scan_len: int
    buffer_bytes: int
    cache_bytes: int
    warm_cache: bool
    main_class: str

    @property
    def has_deletes(self) -> bool:
        return self.mix.get(DELETE, 0.0) > 0.0


WORKLOADS: Dict[str, Workload] = {
    # Every get's blocking path runs filter -> fence index -> device block
    # fetch -> block decode; group commit, the WAL and compaction sit idle.
    "read_cold": Workload(
        name="read_cold",
        mix={GET: 1.0},
        absent_get_share=0.2,
        zipf_theta=None,
        scan_len=0,
        buffer_bytes=1 << 20,
        cache_bytes=1 << 20,
        warm_cache=False,
        main_class="get",
    ),
    # Work falls on group-commit wait, WAL append/sync, memtable insert,
    # flush, compaction and backpressure; the small buffer makes every run
    # span several flushes and compactions.
    "write_churn": Workload(
        name="write_churn",
        mix={PUT: 0.85, DELETE: 0.05, GET: 0.10},
        absent_get_share=0.0,
        zipf_theta=None,
        scan_len=0,
        buffer_bytes=64 << 10,
        cache_bytes=1 << 20,
        warm_cache=False,
        main_class="write",
    ),
    # The same read layers as read_cold, but from cached decoded blocks:
    # merge iterators, the memtable, cache lookups and per-request wire
    # cost dominate. Puts beside scans expose write-path changes that slow
    # range reads (every scan merges the memtable).
    "scan_hot": Workload(
        name="scan_hot",
        mix={GET: 0.45, SCAN: 0.35, PUT: 0.20},
        absent_get_share=0.0,
        zipf_theta=0.99,
        scan_len=32,
        buffer_bytes=1 << 20,
        cache_bytes=64 << 20,
        warm_cache=True,
        main_class="scan",
    ),
}


# -- keys and values ---------------------------------------------------------


def slot_of(p: int) -> int:
    return p + p // 4


def present_of(slot: int) -> Optional[int]:
    """The present-key index held by ``slot``, or None for an absent slot."""
    group, rem = divmod(slot, 5)
    return None if rem == 4 else group * 4 + rem


def key_of(slot: int) -> bytes:
    return KEY_FORMAT % slot


def slot_of_key(key: bytes) -> int:
    if len(key) != 12 or not key.startswith(b"user"):
        raise ValueError(f"malformed key {key!r}")
    return int(key[4:])


def _stream(seed: int, *spawn_key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def value_secret(seed: int) -> bytes:
    """Per-seed key for the value filler (its own stream)."""
    return _stream(seed, _STREAM_VALUES).bytes(32)


def make_value(secret: bytes, slot: int, version: int) -> bytes:
    """A 98-byte value that encodes its key and version.

    ``user%08d|%08x|`` followed by 76 hex digits of a keyed hash, so a
    reader can check any value's shape and, knowing the version, its bytes.
    """
    key = key_of(slot)
    head = key + b"|%08x|" % version
    filler = hashlib.blake2b(head, key=secret, digest_size=38).hexdigest()
    return head + filler.encode()


def value_version(key: bytes, value: bytes) -> Optional[int]:
    """The version a well-formed value for ``key`` carries, else None."""
    if len(value) != VALUE_BYTES or value[:12] != key or value[12:13] != b"|":
        return None
    if value[21:22] != b"|":
        return None
    try:
        return int(value[13:21], 16)
    except ValueError:
        return None


def preload_plan(seed: int, keys: int) -> Tuple[List[int], List[int]]:
    """Split the present keys into a bulk-ingested part and a put part.

    Returns ``(ingest_slots, put_slots)``: three quarters of the keys are
    bulk-loaded in key order at the bottom of the tree; the rest are put
    in a seeded random order, which leaves flushed runs and a partly full
    memtable above the bulk data, as a live store has.
    """
    order = _stream(seed, _STREAM_PRELOAD).permutation(keys)
    cut = keys // 4
    put_part = [slot_of(int(p)) for p in order[:cut]]
    ingest_part = sorted(slot_of(int(p)) for p in order[cut:])
    return ingest_part, put_part


# -- op streams --------------------------------------------------------------


class OpStream:
    """An endless, seeded stream of ``(op, slot)`` for one client.

    ``phase`` separates the warm-up stream from each timed segment's.
    """

    _CHUNK = 20000

    def __init__(self, workload: Workload, seed: int, keys: int, client: int,
                 phase: int) -> None:
        self.workload = workload
        self.keys = keys
        self.client = client
        self._rng = _stream(seed, _STREAM_OPS, phase, client)
        ops = sorted(workload.mix)
        self._ops = np.array(ops)
        self._cdf = np.cumsum([workload.mix[op] for op in ops])
        self._cdf[-1] = 1.0
        self._zipf = _zipf_table(seed, keys, workload.zipf_theta)
        self._buf: List[Tuple[int, int]] = []
        self._pos = 0

    def __iter__(self):
        return self

    def __next__(self) -> Tuple[int, int]:
        if self._pos == len(self._buf):
            self._buf = self._generate()
            self._pos = 0
        item = self._buf[self._pos]
        self._pos += 1
        return item

    def _pick_present(self, n: int) -> np.ndarray:
        if self._zipf is None:
            return self._rng.integers(0, self.keys, n)
        cdf, perm = self._zipf
        ranks = np.searchsorted(cdf, self._rng.random(n), side="right")
        return perm[np.minimum(ranks, self.keys - 1)]

    def _generate(self) -> List[Tuple[int, int]]:
        n = self._CHUNK
        rng = self._rng
        ops = self._ops[np.searchsorted(self._cdf, rng.random(n), side="right")]
        present = self._pick_present(n)
        # Writes go to keys this client owns: the zipf rank's neighbour keeps
        # the skew (the hot key and its neighbour share a block).
        owned = present - (present % 2) + self.client
        owned = np.where(owned >= self.keys, owned - 2, owned)
        slots = present + present // 4
        owned_slots = owned + owned // 4
        is_write = (ops == PUT) | (ops == DELETE)
        slots = np.where(is_write, owned_slots, slots)
        absent_share = self.workload.absent_get_share
        if absent_share > 0.0:
            absent = (ops == GET) & (rng.random(n) < absent_share)
            absent_slots = 5 * rng.integers(0, max(1, self.keys // 4), n) + 4
            slots = np.where(absent, absent_slots, slots)
        return list(zip(ops.tolist(), slots.tolist()))


def _zipf_table(seed: int, keys: int, theta: Optional[float]):
    """(cdf over ranks, rank -> present-key permutation), or None."""
    if theta is None:
        return None
    weights = 1.0 / np.power(np.arange(1, keys + 1, dtype=np.float64), theta)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf, _stream(seed, _STREAM_ZIPF).permutation(keys)


# -- the oracle ----------------------------------------------------------------


class Oracle:
    """Checks every answer one client receives.

    The client's own keys are modelled exactly (it is their only writer and
    its calls are sequential). Keys of the other client are checked for
    shape: a value must encode its key. A workload without deletes must
    find every present key.
    """

    def __init__(self, workload: Workload, secret: bytes, keys: int,
                 client: int) -> None:
        self.workload = workload
        self.secret = secret
        self.keys = keys
        self.client = client
        self.next_version = (client + 1) << 28
        # present key -> live version, or None once deleted.
        self.model: Dict[int, Optional[int]] = {}
        self.errors: List[str] = []
        self.gets = 0
        self.gets_present = 0
        self.gets_found = 0

    # -- writes ----------------------------------------------------------------

    def new_value(self, slot: int) -> Tuple[bytes, int]:
        version = self.next_version
        self.next_version += 1
        return make_value(self.secret, slot, version), version

    def acked_put(self, slot: int, version: int) -> None:
        self.model[present_of(slot)] = version

    def acked_delete(self, slot: int) -> None:
        self.model[present_of(slot)] = None

    def unknown(self, slot: int) -> None:
        self.model[present_of(slot)] = UNKNOWN

    # -- reads -------------------------------------------------------------------

    def _fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)
        else:
            self.errors[-1] = f"... and more; last: {message}"

    def _expected(self, p: int) -> Optional[int]:
        """Live version of an owned present key, None when deleted."""
        return self.model.get(p, PRELOAD_VERSION)

    def check_get(self, slot: int, found: bool, value: Optional[bytes]) -> None:
        self.gets += 1
        self.gets_found += int(found)
        p = present_of(slot)
        key = key_of(slot)
        if p is None:
            if found:
                self._fail(f"get {key!r}: absent key was found")
            return
        self.gets_present += 1
        if p % CLIENTS == self.client and self._expected(p) != UNKNOWN:
            version = self._expected(p)
            if version is None:
                if found:
                    self._fail(f"get {key!r}: deleted key was found")
            elif not found:
                self._fail(f"get {key!r}: expected version {version:x}, not found")
            elif value != make_value(self.secret, slot, version):
                self._fail(f"get {key!r}: wrong value for version {version:x}")
            return
        if found:
            if value_version(key, value) is None:
                self._fail(f"get {key!r}: malformed value {value[:24]!r}")
        elif not self.workload.has_deletes:
            self._fail(f"get {key!r}: present key not found")

    def check_scan(self, start_slot: int, limit: int,
                   items: List[Tuple[bytes, bytes]]) -> None:
        if len(items) > limit:
            self._fail(f"scan from {start_slot}: {len(items)} items > limit {limit}")
            return
        slots = []
        for key, value in items:
            try:
                slot = slot_of_key(key)
            except ValueError as exc:
                self._fail(f"scan from {start_slot}: {exc}")
                return
            version = value_version(key, value)
            if present_of(slot) is None or version is None:
                self._fail(f"scan from {start_slot}: bad item {key!r}")
                return
            p = present_of(slot)
            if p % CLIENTS == self.client and self._expected(p) != UNKNOWN:
                expected = self._expected(p)
                if expected is None or value != make_value(self.secret, slot, expected):
                    self._fail(f"scan from {start_slot}: wrong value for {key!r}")
                    return
            slots.append(slot)
        if any(b <= a for a, b in zip(slots, slots[1:])) or (
            slots and slots[0] < start_slot
        ):
            self._fail(f"scan from {start_slot}: keys out of order or range")
            return
        # Completeness: every live key from the start to the last returned
        # key (to the end of the key space when not truncated) must appear.
        last = slots[-1] if (slots and len(items) == limit) else slot_of(self.keys - 1)
        returned = set(slots)
        for slot in range(start_slot, last + 1):
            p = present_of(slot)
            if p is None or slot in returned:
                continue
            if p % CLIENTS == self.client:
                if self._expected(p) not in (None, UNKNOWN):
                    self._fail(f"scan from {start_slot}: live key {slot} missing")
                    return
            elif not self.workload.has_deletes:
                self._fail(f"scan from {start_slot}: present key {slot} missing")
                return
