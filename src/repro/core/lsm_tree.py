"""The LSM-tree engine: every tutorial design decision, executed.

One :class:`LSMTree` instance owns a simulated block device, a memtable, a
block cache, and a hierarchy of storage levels holding sorted runs. All six
external/internal operations of the tutorial's Module I are implemented —
put, get, scan, delete, flush, compaction — and the read path exercises every
Module II optimization the configuration enables (filters, fence pointers or
learned indexes, block cache, Leaper prefetch, shared hashing, key-value
separation).
"""

from __future__ import annotations

import bisect
import concurrent.futures
import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.cache.block_cache import BlockCache
from repro.cache.leaper import LeaperPrefetcher
from repro.common.entry import (
    Entry,
    EntryKind,
    GetResult,
    decode_merge_value,
    decode_ttl_value,
    encode_merge_value,
    encode_ttl_value,
)
from repro.compaction.picker import make_picker
from repro.compaction.trigger import (
    CompositeTrigger,
    LevelState,
    RunCountTrigger,
    SaturationTrigger,
    StalenessTrigger,
)
from repro.core.config import LSMConfig
from repro.core.factories import AuxFactory
from repro.core.iterator import merge_entry_versions
from repro.core.manifest import (
    ManifestData,
    find_manifest,
    read_manifest,
    write_manifest,
)
from repro.core.stats import CompactionEvent, LSMStats
from repro.core.version import Chain, ProbeScope, Version
from repro.errors import (
    ClosedError,
    ConfigError,
    ConflictError,
    MergeError,
    StorageError,
)
from repro.filters.elastic import ElasticBloomFilter, ElasticFilterManager
from repro.memtable import make_memtable
from repro.parallel.subcompaction import run_subcompactions, split_key_ranges
from repro.storage.block_device import BlockDevice
from repro.storage.compression import get_codec
from repro.storage.run import Run
from repro.storage.sstable import (
    ProbeStats,
    SSTable,
    SSTableBuilder,
    parse_block,
    rebuild_sstable,
)
from repro.storage.value_log import ValueLog, ValuePointer
from repro.storage.wal import WriteAheadLog
from repro.txn.merge import MergeOperator, MergeOperatorRegistry

_INLINE_TAG = b"i"
_POINTER_TAG = b"p"


class ImmutableMemtable:
    """A sealed memtable awaiting flush.

    Sealing swaps the active buffer out from under writers in O(n) (one
    sorted copy, no device I/O); the sealed entries stay on the read path —
    probed after the active memtable, newest seal first — until a flush job
    builds their run and installs it. ``sealed_wal`` is the WAL segment that
    covered these entries; it is deleted once the run is durable.
    """

    __slots__ = ("entries", "keys", "sealed_wal", "size_bytes", "claimed")

    def __init__(
        self, entries: List[Entry], sealed_wal: Optional[int], size_bytes: int
    ) -> None:
        self.entries = entries
        self.keys = [entry.key for entry in entries]
        self.sealed_wal = sealed_wal
        self.size_bytes = size_bytes
        self.claimed = False  # a flush worker is already building this run

    def get(self, key: bytes) -> Optional[Entry]:
        idx = bisect.bisect_left(self.keys, key)
        if idx < len(self.keys) and self.keys[idx] == key:
            return self.entries[idx]
        return None

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class CompactionPlan:
    """A schedulable unit of re-organization, picked under the tree mutex.

    ``plan_compaction`` pins every input run, so the merge phase
    (:meth:`LSMTree.execute_compaction`) can read them without holding the
    mutex even while flushes install new runs concurrently; installation
    removes exactly the planned inputs (surgical, not level-clearing), so
    runs that arrived mid-merge survive.
    """

    level: int
    dest: int
    source_runs: List[Run] = field(default_factory=list)
    dest_runs: List[Run] = field(default_factory=list)
    purge: bool = False
    trivial: bool = False
    partial: bool = False  # execute via the partial-compaction path (under mutex)
    prefer_oldest: bool = False
    bytes_in: int = 0

    @property
    def inputs(self) -> List[Run]:
        return self.source_runs + self.dest_runs


class LSMTree:
    """A log-structured merge tree over a simulated block device.

    Args:
        config: the full design-space configuration.
        device: bring your own device (e.g. to share one across trees);
            defaults to a fresh device with the configured block size.
    """

    def __init__(
        self,
        config: LSMConfig,
        device: Optional[BlockDevice] = None,
        _defer_manifest: bool = False,
    ) -> None:
        config.validate()
        self.config = config
        self.device = device or BlockDevice(block_size=config.block_size)
        self.stats = LSMStats()
        # Observability hooks (repro.observe): an EngineObserver feeding a
        # metrics registry, and a TraceRecorder sampling read-path spans.
        # Both default to None so the unobserved hot paths pay one attribute
        # check; attach via repro.observe.observe_tree().
        self.observer = None
        self.tracer = None
        self.cache = BlockCache(
            config.cache_bytes,
            policy=config.cache_policy,
            compressed_capacity_bytes=config.compressed_cache_bytes,
        )
        # The block codec flushes and compactions write with; None keeps the
        # legacy layout. Reads never consult it (blocks self-describe).
        self._codec = (
            get_codec(config.compression) if config.compression != "none" else None
        )
        # In-place corruption (corrupt_block / injected bit rot) must evict
        # any warm clean copy, or the damage would never be observed.
        self.cache.subscribe_to_device(self.device)
        self._memtable = make_memtable(config.memtable)
        self._immutables: List[ImmutableMemtable] = []
        # True while write_batch applies its records: defers the seal/flush
        # trigger to the end of the batch so one WAL frame never straddles a
        # memtable seal (the sealed segment is retired after its flush — any
        # batch records applied *after* a mid-batch seal would lose their
        # only durable copy). Guarded by the tree mutex.
        self._in_batch = False
        self._mutex = threading.RLock()
        # Counters touched by lock-free read paths (get/scan/multi_get run
        # outside the tree mutex in service mode) are guarded by this
        # dedicated lock so concurrent readers never lose increments; the
        # write path keeps mutating stats under the tree mutex as before.
        self._stats_lock = threading.Lock()
        # Worker pool for key-range subcompactions; created lazily on the
        # first parallel merge and shut down in close() — unless a service
        # scheduler shared its own pool (set_subcompaction_executor), which
        # the tree borrows and never shuts down.
        self._subcompaction_pool: Optional[concurrent.futures.Executor] = None
        self._subcompaction_pool_shared = False
        self._install_cv = threading.Condition(self._mutex)
        self._maintenance_cb: Optional[Callable[[], None]] = None
        self._levels: List[List[Run]] = []
        # The pinned view of the runs that point lookups share until the run
        # set changes (RocksDB's SuperVersion): a lookup takes a reference in
        # O(1) instead of pinning every table. Guarded by the mutex.
        self._read_view: Optional[Version] = None
        self._layout = config.layout_policy()
        triggers = [RunCountTrigger(), SaturationTrigger(config.saturation_threshold)]
        if config.staleness_flushes is not None:
            triggers.append(StalenessTrigger(config.staleness_flushes))
        self._trigger = CompositeTrigger(*triggers)
        self._picker = make_picker(config.picker)
        self._factory = AuxFactory(config)
        # Shared hashing: one digest under config.seed answers every filter.
        share = config.shared_hashing and config.filter_kind != "none"
        self._digest_seed = config.seed if share else None
        self._seqno = 0
        self._closed = False
        self._opened_monotonic = time.monotonic()
        self._merge_registry = MergeOperatorRegistry(config.merge_operators)
        self._value_log = (
            ValueLog(self.device, segment_blocks=config.vlog_segment_blocks)
            if config.kv_separation
            else None
        )
        self._leaper = (
            LeaperPrefetcher(self.cache, **config.leaper_params)
            if config.leaper_prefetch
            else None
        )
        self._elastic = (
            ElasticFilterManager(config.elastic_budget_units)
            if config.elastic_budget_units is not None
            else None
        )
        self._wal = (
            WriteAheadLog(self.device, sync_interval=config.wal_sync_interval)
            if config.wal_enabled
            else None
        )
        self._manifest_file: Optional[int] = None
        # Obsolete run files whose deletion awaits the next manifest write
        # (delete-after-persist ordering; see _drop_pin).
        self._pending_deletions: List[int] = []
        # During recovery: prior-generation WAL files not yet fully replayed;
        # any manifest written mid-recovery must keep referencing them.
        self._recovery_wals: List[int] = []
        if self._wal is not None and not _defer_manifest:
            # Publish the WAL's identity immediately: a crash before the
            # first flush must still find the log to replay. (recover()
            # defers this so a crash mid-recovery cannot leave a fresh empty
            # manifest shadowing the real one.)
            self._persist_structure()

    # ------------------------------------------------------------------ writes

    def put(self, key: bytes, value: bytes, ttl: Optional[float] = None) -> None:
        """Insert or update a key (out-of-place: a new versioned entry).

        Args:
            ttl: optional time-to-live in *simulated* seconds. The entry is
                stamped with the absolute deadline ``now + ttl`` on the
                device clock; at or past the deadline the key reads as
                deleted (shadowing older versions) and compaction reclaims
                it. A later plain put clears the TTL.
        """
        self._check_open()
        obs = self.observer
        if obs is not None:
            wall0 = time.perf_counter()
        with self._mutex:
            self._seqno += 1
            self.stats.puts += 1
            self.stats.user_bytes += len(key) + len(value)
            if ttl is None:
                wal_entry = Entry(key=key, seqno=self._seqno, value=value)
                entry = Entry(
                    key=key, seqno=self._seqno, kind=EntryKind.PUT,
                    value=self._encode_value(key, value),
                )
            else:
                deadline = self.device.stats.simulated_time + float(ttl)
                self.stats.ttl_puts += 1
                # The WAL logs the raw value behind the same deadline prefix
                # so replay re-encodes against a fresh value log.
                wal_entry = Entry(
                    key=key, seqno=self._seqno, kind=EntryKind.PUT_TTL,
                    value=encode_ttl_value(deadline, value),
                )
                entry = Entry(
                    key=key, seqno=self._seqno, kind=EntryKind.PUT_TTL,
                    value=encode_ttl_value(deadline, self._encode_value(key, value)),
                )
            if self._wal is not None:
                self._wal.append(wal_entry)
            if len(entry.key) + len(entry.value) + 12 > self.config.block_size:
                raise ConfigError(
                    f"entry of {len(key) + len(value)} bytes cannot fit one "
                    f"{self.config.block_size}-byte data block; raise block_size "
                    f"or enable kv_separation (the value log spans blocks)"
                )
            self._buffer_entry(entry)
        if obs is not None:
            obs.record_put(time.perf_counter() - wall0)

    def merge(self, key: bytes, operand: bytes, operator: str = "counter") -> None:
        """Write a merge operand (RocksDB's Merge): read-modify-write
        without the read.

        The operand is folded against the key's newest memtable-resident
        version immediately when one exists (keeping the one-entry-per-key
        memtable invariant); otherwise a typed MERGE entry is buffered and
        resolved lazily at read time and during compaction.

        Raises:
            MergeError: unknown ``operator``, or the key's existing operand
                chain uses a different operator.
        """
        self._check_open()
        self._merge_registry.get(operator)  # fail fast on unknown names
        with self._mutex:
            self._seqno += 1
            self.stats.merges += 1
            self.stats.user_bytes += len(key) + len(operand)
            if self._wal is not None:
                self._wal.append(
                    Entry(key=key, seqno=self._seqno, kind=EntryKind.MERGE,
                          value=encode_merge_value(operator, operand))
                )
            self._buffer_merge_locked(key, self._seqno, operator, operand)

    def register_merge_operator(self, operator: MergeOperator) -> None:
        """Register a user merge operator (also see config.merge_operators)."""
        self._merge_registry.register(operator)

    def merge_operator(self, name: str) -> MergeOperator:
        """Look up a registered merge operator by name."""
        return self._merge_registry.get(name)

    def delete(self, key: bytes) -> None:
        """Delete a key by buffering a tombstone."""
        self._check_open()
        with self._mutex:
            self._seqno += 1
            self.stats.deletes += 1
            self.stats.user_bytes += len(key)
            tombstone = Entry(key=key, seqno=self._seqno, kind=EntryKind.DELETE)
            if self._wal is not None:
                self._wal.append(tombstone)
            self._buffer_entry(tombstone)

    def write_batch(self, ops) -> int:
        """Apply a group of writes as one atomic group commit.

        Args:
            ops: iterable of ``(kind, key, value)`` triples or
                ``(kind, key, value, meta)`` quadruples where kind is
                ``'put'``, ``'delete'``, ``'merge'``, or ``'put_ttl'``.
                ``meta`` carries the operator name for merges and the
                relative TTL (simulated seconds) for ``put_ttl``; value is
                ignored for deletes. :class:`repro.txn.WriteBatch` yields
                exactly this shape.

        The whole batch becomes one WAL frame (one device append instead of
        one per record) followed by one memtable application pass — the
        leader's half of the leader/follower group-commit protocol that
        :class:`repro.service.WriteBatcher` drives. The single frame is
        also the transactional atomicity unit: a crash either keeps the
        whole frame or drops it whole.

        Returns:
            The number of records applied.
        """
        self._check_open()
        with self._mutex:
            wal_entries: List[Entry] = []
            staged: List = []  # Entry, or ("merge", key, seqno, op, operand)
            for op in ops:
                kind, key, value = op[0], op[1], op[2]
                meta = op[3] if len(op) > 3 else None
                self._seqno += 1
                if kind == "put":
                    entry = Entry(
                        key=key, seqno=self._seqno, kind=EntryKind.PUT,
                        value=self._encode_value(key, value),
                    )
                    if len(entry.key) + len(entry.value) + 12 > self.config.block_size:
                        raise ConfigError(
                            f"entry of {len(key) + len(value)} bytes cannot fit "
                            f"one {self.config.block_size}-byte data block; raise "
                            f"block_size or enable kv_separation"
                        )
                    self.stats.puts += 1
                    self.stats.user_bytes += len(key) + len(value)
                    if self._wal is not None:
                        wal_entries.append(Entry(key=key, seqno=self._seqno, value=value))
                elif kind == "put_ttl":
                    deadline = self.device.stats.simulated_time + float(meta)
                    entry = Entry(
                        key=key, seqno=self._seqno, kind=EntryKind.PUT_TTL,
                        value=encode_ttl_value(deadline, self._encode_value(key, value)),
                    )
                    self.stats.puts += 1
                    self.stats.ttl_puts += 1
                    self.stats.user_bytes += len(key) + len(value)
                    if self._wal is not None:
                        wal_entries.append(
                            Entry(key=key, seqno=self._seqno, kind=EntryKind.PUT_TTL,
                                  value=encode_ttl_value(deadline, value))
                        )
                elif kind == "delete":
                    entry = Entry(key=key, seqno=self._seqno, kind=EntryKind.DELETE)
                    self.stats.deletes += 1
                    self.stats.user_bytes += len(key)
                    if self._wal is not None:
                        wal_entries.append(entry)
                elif kind == "merge":
                    operator = str(meta)
                    self._merge_registry.get(operator)
                    self.stats.merges += 1
                    self.stats.user_bytes += len(key) + len(value)
                    if self._wal is not None:
                        wal_entries.append(
                            Entry(key=key, seqno=self._seqno, kind=EntryKind.MERGE,
                                  value=encode_merge_value(operator, value))
                        )
                    # Folding must happen at apply time (after the WAL sync)
                    # so an earlier op in this batch is visible as the base.
                    staged.append(("merge", key, self._seqno, operator, value))
                    continue
                else:
                    raise ValueError(f"unknown write kind {kind!r}")
                staged.append(entry)
            if self._wal is not None and wal_entries:
                self._wal.append_batch(wal_entries)
                self._wal.sync()  # the batch's durability point: one frame
            # Apply with maintenance deferred: a seal rolls the WAL and its
            # sealed segment is retired once flushed, so sealing mid-batch
            # would strand the rest of this frame's records with no durable
            # home. Seal/flush checks run once the whole frame is applied.
            self._in_batch = True
            try:
                for item in staged:
                    if isinstance(item, Entry):
                        self._buffer_entry(item)
                    else:
                        _, key, seqno, operator, operand = item
                        self._buffer_merge_locked(key, seqno, operator, operand)
            finally:
                self._in_batch = False
            self._maybe_seal_or_flush()
            if self.config.lazy_compaction and self._maintenance_cb is None:
                self._paced_compaction()
            return len(staged)

    def write(self, batch) -> None:
        """Apply a :class:`repro.txn.WriteBatch` (or op-tuple iterable)
        atomically — the KVStore-surface spelling of :meth:`write_batch`."""
        ops = list(batch)
        if ops:
            self.write_batch(ops)

    def commit_transaction(self, read_set: Dict[bytes, int], ops) -> int:
        """Validate an optimistic transaction and apply it atomically.

        Args:
            read_set: key → the newest raw seqno the transaction observed
                (0 for keys that did not exist). Validation compares each
                against current state under the tree mutex.
            ops: the transaction's writes in :meth:`write_batch` shape.

        Returns:
            The number of records applied.

        Raises:
            ConflictError: some footprint key changed; nothing was applied.
        """
        self._check_open()
        with self._mutex:
            self._validate_read_set(read_set)
            count = self.write_batch(ops)
            self.stats.txn_commits += 1
            return count

    def _validate_read_set(self, read_set: Dict[bytes, int]) -> None:
        """Raise ConflictError unless every fingerprinted key is unchanged.

        Must be called under the tree mutex. The check is seqno equality on
        the newest raw version: any intervening put/delete/merge bumps the
        key's newest seqno. (Compaction preserves newest seqnos, except that
        a bottom-level purge can erase a tombstone entirely — that reads as
        a spurious conflict, which is safe.)
        """
        for key, seqno in read_set.items():
            current = self._find_entry(key)
            current_seqno = current.seqno if current is not None else 0
            if current_seqno != seqno:
                self.stats.txn_conflicts += 1
                raise ConflictError(
                    f"key {key!r} moved from seqno {seqno} to {current_seqno} "
                    f"since the transaction's snapshot"
                )

    def seal_memtable(self) -> Optional[ImmutableMemtable]:
        """Seal the active memtable into the immutable queue (no run I/O).

        The sealed entries stay readable (gets/scans probe immutables after
        the active buffer) until a flush builds and installs their run. Rolls
        the WAL so the sealed segment exactly covers the sealed entries.

        Returns:
            The sealed memtable, or None when the buffer was empty.
        """
        self._check_open()
        with self._mutex:
            if self._memtable.is_empty():
                return None
            entries = self._memtable.sorted_entries()
            size = self._memtable.size_bytes
            if self._value_log is not None:
                self._value_log.flush()
            sealed_wal = self._wal.roll() if self._wal is not None else None
            self._memtable.clear()
            sealed = ImmutableMemtable(entries, sealed_wal, size)
            self._immutables.append(sealed)
            if self._wal is not None:
                # Publish both logs: the sealed segment (covering the sealed
                # entries) and the fresh current one. Without this, a crash
                # between seal and flush-install would recover from a
                # manifest that references only one of them and lose
                # acknowledged writes.
                self._persist_structure()
            return sealed

    def claim_flush(self) -> Optional[ImmutableMemtable]:
        """Claim the oldest unclaimed sealed memtable for building.

        Flush workers call this so two workers never build the same seal;
        the claim is released implicitly by :meth:`install_flush`.
        """
        with self._mutex:
            for imm in self._immutables:
                if not imm.claimed:
                    imm.claimed = True
                    return imm
            return None

    @property
    def mutex(self) -> "threading.RLock":
        """The tree's structure mutex (reentrant); the service layer's lock."""
        return self._mutex

    def build_flush(self, sealed: ImmutableMemtable) -> Optional[Run]:
        """Write a sealed memtable as a level-1 run (the I/O-heavy phase).

        Safe to call without the tree mutex: the sealed entries are
        immutable and the new file is invisible until installed.
        """
        obs = self.observer
        if obs is not None:
            wall0 = time.perf_counter()
        self.device.crash_hook("flush_build")
        run = self._build_run(iter(sealed.entries), level=1)
        if obs is not None:
            obs.record_flush_build(time.perf_counter() - wall0)
        return run

    def install_flush(self, sealed: ImmutableMemtable, run: Optional[Run]) -> None:
        """Atomically publish a built flush and retire its WAL segment.

        Installs strictly in seal order (level-1 runs must stay newest-first
        even when parallel workers finish builds out of order): a worker
        holding a newer seal waits until every older seal has installed.
        """
        with self._install_cv:
            while self._immutables and self._immutables[0] is not sealed:
                if sealed not in self._immutables:
                    break  # already installed (defensive; double-install no-op)
                self._install_cv.wait()
            if sealed not in self._immutables:
                return
            self.device.crash_hook("flush_install")
            self.stats.flushes += 1
            if run is not None:
                self._arrive(run, level=1)
                self._note_event(
                    CompactionEvent("flush", 0, 1, 0, run.size_bytes, self.stats.flushes)
                )
            self._immutables.remove(sealed)
            self._install_cv.notify_all()
            if not self.config.lazy_compaction and self._maintenance_cb is None:
                self._maybe_compact()
            if self._wal is not None:
                # The flushed entries are durable in the new run: persist the
                # new structure, then drop the log that covered them. A crash
                # between the two leaves an orphaned (but harmless) log.
                self._persist_structure()
                self.device.crash_hook("wal_retire")
                if sealed.sealed_wal is not None:
                    self._wal.delete(sealed.sealed_wal)

    def flush(self) -> None:
        """Force all buffered entries to storage as new youngest level-1 runs.

        Seals the active memtable, then builds and installs a run for every
        pending sealed memtable (oldest first). Inline mode never has more
        than one; a service-managed tree may have a backlog.
        """
        self._check_open()
        self.seal_memtable()
        while True:
            with self._mutex:
                pending = [imm for imm in self._immutables if not imm.claimed]
                if not pending:
                    break
                sealed = pending[0]
                sealed.claimed = True
            run = self.build_flush(sealed)
            self.install_flush(sealed, run)

    def set_maintenance_callback(self, callback: Optional[Callable[[], None]]) -> None:
        """Hand flush/compaction scheduling to an external service.

        With a callback installed, a full memtable is *sealed* on the write
        path (cheap) and the callback is invoked — under the tree mutex — to
        request a background flush; inline compaction cascades are disabled
        (the scheduler decides when reorganization runs, the design dimension
        the compaction design-space paper isolates). Pass None to restore
        inline maintenance.
        """
        with self._mutex:
            self._maintenance_cb = callback

    # ------------------------------------------------------------------- reads

    def get(self, key: bytes) -> GetResult:
        """Point lookup, youngest to oldest, stopping at the first match.

        When an observer is attached the lookup also feeds latency
        histograms (wall + simulated) and per-level probe accounting; when
        the tracer samples this operation, a :class:`~repro.observe.Span`
        records the stage breakdown (memtable probe, each level's probe,
        value fetch). Unobserved lookups pay one check.
        """
        return self._lookup(key, self.tracer, "get")

    def _lookup(self, key: bytes, tracer, span_name: str) -> GetResult:
        """The point lookup of :meth:`get` and ``DBService.get``, sampled by
        ``tracer`` as ``span_name``. Memory is probed and the read view
        pinned under the mutex; the runs are walked outside it, so a
        concurrent compaction can retire, but never delete, their files."""
        self._check_open()
        probe = ProbeStats()
        scope = self._probe_scope(tracer, span_name, probe)
        view = None
        with self._mutex:
            entry, operands = self._probe_memory_chain(key)
            if entry is None:
                view = self._read_view
                if view is None:  # the run set changed: pin a fresh view
                    view = self._read_view = self._pin_levels([])
                    view.readers = 1  # the tree's own reference
                view.readers += 1
        if scope is not None:
            scope.stage("memtable_probe")
        chain = None
        if view is not None:
            try:
                chain = view.get_chain(key, self.cache, probe, self._digest_seed, scope)
            finally:
                self._release_read_view(view)
        return self._get_result(
            entry, operands, chain, probe, scope, self.device.stats.simulated_time
        )

    def _probe_scope(self, tracer, span_name: str, probe: ProbeStats):
        """Instrumentation for one lookup, or None when nothing observes it.
        The span inherits the active trace context's sampling decision; only
        an outermost lookup rolls the dice itself."""
        span = tracer.maybe_start(span_name) if tracer is not None else None
        if self.observer is None and span is None:
            return None
        return ProbeScope(self.observer, tracer, span, probe, self.device)

    def _get_result(self, base: Optional[Entry], operands: List[Entry],
                    chain: Optional[Chain], probe: ProbeStats,
                    scope: Optional[ProbeScope], now: float) -> GetResult:
        """Resolve a memory chain continued on storage by ``chain`` (None
        when memory terminated it) at TTL clock ``now``; account the get."""
        result = GetResult()
        hash_evals = 0
        if chain is not None:
            # Memory operands are strictly newer than anything on storage,
            # so extending keeps newest-first order.
            base, stored, result.runs_probed, result.source_level, hashed = chain
            operands.extend(stored)
            hash_evals = int(hashed)
        if not self.config.shared_hashing:
            # Without sharing, every filter probe computes its own digest.
            hash_evals = probe.filter_probes
        result.blocks_read = probe.blocks_read
        result.filter_negatives = probe.filter_negatives
        result.false_positives = probe.false_positives
        if operands:
            result.seqno = operands[0].seqno  # operands are newest-first
        elif base is not None:
            result.seqno = base.seqno
        with self._stats_lock:
            self.stats.gets += 1
            self.stats.get_hash_evaluations += hash_evals
            self.stats.probe.merge(probe)
        if base is not None or operands:
            value = self._resolve_chain(base, operands, now)
            if value is not None:
                result.found = True
                result.value = value
            if scope is not None:
                scope.stage("value_fetch")
        if scope is not None:
            scope.finish(result)
        return result

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Range scan over a pinned version; yields (key, value) in order.

        Runs whose range filter proves the interval empty are skipped without
        I/O (tutorial §II-B.3). The version is released when the iterator is
        exhausted or closed.
        """
        self._check_open()
        with self._stats_lock:
            self.stats.scans += 1
        version = self.pin_version()
        return self._scan_version(
            version, start, end,
            now=self.device.stats.simulated_time, close_version=True,
        )

    def _scan_version(
        self,
        version: Version,
        start: Optional[bytes],
        end: Optional[bytes],
        now: float,
        close_version: bool,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """The scan engine: merge a pinned version's streams, fold merge
        chains, mask tombstones and expired TTLs (``now`` is the TTL clock
        for the whole scan), and yield decoded user values in key order.
        """
        obs = self.observer
        probe = ProbeStats()
        parallel = self.config.parallel
        readahead = parallel.scan_readahead_blocks if parallel is not None else 1

        def buffered() -> Iterator[Entry]:
            for entry in version.memtable_entries:
                if start is not None and entry.key < start:
                    continue
                if end is not None and entry.key > end:
                    return
                yield entry

        def generator() -> Iterator[Tuple[bytes, bytes]]:
            wall0 = time.perf_counter() if obs is not None else 0.0
            produced = 0
            try:
                streams = [buffered()]
                for run in version.runs:
                    if start is not None and end is not None:
                        if not run.overlaps(start, end):
                            continue
                        if not run.may_contain_range(start, end):
                            continue  # range filter saved the whole seek
                    streams.append(
                        run.iter_entries(
                            start=start, end=end, cache=self.cache, stats=probe,
                            readahead=readahead,
                        )
                    )
                for group in merge_entry_versions(streams):
                    base: Optional[Entry] = None
                    operands: List[Entry] = []
                    for entry in group:  # newest-first versions of one key
                        if entry.is_merge:
                            operands.append(entry)
                        else:
                            base = entry
                            break
                    value = self._resolve_chain(base, operands, now)
                    if value is None:
                        continue
                    produced += 1
                    yield group[0].key, value
            finally:
                with self._stats_lock:
                    self.stats.scan_entries += produced
                    self.stats.probe.merge(probe)
                if close_version:
                    version.close()
                if obs is not None:
                    obs.record_scan(time.perf_counter() - wall0)

        return generator()

    def multi_get(self, keys) -> "dict[bytes, GetResult]":
        """Batched point lookups (RocksDB's MultiGet).

        Keys are deduplicated and probed in sorted order. With point-read
        coalescing enabled (``config.parallel.coalesce_point_reads``) the
        whole batch resolves level by level: every still-pending key is
        filter/fence-checked first (no I/O), then each run's needed blocks
        are loaded with adjacent blocks grouped into single multi-block
        device requests — consecutive keys share one seek instead of paying
        one each. Values and ``found``/``source_level``/``runs_probed``
        match per-key :meth:`get` calls exactly; the batch's I/O provenance
        (blocks read, filter outcomes) is aggregated into ``stats.probe``
        rather than split across per-key results.
        """
        self._check_open()
        unique = sorted(set(keys))
        parallel = self.config.parallel
        if parallel is None or not parallel.coalesce_point_reads or not unique:
            from repro.observe.tracing import trace_batch

            return trace_batch(
                self.tracer, "multi_get",
                lambda: {key: self.get(key) for key in unique},
                op="multi_get", keys=len(unique),
            )

        probe = ProbeStats()
        bases: Dict[bytes, Entry] = {}
        chains: Dict[bytes, List[Entry]] = {}
        source_levels: Dict[bytes, int] = {}
        runs_probed: Dict[bytes, int] = {}
        pending: List[bytes] = []
        for key in unique:
            runs_probed[key] = 0
            entry, operands = self._probe_memory_chain(key)
            chains[key] = operands
            if entry is not None:
                bases[key] = entry
            else:
                pending.append(key)

        for level_no, runs in enumerate(self._levels, start=1):
            if not pending:
                break
            for run in runs:
                if not pending:
                    break
                for key in pending:
                    runs_probed[key] += 1
                found = run.get_many(pending, stats=probe, cache=self.cache)
                if found:
                    resolved = set()
                    for key, entry in found.items():
                        if entry.is_merge:
                            # An operand: keep the key pending and descend
                            # until a non-merge base terminates its chain.
                            chains[key].append(entry)
                            continue
                        bases[key] = entry
                        source_levels[key] = level_no
                        resolved.add(key)
                    if resolved:
                        pending = [key for key in pending if key not in resolved]

        now = self.device.stats.simulated_time
        results: Dict[bytes, GetResult] = {}
        for key in unique:
            result = GetResult()
            result.runs_probed = runs_probed[key]
            result.source_level = source_levels.get(key)
            base = bases.get(key)
            operands = chains[key]
            if operands:
                result.seqno = operands[0].seqno
            elif base is not None:
                result.seqno = base.seqno
            if base is not None or operands:
                value = self._resolve_chain(base, operands, now)
                if value is not None:
                    result.found = True
                    result.value = value
            results[key] = result

        with self._stats_lock:
            self.stats.gets += len(unique)
            self.stats.multi_gets += 1
            self.stats.multi_get_keys += len(unique)
            self.stats.probe.merge(probe)
            if not self.config.shared_hashing:
                self.stats.get_hash_evaluations += probe.filter_probes
        return results

    def delete_range(self, start: bytes, end: bytes) -> int:
        """Delete every live key in the closed range [start, end].

        Implemented as a snapshot scan issuing point tombstones — the naive
        strategy, O(matching keys); real range tombstones (a single marker
        reconciled at read/merge time) are future work noted in DESIGN.md.

        Returns:
            The number of tombstones written.
        """
        self._check_open()
        if start > end:
            raise ValueError("empty range: start > end")
        victims = [key for key, _ in self.scan(start, end)]
        for key in victims:
            self.delete(key)
        return len(victims)

    def approximate_size(self, start: bytes, end: bytes) -> int:
        """Estimate on-device bytes holding keys in [start, end]
        (RocksDB's GetApproximateSizes) using fence metadata only — no I/O.
        """
        self._check_open()
        if start > end:
            raise ValueError("empty range: start > end")
        total = 0
        for runs in self._levels:
            for run in runs:
                for table in run.tables:
                    if not table.overlaps(start, end):
                        continue
                    blocks = sum(
                        1
                        for block_no in range(table.num_data_blocks)
                        if not (
                            table._block_last_keys[block_no] < start
                            or table._block_first_keys[block_no] > end
                        )
                    )
                    if table.num_data_blocks:
                        total += table.size_bytes * blocks // table.num_data_blocks
        return total

    def ingest_external(self, pairs) -> int:
        """Bulk-load sorted (key, value) pairs as pre-built run files
        (RocksDB's IngestExternalFile; the bulk-loading path of [94]).

        Bypasses the memtable and the compaction cascade: files are written
        once and placed at the deepest level where no existing data overlaps
        their key range, so write amplification for a bulk load is ~1.
        The memtable is flushed first so the newest-data-on-top invariant
        holds regardless of overlap.

        Args:
            pairs: (key, value) tuples in strictly increasing key order.

        Returns:
            The number of entries ingested.
        """
        self._check_open()
        pairs = list(pairs)
        if not pairs:
            return 0
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if a >= b:
                raise ValueError("ingest requires strictly increasing keys")
        self.flush()

        entries = []
        for key, value in pairs:
            self._seqno += 1
            self.stats.puts += 1
            self.stats.user_bytes += len(key) + len(value)
            if self._wal is not None:
                self._wal.append(Entry(key=key, seqno=self._seqno, value=value))
            entries.append(
                Entry(key=key, seqno=self._seqno, kind=EntryKind.PUT,
                      value=self._encode_value(key, value))
            )
        lo, hi = entries[0].key, entries[-1].key

        # Deepest level t with no overlap at any level <= t (reads check
        # shallow levels first, so older overlapping data may only sit BELOW).
        target = 1
        for idx in range(len(self._levels)):
            level = idx + 1
            overlap = any(run.overlaps(lo, hi) for run in self._levels[idx])
            if overlap:
                break
            target = level + 1
        run = self._build_run(iter(entries), target)
        if run is not None:
            self._arrive(run, target)
            self.stats.bulk_ingested += len(entries)
            self._note_event(
                CompactionEvent("ingest", 0, target, 0, run.size_bytes, self.stats.flushes)
            )
        if not self.config.lazy_compaction:
            self._maybe_compact()
        if self._wal is not None:
            self._wal.sync()
            self._persist_structure()
        return len(entries)

    def scan_prefix(self, prefix: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """All live entries whose key starts with ``prefix``, in key order.

        Sugar over :meth:`scan` with the tight covering range
        ``[prefix, prefix·0xFF...]`` — the access pattern RocksDB's prefix
        seek serves, and the one a configured prefix Bloom filter
        (``range_filter='prefix_bloom'``) can prune runs for.
        """
        if not prefix:
            raise ValueError("prefix must be non-empty")
        upper = _prefix_successor(prefix)
        for key, value in self.scan(prefix, upper):
            if upper is not None and key == upper:
                return  # the successor itself is outside the prefix
            if upper is None and not key.startswith(prefix):
                return  # all-0xFF prefix: no finite upper bound exists
            yield key, value

    def snapshot(self) -> "Snapshot":
        """A consistent read-only view: get/multi_get/scan pinned in time.

        The returned :class:`Snapshot` answers reads as of this instant —
        later writes are invisible, and the TTL clock is frozen at the
        snapshot's creation time. Close it (or use it as a context manager)
        to release the pinned runs.
        """
        return Snapshot(self, self.pin_version())

    def pin_version(self) -> Version:
        """Pin the current file set (the tutorial's scan 'version').

        The raw, entry-level view: buffered entries keep *every* in-memory
        version of a key (merge-operand chains must survive into the
        version so snapshot reads can fold them), and lookups return raw
        entries. Most callers want :meth:`snapshot` instead.
        """
        self._check_open()
        with self._mutex:
            if self._immutables:
                streams = [iter(self._memtable.scan())] + [
                    iter(imm.entries) for imm in reversed(self._immutables)
                ]
                buffered = list(
                    heapq.merge(*streams, key=lambda entry: entry.sort_key())
                )
            else:
                buffered = list(self._memtable.scan())
            return self._pin_levels(buffered)

    def _probe_memory_chain(
        self, key: bytes
    ) -> "Tuple[Optional[Entry], List[Entry]]":
        """In-memory chain probe: ``(base, merge operands newest-first)``,
        active memtable first, then sealed memtables newest-first. No device
        I/O; the caller continues on storage when memory alone does not
        terminate the chain.
        """
        operands: List[Entry] = []
        with self._mutex:
            entry = self._memtable.get(key)
            if entry is not None:
                if not entry.is_merge:
                    return entry, operands
                operands.append(entry)
            for imm in reversed(self._immutables):
                entry = imm.get(key)
                if entry is None:
                    continue
                if not entry.is_merge:
                    return entry, operands
                operands.append(entry)
            return None, operands

    def _pin_levels(self, buffered: List[Entry]) -> Version:
        """A :class:`Version` of ``buffered`` and the current runs, each run
        pinned (the caller holds the mutex)."""
        version = Version(buffered, self._levels, release=self._unpin_levels)
        for runs in version.levels:
            for run in runs:
                for table in run.tables:
                    table.refs += 1
        return version

    def _unpin_levels(self, levels: List[List[Run]]) -> None:
        # Versions close outside the mutex; pin counts are read-modify-write.
        with self._mutex:
            for runs in levels:
                for run in runs:
                    for table in run.tables:
                        self._drop_pin(table)

    def _release_read_view(self, view: Version) -> None:
        """Drop one reference to a read view; the last one unpins its runs."""
        with self._mutex:
            view.readers -= 1
            if not view.readers:
                view.close()

    def _retire_read_view(self) -> None:
        """The run set is changing: lookups from now on pin a fresh view."""
        view, self._read_view = self._read_view, None
        if view is not None:
            self._release_read_view(view)

    # -------------------------------------------------------------- maintenance

    def compact_all(self) -> None:
        """Flush, then run compactions until no trigger fires (test helper)."""
        self.flush()
        self._maybe_compact()
        if self._wal is not None:
            self._persist_structure()  # flush deferred file deletions

    def verify_integrity(self) -> dict:
        """Scrub every live run file: checksums, sort order, fence agreement.

        Returns a report dict with ``files_checked``, ``blocks_checked``,
        and ``errors`` (a list of human-readable findings; empty = healthy).
        Reads bypass the cache so the device contents are what is verified.
        """
        self._check_open()
        report = {"files_checked": 0, "blocks_checked": 0, "errors": []}
        for level_no, runs in enumerate(self._levels, start=1):
            for run in runs:
                previous_max: Optional[bytes] = None
                for table in run.tables:
                    report["files_checked"] += 1
                    if previous_max is not None and table.min_key <= previous_max:
                        report["errors"].append(
                            f"L{level_no} file {table.file_id}: overlaps previous file"
                        )
                    previous_max = table.max_key
                    last_key: Optional[bytes] = None
                    for block_no in range(table.num_data_blocks):
                        report["blocks_checked"] += 1
                        try:
                            payload = self.device.read_block(table.file_id, block_no)
                            entries = parse_block(payload)
                        except (StorageError, ValueError) as exc:
                            report["errors"].append(
                                f"L{level_no} file {table.file_id} block {block_no}: {exc}"
                            )
                            continue
                        for entry in entries:
                            if last_key is not None and entry.key <= last_key:
                                report["errors"].append(
                                    f"L{level_no} file {table.file_id} block "
                                    f"{block_no}: keys out of order"
                                )
                                break
                            last_key = entry.key
                        if entries and (
                            entries[0].key != table._block_first_keys[block_no]
                            or entries[-1].key != table._block_last_keys[block_no]
                        ):
                            report["errors"].append(
                                f"L{level_no} file {table.file_id} block "
                                f"{block_no}: fence keys disagree with contents"
                            )
        return report

    def collect_value_garbage(self) -> int:
        """WiscKey-style value-log GC; returns the number of relocated values.

        Live values are detected by looking their keys up in the tree and
        comparing pointers; relocated pointers are re-installed via fresh puts
        of the new pointer (the standard WiscKey approach).
        """
        self._check_open()
        if self._value_log is None:
            return 0

        def is_live(key: bytes, pointer: ValuePointer) -> bool:
            entry = self._find_entry(key)
            if entry is None or entry.is_tombstone:
                return False
            value = entry.value
            return value[:1] == _POINTER_TAG and ValuePointer.decode(value[1:]) == pointer

        relocations = self._value_log.collect_garbage(is_live)
        # Re-install the moved pointers via fresh puts (WiscKey's approach).
        for new_pointer in relocations.values():
            key = self._key_of_pointer(new_pointer)
            if key is None:
                continue
            self._seqno += 1
            if self._wal is not None:
                # Log the raw value: the old log segment is gone, so a crash
                # before the next flush must be able to replay the move.
                self._wal.append(
                    Entry(key=key, seqno=self._seqno, value=self._value_log.get(new_pointer))
                )
            self._buffer_entry(
                Entry(
                    key=key,
                    seqno=self._seqno,
                    kind=EntryKind.PUT,
                    value=_POINTER_TAG + new_pointer.encode(),
                )
            )
        if self._wal is not None:
            self._wal.sync()
            self._persist_structure()
        return len(relocations)

    def close(self) -> None:
        """Flush buffered writes, seal the WAL, persist, and mark closed.

        A closed tree's device holds everything needed to reopen via
        :meth:`recover`; subsequent operations raise ClosedError. Idempotent.
        """
        if self._closed:
            return
        if self._wal is not None:
            with self._mutex:
                self.flush()
                self._wal.sync()
                self._persist_structure()
        self._closed = True
        pool = self._subcompaction_pool
        if pool is not None:
            self._subcompaction_pool = None
            if not self._subcompaction_pool_shared:
                pool.shutdown(wait=True)

    def __enter__(self) -> "LSMTree":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------ durability

    @classmethod
    def recover(
        cls,
        config: LSMConfig,
        device: BlockDevice,
        remove_orphans: bool = True,
    ) -> "LSMTree":
        """Rebuild a tree from a device after a crash (requires wal_enabled).

        Reads the newest valid manifest owned by ``config.name``,
        reconstructs every run's in-memory auxiliary structures from its
        data blocks, replays every surviving WAL (oldest first) into the
        memtable (re-logging entries to a fresh WAL), persists a fresh
        manifest, and only then deletes the prior-generation logs — so a
        crash at any point *during* recovery loses nothing either.

        Args:
            remove_orphans: delete unreferenced device files afterwards.
                Pass False when other trees share the device (their files
                look like orphans to this tree); :class:`repro.sharding.
                ShardedStore` cleans up at store level instead.
        """
        if not config.wal_enabled:
            raise ClosedError("recovery requires a config with wal_enabled=True")
        wall0 = time.perf_counter()
        sim0 = device.stats.simulated_time
        manifest_id = find_manifest(device, name=config.name)
        tree = cls(config, device=device, _defer_manifest=True)
        tree.stats.recoveries += 1
        if manifest_id is None:
            tree._persist_structure()
            tree.stats.last_recovery_wall = time.perf_counter() - wall0
            tree.stats.last_recovery_sim = device.stats.simulated_time - sim0
            return tree
        data = read_manifest(device, manifest_id)
        tree._manifest_file = manifest_id
        tree._seqno = data.seqno

        range_factory = tree._factory.range_filter_factory()
        index_factory = tree._factory.index_factory()
        for level_no, runs in enumerate(data.levels, start=1):
            filter_factory = tree._factory.filter_factory(level_no)
            for file_ids in reversed(runs):  # oldest first; _arrive prepends
                tables = [
                    rebuild_sstable(
                        device,
                        file_id,
                        index_factory=index_factory,
                        filter_factory=filter_factory,
                        range_filter_factory=range_factory,
                        hash_index=config.hash_index_blocks,
                    )
                    for file_id in file_ids
                ]
                for table in tables:
                    tree._register_table(table)
                tree._arrive(Run(tables), level_no)

        if tree._value_log is not None:
            for file_id in data.vlog_files:
                if device.file_exists(file_id):
                    tree._value_log._live_bytes.setdefault(file_id, 0)

        # Replay every live log, oldest first. The old files stay on the
        # device (and stay listed in any manifest written mid-replay, e.g.
        # by a replay-triggered flush) until the post-replay manifest is
        # durable: re-applying an already-flushed record is harmless (same
        # seqno, same content), but losing one is not.
        #
        # Logs CAN overlap: replay re-logs records into the fresh WAL, so a
        # crash after a mid-replay seal leaves both the original log and a
        # re-logged prefix of it in the manifest. Replaying that prefix
        # after the original would resurrect stale versions — track the max
        # seqno applied per key and skip anything not strictly newer.
        old_wals = [fid for fid in data.wal_files if device.file_exists(fid)]
        tree._recovery_wals = list(old_wals)
        torn0 = tree._wal.torn_frames_dropped
        replayed0 = tree._wal.records_replayed
        applied: Dict[bytes, int] = {}
        for wal_file in old_wals:
            for entry in tree._wal.replay(wal_file):
                if entry.seqno <= applied.get(entry.key, 0):
                    continue
                applied[entry.key] = entry.seqno
                tree._replay_entry(entry)
        tree._wal.sync()
        tree.stats.wal_replayed_records += tree._wal.records_replayed - replayed0
        tree.stats.wal_torn_frames += tree._wal.torn_frames_dropped - torn0

        tree._recovery_wals = []
        tree._persist_structure()
        for wal_file in old_wals:
            tree._wal.delete(wal_file)
        if remove_orphans:
            tree._remove_orphans()
        tree.stats.last_recovery_wall = time.perf_counter() - wall0
        tree.stats.last_recovery_sim = device.stats.simulated_time - sim0
        obs = tree.observer
        if obs is not None:
            obs.record_recovery(tree.stats.last_recovery_wall)
        return tree

    def _replay_entry(self, entry: Entry) -> None:
        """Re-apply one WAL record, preserving its original sequence number."""
        self._seqno = max(self._seqno, entry.seqno)
        assert self._wal is not None
        self._wal.append(entry)
        if entry.is_tombstone:
            self._buffer_entry(entry)
        elif entry.kind is EntryKind.MERGE:
            # Re-fold the operand as the original write did; the operator
            # must be registered (config.merge_operators) for recovery.
            name, operand = decode_merge_value(entry.value)
            self._buffer_merge_locked(entry.key, entry.seqno, name, operand)
        elif entry.kind is EntryKind.PUT_TTL:
            # WAL records carry the raw value behind the deadline prefix;
            # preserve the absolute deadline, re-encode against this tree's
            # value log.
            deadline, payload = decode_ttl_value(entry.value)
            self._buffer_entry(
                Entry(
                    key=entry.key,
                    seqno=entry.seqno,
                    kind=EntryKind.PUT_TTL,
                    value=encode_ttl_value(
                        deadline, self._encode_value(entry.key, payload)
                    ),
                )
            )
        else:
            self._buffer_entry(
                Entry(
                    key=entry.key,
                    seqno=entry.seqno,
                    kind=EntryKind.PUT,
                    value=self._encode_value(entry.key, entry.value),
                )
            )

    def _collect_manifest(self) -> ManifestData:
        vlog_files: List[int] = []
        if self._value_log is not None:
            vlog_files = sorted(
                fid for fid in self._value_log._live_bytes if self.device.file_exists(fid)
            )
        # Every log recovery must replay, oldest first: prior-generation
        # logs (mid-recovery only), each pending seal's segment, then the
        # current log.
        wal_files: List[int] = []
        if self._wal is not None:
            candidates = list(self._recovery_wals)
            candidates.extend(
                imm.sealed_wal for imm in self._immutables if imm.sealed_wal is not None
            )
            candidates.append(self._wal.current_file)
            seen = set()
            for fid in candidates:
                if fid not in seen and self.device.file_exists(fid):
                    seen.add(fid)
                    wal_files.append(fid)
        return ManifestData(
            seqno=self._seqno,
            name=self.config.name,
            wal_files=wal_files,
            vlog_files=vlog_files,
            levels=[
                [[table.file_id for table in run.tables] for run in runs]
                for runs in self._levels
            ],
        )

    def _persist_structure(self) -> None:
        """Rewrite the manifest, then delete files the old structure retired.

        The delete-after-persist ordering is the crash-safety invariant: a
        file is removed only once a durable manifest no longer references
        it, so recovery never chases a deleted file.
        """
        if self._wal is None:
            return
        self.device.crash_hook("manifest_install")
        self._manifest_file = write_manifest(
            self.device, self._collect_manifest(), self._manifest_file
        )
        if self._pending_deletions:
            pending, self._pending_deletions = self._pending_deletions, []
            for file_id in pending:
                if self.device.file_exists(file_id):
                    self.device.delete_file(file_id)

    def _remove_orphans(self) -> None:
        """Delete device files referenced by nothing (post-recovery hygiene)."""
        data = self._collect_manifest()
        referenced = data.referenced_files()
        if self._manifest_file is not None:
            referenced.add(self._manifest_file)
        if self._value_log is not None:
            referenced.add(self._value_log.current_file)
        if self._wal is not None:
            referenced.add(self._wal.current_file)
        for file_id in list(self.device.live_files):
            if file_id not in referenced:
                self.device.delete_file(file_id)

    # ------------------------------------------------------------- introspection

    @property
    def num_levels(self) -> int:
        """Allocated storage levels (level 0, the memtable, not counted)."""
        return len(self._levels)

    @property
    def total_runs(self) -> int:
        return sum(len(runs) for runs in self._levels)

    @property
    def uptime_seconds(self) -> float:
        """Wall-clock seconds since this engine instance was constructed
        (a recovered tree's uptime restarts — it is a new instance)."""
        return time.monotonic() - self._opened_monotonic

    def metrics_snapshot(self) -> dict:
        """The full engine-level metrics snapshot, flat and JSON-able.

        One call that surfaces everything dashboards need: the tree's
        counters (:meth:`LSMStats.as_dict`), the block cache's hit/miss/
        eviction accounting (``cache_*`` keys — callers no longer reach
        into ``tree.cache.stats``), the device's I/O totals (``device_*``),
        and the current structure shape.
        """
        snap = self.stats.as_dict()
        for name, value in self.cache.stats.as_dict().items():
            snap[f"cache_{name}"] = value
        for name, value in self.cache.compressed_stats.as_dict().items():
            snap[f"cache_compressed_{name}"] = value
        snap["cache_used_bytes"] = self.cache.used_bytes
        snap["cache_compressed_used_bytes"] = self.cache.compressed_used_bytes
        guard = getattr(self.device, "guard", None)
        if guard is not None:
            snap.update(guard.as_dict())
        device = self.device.stats
        snap.update(
            device_blocks_read=device.blocks_read,
            device_blocks_written=device.blocks_written,
            device_bytes_read=device.bytes_read,
            device_bytes_written=device.bytes_written,
            device_sequential_reads=device.sequential_reads,
            device_random_reads=device.random_reads,
            device_seeks=device.seeks,
            device_coalesced_reads=device.coalesced_reads,
            device_coalesced_blocks=device.coalesced_blocks,
            device_coalesced_writes=device.coalesced_writes,
            device_coalesced_write_blocks=device.coalesced_write_blocks,
            device_simulated_time=device.simulated_time,
            uptime_seconds=self.uptime_seconds,
            levels=self.num_levels,
            runs=self.total_runs,
            memtable_entries=self.memtable_entries,
            immutable_memtables=self.immutable_memtables,
            write_amplification=self.write_amplification,
        )
        return snap

    def level_summary(self) -> List[dict]:
        """Per-level shape: run/file counts, bytes, capacity (for examples)."""
        summary = []
        for idx, runs in enumerate(self._levels):
            level = idx + 1
            summary.append(
                {
                    "level": level,
                    "runs": len(runs),
                    "files": sum(len(run.tables) for run in runs),
                    "bytes": sum(run.size_bytes for run in runs),
                    "capacity": self.config.level_capacity(level),
                    "entries": sum(run.entry_count for run in runs),
                }
            )
        return summary

    @property
    def write_amplification(self) -> float:
        """Device bytes written per user byte ingested."""
        return self.device.stats.bytes_written / max(1, self.stats.user_bytes)

    @property
    def space_amplification(self) -> float:
        """Device bytes used per logical live byte (scans the tree: O(n))."""
        logical = 0
        for key, value in self.scan():
            logical += len(key) + len(value)
        if logical == 0:
            return 0.0
        return self.device.used_bytes / logical

    @property
    def memory_footprint(self) -> int:
        """Bytes of in-memory structures: buffers + filters/indexes + cache."""
        aux = sum(run.memory_bytes for runs in self._levels for run in runs)
        sealed = sum(imm.size_bytes for imm in self._immutables)
        return self._memtable.size_bytes + sealed + aux + self.cache.used_bytes

    @property
    def memtable_entries(self) -> int:
        return len(self._memtable)

    @property
    def immutable_memtables(self) -> int:
        """Sealed memtables awaiting flush (service mode's flush backlog)."""
        return len(self._immutables)

    def flush_backlog(self) -> int:
        """Level-0-style write debt: sealed memtables + level-1 runs.

        The gauge backpressure watches — RocksDB's ``level0_file_num``
        analog for this engine's shape (level 1 holds flush output).
        """
        with self._mutex:
            level1 = len(self._levels[0]) if self._levels else 0
            return level1 + len(self._immutables)

    # ---------------------------------------------------------------- internals

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("operation on a closed LSMTree")

    def _note_event(self, event: CompactionEvent) -> None:
        """Record a re-organization event in stats and, if attached, the observer."""
        self.stats.record_event(event)
        obs = self.observer
        if obs is not None:
            obs.record_event(event)

    def _buffer_merge_locked(
        self, key: bytes, seqno: int, operator: str, operand: bytes
    ) -> None:
        """Buffer one merge operand, folding eagerly against the active
        memtable so every memtable (and hence every flushed run) keeps its
        one-entry-per-key invariant. Must be called under the tree mutex.
        """
        op = self._merge_registry.get(operator)
        existing = self._memtable.get(key)
        if existing is None:
            # No memtable-resident base: keep a typed operand entry and
            # resolve lazily (read path / compaction fold).
            self._buffer_entry(
                Entry(key=key, seqno=seqno, kind=EntryKind.MERGE,
                      value=encode_merge_value(operator, operand))
            )
            return
        if existing.is_merge:
            name, older = decode_merge_value(existing.value)
            if name != operator:
                raise MergeError(
                    f"key {key!r} has pending {name!r} operands; cannot mix "
                    f"with {operator!r}"
                )
            combined = op.combine(older, operand)
            self._buffer_entry(
                Entry(key=key, seqno=seqno, kind=EntryKind.MERGE,
                      value=encode_merge_value(operator, combined))
            )
            return
        base: Optional[bytes] = None
        if existing.kind is EntryKind.PUT:
            base = self._decode_value(existing.value)
        elif existing.kind is EntryKind.PUT_TTL and not existing.expired(
            self.device.stats.simulated_time
        ):
            base = self._decode_value(decode_ttl_value(existing.value)[1])
        # DELETE or expired-TTL base folds from absent. The folded result is
        # a plain PUT: merging onto a TTL'd value clears the TTL (documented).
        result = op.apply(base, operand)
        self._buffer_entry(
            Entry(key=key, seqno=seqno, kind=EntryKind.PUT,
                  value=self._encode_value(key, result))
        )

    def _resolve_chain(
        self, base: Optional[Entry], operands: List[Entry], now: float
    ) -> Optional[bytes]:
        """Fold a merge chain (operand entries newest-first) over ``base``.

        Returns the final user-visible value, or None when the key reads as
        absent (no versions, tombstone, or expired TTL with no operands).
        """
        base_value: Optional[bytes] = None
        if base is not None and not base.is_tombstone:
            if base.kind is EntryKind.PUT_TTL:
                if not base.expired(now):
                    base_value = self._decode_value(decode_ttl_value(base.value)[1])
            else:
                base_value = self._decode_value(base.value)
        if not operands:
            return base_value
        names = []
        parts = []
        for entry in operands:
            name, operand = decode_merge_value(entry.value)
            names.append(name)
            parts.append(operand)
        if any(name != names[0] for name in names):
            raise MergeError(
                f"key {operands[0].key!r} mixes merge operators {sorted(set(names))!r}"
            )
        op = self._merge_registry.get(names[0])
        return op.fold(base_value, reversed(parts))  # oldest first

    def _buffer_entry(self, entry: Entry) -> None:
        self._memtable.put(entry)
        if self._in_batch:
            return  # write_batch runs maintenance once, after the frame
        self._maybe_seal_or_flush()
        if self.config.lazy_compaction and self._maintenance_cb is None:
            self._paced_compaction()

    def _maybe_seal_or_flush(self) -> None:
        if self._memtable.size_bytes >= self.config.buffer_bytes:
            if self._maintenance_cb is not None:
                # Service mode: seal (cheap swap) and let the scheduler build
                # the run off the write path.
                self.seal_memtable()
                self._maintenance_cb()
            else:
                self.flush()

    def _paced_compaction(self) -> None:
        """Bounded compaction work per write, plus debt-based throttling."""
        for _ in range(self.config.compaction_steps_per_op):
            if not self._compaction_step():
                break
        self._trim_empty_tail()
        threshold = self.config.slowdown_debt
        if threshold is not None and self.compaction_debt() > threshold:
            # Admission throttling: delay this write to let compactions
            # catch up (Luo & Carey; CruiseDB), modeled as a time charge.
            self.device.stats.simulated_time += self.config.stall_penalty
            self.stats.write_stalls += 1
            self.stats.stall_time += self.config.stall_penalty

    # -- value encoding (key-value separation) --

    def _encode_value(self, key: bytes, value: bytes) -> bytes:
        if self._value_log is None:
            return value
        if len(value) >= self.config.value_threshold:
            pointer = self._value_log.append(key, value)
            return _POINTER_TAG + pointer.encode()
        return _INLINE_TAG + value

    def _decode_value(self, stored: bytes) -> bytes:
        if self._value_log is None:
            return stored
        tag, payload = stored[:1], stored[1:]
        if tag == _INLINE_TAG:
            return payload
        if tag == _POINTER_TAG:
            with self._stats_lock:
                self.stats.value_log_fetches += 1
            return self._value_log.get(ValuePointer.decode(payload), cache=self.cache)
        raise ValueError(f"corrupt value tag {tag!r}")

    def _find_entry(self, key: bytes) -> Optional[Entry]:
        """Raw entry lookup: the newest version (no value resolution, no stats)."""
        base, operands = self._probe_memory_chain(key)
        if operands or base is not None:
            return operands[0] if operands else base
        for runs in self._levels:
            for run in runs:
                entry = run.get(key, cache=self.cache)
                if entry is not None:
                    return entry
        return None

    def _key_of_pointer(self, pointer: ValuePointer) -> Optional[bytes]:
        """Find which key owns a (just-relocated) value-log record."""
        assert self._value_log is not None
        if pointer.file_id == self._value_log.current_file and pointer.span == 1:
            pending = self._value_log._pending
            blocks = self._value_log._device.num_blocks(pointer.file_id)
            if pointer.block_no == blocks and pointer.slot < len(pending):
                return pending[pointer.slot].key
        payload = self.device.read_payload(pointer.file_id, pointer.block_no, pointer.span)
        records = parse_block(payload, detect_frames=False)  # vlog: never framed
        return records[pointer.slot].key if pointer.slot < len(records) else None

    # -- run construction --

    def _build_tables(self, entries: Iterator[Entry], level: int) -> List[SSTable]:
        """Write sorted unique-key entries into one or more files."""
        filter_factory = self._factory.filter_factory(level)
        range_factory = self._factory.range_filter_factory()
        index_factory = self._factory.index_factory()
        tables: List[SSTable] = []
        builder: Optional[SSTableBuilder] = None
        written = 0
        limit = self.config.file_bytes
        parallel = self.config.parallel
        write_buffer = parallel.write_buffer_blocks if parallel is not None else 1
        for entry in entries:
            if builder is None:
                builder = SSTableBuilder(
                    self.device,
                    block_size=self.config.block_size,
                    index_factory=index_factory,
                    filter_factory=filter_factory,
                    range_filter_factory=range_factory,
                    hash_index=self.config.hash_index_blocks,
                    write_buffer_blocks=write_buffer,
                    codec=self._codec,
                )
                written = 0
            builder.add(entry)
            written += entry.approximate_size
            if limit is not None and written >= limit:
                tables.append(builder.finish())
                builder = None
        if builder is not None:
            tables.append(builder.finish())
        for table in tables:
            self._register_table(table)
        return tables

    def _build_run(self, entries: Iterator[Entry], level: int) -> Optional[Run]:
        tables = self._build_tables(entries, level)
        if not tables:
            return None
        return Run(tables)

    def _register_table(self, table: SSTable) -> None:
        table.born_at = self.stats.flushes  # staleness clock, in flush ticks
        with self._stats_lock:
            self.stats.blocks_written += table.num_data_blocks
            self.stats.block_bytes_uncompressed += table.uncompressed_data_bytes
            self.stats.block_bytes_stored += table.compressed_data_bytes
        if self._elastic is not None and isinstance(table.point_filter, ElasticBloomFilter):
            self._elastic.register(table.point_filter)

    # -- pinning / retirement --

    # The live tree's and compaction plans' pins change the run set, so they
    # retire the read view; versions pin through _pin_levels instead.

    def _pin(self, run: Run) -> None:
        self._retire_read_view()
        for table in run.tables:
            table.refs += 1

    def _unpin(self, run: Run) -> None:
        self._retire_read_view()
        for table in run.tables:
            self._drop_pin(table)

    # -- level structure --

    def _arrive(self, run: Run, level: int) -> None:
        """A run arrives at a level as its youngest member."""
        while len(self._levels) < level:
            self._levels.append([])
        self._pin(run)
        self._levels[level - 1].insert(0, run)

    def _deepest_data_level(self) -> int:
        """Deepest level currently holding any run (0 when storage is empty)."""
        deepest = 0
        for idx, runs in enumerate(self._levels):
            if runs:
                deepest = idx + 1
        return deepest

    def _level_state(self, level: int) -> LevelState:
        runs = self._levels[level - 1]
        is_last = level >= self._deepest_data_level()
        oldest_age = 0
        if runs:
            oldest_age = self.stats.flushes - min(
                table.born_at for run in runs for table in run.tables
            )
        return LevelState(
            level=level,
            num_runs=len(runs),
            size_bytes=sum(run.size_bytes for run in runs),
            capacity_bytes=self.config.level_capacity(level),
            max_runs=self._layout.max_runs(level, is_last),
            is_last=is_last,
            oldest_run_age=oldest_age,
        )

    # -- compaction --

    def _maybe_compact(self) -> None:
        """Run compaction steps until no trigger fires (eager mode)."""
        while self._compaction_step():
            pass
        self._trim_empty_tail()

    def _compaction_step(self) -> bool:
        """Perform at most one compaction; True when work was done.

        This is the unit the lazy-compaction pacer schedules: one full-level
        merge, or one file move under partial granularity.
        """
        plan = self.plan_compaction()
        if plan is None:
            return False
        if plan.partial:
            self._compact_partial(plan.level, prefer_oldest=plan.prefer_oldest)
            return True
        merged = self.execute_compaction(plan)
        self.install_compaction(plan, merged)
        return True

    def compaction_needed(self) -> bool:
        """True when any level's trigger currently fires (scheduler poll)."""
        with self._mutex:
            for idx in range(len(self._levels)):
                if not self._levels[idx]:
                    continue
                if self._trigger.should_compact(self._level_state(idx + 1)):
                    return True
            return False

    def plan_compaction(self) -> Optional[CompactionPlan]:
        """Pick the next compaction under the mutex and pin its inputs.

        Scans shallow-to-deep (flush debt at level 1 outranks deep
        saturation), replicating the trigger logic of the inline path.
        Returns None when no trigger fires. For a non-partial plan every
        input run gains a pin that :meth:`install_compaction` (or
        :meth:`abandon_compaction`) releases.
        """
        with self._mutex:
            for idx in range(len(self._levels)):
                level = idx + 1
                runs = self._levels[idx]
                if not runs:
                    continue
                state = self._level_state(level)
                if not self._trigger.should_compact(state):
                    continue
                if self.config.partial_compaction and len(runs) == 1:
                    # When the level is not oversized the trigger must have
                    # been staleness: move the oldest file, not the picker's.
                    saturated = state.size_bytes >= state.capacity_bytes
                    return CompactionPlan(
                        level=level, dest=level + 1,
                        partial=True, prefer_oldest=not saturated,
                    )
                saturated = (
                    state.size_bytes
                    >= state.capacity_bytes * self.config.saturation_threshold
                )
                dest = level + 1 if saturated else level
                if dest == level and len(runs) == 1:
                    # A single-run level can only make progress by moving down
                    # (e.g. a staleness trigger on a leveled level).
                    dest = level + 1
                source = list(runs)
                dest_runs: List[Run] = []
                if dest > level and dest <= len(self._levels):
                    dest_is_leveled = (
                        self._layout.max_runs(dest, dest >= self._deepest_data_level()) == 1
                    )
                    if dest_is_leveled and self._levels[dest - 1]:
                        dest_runs = list(self._levels[dest - 1])
                inputs = source + dest_runs
                # Trivial move: one run slides down without touching
                # overlapping data — unless it carries tombstones into the
                # bottom of the tree, where nothing would ever rewrite (and
                # thus purge) them: that case takes the merge path (RocksDB's
                # bottommost-level compaction).
                trivial = False
                if dest > level and len(inputs) == 1:
                    run = inputs[0]
                    must_purge = run.tombstone_count > 0 and self._purge_allowed(dest, inputs)
                    trivial = not must_purge
                plan = CompactionPlan(
                    level=level, dest=dest,
                    source_runs=source, dest_runs=dest_runs,
                    purge=self._purge_allowed(dest, inputs), trivial=trivial,
                    bytes_in=sum(run.size_bytes for run in inputs),
                )
                for run in inputs:
                    self._pin(run)
                return plan
            return None

    def execute_compaction(self, plan: CompactionPlan) -> Optional[Run]:
        """Merge a plan's inputs into a new run (the I/O-heavy phase).

        Runs without the tree mutex: the inputs are pinned, and only newer
        data can arrive above them while the merge reads. Trivial moves and
        partial plans do no work here.
        """
        if plan.trivial or plan.partial:
            return None
        obs = self.observer
        if obs is not None:
            obs.record_compaction_start(
                plan.level, plan.dest, plan.bytes_in, runs=len(plan.inputs)
            )
            wall0 = time.perf_counter()
        merged = self._merge_runs(plan.inputs, plan.dest, plan.purge)
        if obs is not None:
            obs.record_compaction(time.perf_counter() - wall0)
        return merged

    def install_compaction(self, plan: CompactionPlan, merged: Optional[Run]) -> None:
        """Atomically swap a finished compaction into the level structure.

        Removes exactly the planned input runs (runs flushed mid-merge are
        untouched), installs the merged output, records stats, and releases
        the plan's pins.
        """
        if plan.partial:
            with self._mutex:
                self.device.crash_hook("compaction_install")
                self._compact_partial(plan.level, prefer_oldest=plan.prefer_oldest)
                self._trim_empty_tail()
                self._persist_after_background_compaction()
            return
        with self._mutex:
            self.device.crash_hook("compaction_install")
            source_ids = {id(run) for run in plan.source_runs}
            self._levels[plan.level - 1] = [
                run for run in self._levels[plan.level - 1] if id(run) not in source_ids
            ]
            if plan.dest_runs:
                dest_ids = {id(run) for run in plan.dest_runs}
                self._levels[plan.dest - 1] = [
                    run for run in self._levels[plan.dest - 1] if id(run) not in dest_ids
                ]
            if plan.trivial:
                run = plan.inputs[0]
                self._arrive(run, plan.dest)
                self._unpin(run)  # the plan's pin
                self._unpin(run)  # the old level-membership pin (transferred)
                self.stats.trivial_moves += 1
                self._note_event(
                    CompactionEvent(
                        "trivial_move", plan.level, plan.dest, 0, 0, self.stats.flushes
                    )
                )
            else:
                if merged is not None:
                    self._arrive(merged, plan.dest)
                self.stats.compactions += 1
                self._note_event(
                    CompactionEvent(
                        "full", plan.level, plan.dest, plan.bytes_in,
                        merged.size_bytes if merged is not None else 0,
                        self.stats.flushes,
                    )
                )
                for run in plan.inputs:
                    self._unpin(run)  # the plan's pin
                self._finish_compaction(
                    plan.inputs, merged.tables if merged is not None else []
                )
            self._trim_empty_tail()
            self._persist_after_background_compaction()

    def _persist_after_background_compaction(self) -> None:
        """Keep the manifest current when compaction runs off the flush path.

        Inline mode persists once per flush, after the whole cascade; a
        scheduler-run compaction deletes its input files on its own
        timeline, so it must rewrite the manifest itself or recovery would
        chase files that no longer exist.
        """
        if self._wal is not None and self._maintenance_cb is not None:
            self._persist_structure()

    def abandon_compaction(self, plan: CompactionPlan) -> None:
        """Release a plan's pins without installing (scheduler shutdown)."""
        if plan.partial:
            return
        with self._mutex:
            for run in plan.inputs:
                self._unpin(run)

    def compaction_debt(self) -> float:
        """How far the tree is past its shape bounds (0 = within bounds).

        Sums each level's byte overflow (as a fraction of its capacity) and
        run-count overflow (as a fraction of its bound) — the gauge the
        throttling policy watches.
        """
        debt = 0.0
        for idx, runs in enumerate(self._levels):
            if not runs:
                continue
            state = self._level_state(idx + 1)
            debt += max(0.0, state.size_bytes / state.capacity_bytes - 1.0)
            debt += max(0.0, (state.num_runs - state.max_runs) / max(1, state.max_runs))
        return debt

    def _compact_partial(self, level: int, prefer_oldest: bool = False) -> None:
        """Move one victim file from ``level`` into level+1 (RocksDB-style).

        Runs entirely under the tree mutex: the unit is one file, so holding
        the lock across its merge keeps the surgery simple without stalling
        writers for a whole-level merge.
        """
        with self._mutex:
            self._compact_partial_locked(level, prefer_oldest)

    def _compact_partial_locked(self, level: int, prefer_oldest: bool) -> None:
        run = self._levels[level - 1][0]
        next_runs = self._levels[level] if level < len(self._levels) else []
        next_run = next_runs[0] if next_runs else None

        if prefer_oldest:
            victim = min(run.tables, key=lambda table: (table.born_at, table.min_key))
        else:
            victim = self._picker.pick(run.tables, next_run.tables if next_run else [])
        overlapping = (
            next_run.tables_overlapping(victim.min_key, victim.max_key) if next_run else []
        )

        bottom_bound = (level + 1) >= self._deepest_data_level()
        if not overlapping and not (victim.tombstone_count > 0 and bottom_bound):
            # Trivial move: re-parent the file without rewriting it. A
            # tombstone-bearing file headed for the bottom is rewritten
            # instead so its deletes actually persist (Lethe's concern).
            self._remove_table_from_level(level, run, victim, keep_alive=True)
            self._add_tables_to_level(level + 1, [victim], drop_temp_pin=True)
            self.stats.trivial_moves += 1
            self._note_event(
                CompactionEvent("trivial_move", level, level + 1, 0, 0, self.stats.flushes)
            )
            return

        # The merge consumes the victim's and overlapping files' entries
        # eagerly, so the old files may be retired right after.
        obs = self.observer
        if obs is not None:
            obs.record_compaction_start(
                level, level + 1,
                victim.size_bytes + sum(t.size_bytes for t in overlapping),
                runs=1 + len(overlapping),
            )
            wall0 = time.perf_counter()
        streams = [victim.iter_entries()] + [table.iter_entries() for table in overlapping]
        purge = (level + 1) >= self._deepest_data_level()
        in_bytes = victim.size_bytes + sum(t.size_bytes for t in overlapping)
        in_tombstones = victim.tombstone_count + sum(t.tombstone_count for t in overlapping)
        new_tables = self._build_tables(
            self._fold_entries(streams, purge, self.device.stats.simulated_time),
            level + 1,
        )

        if self._leaper is not None:
            # Before invalidation: Leaper reads the old blocks' heat.
            self._leaper.on_compaction([victim] + list(overlapping), new_tables)

        self._remove_table_from_level(level, run, victim, keep_alive=False)
        self._replace_tables_in_level(level + 1, overlapping, new_tables)

        self.stats.compactions += 1
        self.stats.compaction_bytes_in += in_bytes
        out_bytes = sum(t.size_bytes for t in new_tables)
        self.stats.compaction_bytes_out += out_bytes
        out_tombstones = sum(t.tombstone_count for t in new_tables)
        self.stats.tombstones_purged += max(0, in_tombstones - out_tombstones)
        self._note_event(
            CompactionEvent("partial", level, level + 1, in_bytes, out_bytes, self.stats.flushes)
        )
        if obs is not None:
            obs.record_compaction(time.perf_counter() - wall0)
        if self._elastic is not None:
            self._elastic.rebalance()

    def _compaction_fold(
        self, purge: bool, now: float
    ) -> Callable[[List[Entry]], Optional[Entry]]:
        """Build the per-key group fold every compaction output flows through.

        The returned callable takes one key's versions newest-first (the
        groups :func:`merge_entry_versions` yields) and returns the single
        entry the output run keeps, or None to drop the key entirely. It
        subsumes the old newest-wins + tombstone-policy pass and adds merge
        folding, TTL reclamation, and the configured compaction filter.

        ``now`` must be captured ONCE per compaction: the fold is then a
        pure function of ``(group, purge, now)``, and key-range partitioning
        never splits a group, so serial and parallel subcompaction
        executions produce bit-identical entry sequences. Parallel workers
        call it concurrently — shared-stats updates go through the stats
        lock, and folded values are encoded inline (never appended to the
        single-writer value log).
        """
        keep = self.config.compaction_filter
        registry = self._merge_registry
        inline = self._value_log is not None

        def fold(group: List[Entry]) -> Optional[Entry]:
            base: Optional[Entry] = None
            operands: List[Entry] = []
            for entry in group:
                if entry.is_merge:
                    operands.append(entry)
                else:
                    base = entry
                    break  # anything older is shadowed
            if not operands:
                entry = group[0]
                if entry.is_tombstone:
                    return None if purge else entry
                if entry.kind is EntryKind.PUT_TTL and entry.expired(now):
                    with self._stats_lock:
                        self.stats.ttl_expired_dropped += 1
                    if purge:
                        return None
                    # Older copies may live below this compaction's output:
                    # leave a tombstone at the same seqno to shadow them.
                    return Entry(
                        key=entry.key, seqno=entry.seqno, kind=EntryKind.DELETE
                    )
                if keep is not None and not keep(entry.key, entry.value):
                    with self._stats_lock:
                        self.stats.filtered_by_compaction += 1
                    return None
                return entry
            names: List[str] = []
            parts: List[bytes] = []
            for op_entry in operands:
                name, operand = decode_merge_value(op_entry.value)
                names.append(name)
                parts.append(operand)
            if any(name != names[0] for name in names):
                raise MergeError(
                    f"key {group[0].key!r} mixes merge operators "
                    f"{sorted(set(names))!r}"
                )
            op = registry.get(names[0])
            key = group[0].key
            newest = group[0].seqno
            if base is None and not purge:
                # The chain's base may live below this compaction's inputs:
                # partially combine the operands into one MERGE entry.
                combined = parts[-1]
                for part in reversed(parts[:-1]):  # older -> newer
                    combined = op.combine(combined, part)
                return Entry(
                    key=key, seqno=newest, kind=EntryKind.MERGE,
                    value=encode_merge_value(names[0], combined),
                )
            base_value: Optional[bytes] = None
            if base is not None and not base.is_tombstone:
                if base.kind is EntryKind.PUT_TTL:
                    if base.expired(now):
                        with self._stats_lock:
                            self.stats.ttl_expired_dropped += 1
                    else:
                        base_value = self._decode_value(
                            decode_ttl_value(base.value)[1]
                        )
                else:
                    base_value = self._decode_value(base.value)
            value = op.fold(base_value, reversed(parts))  # oldest first
            stored = _INLINE_TAG + value if inline else value
            if keep is not None and not keep(key, stored):
                with self._stats_lock:
                    self.stats.filtered_by_compaction += 1
                return None
            return Entry(key=key, seqno=newest, kind=EntryKind.PUT, value=stored)

        return fold

    def _fold_entries(
        self, streams, purge: bool, now: float
    ) -> Iterator[Entry]:
        """Serial compaction pipeline: group versions per key, apply the fold."""
        fold = self._compaction_fold(purge, now)
        for group in merge_entry_versions(streams):
            entry = fold(group)
            if entry is not None:
                yield entry

    def _merge_runs(self, inputs: List[Run], dest_level: int, purge: bool) -> Optional[Run]:
        parallel = self.config.parallel
        readahead = parallel.merge_readahead_blocks if parallel is not None else 1
        # One TTL clock reading for the whole merge, serial or parallel: the
        # fold's decisions must not depend on execution schedule.
        now = self.device.stats.simulated_time
        if parallel is not None and parallel.max_subcompactions > 1:
            ranges = split_key_ranges(
                inputs, parallel.max_subcompactions, parallel.min_subcompaction_blocks
            )
            if len(ranges) > 1:
                return self._merge_runs_parallel(
                    inputs, dest_level, purge, ranges, readahead, now
                )
        streams = [run.iter_entries(readahead=readahead) for run in inputs]
        with self._stats_lock:
            self.stats.compaction_bytes_in += sum(run.size_bytes for run in inputs)
        in_tombstones = sum(run.tombstone_count for run in inputs)
        merged = self._build_run(
            self._fold_entries(streams, purge, now),
            dest_level,
        )
        self._note_merge_output(merged, in_tombstones)
        return merged

    def _merge_runs_parallel(
        self,
        inputs: List[Run],
        dest_level: int,
        purge: bool,
        ranges,
        readahead: int,
        now: float,
    ) -> Optional[Run]:
        """Execute one merge as key-range subcompactions on the worker pool.

        Workers only read pinned inputs and write brand-new files — they
        never touch levels, pins, stats, or filter registration, so no tree
        lock is needed until the coordinator (this thread) resumes. The
        concatenated per-range outputs form the same logical run a serial
        merge produces (identical entry sequence; only file/block packing
        may differ at range seams).
        """
        filter_factory = self._factory.filter_factory(dest_level)
        range_factory = self._factory.range_filter_factory()
        index_factory = self._factory.index_factory()

        def builder_factory() -> SSTableBuilder:
            return SSTableBuilder(
                self.device,
                block_size=self.config.block_size,
                index_factory=index_factory,
                filter_factory=filter_factory,
                range_filter_factory=range_factory,
                hash_index=self.config.hash_index_blocks,
                write_buffer_blocks=self.config.parallel.write_buffer_blocks,
                codec=self._codec,
            )

        in_bytes = sum(run.size_bytes for run in inputs)
        in_tombstones = sum(run.tombstone_count for run in inputs)
        tables, filtered = run_subcompactions(
            inputs,
            ranges,
            purge,
            builder_factory,
            self.config.file_bytes,
            # The fold subsumes the compaction filter (and counts drops
            # under the stats lock itself), so keep stays None here.
            fold=self._compaction_fold(purge, now),
            readahead=readahead,
            executor=self._subcompaction_executor(),
        )
        with self._stats_lock:
            self.stats.compaction_bytes_in += in_bytes
            self.stats.filtered_by_compaction += filtered
            self.stats.parallel_compactions += 1
            self.stats.subcompactions += len(ranges)
        for table in tables:
            self._register_table(table)
        merged = Run(tables) if tables else None
        self._note_merge_output(merged, in_tombstones)
        obs = self.observer
        if obs is not None:
            obs.record_subcompaction(len(ranges))
        return merged

    def _note_merge_output(self, merged: Optional[Run], in_tombstones: int) -> None:
        with self._stats_lock:
            if merged is not None:
                self.stats.compaction_bytes_out += merged.size_bytes
                self.stats.tombstones_purged += max(
                    0, in_tombstones - merged.tombstone_count
                )
            else:
                self.stats.tombstones_purged += in_tombstones

    def set_subcompaction_executor(self, executor) -> None:
        """Borrow an externally owned worker pool for subcompactions.

        A service scheduler shares one pool across every tree it serves so
        N shards do not each spin up ``max_subcompactions`` threads. The
        owner shuts the pool down; :meth:`close` leaves it alone. Pass None
        to return to a private lazily created pool.
        """
        with self._stats_lock:
            previous = self._subcompaction_pool
            owned = not self._subcompaction_pool_shared
            self._subcompaction_pool = executor
            self._subcompaction_pool_shared = executor is not None
        if previous is not None and owned:
            previous.shutdown(wait=True)

    def _subcompaction_executor(self) -> concurrent.futures.Executor:
        """The tree's subcompaction worker pool (shared or lazily created)."""
        with self._stats_lock:
            if self._subcompaction_pool is None:
                self._subcompaction_pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.config.parallel.max_subcompactions,
                    thread_name_prefix=f"{self.config.name}-subcompact",
                )
                self._subcompaction_pool_shared = False
            return self._subcompaction_pool

    def _purge_allowed(self, dest: int, inputs: List[Run]) -> bool:
        """Tombstones may be dropped iff nothing older lives at or below dest."""
        input_ids = {id(run) for run in inputs}
        for idx in range(dest - 1, len(self._levels)):
            for run in self._levels[idx]:
                if id(run) not in input_ids:
                    return False
        return True

    def _finish_compaction(self, old_runs: List[Run], new_tables: List[SSTable]) -> None:
        old_tables = [table for run in old_runs for table in run.tables]
        if self._leaper is not None:
            self._leaper.on_compaction(old_tables, new_tables)
        for run in old_runs:
            self._unpin(run)
        if self._elastic is not None:
            self._elastic.rebalance()

    # -- partial-compaction table surgery --
    #
    # Pin accounting: a table's refs equal the number of live-tree runs plus
    # open snapshots holding it. Replacing a run swaps pins table-by-table:
    # pin the new run first, then unpin the old one, so surviving tables never
    # dip to zero mid-surgery. A victim that must outlive its old run (the
    # trivial-move path) carries a temporary keep-alive pin across the swap.

    def _remove_table_from_level(
        self, level: int, run: Run, victim: SSTable, keep_alive: bool
    ) -> None:
        remaining = [table for table in run.tables if table is not victim]
        level_runs = self._levels[level - 1]
        if keep_alive:
            victim.refs += 1
        if remaining:
            new_run = Run(remaining)
            self._pin(new_run)
            level_runs[level_runs.index(run)] = new_run
        else:
            level_runs.remove(run)
        self._unpin(run)

    def _add_tables_to_level(
        self, level: int, tables: List[SSTable], drop_temp_pin: bool = False
    ) -> None:
        while len(self._levels) < level:
            self._levels.append([])
        level_runs = self._levels[level - 1]
        if level_runs:
            old_run = level_runs[0]
            new_run = old_run.replace_tables([], tables)
            self._pin(new_run)
            level_runs[0] = new_run
            self._unpin(old_run)
        else:
            new_run = Run(sorted(tables, key=lambda t: t.min_key))
            self._pin(new_run)
            level_runs.append(new_run)
        if drop_temp_pin:
            for table in tables:
                self._drop_pin(table)

    def _replace_tables_in_level(
        self, level: int, removed: List[SSTable], added: List[SSTable]
    ) -> None:
        while len(self._levels) < level:
            self._levels.append([])
        level_runs = self._levels[level - 1]
        if level_runs:
            old_run = level_runs[0]
            new_run = old_run.replace_tables(removed, added)
            self._pin(new_run)
            level_runs[0] = new_run
            self._unpin(old_run)
        elif added:
            new_run = Run(sorted(added, key=lambda t: t.min_key))
            self._pin(new_run)
            level_runs.append(new_run)

    def _drop_pin(self, table: SSTable) -> None:
        table.refs -= 1
        if table.refs <= 0:
            self.cache.invalidate_file(table.file_id)
            if self._elastic is not None and isinstance(
                table.point_filter, ElasticBloomFilter
            ):
                self._elastic.unregister(table.point_filter)
            if self._wal is not None:
                # Deletion waits for the next manifest write: until a durable
                # manifest stops referencing this file, recovery needs it.
                self._pending_deletions.append(table.file_id)
            else:
                table.delete()

    def _trim_empty_tail(self) -> None:
        while self._levels and not self._levels[-1]:
            self._retire_read_view()
            self._levels.pop()


class Snapshot:
    """A consistent point-in-time read view of one :class:`LSMTree`.

    Wraps a pinned :class:`~repro.core.version.Version` with the tree's
    value resolution: merge chains fold, tombstones mask, and TTL expiry is
    judged against the simulated clock *as of snapshot creation* — a key
    that was live when the snapshot was taken stays visible through it even
    if its deadline passes later.

    The raw version surface (``runs``, ``memtable_entries``, ``closed``) is
    delegated for callers that walk the file set directly.
    """

    def __init__(self, tree: "LSMTree", version: Version) -> None:
        self._tree = tree
        self._version = version
        #: The TTL clock, frozen at creation.
        self.created_at = tree.device.stats.simulated_time

    # -- reads -----------------------------------------------------------------

    def get(self, key: bytes) -> GetResult:
        """Point lookup as of the snapshot; returns a :class:`GetResult`."""
        tree = self._tree
        probe = ProbeStats()
        scope = tree._probe_scope(tree.tracer, "get", probe)
        chain = self._version.get_chain(key, tree.cache, probe, tree._digest_seed, scope)
        return tree._get_result(None, [], chain, probe, scope, self.created_at)

    def multi_get(self, keys) -> "dict[bytes, GetResult]":
        """Batched point lookups as of the snapshot (sorted, deduplicated)."""
        return {key: self.get(key) for key in sorted(set(keys))}

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Range scan as of the snapshot; the snapshot stays open after."""
        self._version.ensure_open()
        with self._tree._stats_lock:
            self._tree.stats.scans += 1
        return self._tree._scan_version(
            self._version, start, end, now=self.created_at, close_version=False
        )

    # -- lifecycle and raw-version delegation ----------------------------------

    def version(self) -> Version:
        """The underlying pinned :class:`Version` (entry-level access)."""
        return self._version

    def close(self) -> None:
        """Release the pinned runs; idempotent."""
        self._version.close()

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def runs(self):
        return self._version.runs

    @property
    def memtable_entries(self):
        return self._version.memtable_entries

    @property
    def closed(self) -> bool:
        return self._version.closed


def _prefix_successor(prefix: bytes) -> Optional[bytes]:
    """Smallest byte string greater than every key starting with ``prefix``.

    Increments the rightmost non-0xFF byte and truncates; None when the
    prefix is all 0xFF (no finite successor exists).
    """
    for i in range(len(prefix) - 1, -1, -1):
        if prefix[i] != 0xFF:
            return prefix[:i] + bytes([prefix[i] + 1])
    return None
