"""DBService: the thread-safe, production-shaped front door to an LSMTree.

The seed engine runs every flush and compaction inline on the caller's
write path. This facade restores the shape production stores actually have:

* writes go through a :class:`WriteBatcher` (group commit — one WAL frame
  per batch, leader/follower acknowledgement);
* a full memtable is *sealed* on the write path and built/installed by a
  :class:`CompactionScheduler` worker in the background;
* a :class:`BackpressureController` delays or blocks writers when
  maintenance falls behind (RocksDB-style slowdown/stop);
* reads probe memory under the tree mutex, then walk a pinned
  :class:`~repro.core.version.Version` outside it, so background installs
  never invalidate an in-flight lookup.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.entry import GetResult
from repro.core.lsm_tree import LSMTree, Snapshot
from repro.errors import ClosedError, ConflictError
from repro.observe.tracing import TraceContext
from repro.service.backpressure import BackpressureController
from repro.service.batcher import WriteBatcher, WriteOp
from repro.service.config import ServiceConfig
from repro.service.scheduler import CompactionScheduler, RateLimiter
from repro.storage.sstable import ProbeStats


class DBService:
    """A concurrent database service over one :class:`LSMTree`.

    Args:
        tree: the tree to serve.
        config: service knobs; defaults are reasonable for tests/demos.
        scheduler: an externally owned scheduler to share (the sharded
            deployment passes one scheduler for all shards); the service
            creates and owns a private one when omitted.

    The service is itself thread-safe: any number of client threads may
    call :meth:`put`, :meth:`delete`, :meth:`get`, and :meth:`scan`
    concurrently. :meth:`close` drains queues (every acknowledged write
    reaches storage or the WAL) and stops owned background workers.
    """

    def __init__(
        self,
        tree,
        config: Optional[ServiceConfig] = None,
        scheduler: Optional[CompactionScheduler] = None,
        close_tree: bool = False,
    ) -> None:
        self.tree: LSMTree = tree
        self.config = config or ServiceConfig()
        self._close_tree = close_tree
        self._owns_scheduler = scheduler is None
        if scheduler is None:
            limiter = None
            if self.config.compaction_rate_bytes is not None:
                limiter = RateLimiter(
                    self.config.compaction_rate_bytes,
                    self.config.compaction_burst_bytes,
                )
            scheduler = CompactionScheduler(
                num_workers=self.config.num_workers,
                rate_limiter=limiter,
                subcompaction_workers=self.config.subcompaction_workers,
            )
        self.scheduler = scheduler
        self.scheduler.register(tree)
        self.backpressure = BackpressureController(tree, self.config, scheduler)
        self._batcher = WriteBatcher(
            self._apply_batch,
            max_batch=self.config.max_batch,
            max_wait_s=self.config.max_batch_wait_s,
        )
        self._closed = False
        self._started_monotonic = time.monotonic()
        # Observability (repro.observe), wired by attach_observability().
        self.observer = None
        self.recorder = None
        self._write_wall = None
        self._get_wall = None
        self._batch_hist = None

    # -- observability ------------------------------------------------------

    def attach_observability(
        self,
        registry=None,
        sampling: float = 0.0,
        trace_capacity: int = 256,
    ):
        """Thread a metrics registry (and sampled tracing) through the stack.

        Instruments the tree (engine latency histograms, per-level probe
        accounting, sampled read-path spans), the service's client-observed
        wall-clock latencies (queueing + group commit included), the
        group-commit batch-size distribution, the backpressure stall
        histogram, and live gauges for the write queue depth, flush
        backlog, and pending background jobs.

        Args:
            registry: report into this registry (a fresh one by default).
            sampling: read-path trace sampling fraction in [0, 1].
            trace_capacity: spans retained in the trace ring buffer.

        Returns:
            The attached :class:`~repro.observe.EngineObserver` (its
            ``registry`` and the service's ``recorder`` hold everything).
        """
        from repro.observe import EngineObserver, MetricsRegistry, TraceRecorder

        if registry is None:
            registry = MetricsRegistry()
        self.observer = EngineObserver(registry)
        self.recorder = TraceRecorder(capacity=trace_capacity, sampling=sampling)
        self.tree.observer = self.observer
        self.tree.tracer = self.recorder
        # One shared journal: engine flush/compaction events (via the
        # observer) interleave with backpressure stall/transition events.
        self.backpressure.journal = self.observer.journal
        self._write_wall = registry.histogram(
            "service_write_wall_seconds",
            "client-observed write latency (stall + queueing + group commit)",
            min_value=1e-6,
        )
        self._get_wall = registry.histogram(
            "service_get_wall_seconds",
            "client-observed point-lookup latency",
            min_value=1e-6,
        )
        self._batch_hist = registry.histogram(
            "service_batch_records",
            "records per group commit",
            growth=1.5,
            min_value=0.5,
        )
        self.backpressure.stall_histogram = registry.histogram(
            "service_stall_wall_seconds",
            "per-write stall delay (slowdown sleeps and hard stops)",
            min_value=1e-6,
        )
        registry.gauge(
            "service_write_queue_depth", "writes parked in the commit queue"
        ).set_function(lambda: self._batcher.queue_depth)
        registry.gauge(
            "service_flush_backlog", "sealed memtables + level-1 runs"
        ).set_function(self.tree.flush_backlog)
        registry.gauge(
            "service_pending_jobs", "queued + in-flight background jobs"
        ).set_function(lambda: self.scheduler.pending_jobs)
        registry.gauge(
            "service_uptime_seconds", "seconds since the service started"
        ).set_function(lambda: self.uptime_seconds)
        registry.gauge(
            "engine_uptime_seconds", "seconds since the engine instance opened"
        ).set_function(lambda: self.tree.uptime_seconds)
        return self.observer

    # -- writes -------------------------------------------------------------

    def put(self, key: bytes, value: bytes, ttl: Optional[float] = None) -> None:
        """Durable insert/update; blocks until its group commit lands.

        ``ttl`` (simulated seconds) stamps the entry with an expiry
        deadline; see :meth:`LSMTree.put`.
        """
        if ttl is None:
            self._submit(WriteOp("put", key, value))
        else:
            self._submit(WriteOp("put_ttl", key, value, float(ttl)))

    def merge(self, key: bytes, operand: bytes, operator: str = "counter") -> None:
        """Durable merge-operand write (see :meth:`LSMTree.merge`)."""
        self.tree.merge_operator(operator)  # fail fast before queueing
        self._submit(WriteOp("merge", key, operand, operator))

    def delete(self, key: bytes) -> None:
        """Durable delete; blocks until its group commit lands."""
        self._submit(WriteOp("delete", key, None))

    def write(self, batch) -> None:
        """Apply a :class:`repro.txn.WriteBatch` (or op-tuple iterable)
        atomically: its records are contiguous within one group commit —
        one WAL frame holds them all, so a crash keeps or drops the batch
        whole."""
        ops = list(batch)
        if not ops:
            return
        self._submit(WriteOp("write", b"", None, ops))

    def commit_transaction(self, read_set: Dict[bytes, int], ops) -> int:
        """Validate and apply an optimistic transaction through group commit.

        Validation runs in the commit leader under the tree mutex — the
        transaction's read-set fingerprint is compared against current
        seqnos (and against keys written earlier in the same group), then
        its writes land in the group's single WAL frame.

        Raises:
            ConflictError: validation failed; nothing was applied.
        """
        ops = list(ops)
        self._submit(WriteOp("txn", b"", None, (dict(read_set), ops)))
        return len(ops)

    def register_merge_operator(self, operator) -> None:
        """Register a user merge operator on the underlying tree."""
        self.tree.register_merge_operator(operator)

    def merge_operator(self, name: str):
        """Look up a registered merge operator by name."""
        return self.tree.merge_operator(name)

    def _submit(self, op: WriteOp) -> None:
        self._check_open()
        histogram = self._write_wall
        recorder = self.recorder
        span = recorder.maybe_start("service:write") if recorder is not None else None
        if histogram is not None or span is not None:
            wall0 = time.perf_counter()
        self.backpressure.gate()
        if span is not None:
            gated = time.perf_counter()
            span.add_stage("backpressure_gate", gated - wall0)
        self._batcher.submit(op)
        if span is not None:
            span.add_stage("group_commit", time.perf_counter() - gated)
            recorder.finish(span, op=op.kind, key_bytes=len(op.key))
        if histogram is not None:
            histogram.record(time.perf_counter() - wall0)

    def _apply_batch(self, ops) -> Optional[List[Optional[BaseException]]]:
        """Commit one drained group: validate transactions, apply the rest.

        Returns per-op errors (transactions that lose validation get a
        :class:`ConflictError`; everything else in the group still
        commits). Expansion and validation happen together under the tree
        mutex so no write can slip between a transaction's validation and
        its apply.
        """
        tree = self.tree
        errors: List[Optional[BaseException]] = [None] * len(ops)
        with tree.mutex:
            flat: List[tuple] = []
            written: set = set()
            for index, op in enumerate(ops):
                if op.kind == "txn":
                    read_set, txn_ops = op.meta
                    try:
                        # A key written earlier in this very group is as
                        # much a conflict as one already committed.
                        overlap = [k for k in read_set if k in written]
                        if overlap:
                            tree.stats.txn_conflicts += 1
                            raise ConflictError(
                                f"key {overlap[0]!r} written by an earlier "
                                f"commit in the same group"
                            )
                        tree._validate_read_set(read_set)
                    except ConflictError as exc:
                        errors[index] = exc
                        continue
                    flat.extend(txn_ops)
                    written.update(txn_op[1] for txn_op in txn_ops)
                    tree.stats.txn_commits += 1
                elif op.kind == "write":
                    flat.extend(op.meta)
                    written.update(batch_op[1] for batch_op in op.meta)
                elif op.meta is not None:
                    flat.append((op.kind, op.key, op.value, op.meta))
                    written.add(op.key)
                else:
                    flat.append((op.kind, op.key, op.value))
                    written.add(op.key)
            if flat:
                tree.write_batch(flat)
        tree.stats.batches_committed += 1
        tree.stats.batched_records += len(ops)
        if self._batch_hist is not None:
            self._batch_hist.record(len(ops))
        return errors

    # -- reads --------------------------------------------------------------

    def get(self, key: bytes) -> GetResult:
        """Point lookup against a pinned snapshot of the tree.

        Memory (active + sealed memtables) is probed under the tree mutex;
        on a miss the storage runs are pinned and probed outside it, so a
        concurrent compaction can retire — but never delete — the files
        this lookup is reading.
        """
        self._check_open()
        histogram = self._get_wall
        recorder = self.recorder
        span = recorder.maybe_start("service:get") if recorder is not None else None
        if histogram is not None or span is not None:
            wall0 = time.perf_counter()
        tree = self.tree
        with tree.mutex:
            tree.stats.gets += 1
            entry, operands = tree._probe_memory_chain(key)
            version = tree.pin_runs() if entry is None else None
        if span is not None:
            probed = time.perf_counter()
            span.add_stage("memtable_probe", probed - wall0)
        if version is not None:
            # Memory did not terminate the chain: continue on the pinned
            # runs. Memory operands are strictly newer than anything on
            # storage, so extending keeps newest-first order.
            probe = ProbeStats()
            try:
                entry, run_operands = version.get_chain(key, cache=tree.cache, stats=probe)
                operands.extend(run_operands)
            finally:
                version.close()
            with tree._stats_lock:
                tree.stats.probe.merge(probe)
            if span is not None:
                walked = time.perf_counter()
                span.add_stage("storage_probe", walked - probed)
        result = GetResult()
        if operands:
            result.seqno = operands[0].seqno
        elif entry is not None:
            result.seqno = entry.seqno
        if entry is not None or operands:
            value = tree._resolve_chain(
                entry, operands, tree.device.stats.simulated_time
            )
            if value is not None:
                result.found = True
                result.value = value
        if span is not None:
            recorder.finish(span, op="get", found=result.found,
                            from_memtable=version is None)
        if histogram is not None:
            histogram.record(time.perf_counter() - wall0)
        return result

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Range scan over a pinned snapshot (see :meth:`LSMTree.scan`)."""
        self._check_open()
        return self.tree.scan(start, end)

    def multi_get(self, keys) -> "dict[bytes, GetResult]":
        """Batched point lookups in sorted key order.

        When this call is the outermost span (no active trace context), the
        sampling decision is made once here and inherited by every per-key
        lookup — a batch is fully traced under one ``service:multi_get``
        parent or not traced at all, never half-traced.
        """
        recorder = self.recorder
        if recorder is None or recorder.active() is not None:
            return {key: self.get(key) for key in sorted(set(keys))}
        span = recorder.maybe_start("service:multi_get")
        ctx = span.context() if span is not None else TraceContext("", sampled=False)
        token = recorder.activate(ctx)
        try:
            return {key: self.get(key) for key in sorted(set(keys))}
        finally:
            recorder.deactivate(token)
            if span is not None:
                recorder.finish(span, op="multi_get", keys=len(set(keys)))

    def snapshot(self) -> Snapshot:
        """A consistent read view of the tree (see :meth:`LSMTree.snapshot`).

        Writes queued but not yet group-committed are invisible — the
        snapshot captures committed state only.
        """
        self._check_open()
        return self.tree.snapshot()

    # -- maintenance --------------------------------------------------------

    def flush(self, wait: bool = True) -> None:
        """Seal the memtable and schedule its flush; optionally wait."""
        self._check_open()
        if self.tree.seal_memtable() is not None:
            self.scheduler.request_flush(self.tree)
        if wait:
            self.scheduler.drain()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for all queued background work to finish."""
        return self.scheduler.drain(timeout)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Drain and stop: commit queued writes, flush, stop owned workers.

        By default the underlying tree stays open (inspectable, and still
        usable single-threaded with inline maintenance restored); a service
        constructed with ``close_tree=True`` (the ``repro.open()`` path)
        also closes the tree — flushing, sealing its WAL, and persisting.
        """
        if self._closed:
            return
        self._closed = True
        self._batcher.close()
        if self.tree.seal_memtable() is not None:
            self.scheduler.request_flush(self.tree)
        self.scheduler.drain()
        if self._owns_scheduler:
            self.scheduler.close()
        self.tree.set_maintenance_callback(None)
        if self._close_tree:
            self.tree.close()

    def __enter__(self) -> "DBService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ------------------------------------------------------

    @property
    def stats(self):
        return self.tree.stats

    @property
    def uptime_seconds(self) -> float:
        """Wall-clock seconds since this service instance was constructed."""
        return time.monotonic() - self._started_monotonic

    def ping(self) -> dict:
        """Cheap liveness probe: no I/O, safe to call from health checks.

        Reports whether the service is open, how long the service and the
        underlying engine have been up (a recovered tree restarts its
        clock — it is a new instance), and the background-job backlog.
        """
        return {
            "ok": not self._closed,
            "service_uptime_seconds": self.uptime_seconds,
            "engine_uptime_seconds": self.tree.uptime_seconds,
            "pending_jobs": self.scheduler.pending_jobs,
            "write_queue_depth": self._batcher.queue_depth,
        }

    def metrics_snapshot(self) -> dict:
        """The engine's metrics snapshot plus service-level uptime/backlog."""
        snapshot = self.tree.metrics_snapshot()
        snapshot["service_uptime_seconds"] = self.uptime_seconds
        snapshot["pending_jobs"] = self.scheduler.pending_jobs
        snapshot["write_queue_depth"] = self._batcher.queue_depth
        return snapshot

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("operation on a closed DBService")
