"""The engine-side observer: feeds a registry from LSMTree hot paths.

One :class:`EngineObserver` instance binds one tree (or shard) to one
:class:`~repro.observe.metrics.MetricsRegistry`. The tree calls the
``record_*`` hooks from its get/put/scan/flush/compaction paths; each hook
is a couple of histogram/counter updates, and none are called at all when no
observer is attached (the hot paths check one attribute).

Latency is recorded on two clocks:

* **simulated device time** — the block device's latency model, the unit
  every experiment in ``benchmarks/`` reports; and
* **wall-clock seconds** — what a client of the concurrent service layer
  actually waits, including lock waits, group-commit linger, and stalls.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.observe.journal import EventJournal
from repro.observe.metrics import MetricsRegistry

#: Wall-clock histograms: 1 microsecond floor, <=20% relative error.
WALL_MIN = 1e-6
#: Simulated-time histograms: the unit is one sequential block read.
SIM_MIN = 1e-3


class LevelIOStats:
    """Per-level read/write accounting accumulated by the observer."""

    __slots__ = (
        "gets_probed", "gets_served", "filter_probes", "filter_negatives",
        "false_positives", "block_accesses", "cache_hits", "index_probes",
        "bytes_written", "bytes_compacted_in",
    )

    def __init__(self) -> None:
        self.gets_probed = 0  # point lookups that reached this level
        self.gets_served = 0  # point lookups answered by this level
        self.filter_probes = 0
        self.filter_negatives = 0
        self.false_positives = 0
        self.block_accesses = 0  # data blocks touched (cache hits included)
        self.cache_hits = 0
        self.index_probes = 0
        self.bytes_written = 0  # flush/compaction output landing here
        self.bytes_compacted_in = 0  # bytes read out of this level by merges

    @property
    def filter_fpr(self) -> float:
        absent = self.false_positives + self.filter_negatives
        return self.false_positives / absent if absent else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.block_accesses if self.block_accesses else 0.0

    def as_dict(self) -> dict:
        return {
            "gets_probed": self.gets_probed,
            "gets_served": self.gets_served,
            "filter_probes": self.filter_probes,
            "filter_negatives": self.filter_negatives,
            "false_positives": self.false_positives,
            "filter_fpr": self.filter_fpr,
            "block_accesses": self.block_accesses,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "index_probes": self.index_probes,
            "bytes_written": self.bytes_written,
            "bytes_compacted_in": self.bytes_compacted_in,
        }


class EngineObserver:
    """Registry-backed instrumentation for one :class:`~repro.core.lsm_tree.LSMTree`.

    Args:
        registry: the registry to report into (a private one by default).
        labels: optional labels stamped on every series this observer owns
            (the sharded store labels each shard's observer).
        journal: the structured event journal maintenance events feed into
            (a private bounded one by default; share one across components
            to interleave engine, backpressure, and server events).
        journal_capacity: ring bound for the default journal.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Dict[str, str]] = None,
        journal: Optional[EventJournal] = None,
        journal_capacity: int = 4096,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.labels = dict(labels or {})
        self.journal = journal if journal is not None else EventJournal(journal_capacity)
        reg = self.registry

        def hist(name, help, min_value):
            return reg.histogram(name, help, min_value=min_value, labels=self.labels)

        self.get_wall = hist(
            "get_latency_wall_seconds", "point-lookup wall-clock latency", WALL_MIN
        )
        self.get_sim = hist(
            "get_latency_sim", "point-lookup simulated device time", SIM_MIN
        )
        self.put_wall = hist(
            "put_latency_wall_seconds", "write wall-clock latency", WALL_MIN
        )
        self.scan_wall = hist(
            "scan_latency_wall_seconds", "full-scan wall-clock latency", WALL_MIN
        )
        self.flush_wall = hist(
            "flush_build_wall_seconds", "memtable-flush build wall time", WALL_MIN
        )
        self.compaction_wall = hist(
            "compaction_merge_wall_seconds", "compaction merge wall time", WALL_MIN
        )
        self.get_blocks = hist(
            "get_blocks_touched", "data blocks touched per point lookup", SIM_MIN
        )
        self.gets_total = reg.counter("gets_total", "point lookups", self.labels)
        self.gets_found = reg.counter(
            "gets_found_total", "point lookups that found a value", self.labels
        )
        # Fault/recovery series (repro.faults): injected-fault handling and
        # crash-recovery timing. Zero-cost until the hooks fire.
        self.recovery_wall = hist(
            "recovery_wall_seconds", "manifest + WAL-replay recovery wall time", WALL_MIN
        )
        self.fault_counters = {
            kind: reg.counter(
                f"fault_{kind}_total", help_text, self.labels
            )
            for kind, help_text in (
                ("transient", "transient read errors observed by the read guard"),
                ("corruption", "checksum corruptions detected"),
                ("retry", "read retries issued after transient errors"),
                ("degraded", "degraded reads (broken filter/index, fell back to scan)"),
            )
        }
        self.quarantine_total = reg.counter(
            "quarantine_files_total", "files quarantined as persistently corrupt", self.labels
        )
        # Parallel-execution series (repro.parallel): key-range subcompactions.
        self.parallel_compactions_total = reg.counter(
            "parallel_compactions_total",
            "compactions executed as key-range subcompactions",
            self.labels,
        )
        self.subcompactions_total = reg.counter(
            "subcompactions_total", "subcompaction worker jobs run", self.labels
        )
        self.recoveries_total = reg.counter(
            "recoveries_total", "crash recoveries completed", self.labels
        )
        self.levels: Dict[int, LevelIOStats] = {}
        # Served point lookups record level probes from many threads at once.
        self._probe_lock = threading.Lock()

    # -- hooks called from the engine hot paths ------------------------------

    def record_get(self, wall_s: float, sim_time: float, found: bool, blocks: int) -> None:
        self.get_wall.record(wall_s)
        self.get_sim.record(sim_time)
        self.get_blocks.record(blocks)
        self.gets_total.inc()
        if found:
            self.gets_found.inc()

    def record_put(self, wall_s: float) -> None:
        self.put_wall.record(wall_s)

    def record_scan(self, wall_s: float) -> None:
        self.scan_wall.record(wall_s)

    def record_flush_build(self, wall_s: float) -> None:
        self.flush_wall.record(wall_s)

    def record_compaction(self, wall_s: float) -> None:
        self.compaction_wall.record(wall_s)

    def record_compaction_start(self, level: int, dest: int, bytes_in: int,
                                runs: int = 0) -> None:
        """A merge was picked and is about to execute (journal only)."""
        self.journal.emit("compaction_start", level=level, dest=dest,
                          bytes_in=bytes_in, runs=runs)

    def record_subcompaction(self, ranges: int) -> None:
        """One merge just ran as ``ranges`` parallel key-range subcompactions."""
        self.parallel_compactions_total.inc()
        self.subcompactions_total.inc(ranges)

    def level(self, level_no: int) -> LevelIOStats:
        stats = self.levels.get(level_no)
        if stats is None:
            stats = self.levels.setdefault(level_no, LevelIOStats())
        return stats

    def record_level_probe(self, level_no: int, probe, served: bool) -> None:
        """One point lookup's ``ProbeStats`` at one level (called per level probed)."""
        stats = self.level(level_no)
        with self._probe_lock:
            stats.gets_probed += 1
            stats.filter_probes += probe.filter_probes
            stats.filter_negatives += probe.filter_negatives
            stats.false_positives += probe.false_positives
            stats.block_accesses += probe.blocks_read
            stats.cache_hits += probe.cache_hits
            stats.index_probes += probe.index_probes
            if served:
                stats.gets_served += 1

    def record_fault(self, kind: str) -> None:
        """One fault-handling event from the read guard.

        Kinds: ``transient`` (injected read error seen), ``corruption``
        (checksum mismatch), ``retry`` (a retry attempt issued), and
        ``degraded`` (filter/index unreadable; fell back to scanning data
        blocks). Unknown kinds are counted under a lazily created series
        rather than dropped.
        """
        counter = self.fault_counters.get(kind)
        if counter is None:
            counter = self.fault_counters[kind] = self.registry.counter(
                f"fault_{kind}_total", f"fault events of kind {kind}", self.labels
            )
        counter.inc()

    def record_quarantine(self, file_id: Optional[int] = None) -> None:
        """A file crossed the corrupt-read threshold and was quarantined."""
        self.quarantine_total.inc()
        self.journal.emit("quarantine", file_id=file_id)

    def record_recovery(self, wall_s: float) -> None:
        """One completed crash recovery (manifest load + WAL replay)."""
        self.recoveries_total.inc()
        self.recovery_wall.record(wall_s)
        self.journal.emit("recovery", wall_s=wall_s)

    def record_event(self, event) -> None:
        """Per-level write accounting + journal entry from a CompactionEvent."""
        if event.bytes_out:
            self.level(event.dest).bytes_written += event.bytes_out
        if event.bytes_in:
            self.level(event.level).bytes_compacted_in += event.bytes_in
        kind = event.kind
        if kind == "flush":
            journal_kind = "flush"
        elif kind == "ingest":
            journal_kind = "ingest"
        else:  # full / partial / trivial_move merges
            journal_kind = "compaction_finish"
        self.journal.emit(journal_kind, compaction=kind, level=event.level,
                          dest=event.dest, bytes_in=event.bytes_in,
                          bytes_out=event.bytes_out, tick=event.tick)

    # -- reading --------------------------------------------------------------

    def level_io(self) -> Dict[int, dict]:
        return {no: stats.as_dict() for no, stats in sorted(self.levels.items())}


def observe_tree(tree, registry=None, sampling: float = 0.0, trace_capacity: int = 256):
    """Attach metrics and tracing to a tree in one call.

    Returns:
        ``(observer, recorder)``. A recorder is always created — with
        ``sampling=0.0`` it never fires, but the knob can be raised later
        without re-wiring the tree.
    """
    from repro.observe.tracing import TraceRecorder

    observer = EngineObserver(registry)
    recorder = TraceRecorder(capacity=trace_capacity, sampling=sampling)
    tree.observer = observer
    tree.tracer = recorder
    guard = getattr(tree.device, "guard", None)
    if guard is not None:
        guard.observer = observer  # fault/retry/quarantine events flow in too
    return observer, recorder


__all__ = ["EngineObserver", "LevelIOStats", "observe_tree", "WALL_MIN", "SIM_MIN"]
