"""Versions: consistent snapshots of the tree's file set, and the lookup walk.

The tutorial (§II-A.1): "a scan operates over a version (or snapshot) of the
data — the collection of files that were active and live at the time the scan
began." Runs are reference-counted; a compaction that obsoletes a run only
deletes its files once every version holding it has been released, so an
in-flight scan keeps reading the files it pinned.

:meth:`Version.get_chain` is the one storage walk of every point lookup
(§II-B): runs youngest to oldest, filters and fence pointers before any I/O.
"""

from __future__ import annotations

import bisect
import time
from typing import Callable, List, NamedTuple, Optional, Sequence

from repro.common.entry import Entry, GetResult
from repro.errors import SnapshotError
from repro.filters.hashing import hash64
from repro.storage.run import Run
from repro.storage.sstable import ProbeStats


class Chain(NamedTuple):
    """A key's versions as a lookup found them: the first non-merge ``base``
    (None when the chain bottoms out on nothing), the MERGE ``operands``
    above it newest-first, and the walk's provenance — runs probed, the
    level that held ``base``, and whether a shared digest was computed."""

    base: Optional[Entry]
    operands: List[Entry]
    runs_probed: int = 0
    source_level: Optional[int] = None
    hashed: bool = False


class ProbeScope:
    """Instrumentation of one observed point lookup.

    Created only when the tree has an observer or the lookup's span is
    sampled; unobserved lookups pass None. Each level walked fills its own
    :class:`ProbeStats`, which feeds the observer's per-level accounting and
    the span's ``level_<N>`` stage and ``level_probe`` event, then merges
    into the lookup's ``total``.
    """

    __slots__ = ("observer", "tracer", "span", "total", "_device", "_sim0",
                 "_wall0", "_mark")

    def __init__(self, observer, tracer, span, total: ProbeStats, device) -> None:
        self.observer = observer
        self.tracer = tracer
        self.span = span
        self.total = total
        self._device = device
        self._sim0 = device.stats.simulated_time
        self._wall0 = self._mark = time.perf_counter()

    def stage(self, name: Optional[str]) -> None:
        """Close the span stage that ran since the last call (None drops it)."""
        now = time.perf_counter()
        if name is not None and self.span is not None:
            self.span.add_stage(name, now - self._mark)
        self._mark = now

    def exit_level(self, level_no: int, stats: ProbeStats, served: bool) -> None:
        """Account a walked level, which held the chain's base iff ``served``."""
        self.total.merge(stats)
        if self.observer is not None:
            self.observer.record_level_probe(level_no, stats, served)
        if self.span is not None:
            self.stage(f"level_{level_no}")
            self.span.event(
                "level_probe", level=level_no, filter_probes=stats.filter_probes,
                filter_negatives=stats.filter_negatives,
                false_positives=stats.false_positives,
                block_accesses=stats.blocks_read, cache_hits=stats.cache_hits,
                index_probes=stats.index_probes, served=served,
            )

    def finish(self, result: GetResult) -> None:
        """Feed the lookup's totals to the observer and close its span."""
        sim_time = self._device.stats.simulated_time - self._sim0
        blocks = self.total.blocks_read
        if self.observer is not None:
            self.observer.record_get(
                time.perf_counter() - self._wall0, sim_time, result.found, blocks
            )
        if self.span is not None:
            self.tracer.finish(
                self.span, op="get", found=result.found,
                source_level=result.source_level, runs_probed=result.runs_probed,
                blocks_read=blocks, cache_hits=self.total.cache_hits,
                sim_time=sim_time,
            )


class Version:
    """A pinned snapshot: buffered entries + every live run, newest first.

    Obtain from ``LSMTree.snapshot()``; call :meth:`close` (or use as a
    context manager) to release the pinned runs. ``levels[i]`` holds level
    ``i + 1``'s runs; ``runs`` flattens them.
    """

    def __init__(
        self,
        memtable_entries: List[Entry],
        levels: Sequence[Sequence[Run]],
        release: Callable[[List[List[Run]]], None],
    ) -> None:
        self.memtable_entries = memtable_entries
        self.levels = [runs[:] for runs in levels]
        self.runs = [run for runs in self.levels for run in runs]
        self._release = release
        self._closed = False
        #: References while the tree shares this version as its read view.
        self.readers = 0
        self._memtable_keys: Optional[List[bytes]] = None

    def close(self) -> None:
        """Release the pinned runs; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._release(self.levels)

    def __enter__(self) -> "Version":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def get_chain(
        self,
        key: bytes,
        cache=None,
        stats: Optional[ProbeStats] = None,
        seed: Optional[int] = None,
        scope: Optional[ProbeScope] = None,
    ) -> Chain:
        """Collect ``key``'s merge chain as of this snapshot.

        Walks versions newest-first — buffered entries, then the runs level
        by level — collecting MERGE operands until the first non-merge base
        terminates the search; a tombstone base is returned raw. ``stats``
        accumulates the runs' filter, index and block probes. With ``seed``
        (shared hashing, tutorial §II-B.2) the key's digest is computed
        once, at the first run whose key range covers it, and reused by
        every filter. With ``scope``, each level's probes flow through it.

        Raises:
            SnapshotError: if the version has been released.
        """
        self.ensure_open()
        operands: List[Entry] = []
        if self._memtable_keys is None:
            self._memtable_keys = [entry.key for entry in self.memtable_entries]
        idx = bisect.bisect_left(self._memtable_keys, key)
        while idx < len(self._memtable_keys) and self._memtable_keys[idx] == key:
            entry = self.memtable_entries[idx]
            if entry.is_merge:
                operands.append(entry)
                idx += 1
                continue
            return Chain(entry, operands)
        digest: Optional[int] = None
        probed = 0
        for level_no, runs in enumerate(self.levels, start=1):
            if scope is not None:
                scope.stage(None)  # the level's stage starts now
                stats = ProbeStats()
            for run in runs:
                probed += 1
                if seed is not None and digest is None and run.min_key <= key <= run.max_key:
                    digest = hash64(key, seed)
                entry = run.get(key, stats=stats, cache=cache, digest=digest)
                if entry is None:
                    continue
                if entry.is_merge:
                    operands.append(entry)
                    continue
                if scope is not None:
                    scope.exit_level(level_no, stats, True)
                return Chain(entry, operands, probed, level_no, digest is not None)
            if scope is not None:
                scope.exit_level(level_no, stats, False)
        return Chain(None, operands, probed, None, digest is not None)

    def ensure_open(self) -> None:
        if self._closed:
            raise SnapshotError("version has been released")

    @property
    def closed(self) -> bool:
        return self._closed
