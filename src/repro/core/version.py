"""Versions: consistent snapshots of the tree's file set for scans.

The tutorial (§II-A.1): "a scan operates over a version (or snapshot) of the
data — the collection of files that were active and live at the time the scan
began." Runs are reference-counted; a compaction that obsoletes a run only
deletes its files once every version holding it has been released, so an
in-flight scan keeps reading the files it pinned.
"""

from __future__ import annotations

import bisect
from typing import Callable, List, Optional, Sequence

from repro.common.entry import Entry
from repro.errors import SnapshotError
from repro.storage.run import Run
from repro.storage.sstable import ProbeStats


class Version:
    """A pinned snapshot: buffered entries + every live run, newest first.

    Obtain from ``LSMTree.snapshot()``; call :meth:`close` (or use as a
    context manager) to release the pinned runs.
    """

    def __init__(
        self,
        memtable_entries: List[Entry],
        runs: Sequence[Run],
        release: Callable[[Run], None],
    ) -> None:
        self.memtable_entries = memtable_entries
        self.runs = list(runs)
        self._release = release
        self._closed = False
        self._memtable_keys: Optional[List[bytes]] = None

    def close(self) -> None:
        """Release the pinned runs; idempotent."""
        if self._closed:
            return
        self._closed = True
        for run in self.runs:
            self._release(run)

    def __enter__(self) -> "Version":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def get(self, key: bytes, cache=None) -> Optional[Entry]:
        """Point lookup *as of this snapshot* (read-your-snapshot semantics).

        Returns the raw entry — possibly a tombstone — or None when the key
        was absent at snapshot time. Later writes to the tree are invisible.

        Raises:
            SnapshotError: if the version has been released.
        """
        self.ensure_open()
        if self._memtable_keys is None:
            self._memtable_keys = [entry.key for entry in self.memtable_entries]
        idx = bisect.bisect_left(self._memtable_keys, key)
        if idx < len(self._memtable_keys) and self._memtable_keys[idx] == key:
            return self.memtable_entries[idx]
        for run in self.runs:
            entry = run.get(key, cache=cache)
            if entry is not None:
                return entry
        return None

    def get_chain(
        self, key: bytes, cache=None, stats: Optional[ProbeStats] = None
    ) -> "tuple[Optional[Entry], List[Entry]]":
        """Collect ``key``'s merge chain as of this snapshot.

        Walks versions newest-first (buffered memory versions, then runs),
        accumulating MERGE operand entries until the first non-merge *base*
        version terminates the search.

        Returns:
            ``(base, operands)`` — the base entry (PUT/PUT_TTL/DELETE, or
            None when the chain bottoms out on nothing) and the operand
            entries newest-first. ``operands`` is empty for ordinary keys,
            making this a strict generalization of :meth:`get`.

        ``stats``, when given, accumulates the runs' filter, index and
        block probes, as :meth:`LSMTree.get` records them.
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
            return entry, operands
        for run in self.runs:
            entry = run.get(key, stats=stats, cache=cache)
            if entry is None:
                continue
            if entry.is_merge:
                operands.append(entry)
                continue
            return entry, operands
        return None, operands

    def ensure_open(self) -> None:
        if self._closed:
            raise SnapshotError("version has been released")

    @property
    def closed(self) -> bool:
        return self._closed
