"""Span recording around the engine's public entry points, and attribution.

The engine is not edited: :meth:`SpanRecorder.install` replaces each entry
point listed in :data:`TARGETS` with a timing wrapper, on the class or in
the module namespace where its caller looks the name up. A span is
``[span_id, parent_id, request_id, name, start, end, busy, info]``; the
parent is the innermost span open on the same thread, and a span opened
with no parent starts a new request whose id is its own. ``busy`` is the
time spent inside the call (for iterators, the sum of the ``next`` calls).

Thread safety: every thread appends to its own list and numbers spans in
its own id space (thread number in the high bits), so recording shares no
mutable state between threads; the registry of per-thread lists is guarded
by a lock. Spans stay in memory until :meth:`SpanRecorder.dump`.

Self time is a span's busy time minus the busy time of its direct children
(children nest on one thread, so they never overlap).
"""

from __future__ import annotations

import bisect
import importlib
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

# (module, attribute path, span name, kind). Kinds: "call" times one call;
# "iter" also times every next() of the iterator the call returns;
# "list" materializes the returned iterator inside the span; "cache"
# marks whether the cache ran its loader (a miss); "result", "found",
# "apply" and "compact" keep the filter answer, whether a table found the
# key, the records per commit and the compaction's output bytes.
TARGETS = [
    ("repro.service.service", "DBService.get", "service.get", "call"),
    ("repro.service.service", "DBService.put", "service.put", "call"),
    ("repro.service.service", "DBService.delete", "service.delete", "call"),
    ("repro.service.service", "DBService.scan", "service.scan", "iter"),
    ("repro.service.backpressure", "BackpressureController.gate", "service.gate", "call"),
    ("repro.service.batcher", "WriteBatcher.submit", "service.submit", "call"),
    ("repro.storage.wal", "WriteAheadLog.append_batch", "wal.append", "call"),
    ("repro.storage.wal", "WriteAheadLog.sync", "wal.sync", "call"),
    ("repro.core.lsm_tree", "LSMTree.write_batch", "core.apply", "apply"),
    ("repro.core.version", "Version.get_chain", "core.get_chain", "call"),
    ("repro.core.lsm_tree", "LSMTree.scan", "core.scan", "iter"),
    ("repro.memtable.skiplist", "SkipListMemtable.put", "memtable.put", "call"),
    ("repro.memtable.skiplist", "SkipListMemtable.get", "memtable.get", "call"),
    ("repro.memtable.skiplist", "SkipListMemtable.scan", "memtable.get", "list"),
    ("repro.core.lsm_tree", "ImmutableMemtable.get", "memtable.get", "call"),
    ("repro.filters.bloom", "BloomFilter.may_contain", "filters.probe", "result"),
    ("repro.indexes.fence", "FencePointers.locate", "indexes.locate", "call"),
    ("repro.cache.block_cache", "BlockCache.get_or_load_block", "cache.lookup", "cache"),
    ("repro.cache.block_cache", "BlockCache.get_or_load", "cache.lookup", "cache"),
    ("repro.storage.sstable", "SSTable.get", "storage.sstable_get", "found"),
    ("repro.storage.block_device", "BlockDevice.read_block", "storage.device_read", "call"),
    ("repro.storage.block_device", "BlockDevice.read_blocks", "storage.device_read", "call"),
    # parse_block is imported by name into its callers' namespaces.
    ("repro.storage.sstable", "parse_block", "storage.block_decode", "call"),
    ("repro.parallel.coalesce", "parse_block", "storage.block_decode", "call"),
    ("repro.core.lsm_tree", "parse_block", "storage.block_decode", "call"),
    ("repro.core.lsm_tree", "LSMTree.seal_memtable", "compaction.seal", "call"),
    ("repro.core.lsm_tree", "LSMTree.build_flush", "compaction.flush", "call"),
    ("repro.core.lsm_tree", "LSMTree.execute_compaction", "compaction.compact", "compact"),
    ("repro.server.server", "encode_frame", "server.codec", "call"),
    ("repro.server.protocol", "FrameDecoder.feed", "server.codec", "call"),
    ("repro.server.protocol", "FrameDecoder.next_message", "server.codec", "call"),
]

SID, PARENT, RID, NAME, START, END, BUSY, INFO = range(8)


class SpanRecorder:
    """Records spans from every thread of the engine process."""

    def __init__(self) -> None:
        self.on = False
        self.window = [0.0, 0.0]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[List[list]] = []

    # -- lifecycle -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target, for the rest of the process's life."""
        for module_name, path, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            setattr(owner, attr, self._wrap(original, name, kind))

    def start(self) -> None:
        self.window[0] = perf_counter()
        self.on = True

    def stop(self) -> None:
        self.on = False
        self.window[1] = perf_counter()

    def spans(self) -> List[list]:
        """Every finished span recorded so far."""
        with self._lock:
            lists = list(self._threads)
        return [span for spans in lists for span in list(spans) if span[END] > 0.0]

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({"window": self.window, "spans": self.spans()}, out)

    # -- recording ---------------------------------------------------------------

    def _thread_state(self):
        local = self._local
        with self._lock:
            local.spans = []
            local.stack = []
            local.base = (len(self._threads) + 1) << 32
            local.count = 0
            self._threads.append(local.spans)
        return local

    def _open(self, name: str) -> list:
        local = self._local
        if not hasattr(local, "stack"):
            self._thread_state()
        local.count += 1
        sid = local.base + local.count
        stack = local.stack
        if stack:
            parent = stack[-1]
            span = [sid, parent[SID], parent[RID], name, 0.0, 0.0, 0.0, None]
        else:
            span = [sid, 0, sid, name, 0.0, 0.0, 0.0, None]
        local.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list, start: float) -> None:
        end = perf_counter()
        self._local.stack.pop()
        span[START] = start
        span[END] = end
        span[BUSY] = end - start

    def _wrap(self, fn, name: str, kind: str):
        recorder = self

        if kind == "cache":
            def wrapper(cache, key, load, *rest):
                if not recorder.on:
                    return fn(cache, key, load, *rest)
                missed = []

                def loader():
                    missed.append(True)
                    return load()

                span = recorder._open(name)
                start = perf_counter()
                try:
                    return fn(cache, key, loader, *rest)
                finally:
                    recorder._close(span, start)
                    span[INFO] = bool(missed)
            return wrapper

        def wrapper(*args, **kwargs):
            if not recorder.on:
                return fn(*args, **kwargs)
            span = recorder._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if kind == "list":
                    result = iter(list(result))
            finally:
                recorder._close(span, start)
            if kind == "iter":
                return _TimedIterator(recorder, span, result)
            if kind == "result":
                span[INFO] = bool(result)
            elif kind == "found":
                span[INFO] = result is not None
            elif kind == "apply":
                span[INFO] = len(args[1])
            elif kind == "compact":
                span[INFO] = result.size_bytes if result is not None else 0
            return result
        return wrapper


class _TimedIterator:
    """Adds the time of every ``next`` to the span of the call that made it."""

    __slots__ = ("_recorder", "_span", "_inner")

    def __init__(self, recorder: SpanRecorder, span: list, inner) -> None:
        self._recorder = recorder
        self._span = span
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        span = self._span
        local = self._recorder._local
        local.stack.append(span)
        start = perf_counter()
        try:
            return next(self._inner)
        finally:
            end = perf_counter()
            local.stack.pop()
            span[END] = end
            span[BUSY] += end - start


# -- attribution ---------------------------------------------------------------

ROOT_CLASS = {
    "service.get": "get",
    "service.put": "write",
    "service.delete": "write",
    "service.scan": "scan",
}


class Attribution:
    """Per-op-class layer costs from the spans of one or more traced runs.

    ``contrib[cls][name]`` is the summed self time (s) of spans named
    ``name`` on the blocking path of requests of class ``cls``, and
    ``requests[cls]`` their count. A write's blocking path includes the
    whole group commit that applied it, which may run on another thread:
    its ``service.submit`` wait minus that apply is ``service.commit_wait``.
    """

    def __init__(self) -> None:
        self.contrib: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.requests: Dict[str, int] = defaultdict(int)
        self.root_busy: Dict[str, float] = defaultdict(float)
        self.codec_s = 0.0
        self.flushes = 0
        self.flush_busy_s = 0.0
        self.compactions = 0
        self.compaction_busy_s = 0.0
        self.compaction_bytes_out = 0
        self.commits = 0
        self.commit_records = 0
        self.commit_syncs = 0
        self.cache_start = [0, 0]  # [hits, lookups] in each run's first tenth
        self.cache_end = [0, 0]  # ... and last tenth

    def add(self, window, spans: List[list]) -> None:
        children: Dict[int, List[list]] = defaultdict(list)
        for span in spans:
            if span[PARENT]:
                children[span[PARENT]].append(span)
        applies = sorted(
            (s for s in spans if s[NAME] == "core.apply" and s[PARENT]),
            key=lambda s: s[END],
        )
        apply_ends = [s[END] for s in applies]
        w0, w1 = window
        tenth = (w1 - w0) / 10.0
        for span in spans:
            name = span[NAME]
            if name == "server.codec" and not span[PARENT]:
                self.codec_s += span[BUSY]
            elif name == "compaction.flush" and not span[PARENT]:
                self.flushes += 1
                self.flush_busy_s += span[BUSY]
            elif name == "compaction.compact" and not span[PARENT]:
                self.compaction_busy_s += span[BUSY]
                if span[INFO]:
                    self.compactions += 1
                    self.compaction_bytes_out += span[INFO]
            elif name == "core.apply" and span[PARENT]:
                self.commits += 1
                self.commit_records += span[INFO]
                self.commit_syncs += sum(
                    1 for s in _subtree(span, children) if s[NAME] == "wal.sync"
                )
        for root in spans:
            cls = ROOT_CLASS.get(root[NAME])
            if cls is None or root[PARENT]:
                continue
            self.requests[cls] += 1
            self.root_busy[cls] += root[BUSY]
            contrib = self.contrib[cls]
            counts = self.counts[cls]
            for span in _subtree(root, children, skip="service.submit"):
                if span is root or span[NAME] == "service.submit":
                    continue
                name = span[NAME]
                kids = children.get(span[SID], ())
                contrib[name] += span[BUSY] - sum(k[BUSY] for k in kids)
                counts[name] += 1
                if name == "filters.probe" and not span[INFO]:
                    counts["filters.negative"] += 1
                elif name == "storage.sstable_get" and not span[INFO]:
                    if any(k[NAME] == "filters.probe" and k[INFO] for k in kids):
                        counts["filters.false_positive"] += 1
                elif name == "cache.lookup":
                    hit = 0 if span[INFO] else 1
                    if span[START] < w0 + tenth:
                        self.cache_start[0] += hit
                        self.cache_start[1] += 1
                    elif span[START] > w1 - tenth:
                        self.cache_end[0] += hit
                        self.cache_end[1] += 1
            if cls == "write":
                self._add_commit(root, children, applies, apply_ends, contrib, counts)

    def _add_commit(self, root, children, applies, apply_ends, contrib, counts) -> None:
        submit = next(
            (k for k in children.get(root[SID], ()) if k[NAME] == "service.submit"), None
        )
        if submit is None:
            return
        own = [k for k in children.get(submit[SID], ()) if k[NAME] == "core.apply"]
        batch = own[-1] if own else _batch_of(submit, applies, apply_ends)
        if batch is None:
            contrib["service.commit_wait"] += submit[BUSY]
            return
        contrib["service.commit_wait"] += submit[BUSY] - batch[BUSY]
        for span in _subtree(batch, children):
            kids = children.get(span[SID], ())
            contrib[span[NAME]] += span[BUSY] - sum(k[BUSY] for k in kids)
            counts[span[NAME]] += 1


def _subtree(root: list, children, skip: Optional[str] = None):
    """Yield ``root`` and its descendants; stop below spans named ``skip``."""
    pending = [root]
    while pending:
        span = pending.pop()
        yield span
        if span[NAME] != skip:
            pending.extend(children.get(span[SID], ()))


def _batch_of(submit: list, applies: List[list], apply_ends: List[float]):
    """The group commit a follower waited on: the last apply that ran
    entirely inside its submit call."""
    idx = bisect.bisect_right(apply_ends, submit[END]) - 1
    while idx >= 0:
        batch = applies[idx]
        if batch[START] >= submit[START]:
            return batch
        if batch[END] < submit[START]:
            return None
        idx -= 1
    return None


def load(path: str):
    with open(path) as src:
        doc = json.load(src)
    return doc["window"], doc["spans"]
