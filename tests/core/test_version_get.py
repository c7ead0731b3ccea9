"""Snapshot point reads: Version.get_chain sees the world as of snapshot time."""

import pytest

from repro import encode_uint_key
from repro.errors import SnapshotError
from tests.conftest import make_tree


class TestVersionGet:
    def test_reads_memtable_and_runs(self):
        tree = make_tree()
        tree.put(b"flushed", b"on-disk")
        tree.flush()
        tree.put(b"buffered", b"in-memory")
        with tree.pin_version() as version:
            buffered = version.get_chain(b"buffered")
            assert buffered.base.value == b"in-memory"
            assert buffered.runs_probed == 0 and buffered.source_level is None
            flushed = version.get_chain(b"flushed")
            assert flushed.base.value == b"on-disk"
            assert flushed.runs_probed == 1 and flushed.source_level == 1
            missing = version.get_chain(b"missing")
            assert missing.base is None and missing.operands == []

    def test_isolated_from_later_writes(self):
        tree = make_tree()
        tree.put(b"k", b"v1")
        tree.flush()
        with tree.snapshot() as snapshot:
            tree.put(b"k", b"v2")
            tree.compact_all()
            assert snapshot.get(b"k").value == b"v1"
            assert snapshot.version().get_chain(b"k").base.value == b"v1"
        assert tree.get(b"k").value == b"v2"

    def test_sees_tombstones_raw(self):
        tree = make_tree()
        tree.put(b"k", b"v")
        tree.delete(b"k")
        with tree.snapshot() as snapshot:
            base = snapshot.version().get_chain(b"k").base
            assert base is not None and base.is_tombstone
            assert not snapshot.get(b"k").found

    def test_newest_run_wins(self):
        tree = make_tree()
        for value in (b"old", b"mid", b"new"):
            tree.put(b"k", value)
            tree.flush()
        with tree.snapshot() as snapshot:
            assert snapshot.version().get_chain(b"k").base.value == b"new"
            assert snapshot.get(b"k").value == b"new"

    def test_closed_snapshot_raises(self):
        tree = make_tree()
        tree.put(b"k", b"v")
        snapshot = tree.snapshot()
        version = snapshot.version()
        snapshot.close()
        with pytest.raises(SnapshotError):
            snapshot.get(b"k")
        with pytest.raises(SnapshotError):
            version.get_chain(b"k")

    def test_agrees_with_tree_get_across_many_keys(self):
        tree = make_tree()
        for i in range(800):
            tree.put(encode_uint_key((i * 733) % 300), b"v%d" % i)
        with tree.snapshot() as snapshot:
            for i in range(300):
                key = encode_uint_key(i)
                live = tree.get(key)
                snap = snapshot.get(key)
                assert (snap.found, snap.value, snap.seqno) == (
                    live.found, live.value, live.seqno
                )
                assert (snap.runs_probed, snap.source_level, snap.blocks_read) == (
                    live.runs_probed, live.source_level, live.blocks_read
                )
