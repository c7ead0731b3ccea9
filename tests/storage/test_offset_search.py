"""Point lookups bisect in-memory entry offsets instead of decoding blocks.

The offset search must answer exactly like a full decode followed by
``DataBlock.find``; a block it caches must charge the cache at least what
the decoded block would; and the offsets must count toward the table's
memory.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block_cache import BlockCache
from repro.common.entry import Entry, EntryKind
from repro.storage.block_device import BlockDevice
from repro.storage.sstable import (
    DataBlock,
    SSTableBuilder,
    parse_block,
    rebuild_sstable,
)

CODECS = ("none", "rle", "zlib")

# Lengths cross 127 so key, value and seqno varints take several bytes.
entry_specs = st.lists(
    st.tuples(
        st.binary(min_size=1, max_size=160),
        st.one_of(st.just(b""), st.binary(max_size=200), st.just(b"v" * 150)),
        st.sampled_from(list(EntryKind)),
        st.integers(min_value=0, max_value=1 << 40),
    ),
    min_size=1,
    max_size=40,
    unique_by=lambda spec: spec[0],
)


def build_table(specs, codec, block_size=1024, device=None):
    specs = sorted(specs)
    entries = [
        Entry(key=key, seqno=seqno, kind=kind,
              value=b"" if kind == EntryKind.DELETE else value)
        for key, value, kind, seqno in specs
    ]
    device = device or BlockDevice(block_size=block_size)
    builder = SSTableBuilder(device, codec=codec)
    builder.add_all(entries)
    return device, builder.finish(), entries


def decoded_blocks(device, table):
    """The reference: every data block decoded whole."""
    return [
        DataBlock(parse_block(device.read_block(table.file_id, block_no)))
        for block_no in range(table.num_data_blocks)
    ]


def probe_keys(entries):
    """Every present key, plus absent keys before, between and after them."""
    keys = [entry.key for entry in entries]
    present = set(keys)
    absent = [b"", keys[-1] + b"\x00", b"\xff" * 161]
    absent += [key + b"\x00" for key in keys if key + b"\x00" not in present]
    absent += [key[:-1] for key in keys if key[:-1] not in present]
    return keys + absent


def reference_find(blocks, key):
    for block in blocks:
        entry = block.find(key)
        if entry is not None:
            return entry
    return None


class TestEquivalence:
    @pytest.mark.parametrize("codec", CODECS)
    @settings(max_examples=60, deadline=None)
    @given(specs=entry_specs)
    def test_offset_find_matches_full_decode(self, codec, specs):
        device, table, entries = build_table(specs, codec)
        reference = decoded_blocks(device, table)
        rebuilt = rebuild_sstable(device, table.file_id)
        lazy = [table._load_block(b, None, None) for b in range(table.num_data_blocks)]
        for key in probe_keys(entries):
            expected = reference_find(reference, key)
            assert table.get(key) == expected
            assert rebuilt.get(key) == expected
            assert reference_find(lazy, key) == expected
        # Iterating the lazily loaded blocks decodes them to the same entries.
        assert [e for block in lazy for e in block.entries] == entries

    @pytest.mark.parametrize("codec", CODECS)
    def test_rebuild_recomputes_the_builders_offsets(self, codec):
        specs = [(b"key-%04d" % i, b"x" * (i % 200), EntryKind(i % 4), i * 977)
                 for i in range(300)]
        device, table, _ = build_table(specs, codec)
        rebuilt = rebuild_sstable(device, table.file_id)
        assert rebuilt._block_offsets == table._block_offsets
        assert rebuilt._block_charges == table._block_charges
        assert rebuilt.memory_bytes == table.memory_bytes

    def test_hash_index_tables_keep_decoding_whole_blocks(self):
        device = BlockDevice(block_size=512)
        builder = SSTableBuilder(device, hash_index=True)
        entries = [Entry(key=b"k%03d" % i, seqno=i + 1, value=b"v") for i in range(80)]
        builder.add_all(entries)
        table = builder.finish()
        block = table._load_block(0, None, None)
        assert block.hash_index is not None
        for entry in entries:
            assert table.get(entry.key) == entry


def cached_point_read(codec="none"):
    specs = [(b"key-%05d" % i, b"value-%05d" % i * 6, EntryKind.PUT, i + 1)
             for i in range(400)]
    device, table, entries = build_table(specs, codec, block_size=4096)
    cache = BlockCache(1 << 20)
    target = entries[len(entries) // 2]
    assert table.get(target.key, cache=cache) == target
    (key,) = cache.hot_keys(1)
    return device, table, cache, key


class TestCacheCharge:
    @pytest.mark.parametrize("codec", CODECS)
    def test_point_read_charges_at_least_the_decoded_block(self, codec):
        device, table, cache, (file_id, block_no) = cached_point_read(codec)
        decoded = DataBlock(parse_block(device.read_block(file_id, block_no)))
        assert decoded.charge_bytes <= cache.used_bytes <= 1.05 * decoded.charge_bytes

    def test_iterating_a_cached_block_releases_its_body(self):
        device, table, cache, key = cached_point_read()
        block = cache.get(key)
        assert block._lazy is not None
        assert list(table.iter_entries(cache=cache)) == list(table.iter_entries())
        assert block._lazy is None
        assert block.charge_bytes == DataBlock(block.entries).charge_bytes

    @pytest.mark.parametrize("block_size, width", [(4096, 2), (1 << 17, 4)])
    def test_memory_bytes_counts_the_offset_arrays(self, block_size, width):
        device = BlockDevice(block_size=block_size)
        builder = SSTableBuilder(device)
        builder.add_all(Entry(key=b"k%05d" % i, seqno=i + 1, value=b"v" * 40)
                        for i in range(3000))
        table = builder.finish()
        fences = sum(len(key) for key in table.fence_keys)
        offsets = width * table.entry_count + 4 * table.num_data_blocks
        assert table.memory_bytes == fences + offsets


def test_concurrent_finds_and_iteration_share_one_lazy_block():
    """Threads probe and decode one cached block at once; answers never change."""
    specs = [(b"k%04d" % i, b"v%04d" % i, EntryKind.PUT, i + 1) for i in range(60)]
    device, table, entries = build_table(specs, "none", block_size=4096)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    failures = []
    try:
        for _ in range(20):
            block = table._load_block(0, None, None)
            barrier = threading.Barrier(8)

            def worker(seed, block=block, barrier=barrier):
                rng = random.Random(seed)
                try:
                    barrier.wait()
                    for _ in range(200):
                        entry = rng.choice(entries)
                        if block.find(entry.key) != entry:
                            failures.append(entry.key)
                        if rng.random() < 0.05 and block.entries != entries:
                            failures.append("entries")
                        if block.find(entry.key + b"\x00") is not None:
                            failures.append(entry.key + b"\x00")
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(repr(exc))

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert failures == []
