"""Checksums, fault injection, and the integrity scrubber."""

import pytest

from repro import encode_uint_key
from repro.common.entry import Entry
from repro.errors import CorruptionError, QuarantinedFileError
from repro.faults import ReadGuard
from repro.storage.block_device import BlockDevice
from repro.storage.compression import is_compressed_frame
from repro.storage.sstable import SSTableBuilder, parse_block, serialize_block
from tests.conftest import make_tree


class TestBlockChecksums:
    def test_roundtrip_clean(self):
        entries = [Entry(key=b"k%d" % i, seqno=i + 1, value=b"v") for i in range(5)]
        assert parse_block(serialize_block(entries)) == entries

    def test_flipped_value_byte_detected(self):
        entries = [Entry(key=b"key", seqno=1, value=b"A" * 50)]
        payload = bytearray(serialize_block(entries))
        payload[-10] ^= 0xFF  # inside the value bytes
        with pytest.raises(CorruptionError):
            parse_block(bytes(payload))

    def test_flipped_crc_byte_detected(self):
        payload = bytearray(serialize_block([Entry(key=b"k", seqno=1, value=b"v")]))
        payload[0] ^= 0xFF
        with pytest.raises(CorruptionError):
            parse_block(bytes(payload))

    def test_empty_payload_parses_empty(self):
        assert parse_block(b"") == []

    def test_too_short_payload_rejected(self):
        with pytest.raises(CorruptionError):
            parse_block(b"ab")


class TestDeviceFaultInjection:
    def test_corrupt_block_flips_in_place(self):
        device = BlockDevice(block_size=64)
        fid = device.create_file()
        device.append_block(fid, b"hello world")
        device.corrupt_block(fid, 0, byte_offset=0)
        assert device.read_block(fid, 0) != b"hello world"

    def test_corrupt_missing_block_raises(self):
        device = BlockDevice(block_size=64)
        fid = device.create_file()
        from repro.errors import BlockNotFoundError

        with pytest.raises(BlockNotFoundError):
            device.corrupt_block(fid, 3)


class TestEngineCorruptionDetection:
    def loaded_tree(self):
        tree = make_tree(cache_bytes=0)
        for i in range(2000):
            tree.put(encode_uint_key((i * 733) % 700), b"x" * 30)
        tree.flush()
        return tree

    def first_data_block(self, tree):
        for runs in tree._levels:
            for run in runs:
                for table in run.tables:
                    if table.num_data_blocks:
                        return table
        raise AssertionError("no data")

    def test_get_raises_on_corrupt_block(self):
        tree = self.loaded_tree()
        table = self.first_data_block(tree)
        tree.device.corrupt_block(table.file_id, 0, byte_offset=10)
        victim_key = table._block_first_keys[0]
        with pytest.raises(CorruptionError):
            tree.get(victim_key)

    def test_scrub_clean_tree_reports_no_errors(self):
        tree = self.loaded_tree()
        report = tree.verify_integrity()
        assert report["errors"] == []
        assert report["files_checked"] > 0
        assert report["blocks_checked"] > 0

    def test_scrub_finds_injected_corruption(self):
        tree = self.loaded_tree()
        table = self.first_data_block(tree)
        tree.device.corrupt_block(table.file_id, 0, byte_offset=10)
        report = tree.verify_integrity()
        assert len(report["errors"]) == 1
        assert "checksum" in report["errors"][0] or "block 0" in report["errors"][0]

    def test_scrub_finds_multiple_corruptions(self):
        tree = self.loaded_tree()
        table = self.first_data_block(tree)
        for block_no in range(min(3, table.num_data_blocks)):
            tree.device.corrupt_block(table.file_id, block_no, byte_offset=7)
        report = tree.verify_integrity()
        assert len(report["errors"]) >= min(3, table.num_data_blocks)

    def test_wal_replay_detects_corruption(self):
        from repro import LSMConfig, LSMTree

        config = LSMConfig(
            buffer_bytes=1 << 20, block_size=512, wal_enabled=True,
            wal_sync_interval=1, seed=9,
        )
        tree = LSMTree(config)
        for i in range(50):
            tree.put(encode_uint_key(i), b"v%d" % i)
        wal_file = tree._wal.current_file
        tree.device.corrupt_block(wal_file, 0, byte_offset=20)
        with pytest.raises((CorruptionError, ValueError)):
            LSMTree.recover(config, tree.device)


class TamperedDevice(BlockDevice):
    """Serves the ``target`` block through ``tamper`` on every read."""

    target = None
    tamper = None

    def read_block(self, file_id, block_no):
        payload = super().read_block(file_id, block_no)
        if (file_id, block_no) == self.target:
            return self.tamper(payload)
        return payload


def damaged_copies(payload):
    """Every truncation and every single-bit flip of ``payload``."""
    for cut in range(len(payload)):
        yield payload[:cut]
    for pos in range(len(payload)):
        for bit in range(8):
            flipped = bytearray(payload)
            flipped[pos] ^= 1 << bit
            yield bytes(flipped)


class TestPointPathCorruption:
    """SSTable.get on a damaged data block: typed errors, never garbage."""

    def damaged_table(self, codec, hash_index=False):
        device = TamperedDevice(block_size=512)
        builder = SSTableBuilder(device, codec=codec, hash_index=hash_index)
        entries = [
            Entry(key=b"key-%05d" % i, seqno=i + 1, value=bytes([97 + i % 3]) * 80)
            for i in range(60)
        ]
        builder.add_all(entries)
        table = builder.finish()
        block_no = 1
        payload = device.read_block(table.file_id, block_no)
        assert is_compressed_frame(payload) == (codec != "none")
        lo, hi = table.fence_keys[block_no], table.fence_keys[block_no + 1]
        in_block = [e.key for e in entries if lo <= e.key < hi]
        # Present keys at both ends of the block, and an absent one inside it.
        probes = [in_block[0], in_block[-1], in_block[0] + b"\x00"]
        device.target = (table.file_id, block_no)
        return device, table, payload, probes

    @pytest.mark.parametrize("hash_index", [False, True])
    @pytest.mark.parametrize("codec", ["none", "rle", "zlib"])
    def test_every_truncation_and_bit_flip_raises_corruption(self, codec, hash_index):
        device, table, payload, probes = self.damaged_table(codec, hash_index)
        for damaged in damaged_copies(payload):
            device.tamper = lambda _payload, damaged=damaged: damaged
            for key in probes:
                with pytest.raises(CorruptionError):
                    table.get(key)

    @pytest.mark.parametrize("codec", ["none", "rle", "zlib"])
    def test_guarded_lookups_retry_then_quarantine(self, codec):
        device, table, payload, probes = self.damaged_table(codec)
        for damaged in damaged_copies(payload):
            device.guard = guard = ReadGuard(quarantine_after=2)
            device.tamper = lambda _payload, damaged=damaged: damaged
            with pytest.raises(CorruptionError):
                table.get(probes[0])
            assert guard.corruptions_detected == 2
            assert guard.retry_attempts == 1
            assert guard.is_quarantined(table.file_id)
            with pytest.raises(QuarantinedFileError):
                table.get(probes[1])
        device.guard = ReadGuard()
        device.tamper = lambda payload: payload
        assert table.get(probes[0]).key == probes[0]
