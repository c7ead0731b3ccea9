"""DBService under real concurrency: linearizability-style guarantees.

The service promises (a) an acknowledged write is visible to every later
read, (b) per-key values never move backwards in time from any reader's
point of view (writers version their values monotonically), and (c) the
final state equals a sequential oracle. Writers own disjoint key ranges, so
the oracle is just each writer's last operation per key.
"""

import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import DBService, LSMConfig, LSMTree, ServiceConfig, encode_uint_key
from repro.errors import ClosedError

KEYS_PER_WRITER = 16


def small_service(**service_overrides):
    config = LSMConfig(
        buffer_bytes=2 << 10, block_size=512, size_ratio=3, bits_per_key=8.0, seed=3
    )
    service_config = ServiceConfig(
        max_batch=16, max_batch_wait_s=0.001, num_workers=2, **service_overrides
    )
    return DBService(LSMTree(config), service_config)


def writer_key(tid, slot):
    return encode_uint_key(tid * KEYS_PER_WRITER + slot)


def test_acknowledged_writes_are_visible_and_monotone():
    """4 writers + 4 readers; versions only move forward; oracle at the end."""
    n_writers, n_readers, rounds = 4, 4, 120
    service = small_service()
    stop_readers = threading.Event()
    failures = []
    barrier = threading.Barrier(n_writers + n_readers)

    def writer(tid):
        try:
            barrier.wait()
            for version in range(1, rounds + 1):
                for slot in range(KEYS_PER_WRITER):
                    service.put(writer_key(tid, slot), b"%d" % version)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"writer {tid}: {exc!r}")

    def reader(rid):
        last_seen = {}
        try:
            barrier.wait()
            while not stop_readers.is_set():
                for tid in range(n_writers):
                    for slot in range(0, KEYS_PER_WRITER, 4):
                        key = writer_key(tid, slot)
                        result = service.get(key)
                        if not result.found:
                            continue
                        version = int(result.value)
                        previous = last_seen.get(key, 0)
                        if version < previous:
                            failures.append(
                                f"reader {rid}: key {key!r} went backwards "
                                f"{previous} -> {version}"
                            )
                            return
                        last_seen[key] = version
        except Exception as exc:  # noqa: BLE001
            failures.append(f"reader {rid}: {exc!r}")

    writers = [threading.Thread(target=writer, args=(t,)) for t in range(n_writers)]
    readers = [threading.Thread(target=reader, args=(r,)) for r in range(n_readers)]
    for thread in writers + readers:
        thread.start()
    for thread in writers:
        thread.join()
    # Writers are done: every key must now read back at its final version.
    for tid in range(n_writers):
        for slot in range(KEYS_PER_WRITER):
            result = service.get(writer_key(tid, slot))
            assert result.found and int(result.value) == rounds
    stop_readers.set()
    for thread in readers:
        thread.join()
    service.close()
    assert not failures, failures
    service.tree.verify_integrity()
    # The tree remains correct for direct (post-service) access too.
    assert int(service.tree.get(writer_key(0, 0)).value) == rounds


def test_scan_sees_a_consistent_snapshot():
    service = small_service()
    for i in range(200):
        service.put(encode_uint_key(i), b"v%d" % i)
    service.flush(wait=True)
    got = dict(service.scan(encode_uint_key(50), encode_uint_key(99)))
    assert len(got) == 50
    assert got[encode_uint_key(75)] == b"v75"
    service.close()


def test_multi_get_and_close_semantics():
    service = small_service()
    service.put(b"alpha", b"1")
    service.put(b"beta", b"2")
    results = service.multi_get([b"beta", b"alpha", b"gamma", b"alpha"])
    assert results[b"alpha"].value == b"1"
    assert results[b"beta"].value == b"2"
    assert not results[b"gamma"].found
    service.close()
    service.close()  # idempotent
    with pytest.raises(ClosedError):
        service.put(b"late", b"x")
    with pytest.raises(ClosedError):
        service.get(b"alpha")
    # Acknowledged writes survive close (drained into the tree).
    assert service.tree.get(b"alpha").value == b"1"


@st.composite
def writer_scripts(draw):
    """One op list per writer: (slot, value_or_None-for-delete) tuples."""
    n_writers = draw(st.integers(min_value=2, max_value=4))
    scripts = []
    for _ in range(n_writers):
        scripts.append(
            draw(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=KEYS_PER_WRITER - 1),
                        st.one_of(st.none(), st.binary(min_size=1, max_size=24)),
                    ),
                    min_size=1,
                    max_size=40,
                )
            )
        )
    return scripts


@settings(max_examples=10, deadline=None)
@given(scripts=writer_scripts())
def test_final_state_matches_sequential_oracle(scripts):
    """Concurrent execution must agree with each writer's program order."""
    service = small_service()
    failures = []
    barrier = threading.Barrier(len(scripts))

    def run_script(tid, script):
        try:
            barrier.wait()
            for slot, value in script:
                if value is None:
                    service.delete(writer_key(tid, slot))
                else:
                    service.put(writer_key(tid, slot), value)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"writer {tid}: {exc!r}")

    threads = [
        threading.Thread(target=run_script, args=(tid, script))
        for tid, script in enumerate(scripts)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures

    # Key ranges are disjoint, so the oracle is per-writer program order.
    oracle = {}
    for tid, script in enumerate(scripts):
        for slot, value in script:
            oracle[writer_key(tid, slot)] = value

    for key, expected in oracle.items():
        result = service.get(key)
        if expected is None:
            assert not result.found, f"{key!r} should be deleted"
        else:
            assert result.found and result.value == expected
    service.close()
    service.tree.verify_integrity()


def test_sharded_store_shares_one_scheduler():
    """Satellite: ShardedStore plugs every shard into one external pool."""
    from repro.service import CompactionScheduler
    from repro.sharding import ShardedStore, even_boundaries

    scheduler = CompactionScheduler(num_workers=2)
    config = LSMConfig(
        buffer_bytes=2 << 10, block_size=512, size_ratio=3, bits_per_key=8.0
    )
    store = ShardedStore(
        config, even_boundaries(4000, 4), scheduler=scheduler
    )
    try:
        for i in range(4000):
            store.put(encode_uint_key((i * 2654435761) % 4000), b"s" * 24)
        store.flush()  # seals + drains through the shared pool
        total_flush_jobs = sum(shard.stats.flush_jobs for shard in store.shards)
        assert total_flush_jobs > 0
        assert sum(shard.immutable_memtables for shard in store.shards) == 0
        for probe in (0, 1999, 3999):
            assert store.get(encode_uint_key(probe)).found
        assert len(list(store.scan())) == 4000
    finally:
        scheduler.close()
