"""Engine/service/shard integration: observers fed from the real hot paths."""

import math

from repro import DBService, LSMTree, MetricsRegistry, ServiceConfig, encode_uint_key
from repro.bench.harness import preload_tree, run_operations, run_concurrent_workload
from repro.observe import observe_tree
from repro.sharding import ShardedStore, even_boundaries
from repro.workloads.spec import OperationMix, uniform_spec
from tests.conftest import make_config, make_tree


class TestEngineObserver:
    def test_get_latency_both_clocks(self):
        tree = make_tree()
        observer, _ = observe_tree(tree)
        preload_tree(tree, 400, value_size=32)
        for i in range(100):
            tree.get(encode_uint_key(i))
        assert observer.get_wall.count == 100
        assert observer.get_sim.count == 100
        assert observer.get_wall.quantile(0.99) > 0
        # Flushed data means storage reads, so simulated time advanced.
        assert observer.get_sim.total > 0

    def test_per_level_accounting_sums_to_totals(self):
        tree = make_tree()
        observer, _ = observe_tree(tree)
        preload_tree(tree, 600, value_size=32)
        found = 0
        for i in range(200):
            if tree.get(encode_uint_key((i * 13) % 600)).found:
                found += 1
        served = sum(io.gets_served for io in observer.levels.values())
        # Preload writes every key once; anything not answered by the
        # memtable must be served by exactly one storage level.
        assert served <= found
        assert served + tree.memtable_entries >= 0
        for io in observer.levels.values():
            assert io.gets_probed >= io.gets_served
            assert 0.0 <= io.filter_fpr <= 1.0
            assert 0.0 <= io.cache_hit_rate <= 1.0

    def test_compaction_event_feeds_level_write_bytes(self):
        tree = make_tree()
        observer, _ = observe_tree(tree)
        preload_tree(tree, 800, value_size=32)
        total_written = sum(io.bytes_written for io in observer.levels.values())
        assert total_written > 0  # flushes/compactions landed somewhere

    def test_flush_and_compaction_timers(self):
        tree = make_tree()
        observer, _ = observe_tree(tree)
        preload_tree(tree, 800, value_size=32)
        assert observer.flush_wall.count > 0


class TestStatsSatellites:
    def test_lsm_stats_as_dict_includes_maintenance_counters(self):
        tree = make_tree()
        preload_tree(tree, 200, value_size=32)
        snap = tree.stats.as_dict()
        assert "filtered_by_compaction" in snap
        assert "bulk_ingested" in snap
        assert "entries_per_scan" in snap

    def test_entries_per_scan_rate(self):
        tree = make_tree()
        preload_tree(tree, 100, value_size=32)
        for _ in tree.scan(encode_uint_key(0), encode_uint_key(50)):
            pass
        assert tree.stats.scans == 1
        assert tree.stats.entries_per_scan == tree.stats.scan_entries

    def test_cache_stats_as_dict(self):
        tree = make_tree()
        preload_tree(tree, 400, value_size=32)
        for i in range(100):
            tree.get(encode_uint_key(i % 400))
        snap = tree.cache.stats.as_dict()
        assert set(snap) >= {"hits", "misses", "insertions", "evictions", "hit_rate"}
        assert snap["lookups"] == snap["hits"] + snap["misses"]

    def test_metrics_snapshot_surfaces_cache_and_device(self):
        tree = make_tree()
        preload_tree(tree, 400, value_size=32)
        tree.get(encode_uint_key(1))
        snap = tree.metrics_snapshot()
        assert "cache_hit_rate" in snap and "cache_misses" in snap
        assert snap["device_blocks_written"] > 0
        assert snap["levels"] >= 1
        assert snap["write_amplification"] >= 1.0


class TestHarnessRegistry:
    def test_run_operations_reports_percentiles(self):
        tree = make_tree()
        preload_tree(tree, 300, value_size=32)
        registry = MetricsRegistry()
        spec = uniform_spec(300, OperationMix(put=0.3, get=0.7), value_size=32, seed=3)
        metrics = run_operations(tree, spec.operations(400), registry=registry)
        latency = metrics.extras["latency"]
        assert set(latency) == {"get_wall", "get_sim", "put_wall", "scan_wall"}
        assert latency["get_wall"]["p99"] > 0
        assert not math.isnan(latency["get_sim"]["p50"])
        # The temporary observer is detached afterwards.
        assert tree.observer is None


class TestServiceObservability:
    def test_attach_and_record(self):
        service = DBService(LSMTree(make_config()), ServiceConfig(num_workers=1))
        try:
            registry = MetricsRegistry()
            service.attach_observability(registry, sampling=0.0)
            for i in range(50):
                service.put(encode_uint_key(i), b"v" * 24)
            for i in range(50):
                service.get(encode_uint_key(i))
            snap = registry.snapshot()
            assert snap["histograms"]["service_write_wall_seconds"]["count"] == 50
            assert snap["histograms"]["service_get_wall_seconds"]["count"] == 50
            assert snap["histograms"]["service_batch_records"]["count"] >= 1
            assert "service_write_queue_depth" in snap["gauges"]
            assert "service_flush_backlog" in snap["gauges"]
        finally:
            service.close()

    def test_concurrent_harness_attaches_registry(self):
        service = DBService(LSMTree(make_config()), ServiceConfig(num_workers=1))
        try:
            registry = MetricsRegistry()
            metrics = run_concurrent_workload(
                service, n_writers=2, ops_per_writer=40,
                n_readers=2, ops_per_reader=40,
                keyspace=500, registry=registry,
            )
            assert not metrics.errors
            snap = registry.snapshot()
            assert snap["histograms"]["service_write_wall_seconds"]["count"] == 80
            assert snap["histograms"]["service_get_wall_seconds"]["count"] == 80
        finally:
            service.close()


class TestShardedObservability:
    def test_merged_registry_sums_shards(self):
        store = ShardedStore(make_config(), even_boundaries(1000, 4))
        store.attach_observability()
        for i in range(300):
            store.put(encode_uint_key(i * 3 % 1000), b"v" * 24)
        store.flush()
        for i in range(200):
            store.get(encode_uint_key(i * 7 % 1000))
        merged = store.merged_registry()
        per_shard = [
            observer.registry.counter("gets_total", "").value
            for observer in store.observers
        ]
        assert merged.counter("gets_total", "").value == sum(per_shard) == 200
        merged_hist = merged.histogram("get_latency_wall_seconds", "")
        assert merged_hist.count == 200
        # Bucket-wise exactness: merged count equals the per-shard sum.
        assert sum(n for _, n in merged_hist.buckets()) == 200
