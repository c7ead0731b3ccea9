"""E20 — Observability: percentile reporting and the cost of tracing.

Two claims about ``repro.observe``:

* **Benchmarks can report distributions, not just means.** Attaching a
  registry to the E19 concurrent workload yields client-observed p50/p99/
  p99.9 write and read latencies, group-commit batch sizes, and stall
  histograms — the numbers a tail-latency claim actually needs.
* **Tracing is cheap when sampled.** With the recorder attached at a 1%
  sampling rate the read path allocates a span for ~1 op in 100; measured
  throughput should sit within a few percent of the uninstrumented tree
  (the acceptance target is <5%; the assertion allows slack for noisy CI
  machines and records the measured figure either way).
"""

import time

from conftest import once, record

from repro import DBService, LSMConfig, MetricsRegistry, ServiceConfig, encode_uint_key
from repro.bench.harness import preload_tree, run_concurrent_workload
from repro.core.lsm_tree import LSMTree
from repro.observe import observe_tree

VALUE = 40
N_WRITERS = 4
N_READERS = 4
OPS_PER_THREAD = 250


def _base_config(**overrides):
    defaults = dict(
        buffer_bytes=4 << 10,
        block_size=512,
        size_ratio=4,
        layout="leveling",
        bits_per_key=8.0,
        cache_bytes=32 << 10,
        seed=20,
    )
    defaults.update(overrides)
    return LSMConfig(**defaults)


# -- part (a): the concurrent workload with a registry attached ---------------


def _observed_service_rows():
    registry = MetricsRegistry()
    service = DBService(
        LSMTree(_base_config(wal_enabled=True, wal_sync_interval=1)),
        ServiceConfig(max_batch=32, max_batch_wait_s=0.001),
    )
    metrics = run_concurrent_workload(
        service,
        n_writers=N_WRITERS,
        ops_per_writer=OPS_PER_THREAD,
        n_readers=N_READERS,
        ops_per_reader=OPS_PER_THREAD,
        keyspace=2_000,
        value_size=VALUE,
        registry=registry,
    )
    service.close()
    assert not metrics.errors, metrics.errors
    rows = []
    for name in ("service_write_wall_seconds", "service_get_wall_seconds"):
        hist = registry.histogram(name, "")
        pct = hist.percentiles()
        rows.append(
            [
                name,
                hist.count,
                f"{hist.mean:.2e}",
                f"{pct['p50']:.2e}",
                f"{pct['p99']:.2e}",
                f"{pct['p99_9']:.2e}",
            ]
        )
    batch = registry.histogram("service_batch_records", "")
    rows.append(
        [
            "service_batch_records",
            batch.count,
            f"{batch.mean:.2f}",
            f"{batch.quantile(0.5):.2f}",
            f"{batch.quantile(0.99):.2f}",
            f"{batch.quantile(0.999):.2f}",
        ]
    )
    return rows, registry


def test_e20_registry_percentiles(benchmark):
    rows, registry = once(benchmark, _observed_service_rows)
    record(
        "e20_registry_percentiles",
        f"E20a: client-observed latency distributions "
        f"({N_WRITERS} writers + {N_READERS} readers through DBService)",
        ["histogram", "count", "mean", "p50", "p99", "p99.9"],
        rows,
    )
    by_name = {row[0]: row for row in rows}
    assert by_name["service_write_wall_seconds"][1] == N_WRITERS * OPS_PER_THREAD
    assert by_name["service_get_wall_seconds"][1] == N_READERS * OPS_PER_THREAD
    assert by_name["service_batch_records"][1] >= 1
    snapshot = registry.snapshot()
    assert "service_flush_backlog" in snapshot["gauges"]


# -- part (b): tracing overhead at 1% sampling --------------------------------

OVERHEAD_KEYS = 2_000
OVERHEAD_GETS = 6_000
REPEATS = 3


def _build_read_tree():
    tree = LSMTree(_base_config())
    preload_tree(tree, OVERHEAD_KEYS, value_size=VALUE)
    return tree


def _time_gets(tree):
    began = time.perf_counter()
    for i in range(OVERHEAD_GETS):
        tree.get(encode_uint_key((i * 7919) % OVERHEAD_KEYS))
    return time.perf_counter() - began


def _overhead_rows():
    plain = _build_read_tree()
    observed = _build_read_tree()
    observe_tree(observed, sampling=0.0)
    traced = _build_read_tree()
    observe_tree(traced, sampling=0.01)
    # Keep each variant's best time over a few repetitions, so one
    # scheduling hiccup cannot charge a whole variant.
    best_plain = min(_time_gets(plain) for _ in range(REPEATS))
    best_observed = min(_time_gets(observed) for _ in range(REPEATS))
    best_traced = min(_time_gets(traced) for _ in range(REPEATS))

    def row(mode, wall, baseline):
        overhead = wall / baseline - 1.0 if baseline else 0.0
        return [
            mode, OVERHEAD_GETS, round(wall, 4),
            round(OVERHEAD_GETS / wall), f"{overhead * 100:+.1f}%",
        ]

    return [
        ["plain", OVERHEAD_GETS, round(best_plain, 4),
         round(OVERHEAD_GETS / best_plain), "-"],
        row("metrics only", best_observed, best_plain),
        row("metrics+trace(0.01)", best_traced, best_observed),
    ]


def test_e20_tracing_overhead(benchmark):
    rows = once(benchmark, _overhead_rows)
    record(
        "e20_tracing_overhead",
        f"E20b: {OVERHEAD_GETS} gets — uninstrumented, metrics-on, and "
        f"metrics + 1% tracing (each overhead vs the previous row)",
        ["mode", "gets", "best_wall_s", "gets/s", "overhead"],
        rows,
    )
    _, observed, traced = rows
    # The acceptance target: flipping the sampling knob from 0 to 0.01 on
    # an already-observed tree changes throughput by <5%. Assert a lenient
    # bound so shared CI runners don't flake; the recorded table preserves
    # the measured figure.
    tracing_overhead = traced[2] / observed[2] - 1.0
    assert tracing_overhead < 0.15, (
        f"1% tracing overhead {tracing_overhead:.1%} exceeds budget"
    )
