"""Per-layer metrics from a traced run (``--trace 1``).

Each layer is one module of the engine; its time metrics are the mean self
time it adds to one request of the class that reaches it (``_us`` per get,
per write or per scan, as named in ``NOTES.md``). A layer a workload never
reaches reports 0.
"""

from __future__ import annotations

import statistics

from spans import Attribution, load

_US = 1e6

# Named layer spans per op class; what is left of a request's service call
# after these is trace.unattributed_<class>_us.
NAMED = (
    "service.gate", "service.commit_wait", "wal.append", "wal.sync",
    "core.apply", "core.get_chain", "core.scan", "memtable.put", "memtable.get",
    "filters.probe", "indexes.locate", "cache.lookup", "storage.block_decode",
    "storage.device_read", "storage.sstable_get", "compaction.seal",
)


def _client_latencies(segments):
    lat = {"get": [], "write": [], "scan": []}
    for seg in segments:
        for loop in seg["loops"]:
            for cls, values in loop.latency.items():
                lat[cls].extend(values)
    return lat


def _ops_per_s(segments) -> float:
    done = sum(loop.attempted - loop.failed for seg in segments for loop in seg["loops"])
    return done / sum(seg["elapsed_s"] for seg in segments)


def per_layer(workload, segments) -> "tuple[dict, list]":
    plain, traced = segments[0], segments[1:]
    att = Attribution()
    for seg in traced:
        window, spans = load(seg["trace_out"])
        att.add(window, spans)
    delta = {
        name: sum(seg["stats"]["delta"][name] for seg in traced)
        for name in traced[0]["stats"]["delta"]
    }
    lat = _client_latencies(traced)
    n = {cls: att.requests.get(cls, 0) for cls in ("get", "write", "scan")}
    total_requests = sum(n.values())
    client_ops = sum(len(values) for values in lat.values())

    def per(classes, name):
        count = sum(n[c] for c in classes)
        if not count:
            return 0.0
        return sum(att.contrib[c][name] for c in classes) / count * _US

    fp = att.counts["get"]["filters.false_positive"]
    negatives = att.counts["get"]["filters.negative"]

    def count_per_get(name):
        return att.counts["get"][name] / n["get"] if n["get"] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    client_all = sum(sum(values) for values in lat.values())
    root_all = sum(att.root_busy.values())
    server_self = (ratio(client_all, client_ops) - ratio(root_all, total_requests)) * _US
    unattributed = {}
    for cls in ("get", "write", "scan"):
        if n[cls]:
            named = sum(att.contrib[cls][name] for name in NAMED)
            unattributed[cls] = (att.root_busy[cls] - named) / n[cls] * _US
        else:
            unattributed[cls] = 0.0

    m = {
        "server.self_us": (server_self, "us"),
        "server.frame_codec_us": (ratio(att.codec_s, total_requests) * _US, "us"),
        "service.gate_us": (per(["write"], "service.gate"), "us"),
        "service.commit_wait_us": (per(["write"], "service.commit_wait"), "us"),
        "service.records_per_commit": (ratio(att.commit_records, att.commits), "count/commit"),
        "service.stalls": (delta["stalls"], "count"),
        "service.stall_s": (delta["stall_s"], "s"),
        "wal.append_us": (per(["write"], "wal.append"), "us"),
        "wal.sync_us": (per(["write"], "wal.sync"), "us"),
        "wal.syncs_per_commit": (ratio(att.commit_syncs, att.commits), "count/commit"),
        "core.apply_us": (per(["write"], "core.apply"), "us"),
        "core.get_chain_us": (per(["get"], "core.get_chain"), "us"),
        "core.scan_us": (per(["scan"], "core.scan"), "us"),
        "memtable.put_us": (per(["write"], "memtable.put"), "us"),
        "memtable.get_us": (per(["get", "scan"], "memtable.get"), "us"),
        "filters.probes_per_get": (count_per_get("filters.probe"), "count/get"),
        "filters.negatives_per_get": (count_per_get("filters.negative"), "count/get"),
        "filters.fp_ratio": (ratio(fp, fp + negatives), "ratio"),
        "filters.probe_us": (per(["get"], "filters.probe"), "us"),
        "indexes.locates_per_get": (count_per_get("indexes.locate"), "count/get"),
        "indexes.locate_us": (per(["get"], "indexes.locate"), "us"),
        "cache.hit_ratio_start": (ratio(*att.cache_start), "ratio"),
        "cache.hit_ratio_end": (ratio(*att.cache_end), "ratio"),
        "cache.evictions_per_op": (ratio(delta["cache_evictions"], client_ops), "count/op"),
        "cache.lookup_us": (per(["get", "scan"], "cache.lookup"), "us"),
        "storage.blocks_read_per_get": (count_per_get("storage.device_read"), "count/get"),
        "storage.block_decodes_per_get": (count_per_get("storage.block_decode"), "count/get"),
        "storage.block_decode_us": (per(["get"], "storage.block_decode"), "us"),
        "storage.device_read_us": (per(["get"], "storage.device_read"), "us"),
        "storage.sstable_get_us": (per(["get"], "storage.sstable_get"), "us"),
        "compaction.flushes": (att.flushes, "count"),
        "compaction.flush_busy_s": (att.flush_busy_s, "s"),
        "compaction.compactions": (att.compactions, "count"),
        "compaction.busy_s": (att.compaction_busy_s, "s"),
        "compaction.rewrite_ratio": (
            ratio(att.compaction_bytes_out, delta["user_bytes"]), "ratio"),
        "compaction.seal_us": (per(["write"], "compaction.seal"), "us"),
        "trace.unattributed_get_us": (unattributed["get"], "us"),
        "trace.unattributed_write_us": (unattributed["write"], "us"),
        "trace.unattributed_scan_us": (unattributed["scan"], "us"),
        "trace.overhead_ratio": (_ops_per_s([plain]) / _ops_per_s(traced), "ratio"),
    }

    lines = [f"workload {workload.name}: traced {len(traced)} segments, "
             f"{total_requests} requests seen by the engine, {client_ops} by clients"]
    for cls in ("get", "write", "scan"):
        if not n[cls]:
            continue
        client_mean = statistics.fmean(lat[cls]) * _US
        root_mean = att.root_busy[cls] / n[cls] * _US
        lines.append(f"  ladder for one {cls} (mean us, n={n[cls]}): "
                     f"client {client_mean:.1f} = server {client_mean - root_mean:.1f} "
                     f"+ service call {root_mean:.1f}")
        for name in NAMED:
            share = att.contrib[cls][name] / n[cls] * _US
            if share > 0.0:
                lines.append(f"    {name:<22} {share:9.1f}  ({share / client_mean:6.1%})")
        lines.append(f"    {'unattributed':<22} {unattributed[cls]:9.1f}  "
                     f"({unattributed[cls] / client_mean:6.1%})")
    return m, lines
