"""The engine process: open, preload, serve, report.

Started by ``run.py`` as a child process so the load generator does not
share the server's interpreter lock. It builds a store, preloads it,
fronts it with ``DBService`` + ``LSMServer`` and prints one JSON line
``{"event": "ready", "port": ...}``. It then obeys line commands on stdin:

* ``start`` - snapshot counters (and, when tracing, start recording spans);
* ``stop`` - stop recording, drain background work, print a ``stats`` line;
* ``exit`` (or end of input) - shut the server down and exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from workloads import WORKLOADS, key_of, make_value, preload_plan, value_secret

from repro import LSMConfig, LSMTree
from repro.server import LSMServer, ServerConfig, namespaced_key
from repro.service import DBService, ServiceConfig

TENANT = "default"
PRELOAD_BATCH = 1000


def build_store(workload, seed: int, keys: int, namespace: bool) -> LSMTree:
    """Open a tree and preload every present key at version 0."""
    config = LSMConfig(
        wal_enabled=True,
        buffer_bytes=workload.buffer_bytes,
        cache_bytes=workload.cache_bytes,
    )
    tree = LSMTree(config)
    secret = value_secret(seed)

    def stored(slot: int) -> bytes:
        key = key_of(slot)
        return namespaced_key(TENANT, key) if namespace else key

    ingest, puts = preload_plan(seed, keys)
    tree.ingest_external((stored(s), make_value(secret, s, 0)) for s in ingest)
    for i in range(0, len(puts), PRELOAD_BATCH):
        tree.write_batch(
            [("put", stored(s), make_value(secret, s, 0))
             for s in puts[i:i + PRELOAD_BATCH]]
        )
    if workload.warm_cache:
        for _ in tree.scan():
            pass
    return tree


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def counters(tree: LSMTree) -> dict:
    cache = tree.cache.stats
    stats = tree.stats
    return {
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_evictions": cache.evictions,
        "stalls": stats.stall_slowdowns + stats.stall_stops,
        "stall_s": stats.stall_time_wall,
        "user_bytes": stats.user_bytes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--keys", type=int, required=True)
    parser.add_argument("--trace-out", default=None,
                        help="record spans while timing and write them here")
    parser.add_argument("--skip-namespace", action="store_true",
                        help="preload outside the tenant namespace (a planted "
                             "defect the oracle must catch)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tree = build_store(workload, args.seed, args.keys, not args.skip_namespace)
    service = DBService(tree, ServiceConfig(), close_tree=True)
    server = LSMServer(service, ServerConfig(), close_service=True)
    host, port = server.start()
    recorder = None
    if args.trace_out is not None:
        from spans import SpanRecorder

        recorder = SpanRecorder()
    emit({"event": "ready", "host": host, "port": port})

    before = None
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "start":
                if recorder is not None:
                    recorder.install()
                    recorder.start()
                before = counters(tree)
                emit({"event": "started"})
            elif command == "stop":
                after = counters(tree)
                if recorder is not None:
                    recorder.stop()
                    recorder.dump(args.trace_out)
                service.drain(timeout=60.0)
                delta = {name: after[name] - before[name] for name in after}
                emit({
                    "event": "stats",
                    "delta": delta,
                    "write_amp": tree.write_amplification,
                    "device_bytes": tree.device.used_bytes,
                    "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                })
            elif command == "exit":
                break
    finally:
        server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
