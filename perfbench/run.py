"""The repository benchmark: served workloads, end to end, with an oracle.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read_cold --seed 1 --seconds 15 --trace 0

A run is split into ``SEGMENTS`` segments. Each segment starts a fresh
engine process (``server.py``: open + preload), connects two closed-loop
client threads (one ``LSMClient`` connection each) from this process,
warms up, then drives the workload for ``seconds / SEGMENTS`` seconds
through ``LSMClient -> LSMServer -> DBService -> LSMTree``. Every answer
is checked by the oracle in ``workloads.py``; a wrong answer fails the run.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the first
segment untraced and the others with spans recorded around the engine's
entry points (``spans.py``), and reports the per-layer metrics. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SEGMENTS = 3
CHILD_TIMEOUT_S = 120.0


def _fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    if __name__ == "__main__":
        _fail(f"no engine sources under {ROOT / 'src'}; run from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))

from repro.errors import ReproError  # noqa: E402
from repro.server import LSMClient, namespaced_key  # noqa: E402
from workloads import (  # noqa: E402
    CLIENTS, DELETE, GET, OP_CLASS, PUT, VALUE_BYTES, WORKLOADS, OpStream, Oracle,
    key_of, value_secret,
)

WARMUP_OPS = {"read_cold": 600, "write_churn": 150, "scan_hot": 600}
TENANT = "default"  # LSMClient's tenant "" maps to the server's default


# -- the engine process --------------------------------------------------------


class Engine:
    """One ``server.py`` child process and its line protocol."""

    def __init__(self, workload: str, seed: int, keys: int, trace_out=None,
                 skip_namespace: bool = False) -> None:
        cmd = [sys.executable, str(HERE / "server.py"), "--workload", workload,
               "--seed", str(seed), "--keys", str(keys)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        if skip_namespace:
            cmd.append("--skip-namespace")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(ROOT), env=env,
        )
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put("")

    def expect(self, event: str) -> dict:
        try:
            line = self._lines.get(timeout=CHILD_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError(f"engine sent no {event!r} within {CHILD_TIMEOUT_S}s")
        if not line:
            raise RuntimeError(f"engine exited (code {self.proc.wait()}) before {event!r}")
        message = json.loads(line)
        if message.get("event") != event:
            raise RuntimeError(f"engine sent {message!r}, expected {event!r}")
        return message

    def command(self, command: str, reply: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.expect(reply)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("exit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


# -- the load generator -----------------------------------------------------------


class ClientLoop:
    """One closed-loop client: issues the next op when the last one returns."""

    def __init__(self, client, oracle: Oracle, stream: OpStream, scan_len: int) -> None:
        self.client = client
        self.oracle = oracle
        self.stream = stream
        self.scan_len = scan_len
        self.latency = {"get": [], "write": [], "scan": []}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, deadline=None, ops=None) -> None:
        client, oracle, perf = self.client, self.oracle, time.perf_counter
        latency = self.latency
        done = 0
        for op, slot in self.stream:
            start = perf()
            if (deadline is not None and start >= deadline) or (ops is not None and done >= ops):
                return
            done += 1
            self.attempted += 1
            key = key_of(slot)
            try:
                if op == GET:
                    result = client.get(key)
                    elapsed = perf() - start
                    oracle.check_get(slot, result.found, result.value)
                elif op == PUT:
                    value, version = oracle.new_value(slot)
                    try:
                        client.put(key, value)
                    except (ReproError, OSError):
                        oracle.unknown(slot)
                        raise
                    elapsed = perf() - start
                    oracle.acked_put(slot, version)
                elif op == DELETE:
                    try:
                        client.delete(key)
                    except (ReproError, OSError):
                        oracle.unknown(slot)
                        raise
                    elapsed = perf() - start
                    oracle.acked_delete(slot)
                else:
                    items = client.scan(key, None, limit=self.scan_len)
                    elapsed = perf() - start
                    oracle.check_scan(slot, self.scan_len, items)
            except (ReproError, OSError) as exc:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{type(exc).__name__}: {exc}")
                continue
            latency[OP_CLASS[op]].append(elapsed)


def run_loops(loops, deadline=None, ops=None) -> None:
    errors = []

    def target(loop):
        try:
            loop.run(deadline=deadline, ops=ops)
        except BaseException as exc:  # reported below, after every thread ends
            errors.append(exc)

    threads = [threading.Thread(target=target, args=(loop,)) for loop in loops]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# -- one segment ----------------------------------------------------------------


def run_segment(workload_name: str, seed: int, keys: int, seconds: float,
                segment: int, traced: bool, skip_namespace: bool = False) -> dict:
    """Set up a fresh engine, warm up, time ``seconds`` of load, tear down."""
    workload = WORKLOADS[workload_name]
    secret = value_secret(seed)
    trace_out = None
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        trace_out = OUT_DIR / f"spans-{workload_name}-{segment}.json"
    began = time.perf_counter()
    engine = Engine(workload_name, seed, keys, trace_out, skip_namespace)
    clients = []
    try:
        ready = engine.expect("ready")
        oracles = [Oracle(workload, secret, keys, c) for c in range(CLIENTS)]
        for _ in range(CLIENTS):
            clients.append(LSMClient(ready["host"], ready["port"], timeout_s=60.0))
        warm = [
            ClientLoop(clients[c], oracles[c],
                       OpStream(workload, seed, keys, c, phase=2 * segment),
                       workload.scan_len)
            for c in range(CLIENTS)
        ]
        run_loops(warm, ops=WARMUP_OPS[workload_name])
        setup_s = time.perf_counter() - began

        loops = [
            ClientLoop(clients[c], oracles[c],
                       OpStream(workload, seed, keys, c, phase=2 * segment + 1),
                       workload.scan_len)
            for c in range(CLIENTS)
        ]
        engine.command("start", "started")
        t0 = time.perf_counter()
        run_loops(loops, deadline=t0 + seconds)
        elapsed = time.perf_counter() - t0
        stats = engine.command("stop", "stats")
    finally:
        for client in clients:
            client.close()
        engine.close()
    errors = [e for o in oracles for e in o.errors]
    return {
        "setup_s": setup_s,
        "elapsed_s": elapsed,
        "loops": loops,
        "oracles": oracles,
        "errors": errors,
        "stats": stats,
        "trace_out": trace_out,
    }


# -- metrics --------------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


def live_bytes(oracles) -> int:
    """Live key+value bytes as stored, from the clients' exact models."""
    keys = oracles[0].keys
    deleted = sum(1 for o in oracles for version in o.model.values() if version is None)
    return (keys - deleted) * (len(namespaced_key(TENANT, key_of(0))) + VALUE_BYTES)


def end_to_end(workload, segments) -> "tuple[dict, list]":
    """The BENCHMARK.json end-to-end metrics, plus readable detail lines.

    Latency percentiles pool every timed op of the run's segments.
    """
    lat = {"get": [], "write": [], "scan": []}
    attempted = failed = 0
    for seg in segments:
        for loop in seg["loops"]:
            attempted += loop.attempted
            failed += loop.failed
            for cls, values in loop.latency.items():
                lat[cls].extend(values)
    elapsed = sum(seg["elapsed_s"] for seg in segments)
    completed = attempted - failed
    main = lat[workload.main_class]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in segments), "s"),
        "ops_per_s": (completed / elapsed, "1/s"),
        "get_p50_us": (percentile(lat["get"], 50) * 1e6, "us"),
        "main_p50_us": (percentile(main, 50) * 1e6, "us"),
        "ok_ratio": (completed / max(1, attempted), "ratio"),
        "write_amp": (statistics.median(s["stats"]["write_amp"] for s in segments), "ratio"),
        "space_amp": (statistics.median(
            s["stats"]["device_bytes"] / live_bytes(s["oracles"]) for s in segments), "ratio"),
        "mem_mib": (statistics.median(s["stats"]["rss_mib"] for s in segments), "MiB"),
    }
    lines = [f"workload {workload.name}: {len(segments)} segments, "
             f"{elapsed:.2f}s timed, {attempted} ops attempted, {failed} failed",
             f"  setup_s per segment: {[round(s['setup_s'], 3) for s in segments]}",
             f"  main op class: {workload.main_class}",
             f"  error_ratio={failed / max(1, attempted):.6f}"]
    for cls in ("get", "write", "scan"):
        if lat[cls]:
            lines.append(
                f"  {cls}: n={len(lat[cls])} "
                + " ".join(f"p{q}={percentile(lat[cls], q) * 1e6:.1f}us" for q in (50, 90, 99))
                + f" mean={statistics.fmean(lat[cls]) * 1e6:.1f}us"
            )
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keys", type=int, default=100_000,
                        help="preloaded keys (the self-test shrinks this)")
    parser.add_argument("--skip-namespace", action="store_true",
                        help="plant a defect: preload outside the tenant namespace")
    args = parser.parse_args(argv)
    if args.keys < 64 or args.keys % 4:
        parser.error("--keys must be a multiple of 4, at least 64")

    workload = WORKLOADS[args.workload]
    per_segment = args.seconds / SEGMENTS
    segments = []
    for segment in range(SEGMENTS):
        traced = bool(args.trace) and segment > 0
        segments.append(run_segment(args.workload, args.seed, args.keys, per_segment,
                                    segment, traced, args.skip_namespace))

    errors = [e for seg in segments for e in seg["errors"]]
    attempted = sum(loop.attempted for seg in segments for loop in seg["loops"])
    failed = sum(loop.failed for seg in segments for loop in seg["loops"])
    gets = sum(o.gets for seg in segments for o in seg["oracles"])
    found = sum(o.gets_found for seg in segments for o in seg["oracles"])
    present = sum(o.gets_present for seg in segments for o in seg["oracles"])
    if not workload.has_deletes and found != present:
        errors.append(f"found {found} of {gets} gets, generated {present} present")

    if args.trace:
        from layers import per_layer

        metrics, lines = per_layer(workload, segments)
    else:
        metrics, lines = end_to_end(workload, segments)
    for line in lines:
        print(line)
    print(f"  gets checked (warm-up and timed): {gets}, found {found}, "
          f"generated present {present}")
    for seg in segments:
        for loop in seg["loops"]:
            for failure in loop.failures:
                print(f"  failed op: {failure}")
    for error in errors[:20]:
        print(f"  WRONG ANSWER: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
