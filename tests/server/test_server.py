"""End-to-end server tests: real sockets, real frames, one process."""

import socket
import threading

import pytest

import repro
from repro import LSMConfig, LSMTree
from repro.observe import MetricsRegistry
from repro.server import (
    LSMClient,
    LSMServer,
    RemoteError,
    ServerConfig,
    TenantLoad,
    run_load,
)
from repro.server.protocol import (
    FrameDecoder,
    GetRequest,
    ProtocolError,
    encode_frame,
    recv_message,
)
from repro.service import DBService


@pytest.fixture
def server():
    service = repro.open(
        config=LSMConfig(buffer_bytes=4 << 10, block_size=512, wal_enabled=True),
        service=True,
        observe=True,
    )
    srv = LSMServer(
        service,
        ServerConfig(),
        registry=service.observer.registry,
        close_service=True,
    )
    srv.start()
    yield srv
    srv.shutdown()


def client_for(srv, tenant="t"):
    host, port = srv.address
    return LSMClient(host, port, tenant=tenant)


class TestRequestSurface:
    def test_full_surface_round_trips(self, server):
        with client_for(server) as db:
            db.put(b"alpha", b"1")
            db.put(b"beta", b"2")
            assert db.get(b"alpha").value == b"1"
            assert not db.get(b"missing").found
            db.delete(b"beta")
            assert not db.get(b"beta").found
            results = db.multi_get([b"alpha", b"beta"])
            assert results[b"alpha"].found and not results[b"beta"].found
            assert db.batch(
                [("put", b"a", b"x"), ("put", b"b", b"y"), ("delete", b"a", b"")]
            ) == 3
            assert db.scan() == [(b"alpha", b"1"), (b"b", b"y")]

    def test_scan_respects_bounds_and_limit(self, server):
        with client_for(server) as db:
            for i in range(10):
                db.put(f"k{i}".encode(), b"v")
            assert [k for k, _ in db.scan(b"k2", b"k5")] == [b"k2", b"k3", b"k4", b"k5"]
            page = db.scan(limit=4)
            assert len(page) == 4
            assert db.last_scan_truncated
            rest = db.scan(page[-1][0] + b"\x00", None, limit=100)
            assert not db.last_scan_truncated
            assert len(page) + len(rest) == 10

    def test_ping_reports_uptimes(self, server):
        with client_for(server) as db:
            pong = db.ping()
        assert pong["ok"]
        assert pong["server_uptime_seconds"] >= 0.0
        assert pong["engine_uptime_seconds"] >= 0.0

    def test_stats_frame_carries_health_metrics_and_engine(self, server):
        with client_for(server) as db:
            db.put(b"k", b"v")
            db.get(b"k")
            stats = db.stats()
        assert stats["health"]["ok"] is True
        assert stats["health"]["engine_uptime_seconds"] > 0
        assert stats["server"]["connections_active"] == 1
        assert stats["engine"]["uptime_seconds"] > 0
        assert "service_uptime_seconds" in stats["engine"]
        counters = stats["metrics"]["counters"]
        assert counters["server_requests_total"] >= 2
        assert counters["server_connections_total"] >= 1


class TestTenantIsolation:
    def test_namespaces_are_disjoint(self, server):
        with client_for(server, "alice") as alice, client_for(server, "bob") as bob:
            alice.put(b"k", b"alice-data")
            bob.put(b"k", b"bob-data")
            assert alice.get(b"k").value == b"alice-data"
            assert bob.get(b"k").value == b"bob-data"
            alice.delete(b"k")
            assert not alice.get(b"k").found
            assert bob.get(b"k").value == b"bob-data"

    def test_scans_stay_inside_the_namespace(self, server):
        with client_for(server, "alice") as alice, client_for(server, "bob") as bob:
            alice.put(b"a", b"1")
            bob.put(b"b", b"2")
            assert alice.scan() == [(b"a", b"1")]
            assert bob.scan() == [(b"b", b"2")]

    def test_invalid_tenant_is_a_clean_remote_error(self, server):
        with client_for(server, "bad tenant!") as db:
            with pytest.raises(RemoteError) as excinfo:
                db.put(b"k", b"v")
            assert excinfo.value.code == "bad_request"
            # The connection survives a rejected request.
            with pytest.raises(RemoteError):
                db.get(b"k")


class TestProtocolHardening:
    def test_corrupt_frame_gets_error_response_then_close(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            frame = bytearray(encode_frame(GetRequest(tenant="t", key=b"k")))
            frame[-1] ^= 0xFF  # break the CRC
            sock.sendall(bytes(frame))
            decoder = FrameDecoder()
            reply = recv_message(sock, decoder)
            assert reply.code == "bad_frame"
            assert recv_message(sock, decoder) is None  # server hung up

    def test_raw_garbage_rejected(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
            reply = recv_message(sock, FrameDecoder())
            assert reply.code == "bad_frame"

    def test_protocol_error_counted(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b"\x00" * 16)
            recv_message(sock, FrameDecoder())
        snapshot = server.stats_snapshot()
        counters = snapshot["metrics"]["counters"]
        assert counters["server_protocol_errors_total"] >= 1


class TestConcurrencyAndLifecycle:
    def test_concurrent_clients_share_one_engine(self, server):
        errors = []

        def worker(tid):
            try:
                with client_for(server, f"tenant{tid % 3}") as db:
                    for i in range(40):
                        db.put(f"k{tid}-{i}".encode(), b"v")
                        assert db.get(f"k{tid}-{i}".encode()).found
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_graceful_shutdown_is_idempotent_and_refuses_new_work(self):
        service = DBService(LSMTree(LSMConfig(buffer_bytes=4 << 10, block_size=512)))
        srv = LSMServer(service, ServerConfig(), close_service=True)
        srv.start()
        host, port = srv.address
        with LSMClient(host, port, tenant="t") as db:
            db.put(b"k", b"v")
        srv.shutdown()
        srv.shutdown()  # second call is a no-op
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)

    def test_connection_cap_refuses_politely(self):
        service = DBService(LSMTree(LSMConfig(buffer_bytes=4 << 10, block_size=512)))
        srv = LSMServer(
            service, ServerConfig(max_connections=1), close_service=True
        )
        srv.start()
        host, port = srv.address
        try:
            with LSMClient(host, port, tenant="t") as db:
                db.ping()  # ensure the first connection is registered
                with socket.create_connection((host, port), timeout=5.0) as extra:
                    reply = recv_message(extra, FrameDecoder())
                    assert reply.code == "busy"
        finally:
            srv.shutdown()


class TestLoadGeneratorAndFairness:
    def test_run_load_reports_per_tenant_results(self, server):
        host, port = server.address
        registry = MetricsRegistry()
        results = run_load(
            host,
            port,
            [
                TenantLoad(tenant="a", clients=2, ops_per_client=60, seed=1),
                TenantLoad(tenant="b", clients=1, ops_per_client=60, seed=2),
            ],
            registry=registry,
        )
        assert results["a"].operations == 120
        assert results["b"].operations == 60
        assert results["a"].protocol_errors == 0
        assert results["a"].errors == []
        assert results["a"].latency["count"] == 120
        assert results["a"].latency["p99"] > 0

    def test_throttled_tenant_cannot_starve_a_compliant_one(self):
        """The QoS contract over real sockets: a hot tenant driving several
        times its share is slowed to roughly that share, while a compliant
        tenant keeps its offered throughput and sees no admission waits."""
        service = repro.open(
            config=LSMConfig(buffer_bytes=8 << 10, block_size=512),
            service=True,
            observe=True,
        )
        srv = LSMServer(
            service,
            ServerConfig(tenant_ops_per_second=200, tenant_burst_ops=20),
            registry=service.observer.registry,
            close_service=True,
        )
        srv.start()
        host, port = srv.address
        try:
            results = run_load(
                host,
                port,
                [
                    TenantLoad(
                        tenant="calm",
                        clients=1,
                        ops_per_client=100,
                        target_ops_per_second=100,
                        seed=3,
                    ),
                    TenantLoad(tenant="hot", clients=2, ops_per_client=300, seed=4),
                ],
            )
            snapshot = srv.stats_snapshot()["tenants"]
        finally:
            srv.shutdown()
        # Hot tenant: flat out, but throttled near its 200 ops/s share
        # (+ burst); it must have actually waited in its bucket.
        assert snapshot["hot"]["throttle_waits"] > 0
        wall = results["hot"].wall_seconds
        assert results["hot"].ops_per_second < 200 + 20 / wall + 80
        # Calm tenant: offered 100 ops/s against a 200 share — admitted
        # without ever touching the throttle.
        assert snapshot["calm"]["throttle_waits"] == 0
        assert results["calm"].operations == 100
        # ...and its round trips stayed fast (no admission stall leaked in).
        assert results["calm"].latency["p99"] < 0.25
