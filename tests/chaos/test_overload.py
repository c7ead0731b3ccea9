"""OverloadGuard unit tests + end-to-end shedding through the socket server."""

import threading

import pytest

import repro
from repro import LSMConfig
from repro.observe import EventJournal
from repro.server import LSMClient, LSMServer, RemoteError, ServerConfig
from repro.server.overload import (
    STATE_BROWNOUT,
    STATE_OK,
    STATE_SHED,
    OverloadGuard,
)


class TestGuardUnit:
    def test_degradation_ladder(self):
        guard = OverloadGuard(brownout_in_flight=4, overload_in_flight=8)
        assert guard.state(1) == STATE_OK
        assert guard.state(4) == STATE_BROWNOUT
        assert guard.state(8) == STATE_SHED
        assert guard.state(2) == STATE_OK
        assert guard.stats()["brownout_entries"] == 1

    def test_thresholds_are_optional(self):
        assert OverloadGuard().state(10_000) == STATE_OK
        assert OverloadGuard(overload_in_flight=5).state(4) == STATE_OK

    def test_brownout_clamps_scans_and_suppresses_tracing(self):
        guard = OverloadGuard(
            brownout_in_flight=1, overload_in_flight=10, brownout_scan_limit=32
        )
        assert guard.clamp_scan_limit(1000, STATE_BROWNOUT) == 32
        assert guard.clamp_scan_limit(8, STATE_BROWNOUT) == 8
        assert guard.clamp_scan_limit(1000, STATE_OK) == 1000
        assert not guard.suppress_tracing(STATE_OK)
        assert guard.suppress_tracing(STATE_BROWNOUT)
        assert guard.suppress_tracing(STATE_SHED)

    def test_transitions_and_sheds_are_journaled(self):
        journal = EventJournal(capacity=16)
        guard = OverloadGuard(
            brownout_in_flight=2, overload_in_flight=3, journal=journal
        )
        guard.state(3)
        guard.record_shed("put", "alice", reason="overload")
        kinds = [e.kind for e in journal.events()]
        assert "backpressure" in kinds and "request_shed" in kinds
        shed = journal.events(kind="request_shed")[0]
        assert shed.fields["op"] == "put"
        assert shed.fields["reason"] == "overload"
        assert guard.stats()["shed_total"] == 1


@pytest.fixture
def tight_server():
    # overload_in_flight=1: any request that arrives while another is being
    # served must be refused with ``overloaded``.
    service = repro.open(
        config=LSMConfig(buffer_bytes=4 << 10, block_size=512, wal_enabled=True),
        service=True,
        observe=True,
    )
    srv = LSMServer(
        service,
        ServerConfig(brownout_in_flight=1, overload_in_flight=2),
        registry=service.observer.registry,
        close_service=True,
    )
    srv.start()
    yield srv
    srv.shutdown()


class TestServerSheds:
    def test_concurrent_hammering_yields_overloaded_refusals(self, tight_server):
        host, port = tight_server.address
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)
        parked = threading.Event()
        release = threading.Event()
        service_put = tight_server.service.put

        def parking_put(key, value, *args, **kwargs):
            # Hold one request inside the engine so every hammering request
            # arrives while another is in flight, whatever the commit latency.
            if key.endswith(b"parked"):
                parked.set()
                release.wait(timeout=30)
            return service_put(key, value, *args, **kwargs)

        tight_server.service.put = parking_put

        def record(put):
            try:
                put()
                with lock:
                    outcomes.append("ok")
            except RemoteError as exc:
                assert exc.code == "overloaded"
                with lock:
                    outcomes.append("shed")

        def occupant():
            with LSMClient(host, port, tenant="t") as db:
                record(lambda: db.put(b"parked", b"v"))

        def hammer(i):
            with LSMClient(host, port, tenant="t") as db:
                barrier.wait()
                for n in range(40):
                    record(lambda: db.put(b"k%d-%d" % (i, n), b"v"))

        holder = threading.Thread(target=occupant)
        holder.start()
        try:
            assert parked.wait(timeout=30), "the occupant's put never reached the engine"
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            release.set()
        holder.join(timeout=30)
        assert not holder.is_alive()
        assert "shed" in outcomes, "8 writers against depth-2 never shed"
        assert "ok" in outcomes, "shedding must not refuse everything"
        snap = tight_server.stats_snapshot()
        assert snap["overload"]["shed_total"] > 0
        counters = tight_server.registry.snapshot()["counters"]
        assert counters["server_shed_total"] > 0

    def test_ping_and_stats_are_served_even_while_shedding(self, tight_server):
        host, port = tight_server.address
        release = threading.Event()
        parked = threading.Event()

        def occupant():
            # Hold handler slots so the server sits at/above the shed line.
            with LSMClient(host, port, tenant="t") as db:
                parked.set()
                while not release.is_set():
                    try:
                        db.put(b"hog", b"v")
                    except RemoteError:
                        pass

        hogs = [threading.Thread(target=occupant) for _ in range(4)]
        for t in hogs:
            t.start()
        parked.wait()
        try:
            with LSMClient(host, port, tenant="t") as db:
                # The control plane must answer no matter the data-plane state.
                assert db.ping()["ok"]
                assert "overload" in db.stats()
        finally:
            release.set()
            for t in hogs:
                t.join(timeout=10)

    def test_retrying_client_outlives_a_transient_storm(self, tight_server):
        from repro.server import RetryPolicy
        import time

        host, port = tight_server.address
        storm_until = time.monotonic() + 0.4

        def background_load():
            with LSMClient(host, port, tenant="t") as db:
                while time.monotonic() < storm_until:
                    try:
                        db.put(b"bg", b"v")
                    except RemoteError:
                        pass

        hogs = [threading.Thread(target=background_load) for _ in range(4)]
        for t in hogs:
            t.start()
        try:
            with LSMClient(
                host, port, tenant="t",
                retry=RetryPolicy(max_attempts=50, backoff_base_s=0.01,
                                  backoff_cap_s=0.1, deadline_s=20.0, seed=7),
            ) as db:
                # Sheds during the storm are absorbed by retries; once the
                # storm passes every op has landed exactly once.
                for n in range(10):
                    db.put(b"retried-%d" % n, b"v")
                for n in range(10):
                    assert db.get(b"retried-%d" % n).found
        finally:
            for t in hogs:
                t.join(timeout=10)


class TestConfigValidation:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(Exception):
            ServerConfig(brownout_in_flight=10, overload_in_flight=5)

    def test_dedup_capacity_zero_disables(self):
        service = repro.open(
            config=LSMConfig(buffer_bytes=4 << 10, block_size=512),
            service=True,
        )
        srv = LSMServer(service, ServerConfig(dedup_capacity=0), close_service=True)
        try:
            assert srv.dedup is None
        finally:
            srv.shutdown()
