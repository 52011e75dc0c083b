"""IngestServer conformance: routes, error taxonomy, stream lifecycle.

Every row of the DESIGN.md error table is exercised over real sockets —
a collector implementer should be able to treat this file as executable
documentation of the v1 contract.  The CLI end-to-end test at the bottom
drives ``serve --ingest-port`` and ``push`` through :func:`repro.cli.main`
the way the README quickstart does.
"""

import http.client
import json
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import DBCatcherConfig
from repro.datasets.containers import Dataset, UnitSeries
from repro.obs import runtime as obs
from repro.service import DetectionService, ReplaySource, RetryingSource, ServiceConfig
from repro.service.api import (
    ApiClient,
    ApiError,
    ApiState,
    IngestServer,
    NetworkSource,
    TransientApiError,
    encode_tick_batch,
    push_dataset,
)
from repro.service.api import server as server_module
from repro.service.sources import TickEvent

CONFIG = DBCatcherConfig(
    kpi_names=("cpu", "rps"), initial_window=8, max_window=24
)

UNITS = {"u0": 2, "u1": 3}
KPI_NAMES = ("cpu", "rps")


def _events(unit, n_ticks, start_seq=0):
    shape = (UNITS[unit], len(KPI_NAMES))
    return [
        TickEvent(
            unit=unit,
            seq=start_seq + index,
            sample=np.full(shape, float(start_seq + index)),
        )
        for index in range(n_ticks)
    ]


@pytest.fixture(name="plane")
def _plane():
    """A live (source, view, server, client) ingestion plane."""
    source = NetworkSource(capacity=64, handshake_timeout_seconds=10.0)
    view = ApiState()
    with IngestServer(source, view=view) as server:
        with ApiClient(url=server.url) as client:
            yield source, view, server, client


def _register(client):
    return client.register(UNITS, KPI_NAMES, 5.0)


def _raw_request(server, method, path, body=None, headers=(), send_length=True):
    """http.client request with full header control (urllib can't omit
    Content-Length or send a bogus one)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.putrequest(method, path)
        for name, value in headers:
            conn.putheader(name, value)
        if body is not None and send_length:
            conn.putheader("Content-Length", str(len(body)))
        conn.endheaders()
        if body is not None:
            conn.send(body)
        response = conn.getresponse()
        payload = response.read()
        return response.status, dict(response.getheaders()), payload
    finally:
        conn.close()


class TestStreamLifecycle:
    def test_healthz(self, plane):
        _, _, _, client = plane
        assert client.healthz()

    def test_units_before_handshake(self, plane):
        _, _, _, client = plane
        assert client.get_units() == {"registered": False, "units": {}}

    def test_ticks_before_handshake_is_409_no_stream(self, plane):
        _, _, _, client = plane
        with pytest.raises(ApiError) as caught:
            client.post_ticks("u0", _events("u0", 2))
        assert caught.value.status == 409
        assert caught.value.code == "no_stream"

    def test_handshake_created_then_idempotent(self, plane):
        source, _, _, client = plane
        assert _register(client)["created"] is True
        assert _register(client)["created"] is False
        assert source.fleet.units == UNITS

    def test_conflicting_handshake_is_409(self, plane):
        _, _, _, client = plane
        _register(client)
        with pytest.raises(ApiError) as caught:
            client.register({"other": 4}, KPI_NAMES, 5.0)
        assert caught.value.status == 409
        assert caught.value.code == "fleet_conflict"

    def test_units_after_handshake(self, plane):
        _, _, _, client = plane
        _register(client)
        answer = client.get_units()
        assert answer["registered"] is True
        assert answer["units"] == UNITS
        assert tuple(answer["kpi_names"]) == KPI_NAMES
        assert answer["interval_seconds"] == 5.0

    def test_accept_then_stale_replay(self, plane):
        source, _, _, client = plane
        _register(client)
        batch = _events("u0", 4)
        assert client.post_ticks("u0", batch) == {
            "accepted": 4, "stale": 0, "status": 200,
        }
        # Verbatim replay (what a reconnecting collector does) is counted
        # stale, never double-fed to a detector.
        assert client.post_ticks("u0", batch) == {
            "accepted": 0, "stale": 4, "status": 200,
        }
        assert source.accepted_total == 4
        assert source.stale_total == 4

    def test_unknown_unit_is_404(self, plane):
        _, _, _, client = plane
        _register(client)
        with pytest.raises(ApiError) as caught:
            client.post_ticks("ghost", _events("u0", 1))
        assert caught.value.status == 404
        assert caught.value.code == "unknown_unit"

    def test_close_is_idempotent_and_final(self, plane):
        source, _, _, client = plane
        _register(client)
        client.post_ticks("u0", _events("u0", 2))
        assert client.close_stream() == {"closed": True}
        assert client.close_stream() == {"closed": True}
        with pytest.raises(ApiError) as caught:
            client.post_ticks("u0", _events("u0", 2, start_seq=2))
        assert caught.value.code == "stream_closed"
        with pytest.raises(ApiError) as caught:
            client.register({"late": 2}, KPI_NAMES, 5.0)
        assert caught.value.code == "stream_closed"
        # The queue drains what was admitted before the close, then ends.
        assert [event.seq for event in source] == [0, 1]

    def test_register_after_close_without_prior_fleet(self):
        source = NetworkSource(handshake_timeout_seconds=5.0)
        with IngestServer(source) as server:
            client = ApiClient(url=server.url)
            source.close_stream()
            with pytest.raises(ApiError) as caught:
                _register(client)
            assert caught.value.code == "stream_closed"


class TestBackpressure:
    def test_partial_batch_resumes_verbatim(self):
        source = NetworkSource(
            capacity=2, handshake_timeout_seconds=10.0,
            retry_after_seconds=0.25,
        )
        with IngestServer(source) as server:
            client = ApiClient(url=server.url)
            _register(client)
            batch = _events("u0", 4)
            answer = client.post_ticks("u0", batch)
            assert answer["status"] == 429
            assert answer["accepted"] == 2
            assert answer["stale"] == 0
            assert answer["retry_after"] == 0.25
            iterator = iter(source)
            assert [next(iterator).seq for _ in range(2)] == [0, 1]
            # Verbatim re-post: the admitted prefix is stale, the rest
            # resumes exactly where the 429 stopped.
            assert client.post_ticks("u0", batch) == {
                "accepted": 2, "stale": 2, "status": 200,
            }
            assert source.accepted_total == 4
            assert source.stale_total == 2
            assert source.backpressure_total == 1

    def test_429_carries_retry_after_header(self):
        source = NetworkSource(capacity=1, handshake_timeout_seconds=10.0)
        with IngestServer(source) as server:
            ApiClient(url=server.url).register({"u0": 2}, KPI_NAMES, 5.0)
            body = json.dumps(
                encode_tick_batch("u0", _events("u0", 3))
            ).encode()
            status, headers, payload = _raw_request(
                server, "POST", "/v1/ticks", body,
                headers=[("Content-Type", "application/json")],
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            answer = json.loads(payload)
            assert answer["accepted"] == 1
            assert answer["error"]["code"] == "backpressure"


class TestRequestPlumbing:
    def test_missing_content_length_is_411(self, plane):
        _, _, server, _ = plane
        status, _, payload = _raw_request(server, "POST", "/v1/ticks")
        assert status == 411
        assert json.loads(payload)["error"]["code"] == "missing_length"

    def test_bogus_content_length_is_400(self, plane):
        _, _, server, _ = plane
        status, _, payload = _raw_request(
            server, "POST", "/v1/ticks", body=b"{}",
            headers=[("Content-Length", "abc")], send_length=False,
        )
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "bad_length"

    def test_oversized_body_is_413(self):
        source = NetworkSource(handshake_timeout_seconds=5.0)
        with IngestServer(source, max_body_bytes=64) as server:
            body = b'{"version": 1, "padding": "' + b"x" * 128 + b'"}'
            status, _, payload = _raw_request(
                server, "POST", "/v1/ticks", body,
                headers=[("Content-Type", "application/json")],
            )
            assert status == 413
            assert json.loads(payload)["error"]["code"] == "body_too_large"

    def test_oversized_batch_is_413(self):
        source = NetworkSource(handshake_timeout_seconds=5.0)
        with IngestServer(source, max_batch=4) as server:
            client = ApiClient(url=server.url)
            _register(client)
            with pytest.raises(ApiError) as caught:
                client.post_ticks("u0", _events("u0", 5))
            assert caught.value.status == 413
            assert caught.value.code == "batch_too_large"

    def test_nan_literal_names_the_violation_and_survives(self, plane):
        _, _, server, client = plane
        _register(client)
        body = (
            b'{"version": 1, "unit": "u0", '
            b'"ticks": [{"seq": 0, "sample": [[NaN, 1.0], [2.0, 3.0]]}]}'
        )
        status, _, payload = _raw_request(
            server, "POST", "/v1/ticks", body,
            headers=[("Content-Type", "application/json")],
        )
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "not_finite"
        # One hostile payload must not take down the handler thread.
        assert client.healthz()
        assert client.post_ticks("u0", _events("u0", 1))["accepted"] == 1

    def test_malformed_cell_reports_the_field(self, plane):
        _, _, server, client = plane
        _register(client)
        payload = encode_tick_batch("u0", _events("u0", 1))
        payload["ticks"][0]["sample"][0][1] = "busy"
        status, _, raw = _raw_request(
            server, "POST", "/v1/ticks", json.dumps(payload).encode(),
            headers=[("Content-Type", "application/json")],
        )
        assert status == 400
        error = json.loads(raw)["error"]
        assert error["code"] == "bad_type"
        assert error["field"] == "ticks[0].sample[0][1]"

    def test_unknown_routes_are_404(self, plane):
        _, _, server, _ = plane
        for method, path in [
            ("GET", "/v1/nope"),
            ("POST", "/v1/stream"),
            ("PUT", "/v1/ticks"),
        ]:
            status, _, payload = _raw_request(
                server, method, path, body=b"{}",
                headers=[("Content-Type", "application/json")],
            )
            assert status == 404, (method, path)
            assert json.loads(payload)["error"]["code"] == "not_found"


OVERSIZED = b'{"version": 1, "padding": "' + b"x" * 128 + b'"}'


def _post_then_healthz(server, path, headers, body):
    """A raw ``POST``, then ``GET /healthz`` on the same client connection."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.putrequest("POST", path)
        for name, value in headers:
            conn.putheader(name, value)
        conn.endheaders()
        conn.send(body)
        first = conn.getresponse()
        first.read()
        conn.request("GET", "/healthz")
        second = conn.getresponse()
        return first, second.status, second.read()
    finally:
        conn.close()


class TestKeepAlive:
    """One TCP connection carries many requests (HTTP/1.1)."""

    def test_connection_serves_many_requests(self, plane):
        _, _, _, client = plane
        with obs.scoped() as registry:
            _register(client)
            for start in range(0, 12, 3):
                client.post_ticks("u0", _events("u0", 3, start_seq=start))
            assert client.healthz()
        assert registry.counter("api.connections").value == 1
        assert registry.counter("api.requests").value == 6

    @pytest.mark.parametrize(
        "path, headers, body, status",
        [
            # 404: unknown route, body never read.
            ("/v1/nope", [("Content-Length", "2")], b"{}", 404),
            # 411: a chunked body without Content-Length.
            (
                "/v1/ticks",
                [("Transfer-Encoding", "chunked")],
                b"2\r\n{}\r\n0\r\n\r\n",
                411,
            ),
            # 400 bad_length: the body length is unknowable.
            ("/v1/ticks", [("Content-Length", "abc")], b"{}", 400),
            # 413: a body over the limit is refused unread.
            (
                "/v1/ticks",
                [("Content-Length", str(len(OVERSIZED)))],
                OVERSIZED,
                413,
            ),
        ],
    )
    def test_unread_body_closes_the_connection(self, path, headers, body, status):
        # Kept alive, the unread body would parse as the next request:
        # GET /healthz would answer 400 (or 501) instead of 200.
        source = NetworkSource(handshake_timeout_seconds=5.0)
        with IngestServer(source, max_body_bytes=64) as server:
            first, second, payload = _post_then_healthz(
                server, path, headers, body
            )
        assert first.status == status
        assert (second, payload) == (200, b"ok\n")
        assert first.getheader("Connection") == "close"

    def test_read_body_keeps_the_connection(self, plane):
        _, _, server, _ = plane
        with obs.scoped() as registry:
            first, second, _ = _post_then_healthz(
                server, "/v1/ticks", [("Content-Length", "2")], b"{}"
            )
        assert first.status == 400  # read, then rejected by the schema
        assert first.getheader("Connection") is None
        assert second == 200
        assert registry.counter("api.connections").value == 1

    def test_close_ends_live_connections(self):
        before = set(threading.enumerate())
        source = NetworkSource(handshake_timeout_seconds=5.0)
        server = IngestServer(source)
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read() == b"ok\n"
            server.close()
            with pytest.raises((http.client.HTTPException, OSError)):
                conn.request("GET", "/healthz")
                conn.getresponse().read()
        finally:
            conn.close()
            server.close()
        leftover = [
            thread for thread in threading.enumerate()
            if thread not in before and thread.is_alive()
        ]
        assert leftover == []

    def test_idle_connection_times_out(self, monkeypatch):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_SECONDS", 0.2)
        source = NetworkSource(handshake_timeout_seconds=5.0)
        with IngestServer(source) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                reply = b""
                while not reply.endswith(b"ok\n"):
                    reply += sock.recv(4096)
                assert reply.startswith(b"HTTP/1.1 200")
                started = time.monotonic()
                assert sock.recv(4096) == b""  # the server hung up
                assert time.monotonic() - started < 5.0


def _detection_results(n_databases=4, n_ticks=64, seed=3):
    rng = np.random.default_rng(seed)
    trend = np.sin(np.linspace(0, 7, n_ticks)) + 2.0
    values = np.stack([
        trend[None, :] * (1 + 0.03 * db)
        + 0.01 * rng.standard_normal((2, n_ticks))
        for db in range(n_databases)
    ])
    from repro.core.detector import DBCatcher

    return DBCatcher(CONFIG, n_databases).process(values, time_axis=-1)


class TestQueryEndpoints:
    def test_verdict_history_with_limit(self, plane):
        _, view, _, client = plane
        _register(client)
        results = _detection_results()
        assert len(results) >= 2
        for result in results:
            view.record_result("u0", result)
        answer = client.get_verdicts("u0")
        assert answer["unit"] == "u0"
        assert answer["rounds"] == len(results)
        assert len(answer["verdicts"]) == len(results)
        first = answer["verdicts"][0]
        assert first["start"] == results[0].start
        assert first["end"] == results[0].end
        record = first["records"]["0"]
        assert record["state_path"][-1] == record["state"]
        limited = client.get_verdicts("u0", limit=1)
        assert limited["rounds"] == len(results)
        assert limited["verdicts"] == answer["verdicts"][-1:]

    def test_verdicts_unknown_unit_is_404_once_registered(self, plane):
        _, _, _, client = plane
        answer = client.get_verdicts("ghost")  # fleetless: empty history
        assert answer == {"unit": "ghost", "rounds": 0, "verdicts": []}
        _register(client)
        with pytest.raises(ApiError) as caught:
            client.get_verdicts("ghost")
        assert caught.value.status == 404
        assert caught.value.code == "unknown_unit"

    def test_bad_limit_is_rejected(self, plane):
        _, _, server, _ = plane
        for raw in ("abc", "0"):
            status, _, payload = _raw_request(
                server, "GET", f"/v1/units/u0/verdicts?limit={raw}"
            )
            assert status == 400
            assert json.loads(payload)["error"]["code"] == "bad_value"

    def test_incidents_view(self, plane):
        _, view, _, client = plane

        class _Event:
            def __init__(self, incident_id, state):
                self._payload = {"incident_id": incident_id, "state": state}

            def to_dict(self):
                return dict(self._payload)

        view.emit_incident(_Event("inc-1", "open"))
        view.emit_incident(_Event("inc-2", "open"))
        view.emit_incident(_Event("inc-1", "resolved"))
        answer = client.get_incidents()
        # Keyed by id at the newest state, oldest-updated first.
        assert answer["incidents"] == [
            {"incident_id": "inc-2", "state": "open"},
            {"incident_id": "inc-1", "state": "resolved"},
        ]

    def test_state_endpoint_reports_durable_layout(self, tmp_path):
        rng = np.random.default_rng(11)
        trend = np.sin(np.linspace(0, 9, 96)) + 2.0
        values = np.stack([
            trend[None, :] * (1 + 0.02 * db)
            + 0.01 * rng.standard_normal((2, 96))
            for db in range(3)
        ])
        unit = UnitSeries(
            name="api-state-unit",
            values=values,
            labels=np.zeros((3, 96), dtype=bool),
            kpi_names=KPI_NAMES,
        )
        state_dir = str(tmp_path / "state")
        service = DetectionService(
            CONFIG,
            service_config=ServiceConfig(n_workers=0, state_dir=state_dir),
            sinks=("null",),
        )
        service.run(ReplaySource(Dataset(name="api-state", units=(unit,))))

        source = NetworkSource(handshake_timeout_seconds=5.0)
        with IngestServer(source, state_dir=state_dir) as server:
            answer = ApiClient(url=server.url).get_state()
        assert answer["state_dir"] == state_dir
        overview = answer["units"]["api-state-unit"]
        assert overview["snapshot"] is True
        assert overview["next_tick"] == 96
        # A cleanly finalized run compacts its WAL into archives; a
        # crashed run would leave live wal-*.jsonl segments instead.
        assert overview["wal_segments"] == 0
        assert overview["archived_segments"] >= 1

    def test_state_endpoint_without_state_dir(self, plane):
        _, _, _, client = plane
        answer = client.get_state()
        assert answer == {"state_dir": None, "units": {}}


class _StaticSource:
    """A tiny one-unit source for the RetryingSource network tests."""

    def __init__(self, n_ticks, fail_at=None):
        self.n_ticks = n_ticks
        self.fail_at = fail_at

    units = {"u0": 2}
    kpi_names = KPI_NAMES
    interval_seconds = 5.0

    def __iter__(self):
        for seq in range(self.n_ticks):
            if seq == self.fail_at:
                self.fail_at = None
                raise ConnectionResetError(f"peer reset at {seq}")
            yield TickEvent(
                unit="u0", seq=seq, sample=np.full((2, 2), float(seq))
            )


class TestRetryingSourceNetworkPath:
    """Factory failures (refused connections, handshake timeouts, 5xx
    turned into exceptions) consume the same retry budget as
    mid-iteration failures — the wrapper survives the window where the
    far end is restarting and cannot even be dialled."""

    def test_construction_retries_through_refused_connections(self):
        state = {"failures": 2}

        def factory():
            if state["failures"]:
                state["failures"] -= 1
                raise ConnectionRefusedError("connection refused")
            return _StaticSource(6)

        source = RetryingSource(factory, max_retries=3, backoff_seconds=0.0)
        assert source.retries == 2
        assert [event.seq for event in source] == list(range(6))

    def test_construction_budget_exhaustion_propagates(self):
        def factory():
            raise ConnectionRefusedError("connection refused")

        with pytest.raises(ConnectionRefusedError):
            RetryingSource(factory, max_retries=2, backoff_seconds=0.0)

    def test_mid_stream_failure_then_refused_rebuild(self):
        # The stream dies at seq 3, then the first rebuild is refused
        # (the far end is still coming back up); both failures draw from
        # one per-iteration budget and the replay resumes without
        # duplicates.
        state = {"built": 0}

        def factory():
            state["built"] += 1
            if state["built"] == 2:
                raise TimeoutError("dial timed out")
            return _StaticSource(8, fail_at=3 if state["built"] == 1 else None)

        source = RetryingSource(factory, max_retries=3, backoff_seconds=0.0)
        assert [event.seq for event in source] == list(range(8))
        assert source.retries == 2

    def test_real_refused_socket_consumes_budget(self):
        # An actually-dead TCP port, not a stand-in exception.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        state = {"first": True}

        def factory():
            if state.pop("first", False):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=2
                )
            return _StaticSource(4)

        source = RetryingSource(factory, max_retries=2, backoff_seconds=0.0)
        assert source.retries == 1
        assert [event.seq for event in source] == list(range(4))

    def test_backoff_grows_exponentially_on_rebuilds(self, monkeypatch):
        import repro.service.sources as sources_module

        sleeps = []
        monkeypatch.setattr(
            sources_module.time, "sleep", lambda s: sleeps.append(s)
        )
        state = {"failures": 3}

        def factory():
            if state["failures"]:
                state["failures"] -= 1
                raise ConnectionRefusedError("connection refused")
            return _StaticSource(2)

        RetryingSource(factory, max_retries=3, backoff_seconds=0.1)
        assert sleeps == [0.1, 0.2, 0.4]


class TestClientTransport:
    def test_unreachable_endpoint_is_transient(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ApiClient(url=f"http://127.0.0.1:{port}", timeout_seconds=2.0)
        with pytest.raises(TransientApiError) as caught:
            client.get_units()
        assert caught.value.code == "unreachable"

    def test_url_provider_is_consulted_per_request(self, plane):
        _, _, server, _ = plane
        urls = []

        def provider():
            urls.append(server.url)
            return server.url

        client = ApiClient(url_provider=provider)
        assert client.healthz()
        assert client.get_units()["registered"] is False
        assert len(urls) == 2

    def test_dead_endpoint_after_reuse_is_transient(self):
        server = IngestServer(NetworkSource(handshake_timeout_seconds=5.0))
        with ApiClient(url=server.url, timeout_seconds=2.0) as client:
            assert client.healthz()
            server.close()
            with pytest.raises(TransientApiError) as caught:
                client.healthz()
        assert caught.value.code == "unreachable"

    def test_url_change_opens_a_new_connection(self):
        first_source = NetworkSource(handshake_timeout_seconds=5.0)
        second_source = NetworkSource(handshake_timeout_seconds=5.0)
        with IngestServer(first_source) as first, IngestServer(
            second_source
        ) as second:
            urls = iter([first.url, first.url, second.url])
            with obs.scoped() as registry, ApiClient(
                url_provider=lambda: next(urls)
            ) as client:
                _register(client)
                assert client.get_units()["registered"] is True
                assert client.get_units()["registered"] is False
        assert registry.counter("api.connections").value == 2

    def test_server_restart_between_posts_is_one_retry(self):
        source = NetworkSource(capacity=64, handshake_timeout_seconds=10.0)
        first = IngestServer(source)
        with obs.scoped() as registry, ApiClient(url=first.url) as client:
            _register(client)
            assert client.post_ticks("u0", _events("u0", 2))["accepted"] == 2
            first.close()
            with IngestServer(source, port=first.port):
                answer = client.post_ticks("u0", _events("u0", 2, start_seq=2))
        assert answer == {"accepted": 2, "stale": 0, "status": 200}
        assert registry.counter("api.connections").value == 2

    def test_push_uses_one_connection(self):
        source = NetworkSource(capacity=64, handshake_timeout_seconds=10.0)
        with IngestServer(source) as server, obs.scoped() as registry:
            stats = push_dataset(_StaticSource(12), url=server.url, batch_ticks=3)
        assert stats.batches == 4
        assert registry.counter("api.connections").value == 1
        # The posted batches, the handshake and the close.
        assert registry.counter("api.requests").value == stats.batches + 2

    def test_push_rides_a_restart_without_reconnecting(self):
        source = NetworkSource(capacity=64, handshake_timeout_seconds=10.0)
        servers = [IngestServer(source)]
        calls = []

        def provider():
            calls.append(None)
            if len(calls) == 3:  # before the second post
                servers[0].close()
                servers.append(IngestServer(source, port=servers[0].port))
            return servers[-1].url

        try:
            with obs.scoped() as registry:
                stats = push_dataset(
                    _StaticSource(12), url_provider=provider, batch_ticks=3
                )
        finally:
            for server in servers:
                server.close()
        assert len(servers) == 2
        assert stats.reconnects == 0
        assert (stats.batches, stats.accepted, stats.stale) == (4, 12, 0)
        assert registry.counter("api.connections").value == 2

    def test_exactly_one_of_url_and_provider(self):
        with pytest.raises(ValueError):
            ApiClient()
        with pytest.raises(ValueError):
            ApiClient(url="http://x", url_provider=lambda: "http://x")


class TestCliEndToEnd:
    def test_serve_ingest_port_and_push(self, tmp_path, capsys):
        archive = tmp_path / "fleet.npz"
        assert main([
            "simulate", str(archive),
            "--family", "sysbench", "--units", "2", "--ticks", "120",
            "--seed", "5",
        ]) == 0
        url_file = tmp_path / "ingest.url"
        serve_rc = {}

        def _serve():
            serve_rc["code"] = main([
                "serve", "--ingest-port", "0",
                "--ingest-url-file", str(url_file),
                "--ingest-timeout", "60",
                "--sink", "null",
                "--initial-window", "8", "--max-window", "24",
            ])

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        deadline = threading.Event()
        for _ in range(200):
            if url_file.exists() and url_file.read_text().strip():
                break
            deadline.wait(0.05)
        else:
            pytest.fail("serve never wrote the ingestion URL file")

        assert main(["push", str(archive), "--url-file", str(url_file)]) == 0
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert serve_rc["code"] == 0
        out = capsys.readouterr().out
        assert "pushed 240 ticks" in out
        assert "served 2 units" in out
        assert "240 ticks" in out

    def test_serve_rejects_both_feed_kinds(self, tmp_path, capsys):
        archive = tmp_path / "x.npz"
        main([
            "simulate", str(archive),
            "--family", "sysbench", "--units", "1", "--ticks", "60",
        ])
        capsys.readouterr()
        assert main([
            "serve", str(archive), "--ingest-port", "0",
        ]) == 2
        assert "pass one or the other" in capsys.readouterr().err

    def test_push_needs_exactly_one_endpoint(self, tmp_path, capsys):
        archive = tmp_path / "x.npz"
        assert main(["push", str(archive)]) == 2
        assert "exactly one of --url / --url-file" in capsys.readouterr().err
