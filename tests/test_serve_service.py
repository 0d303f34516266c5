"""The HTTP scoring service: routing, endpoints, reload semantics."""

from __future__ import annotations

import http.client
import io
import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs.metrics import get_registry
from repro.serve import ModelBundle, ModelRegistry, ScoringService, make_server
from repro.serve.service import _Handler


@pytest.fixture(scope="module")
def service(small_store, small_predictor, tmp_path_factory):
    registry_root = tmp_path_factory.mktemp("serve") / "registry"
    registry = ModelRegistry(registry_root)
    registry.publish(
        ModelBundle(predictor=small_predictor, meta={"gen": 1}), activate=True
    )
    registry.publish(
        ModelBundle(predictor=small_predictor, meta={"gen": 2}), activate=True
    )
    return ScoringService(small_store.root, registry_root, shard_size=500)


class TestRouting:
    """Drive the service directly (no sockets) through dispatch_request."""

    def test_healthz(self, service, small_store):
        status, payload = service.dispatch_request("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model_version"] == "v0002"
        assert payload["latest_week"] == small_store.latest_week

    def test_dispatch_defaults_to_latest_week(
        self, service, small_predictor, small_result, small_store
    ):
        status, payload = service.dispatch_request("GET", "/dispatch")
        assert status == 200
        assert payload["week"] == small_store.latest_week
        expected = small_predictor.predict_top(
            small_result, small_store.latest_week
        )
        assert payload["line_ids"] == [int(i) for i in expected]
        assert payload["model_version"] == "v0002"

    def test_score_single_line(self, service, small_store):
        week = small_store.latest_week
        status, dispatch = service.dispatch_request("GET", "/dispatch")
        best = dispatch["line_ids"][0]
        status, payload = service.dispatch_request(
            "GET", f"/score?line={best}&week={week}"
        )
        assert status == 200
        assert payload["p_ticket"] == pytest.approx(dispatch["scores"][0])

    def test_metrics_track_requests_and_throughput(self, service):
        service.dispatch_request("GET", "/dispatch")
        status, payload = service.dispatch_request("GET", "/metrics")
        assert status == 200
        assert payload["requests"]["/dispatch"] >= 1
        assert payload["lines_scored"] > 0
        assert payload["mean_lines_per_sec"] > 0
        assert payload["model_version"] == "v0002"

    def test_error_statuses(self, service):
        cases = {
            "/score": 400,                      # missing line param
            "/score?line=abc": 400,             # non-integer
            "/score?line=10&week=9999": 404,    # unknown week
            "/score?line=-1": 404,              # out of range
            "/dispatch?capacity=-2": 400,
            "/locate?line=5": 409,              # bundle has no locator
            "/unknown": 404,
        }
        for path, expected in cases.items():
            status, payload = service.dispatch_request("GET", path)
            assert status == expected, path
            assert "error" in payload

    def test_lifecycle_status_route(self, service):
        status, payload = service.dispatch_request("GET", "/lifecycle")
        assert status == 200
        assert payload["active_version"] == service.model_version
        assert payload["versions"] == ["v0001", "v0002"]
        # No controller has run against this registry: the decision log
        # is empty (and trivially valid), but the registry's own event
        # trail already shows the publishes and activations.
        assert payload["decisions"] == []
        assert payload["chain_valid"] is True
        events = [e["action"] for e in payload["registry_events"]]
        assert "publish" in events and "activate" in events

    def test_health_reports_slo_status(self, service, small_store):
        service.dispatch_request("GET", "/dispatch")
        status, payload = service.dispatch_request("GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["model_version"] == service.model_version
        assert payload["latest_week"] == small_store.latest_week
        names = {o["name"] for o in payload["objectives"]}
        assert names == {"score_latency", "dispatch_latency", "availability"}

    def test_unknown_routes_do_not_burn_error_budget(self, service):
        before = service.slo_monitor._pending_observations
        status, _ = service.dispatch_request("GET", "/favicon.ico")
        assert status == 404
        assert service.slo_monitor._pending_observations == before

    def test_known_routes_feed_the_slo_monitor(self, service):
        before = service.slo_monitor._pending_observations
        service.dispatch_request("GET", "/healthz")
        assert service.slo_monitor._pending_observations == before + 1

    def test_unexpected_errors_answer_500_and_burn_budget(
        self, service, monkeypatch
    ):
        def broken(self, query):
            raise RuntimeError("disk on fire")

        monkeypatch.setitem(ScoringService._GET_ROUTES, "/healthz", broken)
        errors = get_registry().counter("repro_http_errors_total")
        before = errors.value(route="/healthz", status="500")
        monitor = service.slo_monitor
        bad_before = (monitor._pending_total["availability"]
                      - monitor._pending_good["availability"])
        status, payload = service.dispatch_request("GET", "/healthz")
        assert status == 500
        assert payload == {"error": "internal error: RuntimeError"}
        assert errors.value(route="/healthz", status="500") == before + 1
        bad_after = (monitor._pending_total["availability"]
                     - monitor._pending_good["availability"])
        assert bad_after == bad_before + 1

    def test_client_errors_are_counted_by_status(self, service):
        errors = get_registry().counter("repro_http_errors_total")
        before = errors.value(route="/score", status="400")
        status, _ = service.dispatch_request("GET", "/score?line=abc")
        assert status == 400
        assert errors.value(route="/score", status="400") == before + 1

    def test_reload_follows_rollback(self, service):
        assert service.model_version == "v0002"
        service.registry.rollback()
        status, payload = service.dispatch_request("POST", "/reload")
        assert status == 200
        assert payload["model_version"] == "v0001"
        assert service.model_version == "v0001"
        # restore for other tests in this module
        service.registry.activate("v0002")
        service.reload()


class TestErrorMapping:
    """A 400 only ever comes from a handler's explicit client-error check."""

    @pytest.mark.parametrize("exc", [KeyError("feature"), ValueError("shape")])
    def test_handler_bugs_answer_a_logged_500(self, service, monkeypatch, exc):
        def broken(self, query):
            raise exc

        monkeypatch.setitem(ScoringService._GET_ROUTES, "/score", broken)
        records = []

        class _Keep(logging.Handler):
            def emit(self, record):
                records.append(record)

        handler = _Keep(level=logging.ERROR)
        logger = logging.getLogger("repro.serve.service")
        logger.addHandler(handler)
        errors = get_registry().counter("repro_http_errors_total")
        before_500 = errors.value(route="/score", status="500")
        before_400 = errors.value(route="/score", status="400")
        try:
            status, payload = service.dispatch_request("GET", "/score?line=1")
        finally:
            logger.removeHandler(handler)
        assert status == 500
        assert payload == {"error": f"internal error: {type(exc).__name__}"}
        assert errors.value(route="/score", status="500") == before_500 + 1
        assert errors.value(route="/score", status="400") == before_400
        assert len(records) == 1 and records[0].exc_info is not None

    @pytest.mark.parametrize("path", [
        "/score?line=abc",
        "/score?line=1&week=x",
        "/explain?line=1&top=abc",
        "/explain?line=1&top=0",
        "/dispatch?capacity=abc",
        "/dispatch?capacity=-1",
        "/dispatch?explain=1&top=0",
        "/triage?capacity=abc",
        "/triage?capacity=0",
        "/locate?line=abc",
        "/locate?line=1&top=0",
        "/locate?line=1&top=-3",
        "/locate?lines=a,b",
        "/locate?lines=",
    ])
    def test_malformed_input_answers_400(self, service, path):
        status, payload = service.dispatch_request("GET", path)
        assert status == 400, path
        assert "error" in payload


class _RecordingSocket:
    """A connection that replays raw requests and records every send."""

    def __init__(self, raw: bytes):
        self._raw = raw
        self.sends: list[bytes] = []
        self.options: list[tuple] = []

    def makefile(self, mode, *args, **kwargs):
        assert "r" in mode, "responses must not go through a socket file"
        return io.BytesIO(self._raw)

    def setsockopt(self, *option):
        self.options.append(option)

    def sendall(self, data):
        self.sends.append(bytes(data))

    def send(self, data):  # pragma: no cover - a second send path
        raise AssertionError("responses must leave through one sendall")


def _split_responses(data: bytes) -> list[tuple[int, bytes]]:
    """(status, body) of each HTTP response in ``data``."""
    out = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        length = next(
            int(line.split(b":", 1)[1])
            for line in lines
            if line.lower().startswith(b"content-length:")
        )
        out.append((int(lines[0].split()[1]), rest[:length]))
        data = rest[length:]
    return out


class TestOneWritePerResponse:
    """Headers and body leave in one write, with Nagle off."""

    def test_json_text_and_error_routes(self, service):
        targets = [
            "/score?line=3",                 # JSON
            "/metrics?format=prometheus",    # text, several KB
            "/score?line=abc",               # 400
            "/nowhere",                      # 404, unknown route
        ]
        raw = b"".join(
            f"GET {t} HTTP/1.1\r\nHost: test\r\n\r\n".encode()
            for t in targets
        )
        sock = _RecordingSocket(raw)
        handler = type("Bound", (_Handler,), {"service": service})
        handler(sock, ("127.0.0.1", 0), None)
        assert len(sock.sends) == len(targets)
        statuses = []
        for sent in sock.sends:
            responses = _split_responses(sent)
            assert len(responses) == 1  # the whole response, nothing else
            statuses.append(responses[0][0])
        assert statuses == [200, 200, 400, 404]
        assert b"repro_http_requests_total" in sock.sends[1]
        assert (socket.IPPROTO_TCP, socket.TCP_NODELAY, True) in sock.options

    def test_malformed_request_is_one_write(self, service):
        # Rejected by the stdlib handler (send_error), before any route
        # runs: the error page is flushed as one write too.
        sock = _RecordingSocket(b"BREW /pot HTTP/1.1\r\n\r\n")
        handler = type("Bound", (_Handler,), {"service": service})
        handler(sock, ("127.0.0.1", 0), None)
        assert len(sock.sends) == 1
        [(status, body)] = _split_responses(sock.sends[0])
        assert status == 501 and body


class TestHttpServer:
    def test_keepalive_reads_do_not_stall(self, service):
        # Nagle plus the client's delayed ACK held a split header/body
        # response ~40 ms, so 20 back-to-back reads took >= 0.8 s.
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=30
        )
        try:
            conn.request("GET", "/score?line=0")  # open + warm the week
            assert conn.getresponse().read()
            t0 = time.perf_counter()
            for i in range(20):
                conn.request("GET", f"/score?line={i}")
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read())
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
        assert elapsed < 0.4, f"20 keep-alive reads took {elapsed:.3f}s"

    def test_500_keeps_the_connection(self, service, monkeypatch):
        def broken(self, query):
            raise RuntimeError("boom")

        monkeypatch.setitem(ScoringService._GET_ROUTES, "/health", broken)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=30
        )
        try:
            conn.request("GET", "/health")
            response = conn.getresponse()
            assert response.status == 500
            assert "error" in json.loads(response.read())
            conn.request("GET", "/healthz")  # same connection
            assert conn.getresponse().status == 200
        finally:
            conn.close()
            server.shutdown()
            server.server_close()

    def test_endpoints_over_real_http(self, service):
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            with urllib.request.urlopen(base + "/healthz", timeout=30) as r:
                assert r.status == 200
                assert r.headers["Cache-Control"] == "no-store"
                assert r.headers["Content-Type"] == (
                    "application/json; charset=utf-8"
                )
                health = json.load(r)
            assert health["status"] == "ok"
            with urllib.request.urlopen(base + "/health", timeout=30) as r:
                assert r.status == 200
                assert r.headers["Cache-Control"] == "no-store"
                slo_health = json.load(r)
            assert slo_health["status"] == "ok"
            prom = base + "/metrics?format=prometheus"
            with urllib.request.urlopen(prom, timeout=30) as r:
                assert r.headers["Cache-Control"] == "no-store"
                assert r.headers["Content-Type"] == (
                    "text/plain; version=0.0.4; charset=utf-8"
                )
                assert b"repro_http_requests_total" in r.read()
            trace = base + "/trace?format=text"
            with urllib.request.urlopen(trace, timeout=30) as r:
                assert r.headers["Cache-Control"] == "no-store"
                assert r.headers["Content-Type"] == (
                    "text/plain; charset=utf-8"
                )
            with urllib.request.urlopen(base + "/dispatch", timeout=30) as r:
                over_http = json.load(r)
            _, direct = service.dispatch_request("GET", "/dispatch")
            assert over_http["line_ids"] == direct["line_ids"]
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(base + "/score", timeout=30)
            assert err.value.code == 400
        finally:
            server.shutdown()
            server.server_close()

    def test_service_requires_an_active_version(self, small_store, tmp_path):
        ModelRegistry(tmp_path / "empty")  # initialised, nothing published
        with pytest.raises(RuntimeError, match="active"):
            ScoringService(small_store.root, tmp_path / "empty")
