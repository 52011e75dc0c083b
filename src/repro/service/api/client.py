"""HTTP client for the ingestion plane, plus the dataset push replayer.

:class:`ApiClient` is a thin stdlib (``http.client``) wrapper over the
wire schema that keeps one persistent HTTP/1.1 connection per client;
:func:`push_dataset` is the collector side of the drill story —
it replays a saved dataset against a ``serve --ingest-port`` endpoint,
honouring backpressure (sleep and re-post on 429) and reconnecting with
exponential backoff when the endpoint vanishes mid-stream (connection
refused, timeouts, 5xx).  After a reconnect it re-registers and replays
from the beginning: the server's stale accounting makes the replay
idempotent, so a warm-restarted service resumes without verdict loss.

Transport-level failures surface as :class:`TransientApiError` (worth
retrying), schema/protocol rejections as :class:`ApiError` (retrying the
same payload cannot help).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.obs import runtime as obs
from repro.service.api.wire import encode_handshake, encode_tick_batch
from repro.service.sources import ReplaySource, TickEvent

__all__ = [
    "ApiError",
    "TransientApiError",
    "ApiClient",
    "PushStats",
    "push_dataset",
]


class ApiError(RuntimeError):
    """The server rejected a request (4xx): the payload is at fault."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(f"{status} {code}: {message}")
        self.status = status
        self.code = code

    @classmethod
    def from_payload(cls, status: int, payload: Dict[str, Any]) -> "ApiError":
        error = payload.get("error", {})
        if not isinstance(error, dict):
            error = {}
        return cls(
            status,
            str(error.get("code", "unknown")),
            str(error.get("message", "unexplained error")),
        )


class TransientApiError(ApiError):
    """The transport or server failed (refused, timeout, 5xx): retry."""


class ApiClient:
    """Typed requests against one :class:`IngestServer` endpoint.

    The client holds one persistent HTTP/1.1 connection, reopened when
    the endpoint URL changes or after a transport error.  A *reused*
    connection that fails before any response byte arrives (the server
    dropped it while idle, or restarted) is retried once on a fresh
    connection; re-posting is safe because the server counts re-posted
    ticks as stale.  Requests from several threads take turns on the one
    connection — give each collector thread its own client.  Use the
    client as a context manager, or call :meth:`close`, to release it.

    Parameters
    ----------
    url:
        Base URL (``http://host:port``).
    url_provider:
        Alternative to a fixed ``url``: a zero-argument callable consulted
        before every request.  The kill drill points this at a port file
        the victim rewrites on restart, so the client follows the endpoint
        across process generations.
    timeout_seconds:
        Per-request socket timeout.
    """

    def __init__(
        self,
        url: Optional[str] = None,
        url_provider: Optional[Callable[[], str]] = None,
        timeout_seconds: float = 10.0,
    ):
        if (url is None) == (url_provider is None):
            raise ValueError("pass exactly one of url / url_provider")
        if timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        self._url = url
        self._url_provider = url_provider
        self.timeout_seconds = timeout_seconds
        self._lock = threading.Lock()
        self._conn: Optional[http.client.HTTPConnection] = None
        self._conn_url: Optional[str] = None
        self._prefix = ""  # path part of the connection's base URL

    @property
    def url(self) -> str:
        if self._url is not None:
            return self._url
        assert self._url_provider is not None
        return self._url_provider()

    def close(self) -> None:
        """Close the connection (the next request opens a fresh one)."""
        with self._lock:
            self._drop()

    def __enter__(self) -> "ApiClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _drop(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _connection(self, url: str) -> http.client.HTTPConnection:
        if self._conn is not None and self._conn_url == url:
            return self._conn
        self._drop()
        parts = urlsplit(url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"expected an http://host:port URL, got {url!r}")
        self._conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=self.timeout_seconds
        )
        self._conn_url = url
        self._prefix = parts.path.rstrip("/")
        return self._conn

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        with self._lock:
            status, raw = self._exchange(method, path, body)
        answer = self._decode(raw)
        if status >= 500:
            raise TransientApiError.from_payload(status, answer)
        return status, answer

    def _exchange(
        self, method: str, path: str, body: Optional[bytes]
    ) -> Tuple[int, bytes]:
        while True:
            conn = self._connection(self.url)
            # http.client drops the socket after a ``Connection: close``
            # answer, so a live socket here has served an earlier request.
            reused = conn.sock is not None
            responded = False
            try:
                conn.request(
                    method, self._prefix + path, body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                responded = True
                return response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                self._drop()
                # The server dropped a reused connection (idle timeout or
                # restart): retry on a fresh one, which is never reused,
                # so this retries at most once.
                if reused and not responded and isinstance(exc, ConnectionError):
                    continue
                raise TransientApiError(
                    503, "unreachable", f"{method} {path}: {exc}"
                ) from exc

    @staticmethod
    def _decode(raw: bytes) -> Dict[str, Any]:
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return {"raw": raw.decode("utf-8", errors="replace")}
        return payload if isinstance(payload, dict) else {"raw": payload}

    def _checked(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        status, answer = self._request(method, path, payload)
        if status >= 400:
            raise ApiError.from_payload(status, answer)
        return answer

    # -- collector side ----------------------------------------------------

    def register(
        self,
        units: Dict[str, int],
        kpi_names: Sequence[str],
        interval_seconds: float,
    ) -> Dict[str, Any]:
        return self._checked(
            "PUT",
            "/v1/stream",
            encode_handshake(units, kpi_names, interval_seconds),
        )

    def register_source(self, source) -> Dict[str, Any]:
        """Handshake with a :class:`TickSource`'s own fleet metadata."""
        return self.register(
            dict(source.units),
            tuple(source.kpi_names),
            float(source.interval_seconds),
        )

    def post_ticks(
        self, unit: str, events: Sequence[TickEvent], encoding: str = "json"
    ) -> Dict[str, Any]:
        """Post one batch; the answer carries ``status`` alongside counts.

        A 429 comes back as a normal answer (``status == 429`` with
        ``retry_after``) so callers implement their own pacing; other 4xx
        raise :class:`ApiError`.
        """
        status, answer = self._request(
            "POST", "/v1/ticks", encode_tick_batch(unit, events, encoding)
        )
        if status >= 400 and status != 429:
            raise ApiError.from_payload(status, answer)
        answer["status"] = status
        return answer

    def close_stream(self) -> Dict[str, Any]:
        return self._checked("POST", "/v1/stream/close")

    # -- query side --------------------------------------------------------

    def get_units(self) -> Dict[str, Any]:
        return self._checked("GET", "/v1/units")

    def get_verdicts(
        self, unit: str, limit: Optional[int] = None
    ) -> Dict[str, Any]:
        suffix = "" if limit is None else f"?limit={limit}"
        return self._checked("GET", f"/v1/units/{unit}/verdicts{suffix}")

    def get_incidents(self) -> Dict[str, Any]:
        return self._checked("GET", "/v1/incidents")

    def get_state(self) -> Dict[str, Any]:
        return self._checked("GET", "/v1/state")

    def healthz(self) -> bool:
        status, _ = self._request("GET", "/healthz")
        return status == 200


@dataclass
class PushStats:
    """What one :func:`push_dataset` call did."""

    batches: int = 0
    posted: int = 0
    accepted: int = 0
    stale: int = 0
    backpressure_waits: int = 0
    reconnects: int = 0


def push_dataset(
    dataset,
    url: Optional[str] = None,
    url_provider: Optional[Callable[[], str]] = None,
    batch_ticks: int = 32,
    max_ticks: Optional[int] = None,
    timeout_seconds: float = 10.0,
    max_reconnects: int = 8,
    backoff_seconds: float = 0.2,
    backoff_cap_seconds: float = 2.0,
    throttle_seconds: float = 0.0,
    close: bool = True,
    encoding: str = "b64",
) -> PushStats:
    """Replay a dataset over HTTP, preserving the in-process tick order.

    Batches are flushed whenever the interleaved stream switches unit (or
    ``batch_ticks`` accumulate), so the server's arrival order is exactly
    the order :class:`~repro.service.sources.ReplaySource` would deliver
    in-process — the property the golden parity test pins.  On 429 the
    client sleeps the advertised ``retry_after`` and re-posts; on a
    transient transport failure it backs off exponentially (capped),
    re-registers, and replays from the start, which the server's stale
    accounting makes idempotent.

    Parameters
    ----------
    dataset:
        A :class:`~repro.datasets.containers.Dataset`, ``.npz`` path, or
        ready :class:`~repro.service.protocols.TickSource`.
    close:
        Close the stream after the replay (ends the serving run).
    encoding:
        Sample encoding on the wire — ``"b64"`` (default, cheap for the
        server to decode) or ``"json"`` (portable nested arrays).  Both
        are bit-exact; the golden parity test pins each.
    """
    if batch_ticks < 1:
        raise ValueError("batch_ticks must be >= 1")
    if max_reconnects < 0:
        raise ValueError("max_reconnects must be >= 0")
    if backoff_seconds < 0 or backoff_cap_seconds < 0:
        raise ValueError("backoff must be >= 0")
    if throttle_seconds < 0:
        raise ValueError("throttle_seconds must be >= 0")
    if encoding not in ("json", "b64"):
        raise ValueError(f"encoding must be 'json' or 'b64', got {encoding!r}")
    from repro.datasets import Dataset  # lazy: keeps client import light

    if isinstance(dataset, (str, Path, Dataset)):
        source = ReplaySource(dataset, max_ticks=max_ticks)
    else:
        source = dataset  # already a TickSource
    client = ApiClient(
        url=url, url_provider=url_provider, timeout_seconds=timeout_seconds
    )
    stats = PushStats()

    def flush(unit: str, batch: List[TickEvent]) -> None:
        while True:
            answer = client.post_ticks(unit, batch, encoding=encoding)
            if answer["status"] == 429:
                stats.backpressure_waits += 1
                obs.counter("api.client_backpressure_waits").increment()
                time.sleep(float(answer.get("retry_after", 0.05)))
                continue
            stats.batches += 1
            stats.posted += len(batch)
            stats.accepted += int(answer.get("accepted", 0))
            stats.stale += int(answer.get("stale", 0))
            return

    def replay() -> None:
        client.register_source(source)
        unit: Optional[str] = None
        batch: List[TickEvent] = []
        for event in source:
            if batch and (event.unit != unit or len(batch) >= batch_ticks):
                flush(unit, batch)  # type: ignore[arg-type]
                batch = []
                if throttle_seconds:
                    time.sleep(throttle_seconds)
            unit = event.unit
            batch.append(event)
        if batch:
            flush(unit, batch)  # type: ignore[arg-type]
        if close:
            client.close_stream()

    attempts = 0
    with client, obs.histogram("api.push_seconds").time():
        while True:
            try:
                replay()
                return stats
            except TransientApiError:
                attempts += 1
                if attempts > max_reconnects:
                    raise
                stats.reconnects += 1
                obs.counter("api.client_reconnects").increment()
                time.sleep(
                    min(
                        backoff_seconds * 2 ** (attempts - 1),
                        backoff_cap_seconds,
                    )
                )
