"""The three workloads: one pass of the serve path each, checked and timed.

A pass is one ``DetectionService.run`` over the workload's whole fleet,
with the program at its defaults except the fields the workload names in
``spec.json``.  A run repeats passes for ``--seconds`` and reports medians.
Every pass is checked against the bundle's reference before its numbers
count.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import pickle
import resource
import shutil
import signal
import statistics
import struct
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from inputs import CACHE, SPEC, fused_dicts, service_config, verdicts
from tracer import Target, Tracer

class CheckFailed(Exception):
    """A pass produced output that differs from the reference."""


def proc_status_kb(key: str, pid: Any = "self") -> int:
    """A ``/proc/<pid>/status`` memory field, e.g. ``VmHWM`` (0 once gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak_rss() -> None:
    """Lower this process's VmHWM to its current resident set."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def cpu_seconds() -> float:
    """User+sys CPU of this process and of its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


_PROBE_INPUT = np.random.default_rng(0).standard_normal((14, 5, 40))


class _ProbeRecord:
    __slots__ = ("index", "total")

    def __init__(self, index: int, total: float):
        self.index = index
        self.total = total


def host_probe() -> float:
    """Seconds one fixed CPU kernel takes now: the host's current speed.

    The kernel is the benchmark's own (small FFT correlations, object and
    dict churn, like the serve path's mix) and never calls the program.
    """
    started = time.perf_counter()
    total = 0.0
    counts: Dict[int, int] = {}
    for i in range(2000):
        block = _PROBE_INPUT[i % 14]
        spectrum = np.fft.rfft(block - block.mean(axis=-1, keepdims=True),
                               n=64, axis=-1)
        total += float(np.fft.irfft(spectrum * spectrum.conj(), n=64).max())
        record = _ProbeRecord(i, total)
        counts[i % 97] = counts.get(i % 97, 0) + record.index
        total += sum(j * 0.5 for j in range(10))
    return time.perf_counter() - started


#: Probes the child runs before its first answer: the first few run slow.
PROBE_WARMUP = 3


class ProbeProcess:
    """Runs :func:`host_probe` on request in a process of its own.

    Forked before the program is imported, so no state the program leaves
    behind (heap, collector load, threads) can reach the probe; it is not
    a ``multiprocessing`` child, so worker sampling never sees it, and it
    is reaped when the run ends, after every CPU reading.
    """

    def __init__(self):
        ask_read, self._ask = os.pipe()
        self._answer, answer_write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # pragma: no cover - runs in the child
            os.close(self._ask)
            os.close(self._answer)
            code = 0
            try:
                for _ in range(PROBE_WARMUP):
                    host_probe()
                while os.read(ask_read, 1) == b"P":
                    os.write(answer_write, struct.pack("<d", host_probe()))
            except BaseException:
                code = 1
            os._exit(code)
        os.close(ask_read)
        os.close(answer_write)

    def measure(self) -> float:
        os.write(self._ask, b"P")
        answer = b""
        while len(answer) < 8:
            chunk = os.read(self._answer, 8 - len(answer))
            if not chunk:
                raise RuntimeError("the host probe process died")
            answer += chunk
        return struct.unpack("<d", answer)[0]

    def close(self) -> None:
        if self.pid:
            os.close(self._ask)
            os.close(self._answer)
            os.waitpid(self.pid, 0)
            self.pid = 0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


# -- tracing targets ----------------------------------------------------------


def _count_dispatched(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    batches = kwargs.get("batches", args[1] if len(args) > 1 else {})
    tracer.add("workers.ticks", sum(len(block) for block in batches.values()))


def _count_encoded(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    payload = kwargs.get("payload", args[1] if len(args) > 1 else ())
    tracer.add("transport.bytes", sum(block.nbytes for _, block in payload))


def _note_backlog(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.peak("queues.backlog_max", args[0].total_pending())


def _sample_workers(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    peak = max(
        (proc_status_kb("VmHWM", child.pid) for child in multiprocessing.active_children()),
        default=0,
    )
    tracer.peak("workers.peak_rss_kb", peak)


#: Sampled on every run, traced or not: one call per pass.
RSS_TARGETS = (
    Target("workers.stop", "repro.service.workers:ProcessWorkerPool.stop",
           timed=False, before=_sample_workers),
)

#: Each layer's entry points, at the names their callers resolve.
LAYER_TARGETS = (
    Target("scheduler.run", "repro.service.scheduler:DetectionService.run"),
    Target("queues.offer", "repro.service.queues:IngestionBridge.offer",
           after=_note_backlog),
    Target("workers.dispatch", "repro.service.workers:SerialWorkerPool.dispatch",
           after=_count_dispatched),
    Target("workers.dispatch", "repro.service.workers:ProcessWorkerPool.dispatch",
           after=_count_dispatched),
    Target("transport.encode", "repro.service.transport:PickleTickTransport.encode",
           after=_count_encoded, timed=False),
    Target("transport.encode", "repro.service.transport:ShmTickTransport.encode",
           after=_count_encoded, timed=False),
    Target("detector.process", "repro.core.detector:DBCatcher.process"),
    Target("engine.matrices", "repro.engine.batched:BatchedEngine.matrices"),
    Target("engine.matrices", "repro.engine.reference:ReferenceEngine.matrices"),
    Target("levels.calculate", "repro.core.detector:calculate_levels"),
    Target("window.decide", "repro.core.window:FlexibleWindow.decide"),
    Target("window.expand", "repro.core.window:FlexibleWindow.expanded_size"),
    Target("api.parse", "repro.service.api.server:parse_tick_batch"),
    Target("persist.append", "repro.persist.store:UnitStore.append_rounds"),
    Target("persist.snapshot", "repro.persist.store:UnitStore.write_snapshot"),
    Target("persist.export",
           "repro.service.workers:SerialWorkerPool.export_persist_states"),
    Target("persist.export",
           "repro.service.workers:ProcessWorkerPool.export_persist_states"),
    Target("alerts.publish", "repro.service.alerts:AlertPipeline.publish"),
    Target("rca.process", "repro.rca.analyzer:RootCauseAnalyzer.process"),
    Target("logs.ingest", "repro.logs.channel:LogChannel.ingest"),
    Target("ensemble.fuse", "repro.logs.channel:LogChannel.fuse"),
)


# -- sources ------------------------------------------------------------------


class _Fleet:
    """Fleet metadata every source below shares."""

    def __init__(self, dataset):
        self.dataset = dataset
        self.unit_index = {unit.name: i for i, unit in enumerate(dataset.units)}

    @property
    def units(self) -> Dict[str, int]:
        return {unit.name: unit.n_databases for unit in self.dataset.units}

    @property
    def kpi_names(self):
        return self.dataset.kpi_names

    @property
    def interval_seconds(self) -> float:
        return self.dataset.units[0].interval_seconds


class EmptySource(_Fleet):
    """Ends at its first pull: ``run()`` over it measures set-up alone."""

    first_pull: Optional[float] = None

    def __iter__(self):
        self.first_pull = time.perf_counter()
        return
        yield  # pragma: no cover - makes this a generator


class TimedSource(_Fleet):
    """Wraps a tick source: stamps each pull, spans it when traced.

    ``offered[unit][seq]`` is when tick ``seq`` of ``unit`` was offered to
    the service: its pull time here, unless the workload stamps it earlier
    (the HTTP client stamps the post, the open loop the due time).
    """

    def __init__(self, dataset, inner, tracer: Optional[Tracer] = None,
                 stamp: bool = True,
                 on_first_pull: Optional[Callable[[], None]] = None):
        super().__init__(dataset)
        self._inner = inner
        self._tracer = tracer
        self._stamp = stamp
        self._on_first_pull = on_first_pull
        self.first_pull: Optional[float] = None
        self.offered = [np.zeros(unit.n_ticks) for unit in dataset.units]

    def __iter__(self):
        self.first_pull = time.perf_counter()
        if self._on_first_pull is not None:
            self._on_first_pull()
        iterator = iter(self._inner)
        tracer = self._tracer
        while True:
            index = tracer.begin("source.next") if tracer is not None else -1
            try:
                event = next(iterator)
            except StopIteration:
                return
            finally:
                if tracer is not None:
                    tracer.end(index)
            if self._stamp:
                self.offered[self.unit_index[event.unit]][event.seq] = (
                    time.perf_counter()
                )
            yield event


class OpenLoopSource(_Fleet):
    """Yields tick ``k`` of the interleaved fleet at ``t0 + k / rate``.

    Never early; late when the service stalls the pull.  Lateness and the
    due-but-unyielded backlog are recorded per tick.
    """

    def __init__(self, dataset, logbooks, rate: float):
        super().__init__(dataset)
        self._books = logbooks or {}
        self._rate = float(rate)
        #: ``due[unit][seq]``: when the schedule offered that tick.
        self.due = [np.zeros(unit.n_ticks) for unit in dataset.units]
        n_ticks = sum(unit.n_ticks for unit in dataset.units)
        self.late = np.zeros(n_ticks)
        self.backlog = np.zeros(n_ticks, dtype=np.int64)

    def __iter__(self):
        from repro.service.sources import TickEvent

        units = self.dataset.units
        t0 = time.perf_counter()
        k = 0
        for t in range(max(unit.n_ticks for unit in units)):
            for u, unit in enumerate(units):
                if t >= unit.n_ticks:
                    continue
                due = t0 + k / self._rate
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                    now = time.perf_counter()
                self.late[k] = now - due
                self.backlog[k] = int((now - t0) * self._rate) - k
                self.due[u][t] = due
                book = self._books.get(unit.name)
                k += 1
                yield TickEvent(
                    unit=unit.name,
                    seq=t,
                    sample=unit.values[:, :, t],
                    logs=book.get(t, ()) if book else (),
                )


# -- the HTTP client ------------------------------------------------------------


@dataclass
class ClientStats:
    post_ms: List[float] = field(default_factory=list)
    refused: int = 0
    bytes: int = 0
    first_post: Optional[float] = None
    #: ``perf_counter`` at the first attempt of each body, in posting order.
    body_sent: List[float] = field(default_factory=list)
    error: Optional[str] = None


def _exchange(conn: http.client.HTTPConnection, method: str, path: str,
              body: bytes):
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def _post_all(bundle, port: int, go: int, out: int, stats: ClientStats) -> None:
    """Closed-loop collector: handshake, every body in order, close.

    Reads the go byte from ``go`` after the handshake (the service has
    started pulling) and writes ``R`` to ``out`` once registered.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        status, answer = _exchange(conn, "PUT", "/v1/stream", bundle["handshake"])
        if status not in (200, 201):
            raise CheckFailed(f"handshake answered {status}: {answer[:200]!r}")
        os.write(out, b"R")
        if os.read(go, 1) != b"G":
            raise CheckFailed("the service never started pulling")
        for _, _, body in bundle["bodies"]:
            attempt = 0
            while True:
                started = time.perf_counter()
                if stats.first_post is None:
                    stats.first_post = started
                if attempt == 0:
                    stats.body_sent.append(started)
                attempt += 1
                status, answer = _exchange(conn, "POST", "/v1/ticks", body)
                stats.post_ms.append((time.perf_counter() - started) * 1e3)
                stats.bytes += len(body)
                if status == 429:
                    stats.refused += 1
                    time.sleep(float(json.loads(answer).get("retry_after", 0.05)))
                    continue
                if status != 200:
                    raise CheckFailed(f"POST /v1/ticks answered {status}: {answer[:200]!r}")
                break
        status, answer = _exchange(conn, "POST", "/v1/stream/close", b"{}")
        if status != 200:
            raise CheckFailed(f"close answered {status}: {answer[:200]!r}")
    finally:
        conn.close()


class ClientProcess:
    """The HTTP collector, forked into a process of its own.

    Its CPU time, memory and share of the interpreter lock stay out of the
    measured process: it is forked before the pass starts any thread, it
    is not a ``multiprocessing`` child (so worker sampling never sees it),
    and it is reaped only after the pass's CPU time is read.  Pipes carry
    the server's port and the go signal in, and ``R`` then the pickled
    :class:`ClientStats` out.
    """

    def __init__(self, bundle):
        go_read, self._go = os.pipe()
        self._out, out_write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # pragma: no cover - runs in the child
            os.close(self._go)
            os.close(self._out)
            _client_child(bundle, go_read, out_write)
        os.close(go_read)
        os.close(out_write)
        self.registered = threading.Event()
        self.stats: Optional[ClientStats] = None
        self._reader: Optional[threading.Thread] = None

    def start(self, port: int, on_error: Callable[[], None]) -> None:
        """Send the port; a reader thread then waits for the child's output."""
        os.write(self._go, port.to_bytes(4, "little"))
        self._reader = threading.Thread(
            target=self._read, args=(on_error,), name="perfbench-client-reader",
            daemon=True,
        )
        self._reader.start()

    def _read(self, on_error: Callable[[], None]) -> None:
        chunks = []
        first = os.read(self._out, 1)
        if first == b"R":
            self.registered.set()
        elif first:
            chunks.append(first)
        while True:
            chunk = os.read(self._out, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
        os.close(self._out)
        try:
            self.stats = pickle.loads(b"".join(chunks))
        except Exception as exc:
            self.stats = ClientStats(error=f"client exited without stats: {exc!r}")
        self.registered.set()
        if self.stats.error is not None:
            on_error()  # the stream must end, or the service waits forever

    def go(self) -> None:
        os.write(self._go, b"G")

    def finish(self, timeout: float = 60) -> ClientStats:
        """Wait for the child's stats, then reap it."""
        if self._reader is not None:
            self._reader.join(timeout=timeout)
        self.close()
        if self.stats is None:
            self.stats = ClientStats(error="client never reported")
        return self.stats

    def close(self) -> None:
        if self.pid:
            try:
                os.close(self._go)
            except OSError:
                pass
            if self._reader is None or self._reader.is_alive():
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            if self._reader is None:
                os.close(self._out)
            self.pid = 0


def _client_child(bundle, go: int, out: int) -> None:  # pragma: no cover
    stats = ClientStats()
    code = 0
    try:
        port = int.from_bytes(os.read(go, 4), "little")
        _post_all(bundle, port, go, out, stats)
    except BaseException as exc:
        stats.error = repr(exc)
        code = 1
    try:
        payload = memoryview(pickle.dumps(stats))
        while payload:
            payload = payload[os.write(out, payload):]
    except BaseException:
        code = 2
    os._exit(code)


# -- one pass -------------------------------------------------------------------


@dataclass
class Pass:
    setup_s: float
    e2e_s: float
    cpu_s: float
    points: int
    offered: int
    failed: int
    report: Any
    latency_ms: List[float]
    f_measure: float = 0.0
    #: Host speed around the pass: the reference probe time over the mean
    #: of the probes run just before and just after it.
    speed: float = 1.0
    late_ms: List[float] = field(default_factory=list)
    client: Optional[ClientStats] = None
    persist_bytes: int = 0


class Workload:
    """One named workload over one seed's bundle."""

    def __init__(self, name: str, bundle: Dict[str, Any]):
        from repro.presets import default_config

        self.name = name
        self.spec = SPEC["workloads"][name]
        self.bundle = bundle
        self.dataset = bundle["dataset"]
        self.config = default_config()
        units = self.dataset.units
        self.points_per_pass = sum(
            unit.n_databases * unit.n_kpis * unit.n_ticks for unit in units
        )
        self.ticks_per_pass = sum(unit.n_ticks for unit in units)

    # -- pieces shared by every pass ----------------------------------------

    def _service(self, state_dir, listener, extra_sinks=()):
        from repro.service import DetectionService

        return DetectionService(
            self.config,
            service_config=service_config(self.spec, state_dir),
            sinks=tuple(self.spec["sinks"]) + tuple(extra_sinks),
            rca=self.spec["rca"],
            result_listener=listener,
        )

    def _state_dir(self) -> Optional[str]:
        if "state_dir" not in self.spec["service_config"]:
            return None
        root = CACHE / "state"
        root.mkdir(parents=True, exist_ok=True)
        return tempfile.mkdtemp(prefix=f"{self.name}-", dir=root)

    def setup_probe(self) -> float:
        """``run()`` over an empty source: the service's set-up time."""
        state_dir = self._state_dir()
        try:
            source = EmptySource(self.dataset)
            service = self._service(state_dir, None)
            called = time.perf_counter()
            service.run(source)
            return source.first_pull - called
        finally:
            if state_dir is not None:
                shutil.rmtree(state_dir, ignore_errors=True)

    def run_pass(self, tracer: Optional[Tracer] = None) -> Pass:
        state_dir = self._state_dir()
        try:
            return self._run_pass(state_dir, tracer)
        finally:
            if state_dir is not None:
                shutil.rmtree(state_dir, ignore_errors=True)

    def _run_pass(self, state_dir, tracer: Optional[Tracer]) -> Pass:
        from repro.service import ReplaySource

        kind = self.name
        client = server = network = None
        extra_sinks: tuple = ()
        chain: Optional[Callable] = None
        if kind == "http-pool":
            from repro.service.api import ApiState, IngestServer, NetworkSource

            # Forked first, while this process runs no thread of the pass.
            client = ClientProcess(self.bundle)
            cfg = service_config(self.spec)
            network = NetworkSource(
                capacity=cfg.ingest_capacity,
                retry_after_seconds=cfg.ingest_retry_after_seconds,
            )
            view = ApiState()
            server = IngestServer(network, view=view, max_batch=cfg.ingest_max_batch)
            source = TimedSource(self.dataset, network, tracer, stamp=False,
                                 on_first_pull=client.go)
            extra_sinks = (view,)
            chain = view.record_result
        elif kind == "live-faults":
            loop = OpenLoopSource(
                self.dataset, self.bundle["logbooks"],
                self.spec["rate_ticks_per_s"],
            )
            source = TimedSource(self.dataset, loop, tracer, stamp=False)
            source.offered = loop.due
        else:
            source = TimedSource(
                self.dataset, ReplaySource(self.dataset), tracer
            )

        # (unit index, last contributing tick, callback time) per round;
        # latencies are computed once the offer times are all known.
        verdicts_at: List[tuple] = []
        unit_index = source.unit_index

        def listener(unit, result) -> None:
            now = time.perf_counter()
            if chain is not None:
                chain(unit, result)
            index = tracer.begin("bench.listener") if tracer is not None else -1
            verdicts_at.append((unit_index[unit], result.end - 1, now))
            if tracer is not None:
                tracer.end(index)

        service = self._service(state_dir, listener, extra_sinks)
        try:
            if client is not None:
                client.start(server.port, on_error=network.close_stream)
                if not client.registered.wait(timeout=120):
                    raise CheckFailed("the client never registered its stream")
                if client.stats is not None and client.stats.error is not None:
                    raise CheckFailed(f"client failed: {client.stats.error}")
            cpu_before = cpu_seconds()
            called = time.perf_counter()
            report = service.run(source)
            cpu_s = cpu_seconds() - cpu_before
            stats = client.finish() if client is not None else None
        finally:
            if client is not None:
                network.close_stream()
                client.close()
            if server is not None:
                server.close()
        if stats is not None:
            if stats.error is not None:
                raise CheckFailed(f"client failed: {stats.error}")
            posted = {name: 0 for name in unit_index}
            for (unit, n_ticks, _), sent in zip(
                self.bundle["bodies"], stats.body_sent
            ):
                first = posted[unit]
                source.offered[unit_index[unit]][first:first + n_ticks] = sent
                posted[unit] += n_ticks
        started = stats.first_post if stats is not None else source.first_pull
        offered = source.offered
        latency = [
            (now - offered[unit][tick]) * 1e3 for unit, tick, now in verdicts_at
        ]
        persist_bytes = 0
        if state_dir is not None:
            persist_bytes = sum(
                path.stat().st_size
                for path in Path(state_dir).rglob("*") if path.is_file()
            )
        offered_ticks = self.ticks_per_pass
        failed = (
            max(offered_ticks - report.ticks_ingested, 0)
            + report.ticks_dropped + report.ticks_lost + report.ticks_stale
        )
        result = Pass(
            setup_s=source.first_pull - called,
            e2e_s=verdicts_at[-1][2] - started,
            cpu_s=cpu_s,
            points=self.points_per_pass,
            offered=offered_ticks,
            failed=failed,
            report=report,
            latency_ms=latency,
            client=stats,
            persist_bytes=persist_bytes,
        )
        if kind == "live-faults":
            result.late_ms = list(loop.late * 1e3)
            self._check_backlog(loop.backlog)
        self.check(report)
        result.f_measure = self.f_measure(report)
        return result

    # -- checks ----------------------------------------------------------------

    def check(self, report) -> None:
        """Raise :class:`CheckFailed` unless the pass equals the reference."""
        reference = self.bundle["reference"]
        got = {name: verdicts(results) for name, results in report.results.items()}
        for name, expected in reference.items():
            actual = got.get(name, [])
            if actual != expected:
                at = next(
                    (i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
                    min(len(actual), len(expected)),
                )
                raise CheckFailed(
                    f"verdicts of {name} differ from DBCatcher.process at round "
                    f"{at} ({len(actual)} rounds against {len(expected)})"
                )
        service_ref = self.bundle.get("reference_service")
        if service_ref is not None:
            alerts = [alert.to_dict() for alert in report.alerts]
            if alerts != service_ref["alerts"]:
                raise CheckFailed("alerts differ from the in-process ReplaySource run")
            fused = {
                name: fused_dicts(rounds)
                for name, rounds in report.fused_verdicts.items()
            }
            if fused != service_ref["fused"]:
                raise CheckFailed(
                    "fused verdicts differ from the in-process ReplaySource run"
                )

    def _check_backlog(self, backlog: np.ndarray) -> None:
        quarter = len(backlog) // 4
        if quarter == 0:
            return
        first = float(np.median(backlog[:quarter]))
        last = float(np.median(backlog[-quarter:]))
        slack = len(self.dataset.units) * service_config(self.spec).batch_ticks
        if last > first + slack:
            raise CheckFailed(
                f"open-loop backlog grew from {first:.0f} to {last:.0f} ticks: "
                f"the service does not sustain {self.spec['rate_ticks_per_s']} ticks/s"
            )

    # -- scoring -------------------------------------------------------------

    def f_measure(self, report) -> float:
        """Segment-adjusted F-Measure of the pass's (fused) verdicts."""
        from repro.eval.adjust import adjusted_confusion_from_spans
        from repro.eval.metrics import ConfusionCounts, scores_from_confusion

        total = ConfusionCounts()
        for unit in self.dataset.units:
            results = report.results[unit.name]
            fused = report.fused_verdicts.get(unit.name)
            per_db: Dict[int, tuple] = {}
            for index, result in enumerate(results):
                flagged = (
                    set(fused[index].combined) if fused is not None
                    else set(result.abnormal_databases)
                )
                for db, record in result.records.items():
                    spans, flags = per_db.setdefault(db, ([], []))
                    spans.append((record.window_start, record.window_end))
                    flags.append(db in flagged)
            for db, (spans, flags) in sorted(per_db.items()):
                total = total + adjusted_confusion_from_spans(
                    spans, np.array(flags, dtype=bool), unit.labels[db]
                )
        return float(scores_from_confusion(total).f_measure)


# -- a run ------------------------------------------------------------------------


def cpu_per_mpoint(one: Pass) -> float:
    return one.cpu_s / (one.points / 1e6)


def end_to_end_metrics(passes: List[Pass], setups: List[float],
                       peak_rss_kb: float, per_pass_percentiles: bool,
                       exponents: Optional[Dict[str, int]] = None) -> Dict[str, float]:
    """The run's end-to-end metrics.

    Latency percentiles are taken per pass and their median reported when
    ``per_pass_percentiles`` is set, else over the samples of all passes
    pooled.  ``exponents`` names the metrics that follow host speed and
    how: each pass's value (each latency sample, for the percentiles) is
    divided by its ``speed ** exponent`` (a rate has exponent 1, a time
    -1), so it reads at the reference host's speed.  Without it the values
    are as measured.
    """
    exponents = exponents or {}

    def at_reference(key: str, value: float, one: Pass) -> float:
        return value / one.speed ** exponents.get(key, 0)

    def latency(key: str, q: float) -> float:
        def samples(group: List[Pass]) -> List[float]:
            return [at_reference(key, x, p) for p in group for x in p.latency_ms]

        if per_pass_percentiles:
            return statistics.median(percentile(samples([p]), q) for p in passes)
        return percentile(samples(passes), q)

    return {
        "throughput_pps": statistics.median(
            at_reference("throughput_pps", p.points / p.e2e_s, p) for p in passes
        ),
        "verdict_p50_ms": latency("verdict_p50_ms", 50),
        "verdict_p99_ms": latency("verdict_p99_ms", 99),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "cpu_s_per_mpoint": statistics.median(
            at_reference("cpu_s_per_mpoint", cpu_per_mpoint(p), p) for p in passes
        ),
        "f_measure": passes[0].f_measure,
    }


def layer_metrics(one: Pass, tracer: Tracer, since: int) -> Dict[str, float]:
    stats = tracer.layer_seconds(since)
    counts = tracer.counts

    def calls(*names: str) -> float:
        return sum(stats.get(name, {}).get("calls", 0.0) for name in names)

    def own(*names: str) -> float:
        return sum(stats.get(name, {}).get("self_s", 0.0) for name in names)

    report = one.report
    rounds = float(report.rounds_completed)
    dispatches = calls("workers.dispatch")
    client = one.client or ClientStats()
    return {
        "engine.calls": calls("engine.matrices"),
        "engine.self_s": own("engine.matrices"),
        "levels.calls": calls("levels.calculate"),
        "levels.self_s": own("levels.calculate"),
        "window.calls": calls("window.decide", "window.expand"),
        "window.self_s": own("window.decide", "window.expand"),
        "detector.rounds": rounds,
        "detector.evaluations_per_round": (
            calls("engine.matrices") / rounds if rounds else 0.0
        ),
        "detector.self_s": own("detector.process"),
        "api.posts": float(len(client.post_ms)),
        "api.post_ms_p50": percentile(client.post_ms, 50),
        "api.post_ms_p99": percentile(client.post_ms, 99),
        "api.parse_s": own("api.parse"),
        "api.refused": float(client.refused),
        "api.bytes": float(client.bytes),
        "workers.dispatches": dispatches,
        "workers.dispatch_s": own("workers.dispatch"),
        "workers.ticks_per_dispatch": (
            counts.get("workers.ticks", 0.0) / dispatches if dispatches else 0.0
        ),
        "workers.busy_s": float(sum(report.component_seconds.values())),
        "transport.bytes": counts.get("transport.bytes", 0.0),
        "queues.offers": calls("queues.offer"),
        "queues.offer_s": own("queues.offer"),
        "queues.backlog_max": counts.get("queues.backlog_max", 0.0),
        "queues.dropped": float(report.ticks_dropped),
        "scheduler.self_s": own("scheduler.run"),
        "persist.append_s": own("persist.append"),
        "persist.snapshot_s": own("persist.snapshot", "persist.export"),
        "persist.snapshots": calls("persist.snapshot"),
        "persist.bytes": float(one.persist_bytes),
        "alerts.publish_s": own("alerts.publish"),
        "alerts.emitted": float(report.alerts_emitted),
        "rca.process_s": own("rca.process"),
        "logs.ingest_s": own("logs.ingest"),
        "ensemble.fuse_s": own("ensemble.fuse"),
        "loadgen.ticks_offered": float(one.offered),
        "loadgen.late_p99_ms": percentile(one.late_ms, 99),
    }
