"""HTTP ingestion overhead on the serving path.

The network plane is only deployable if transport is nearly free: JSON
parsing, schema validation, and queue admission all run on HTTP handler
threads that contend with detection for the same interpreter.  This
bench serves the same fleet twice — an in-process :class:`ReplaySource`
run, and a full ``push → POST /v1/ticks → NetworkSource`` replay over
real sockets — and gates the ingestion overhead at <=5%
(``REPRO_BENCH_API_MAX_OVERHEAD`` overrides it).

The gated number is measured *within* the networked run: the server
times the CPU cost of every ``POST /v1/ticks`` (JSON decode, wire
validation, queue admission — the socket read is off-GIL transport wait
and is excluded) on the ``api.ingest_seconds`` histogram, and the
overhead ratio is ``total / (total - ingest_seconds)`` — how much
slower serving was than if ingestion had been free, both terms from the
same run.  Cross-run wall clocks are printed for trend reading but
never gated: on a shared 1-CPU host their jitter dwarfs the
few-percent effect under test.

Sizing mirrors the persist bench: ingest cost scales with the cells a
tick *carries* while detection cost scales with pairwise correlation
work, so the honest ratio depends on unit density — 32 databases per
unit, cloud units being clusters, not handfuls.

Verdicts must be identical across transports — the wire codec's
bit-exact float round-trip makes strict equality, not a tolerance, the
right assertion here.
"""

import os
import threading
import time

from repro.datasets import Dataset, build_unit_series
from repro.eval.tables import render_table
from repro.obs import runtime as obs
from repro.presets import default_config
from repro.service import DetectionService, ReplaySource
from repro.service.api import IngestServer, NetworkSource, push_dataset

from _shared import BENCH_TICKS, BENCH_UNITS, record_bench_result

MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_API_MAX_OVERHEAD", "1.05"))
REPEATS = 3
N_DATABASES = 32
UNITS = min(BENCH_UNITS, 2)
TICKS = min(BENCH_TICKS, 240)


def _dataset() -> Dataset:
    units = tuple(
        build_unit_series(
            profile="tencent",
            n_databases=N_DATABASES,
            n_ticks=TICKS,
            seed=9100 + index,
            abnormal_ratio=0.04,
            name=f"api-{index:03d}",
        )
        for index in range(UNITS)
    )
    return Dataset(name="api-overhead", units=units)


def _serve_networked(dataset, config):
    """One full network replay.

    Returns ``(report, total_s, ingest_s, requests, connections)``; the
    pusher keeps one persistent connection, so ``connections`` is 1.
    """
    source = NetworkSource(
        capacity=2 * UNITS * TICKS,  # never backpressure: measure ingest,
        handshake_timeout_seconds=60.0,  # not the client's retry pacing
    )
    outcome = {}
    with IngestServer(source) as server:

        def _push():
            try:
                outcome["stats"] = push_dataset(
                    dataset, url=server.url, batch_ticks=32
                )
            except BaseException as exc:
                outcome["error"] = exc

        with obs.scoped() as registry:
            started = time.perf_counter()
            pusher = threading.Thread(target=_push, daemon=True)
            pusher.start()
            report = DetectionService(config, sinks=("null",)).run(source)
            total = time.perf_counter() - started
            ingest_seconds = registry.histogram("api.ingest_seconds").sum
        pusher.join(timeout=60.0)
    if "error" in outcome:
        raise outcome["error"]
    return (
        report,
        total,
        ingest_seconds,
        registry.counter("api.requests").value,
        registry.counter("api.connections").value,
    )


def test_api_ingest_overhead():
    dataset = _dataset()
    config = default_config()

    # Warm-up pass so neither arm pays one-time import/allocation costs.
    DetectionService(config, sinks=("null",)).run(ReplaySource(dataset))

    bare_wall = []
    networked_wall = []
    inline_ratios = []
    reference = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        bare = DetectionService(config, sinks=("null",)).run(
            ReplaySource(dataset)
        )
        bare_wall.append(time.perf_counter() - started)

        networked, total, ingest_seconds, requests, connections = (
            _serve_networked(dataset, config)
        )
        networked_wall.append(total)
        assert 0.0 < ingest_seconds < total
        inline_ratios.append(total / (total - ingest_seconds))

        assert networked.results == bare.results
        assert networked.ticks_ingested == UNITS * TICKS
        if reference is None:
            reference = bare.results
        assert bare.results == reference

    # min-of-N: the repeat least disturbed by host noise.
    overhead_ratio = min(inline_ratios)
    e2e_ratio = min(networked_wall) / min(bare_wall)

    print()
    print(render_table(
        ["Measure", "Value"],
        [
            ["in-process serving (min s)", f"{min(bare_wall):.3f}"],
            ["HTTP-fed serving (min s)", f"{min(networked_wall):.3f}"],
            ["cross-run ratio (noisy)", f"{e2e_ratio:.3f}x"],
            ["in-run ingest overhead", f"{overhead_ratio:.3f}x"],
        ],
        title=(
            f"Network ingestion overhead — {UNITS} units x "
            f"{N_DATABASES} databases x {TICKS} ticks over HTTP"
        ),
    ))

    record_bench_result(
        "api_overhead",
        overhead_ratio=round(overhead_ratio, 4),
        budget_ratio=round(overhead_ratio / MAX_OVERHEAD, 4),
        bare_wall_s=round(min(bare_wall), 3),
        networked_wall_s=round(min(networked_wall), 3),
        e2e_ratio=round(e2e_ratio, 4),
        n_databases=N_DATABASES,
        requests=requests,
        connections=connections,
    )

    assert overhead_ratio <= MAX_OVERHEAD, (
        f"HTTP ingestion overhead {overhead_ratio:.3f}x exceeds the "
        f"{MAX_OVERHEAD:.2f}x budget"
    )
