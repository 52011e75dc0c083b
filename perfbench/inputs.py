"""Seeded benchmark inputs, the reference verdicts, and their cache.

Everything a run consumes is generated here from the workload's fleet
shape (``spec.json``) and the ``--seed`` argument, once per seed, outside
any timed region:

* the fleet — ``repro.datasets.build_unit_series`` units;
* per-unit logbooks (``repro.logs``), with KPI-blind log faults whose
  windows are added to the ground-truth labels;
* the pre-encoded HTTP bodies the ``http-pool`` client posts;
* the reference: ``DBCatcher.process`` verdicts per unit and, for the
  fleet with logbooks, the alerts and fused verdicts of an in-process
  ``ReplaySource`` run with the workload's service options.

A bundle is cached under ``perfbench/.cache`` keyed by workload, scale, seed
and a fingerprint of the program's sources, so a bundle written by one
version of the program is never checked against another.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"

with open(HERE / "spec.json", encoding="utf-8") as _handle:
    SPEC: Dict[str, Any] = json.load(_handle)


def fleet_shape(fleet: str, scale: str) -> Dict[str, Any]:
    """The fleet's shape at ``scale`` (``tiny`` overrides a few fields)."""
    shape = dict(SPEC["fleets"][fleet])
    if scale == "tiny":
        shape.update(shape.pop("tiny"))
    else:
        shape.pop("tiny", None)
    return shape


def _unit_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


#: Workload fields the generated inputs and references depend on.
_SHAPING_KEYS = (
    "fleet", "post_ticks", "encoding", "service_config", "rca", "sinks",
)


def program_fingerprint() -> str:
    """Digest of the program's sources and of this generator."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    digest.update(Path(__file__).read_bytes())
    shaping = {
        name: {key: workload.get(key) for key in _SHAPING_KEYS}
        for name, workload in SPEC["workloads"].items()
    }
    digest.update(json.dumps([SPEC["fleets"], shaping], sort_keys=True).encode())
    return digest.hexdigest()[:16]


def bundle_path(workload: str, scale: str, seed: int) -> Path:
    return CACHE / f"{workload}-{scale}-s{seed}-{program_fingerprint()}.pkl"


def load_bundle(path: Path) -> Dict[str, Any]:
    # Only bundles this module wrote are ever read back.
    with open(path, "rb") as handle:
        return pickle.load(handle)


# -- canonical forms the reference check compares -----------------------


def verdicts(results) -> List[tuple]:
    """A unit's rounds as plain tuples: span, then per-database verdicts."""
    return [
        (
            result.start,
            result.end,
            tuple(
                (
                    db,
                    record.state.name,
                    record.expansions,
                    record.window_start,
                    record.window_end,
                    tuple(sorted(record.kpi_levels.items())),
                )
                for db, record in sorted(result.records.items())
            ),
        )
        for result in results
    ]


def fused_dicts(fused) -> List[Dict[str, Any]]:
    return [verdict.to_dict() for verdict in fused]


# -- generation ---------------------------------------------------------


def _build_units(shape: Dict[str, Any], seed: int):
    from repro.datasets import build_unit_series

    # Families, periodicity and Tencent scenarios cycle by unit index, so
    # every seed's fleet has the same composition and only the draws differ.
    families = shape["families"]
    scenarios = shape["tencent_scenarios"]
    return [
        build_unit_series(
            profile=families[index % len(families)],
            n_databases=shape["databases"],
            n_ticks=shape["ticks"],
            seed=_unit_seed(seed, index),
            periodic=index % 2 == 0,
            scenario=(
                scenarios[index // len(families) % len(scenarios)]
                if families[index % len(families)] == "tencent" else None
            ),
            abnormal_ratio=shape["abnormal_ratio"],
            name=f"unit-{index:02d}",
        )
        for index in range(shape["units"])
    ]


def _kpi_blind_faults(units, shape: Dict[str, Any], seed: int):
    """Per-unit logbooks: causal incident logs plus one KPI-blind fault.

    The KPI-blind fault carries a log profile over a window where the
    KPIs stay on-profile; its window joins the unit's labels, so only the
    fused verdicts can score it.
    """
    from repro.logs import (
        ANOMALY_LOG_PROFILES,
        merge_logbooks,
        profile_logbook,
        unit_logbook,
    )

    kinds = shape["kpi_blind_kinds"]
    books = {}
    for index, unit in enumerate(units):
        rng = np.random.default_rng([seed, index, 17])
        length = int(rng.integers(*shape["kpi_blind_ticks"]))
        start = int(rng.integers(unit.n_ticks // 4, unit.n_ticks - length))
        victim = int(rng.integers(1, unit.n_databases))
        unit.labels[victim, start:start + length] = True
        books[unit.name] = merge_logbooks(
            unit_logbook(unit, seed=_unit_seed(seed, index)),
            profile_logbook(
                ANOMALY_LOG_PROFILES[kinds[index % len(kinds)]],
                victim, start, start + length, seed=_unit_seed(seed, index),
            ),
        )
    return books


def _http_bodies(
    dataset, post_ticks: int, encoding: str
) -> Tuple[bytes, List[Tuple[str, int, bytes]]]:
    """The handshake and ``POST /v1/ticks`` bodies, in posting order.

    A collector that buffers ``post_ticks`` ticks per unit: one unit's
    block per post, units round-robin.
    """
    from repro.service.api import encode_handshake, encode_tick_batch
    from repro.service.sources import TickEvent

    units = dataset.units
    handshake = encode_handshake(
        {unit.name: unit.n_databases for unit in units},
        dataset.kpi_names,
        units[0].interval_seconds,
    )
    bodies = []
    horizon = max(unit.n_ticks for unit in units)
    for first in range(0, horizon, post_ticks):
        for unit in units:
            events = [
                TickEvent(unit=unit.name, seq=t, sample=unit.values[:, :, t])
                for t in range(first, min(first + post_ticks, unit.n_ticks))
            ]
            if events:
                body = encode_tick_batch(unit.name, events, encoding)
                bodies.append(
                    (unit.name, len(events), json.dumps(body).encode("utf-8"))
                )
    return json.dumps(handshake).encode("utf-8"), bodies


def service_config(workload: Dict[str, Any], state_dir=None):
    """The workload's ``ServiceConfig``: defaults plus the fields it names."""
    from repro.service import ServiceConfig

    fields = dict(workload["service_config"])
    if fields.pop("state_dir", None) is not None:
        fields["state_dir"] = str(state_dir)
    return ServiceConfig(**fields)


def _reference_service(dataset, books, workload: Dict[str, Any]):
    """The in-process ``ReplaySource`` run the live workload must equal."""
    from repro.presets import default_config
    from repro.service import DetectionService, ReplaySource

    state_dir = tempfile.mkdtemp(prefix="reference-", dir=CACHE)
    try:
        service = DetectionService(
            default_config(),
            service_config=service_config(workload, state_dir),
            sinks=("null",),
            rca=workload.get("rca", False),
        )
        report = service.run(ReplaySource(dataset, logbook=books))
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    return {
        "verdicts": {
            name: verdicts(results) for name, results in report.results.items()
        },
        "alerts": [alert.to_dict() for alert in report.alerts],
        "fused": {
            name: fused_dicts(fused)
            for name, fused in report.fused_verdicts.items()
        },
    }


def build_bundle(name: str, scale: str, seed: int) -> Dict[str, Any]:
    """Generate one workload's inputs and reference (the slow, untimed part)."""
    from repro import DBCatcher
    from repro.datasets import Dataset
    from repro.presets import default_config

    workload = SPEC["workloads"][name]
    fleet = workload["fleet"]
    shape = fleet_shape(fleet, scale)
    units = _build_units(shape, seed)
    books = _kpi_blind_faults(units, shape, seed) if shape.get("logs") else None
    dataset = Dataset(name=f"perfbench-{fleet}", units=tuple(units))
    config = default_config()
    reference = {
        unit.name: verdicts(
            DBCatcher(config, n_databases=unit.n_databases).process(
                unit.values, time_axis=-1
            )
        )
        for unit in units
    }
    bundle: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "shape": shape,
        "dataset": dataset,
        "logbooks": books,
        "reference": reference,
    }
    if "post_ticks" in workload:
        bundle["handshake"], bundle["bodies"] = _http_bodies(
            dataset, workload["post_ticks"], workload["encoding"]
        )
    if workload["rca"] or workload["service_config"].get("log_ensemble"):
        # Alerts, incidents and fused verdicts come from the service, not
        # from the detector alone: their reference is a plain in-process run.
        bundle["reference_service"] = _reference_service(
            dataset, books, workload
        )
        if bundle["reference_service"]["verdicts"] != reference:
            raise RuntimeError(
                "the in-process reference run disagrees with DBCatcher.process"
            )
    return bundle


#: Bundles kept in the cache; older ones are deleted, so a long series of
#: runs over fresh seeds keeps the checkout's disk use bounded.
CACHED_BUNDLES = 24


def write_bundle(workload: str, scale: str, seed: int) -> Path:
    """Build and atomically store one bundle; returns its path."""
    CACHE.mkdir(parents=True, exist_ok=True)
    path = bundle_path(workload, scale, seed)
    bundle = build_bundle(workload, scale, seed)
    fd, tmp = tempfile.mkstemp(prefix=path.name, dir=CACHE)
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(bundle, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    stale = sorted(CACHE.glob("*.pkl"), key=lambda p: p.stat().st_mtime)
    for old in stale[:-CACHED_BUNDLES]:
        old.unlink()
    return path
