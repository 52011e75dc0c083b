"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload replay-serial --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` spends half of ``--seconds`` on untraced passes and half on
traced ones, and prints the per-layer metrics plus
``trace.overhead_ratio``.  The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries context that is not gated (passes, ``paper_volume_s``, transport,
absent trace targets).  Metric names and units come from
``BENCHMARK.json``.  A pass whose output differs from the reference
prints ``"correct": false`` and exits 1.  Without the program's sources
next to this directory the run exits 2 without a result.

Inputs for a seed are generated once, in a child process, and cached
under ``perfbench/.cache``; see ``inputs.py``.  ``spec.json`` holds the
fleet shapes, the open-loop rate and what every metric means.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("replay-serial", "http-pool", "live-faults"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few short units, for the smoke tests")
    parser.add_argument("--prepare", action="store_true",
                        help="only generate and cache the seed's inputs")
    return parser.parse_args(argv)


def _ensure_bundle(args: argparse.Namespace) -> Path:
    from inputs import bundle_path

    path = bundle_path(args.workload, args.scale, args.seed)
    if not path.exists():
        # A child process generates the inputs, so their memory never
        # counts towards this process's peak.
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--prepare",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--scale", args.scale],
            check=True,
            timeout=600,
        )
    return path


def _repeat(workload, budget: float, min_samples: int, probes: int,
            host, tracer=None):
    """Passes until ``budget`` seconds are spent and enough rounds are seen.

    ``probes`` set-up probes run before every pass, so the set-up time
    samples the host over the whole run, as the passes do.  The host
    probe runs before every pass and after the last one; each pass's
    speed comes from the probes on either side of it.
    """
    from inputs import SPEC
    from workloads import layer_metrics

    reference_s = SPEC["host_probe"]["reference_s"]
    passes, layers, setups = [], [], []
    probe = host.measure()
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        samples = sum(len(p.latency_ms) for p in passes)
        if passes and elapsed >= budget and (
            samples >= min_samples or elapsed >= 3 * budget
        ):
            return passes, layers, setups
        setups.extend(workload.setup_probe() for _ in range(probes))
        if tracer is not None:
            mark = len(tracer.spans)
            tracer.reset_counts()
        one = workload.run_pass(tracer)
        if tracer is not None:
            layers.append(layer_metrics(one, tracer, mark))
        one.report = None  # a run keeps numbers, not every pass's rounds
        after = host.measure()
        one.speed = reference_s / ((probe + after) / 2)
        probe = after
        setups.append(one.setup_s)
        passes.append(one)


def measure(name: str, bundle: Dict[str, Any], seconds: float, trace: bool,
            scale: str, seed: int, bundle_kb: int, host):
    """One run: returns ``(context, metrics, attempted, failed)``.

    ``bundle_kb`` is the resident memory the loaded inputs take; it is
    taken off this process's peak, which then counts the program's own.
    """
    from inputs import CACHE, SPEC, service_config
    from tracer import Tracer
    from workloads import (
        LAYER_TARGETS,
        RSS_TARGETS,
        CheckFailed,
        Workload,
        end_to_end_metrics,
        percentile,
        proc_status_kb,
    )

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = Workload(name, bundle)
    spec = SPEC["workloads"][name]
    min_samples = 0 if scale == "tiny" else SPEC["min_latency_samples"]
    rss = Tracer()
    rss.install(RSS_TARGETS)
    absent: Dict[str, str] = dict(rss.absent)
    try:
        budget = seconds / 2 if trace else seconds
        passes, _, setups = _repeat(
            workload, budget, 0 if trace else min_samples,
            SPEC["setup_probes_per_pass"], host,
        )
        traced, layers = [], []
        if trace:
            tracer = Tracer()
            absent.update(tracer.install(LAYER_TARGETS))
            try:
                traced, layers, _ = _repeat(workload, budget, 0, 0, host, tracer)
            finally:
                tracer.uninstall()
            # One file per workload, overwritten by its latest traced run,
            # so repeated runs keep the checkout's disk use bounded.
            tracer.write(
                CACHE / "traces" / f"{name}.jsonl",
                {"workload": name, "seed": seed, "scale": scale,
                 "layers": layers},
            )
    finally:
        rss.uninstall()
    everything = passes + traced
    attempted = sum(p.offered for p in everything)
    failed = sum(p.failed for p in everything)
    per_pass = spec["percentiles"] == "per pass"
    counts = [len(p.latency_ms) for p in passes]
    latency_samples = min(counts) if per_pass else sum(counts)
    if not trace and latency_samples < min_samples:
        raise CheckFailed(
            f"only {latency_samples} rounds behind a p99, fewer than the "
            f"{min_samples} that put 10 samples beyond it"
        )
    context: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "passes": len(passes),
        "traced_passes": len(traced),
        "setup_samples": len(setups),
        "latency_samples": latency_samples,
        "failed_ratio": failed / attempted,
        "host_speed": statistics.median(p.speed for p in passes),
        "transport": service_config(spec).transport,
        "absent_trace_targets": absent,
    }
    if trace:
        metrics = {
            key: statistics.median(layer[key] for layer in layers)
            for key in layers[0]
        }

        def cpu(runs) -> float:
            return end_to_end_metrics(
                runs, [0.0], 0.0, per_pass, spec["host_normalized"]
            )["cpu_s_per_mpoint"]

        metrics["trace.overhead_ratio"] = cpu(traced) / cpu(passes)
        declared = contract["per_layer"]
    else:
        peak_kb = (
            proc_status_kb("VmHWM") - bundle_kb
            + rss.counts.get("workers.peak_rss_kb", 0.0)
        )
        measured = end_to_end_metrics(passes, setups, peak_kb, per_pass)
        metrics = end_to_end_metrics(
            passes, setups, peak_kb, per_pass, spec["host_normalized"]
        )
        context["as_measured"] = measured
        context["per_pass"] = [
            [p.speed, p.points / p.e2e_s, percentile(p.latency_ms, 50),
             percentile(p.latency_ms, 99), p.cpu_s / (p.points / 1e6)]
            for p in passes
        ]
        context["late_p99_ms"] = percentile(
            [late for p in passes for late in p.late_ms], 99
        )
        context["paper_volume_s"] = (
            SPEC["paper"]["points"] / measured["throughput_pps"]
        )
        context["paper_seconds"] = SPEC["paper"]["seconds"]
        declared = contract["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    return context, {
        key: {"value": float(metrics[key]), "unit": units[key]} for key in units
    }, attempted, failed


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import load_bundle, write_bundle

    if args.prepare:
        write_bundle(args.workload, args.scale, args.seed)
        return 0
    from workloads import CheckFailed, ProbeProcess, proc_status_kb, reset_peak_rss

    path = _ensure_bundle(args)
    host = ProbeProcess()  # forked before the program is imported
    try:
        import repro.datasets  # noqa: F401  the program's imports stay counted
        import repro.logs  # noqa: F401
        import repro.service  # noqa: F401

        before_kb = proc_status_kb("VmRSS")
        bundle = load_bundle(path)
        bundle_kb = proc_status_kb("VmRSS") - before_kb
        reset_peak_rss()  # unpickling's transient peak is not the program's
        context, metrics, attempted, failed = measure(
            args.workload, bundle, args.seconds, bool(args.trace),
            args.scale, args.seed, bundle_kb, host,
        )
    except CheckFailed as exc:
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "check": str(exc)}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        host.close()
    print(json.dumps(context))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
