"""Measured and traced runs of one workload, and the metrics they give.

The untraced run gives the end-to-end metrics: set-up runs
:data:`SETUP_REPEATS` times and its median is reported; then rounds run
until ``seconds`` have passed and the workload's minimum request count
is met. The traced run gives the per-layer metrics: one traced set-up,
one untraced round as the overhead reference, then traced rounds. Its
span and count metrics are per set-up plus one round.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import adapter
import hostspeed
import numpy as np
import spans
import stats
import workloads

ROOT = adapter.ROOT
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The end-to-end figures each workload prints under its own names:
# (name, metric or extra figure, unit, scale).
NAMED = {
    "snr_sweep": [("sweep_s", "latency_ms.p50", "s", 1e-3), ("fused_rho", "accuracy", "", 1),
                  ("fused_error_m", "fused_error_m", "m", 1)],
    "online_locate": [("locate_ms.p50", "latency_ms.p50", "ms", 1),
                      ("locate_ms.p95", "latency_ms.tail", "ms", 1),
                      ("locate_qps", "throughput_per_s", "1/s", 1),
                      ("locate_accuracy", "accuracy", "", 1)],
    "staged_cli": [("staged_s", "latency_ms.p50", "s", 1e-3)],
}
LAYERS = ("channel", "fingerprints", "forest", "fusion", "dataset", "experiments", "cli")


def declared() -> dict:
    """The metric names and units ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process, or of its largest finished child
    process if that was larger (a child's memory is not added to ours)."""
    peaks = (resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return max(peaks) / 1024.0  # KiB on Linux


def provenance(config_digest: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": adapter.src_digest(),
        "config_sha256": config_digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _config_digest(state) -> str:
    return "+".join(adapter.config_digest(c) for c in state["configs"])


def _requests(results) -> list:
    return [r for result in results for r in result.requests]


def measure(workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced run: the end-to-end metrics. Host speed is sampled while
    the program has no work in flight (see :mod:`hostspeed`); each timing
    loses the sampling time inside it and is rescaled by the samples
    taken during and next to it."""
    sampler = hostspeed.Sampler()
    undo = hostspeed.install(sampler, adapter.SAMPLE_POINTS, adapter.resolve_owner)
    try:
        setup_spans, state = [], None
        for _ in range(SETUP_REPEATS):
            state = None  # release the last set-up's inputs, so peak memory holds one
            sampler.take()
            start = time.perf_counter()
            state = workload.setup(seed, workdir)
            setup_spans.append((start, time.perf_counter()))
        sampler.take()
        results, start = [], time.perf_counter()
        while True:
            results.append(workload.run_round(state, between=sampler.between))
            sampler.take()
            if (time.perf_counter() - start >= seconds
                    and len(_requests(results)) >= workload.min_requests):
                break
    finally:
        spans.uninstall(undo)
    tail_p = stats.tail_percentile(workload.min_requests)

    def timings(scaled: bool) -> dict:
        def net(lo, hi):
            seconds = hi - lo - sampler.paused(lo, hi)
            return seconds * sampler.scale(lo, hi) if scaled else seconds

        latencies = [net(r.start, r.start + r.latency_s) for r in _requests(results)]
        tail = stats.percentile(latencies, tail_p) if tail_p else max(latencies)
        return {
            "latency_ms.p50": stats.median(latencies) * 1e3,
            "latency_ms.tail": tail * 1e3,
            "throughput_per_s": len(latencies) / sum(latencies),
            "setup_s": stats.median([net(lo, hi) for lo, hi in setup_spans]),
        }

    metrics = timings(scaled=True)
    metrics.update(accuracy=results[0].accuracy, peak_rss_mb=peak_rss_mb())
    requests = _requests(results)
    return {
        "metrics": metrics,
        "raw": timings(scaled=False),
        "host_speed_s": sampler.seconds,
        "extra": results[0].extra,
        "tail_percentile": tail_p,
        "requests": len(requests),
        "rounds": len(results),
        "samples": [r.samples for r in results[0].requests],
        "attempted": sum(r.attempted for r in requests),
        "failed": sum(r.failed for r in requests),
        "config_digest": _config_digest(state),
    }


def _root_of(span_list) -> list[int]:
    roots = []
    for i, span in enumerate(span_list):
        parent = span[spans.PARENT]
        roots.append(i if parent < 0 else roots[parent])
    return roots


def layer_metrics(recorder, setup_counts: dict, rounds: int) -> dict:
    """Per set-up plus one round: inclusive seconds per span name,
    counts, self seconds per layer, the unattributed remainder and the
    traced wall time."""
    span_list = recorder.spans
    own = spans.self_times(span_list)
    roots = _root_of(span_list)
    metrics: dict[str, float] = {}

    def add(name, value):
        metrics[name] = metrics.get(name, 0.0) + value

    for i, span in enumerate(span_list):
        weight = 1.0 if span_list[roots[i]][spans.NAME] == "bench.setup" else 1.0 / rounds
        name = span[spans.NAME]
        layer = spans.layer_of(name)
        add("self_s." + ("unattributed" if layer == spans.ROOT_LAYER else layer), weight * own[i])
        if layer != spans.ROOT_LAYER:
            add(spans.time_metric(name), weight * (span[spans.END] - span[spans.START]))
        else:
            add("trace.wall_s", weight * (span[spans.END] - span[spans.START]))
    for name, total in recorder.counts.items():
        at_setup = setup_counts.get(name, 0.0)
        metrics[name] = at_setup + (total - at_setup) / rounds
    return metrics


def traced(workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Traced run: the per-layer metrics and the spans behind them."""
    recorder = spans.Recorder()
    points = adapter.TRACE_POINTS

    undo = spans.install(recorder, points, adapter.resolve_owner)
    try:
        recorder.op = "setup"
        with recorder.span("bench.setup"):
            state = workload.setup(seed, workdir)
    finally:
        spans.uninstall(undo)
    setup_counts = dict(recorder.counts)

    start = time.perf_counter()
    workload.run_round(state)
    untraced_round = time.perf_counter() - start

    results, round_walls = [], []
    undo = spans.install(recorder, points, adapter.resolve_owner)
    try:
        start = time.perf_counter()
        while True:
            recorder.op = f"round:{len(results)}"
            began = time.perf_counter()
            with recorder.span("bench.round"):
                results.append(workload.run_round(state, recorder))
            round_walls.append(time.perf_counter() - began)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        spans.uninstall(undo)

    metrics = layer_metrics(recorder, setup_counts, len(results))
    metrics["trace.overhead_s"] = stats.median(round_walls) - untraced_round
    requests = _requests(results)
    return {
        "metrics": metrics,
        "recorder": recorder,
        "rounds": len(results),
        "untraced_round_s": untraced_round,
        "attempted": sum(r.attempted for r in requests),
        "failed": sum(r.failed for r in requests),
        "config_digest": _config_digest(state),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def named_lines(name: str, outcome: dict) -> list[str]:
    figures = {**outcome["metrics"], **outcome["extra"]}
    raw = outcome["raw"]
    lines = []
    for label, key, unit, scale in NAMED[name] + [("setup_s", "setup_s", "s", 1)]:
        line = f"{label} = {_fmt(figures[key] * scale)} {unit}".rstrip()
        if key in raw:
            line += f" (raw {_fmt(raw[key] * scale)} {unit})"
        lines.append(line)
    rate = outcome["failed"] / outcome["attempted"]
    lines += [f"peak_rss_mb = {_fmt(outcome['metrics']['peak_rss_mb'])} MB",
              f"error_rate = {_fmt(rate)} ({outcome['failed']}/{outcome['attempted']})"]
    tail = outcome["tail_percentile"]
    lines.append(f"# {outcome['requests']} requests in {outcome['rounds']} rounds; tail = "
                 + (f"p{tail:g}" if tail else "slowest request (fewer than 20 per run)"))
    speeds = outcome["host_speed_s"]
    lines.append(f"# times rescaled to reference host speed; {len(speeds)} kernel samples, "
                 "taken while the program was idle, took "
                 f"{_fmt(min(speeds) * 1e3)}-{_fmt(max(speeds) * 1e3)} ms "
                 f"(nominal {_fmt(hostspeed.NOMINAL_S * 1e3)} ms)")
    return lines


def layer_lines(outcome: dict) -> list[str]:
    metrics = outcome["metrics"]
    wall = metrics["trace.wall_s"]
    lines = ["# self time per set-up plus one round"]
    total = 0.0
    for layer in LAYERS + ("unattributed",):
        value = metrics.get("self_s." + layer, 0.0)
        total += value
        lines.append(f"self_s.{layer} = {_fmt(value)} s ({100 * value / wall:.1f}%)")
    lines.append(f"# layers + unattributed = {_fmt(total)} s; traced wall = {_fmt(wall)} s")
    overhead = metrics["trace.overhead_s"]
    lines.append(f"trace.overhead_s = {_fmt(overhead)} s per round "
                 f"({100 * overhead / outcome['untraced_round_s']:.1f}% of the untraced "
                 f"{_fmt(outcome['untraced_round_s'])} s)")
    return lines


def run(name: str, seed: int, seconds: float, trace: bool, size=workloads.FULL) -> dict:
    """Run one workload; returns the printable lines and the result object
    whose ``metrics`` hold exactly the declared names for the mode."""
    names = declared()["per_layer" if trace else "end_to_end"]
    workload = workloads.WORKLOADS[name](size)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        outcome = (traced if trace else measure)(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    computed = outcome["metrics"]
    if trace:  # a layer the workload never reaches reads zero
        metrics = {n: computed.get(n, 0.0) for n in names}
        lines = layer_lines(outcome)
    else:
        metrics = {n: computed[n] for n in names}
        lines = named_lines(name, outcome)
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {n: {"value": v, "unit": names[n]} for n, v in metrics.items()},
    }
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "provenance": provenance(outcome["config_digest"]), "computed": computed,
            "raw": outcome.get("raw"), "host_speed_s": outcome.get("host_speed_s"),
            "result": result}
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        outcome["recorder"].dump(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(info, indent=1, default=str) + "\n")
    lines.append("provenance " + json.dumps(info["provenance"]))
    return {"lines": lines, "result": result, "computed": computed}


def main_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    outcome = run(name, seed, seconds, trace)
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]))
    sys.stdout.flush()
    return 0
