"""Tests of the benchmark's own helpers and a tiny run of each workload."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import harness
import hostspeed
import spans
import stats
import workloads

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize(
    "count, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (256, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_percentile_leaves_ten_samples_beyond_p95_of_200():
    values = list(range(1, 201))
    p95 = stats.percentile(values, 95.0)
    assert p95 == 190
    assert sum(v > p95 for v in values) == 10
    assert stats.percentile([3.0], 50.0) == 3.0


def _span(name, start, end, parent, op=None):
    return [name, start, end, parent, op]


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        _span("bench.round", 0.0, 10.0, -1),
        _span("forest.train_bank", 1.0, 4.0, 0),
        _span("forest.train.cmf", 2.0, 3.0, 1),
        _span("fusion.swim", 5.0, 9.0, 0),
        _span("fusion.mode", 8.0, 9.5, 0),  # overlaps its sibling: covered once
    ]
    assert spans.self_times(tree) == pytest.approx([2.5, 2.0, 1.0, 4.0, 1.5])


def test_layer_metrics_are_per_setup_plus_one_round_and_add_up():
    recorder = spans.Recorder()
    recorder.spans = [
        _span("bench.setup", 0.0, 2.0, -1),
        _span("forest.train.cmf", 0.5, 1.5, 0),
        _span("bench.round", 3.0, 7.0, -1),
        _span("fingerprints.build_goof", 3.5, 5.0, 2),
        _span("fingerprints.extract.cmf", 4.0, 4.5, 3),
        _span("bench.round", 8.0, 12.0, -1),
        _span("fingerprints.build_goof", 8.5, 10.0, 5),
        _span("fingerprints.extract.cmf", 9.0, 9.5, 6),
    ]
    recorder.counts.update({"forest.nodes.cmf": 10, "fingerprints.groups": 16})
    metrics = harness.layer_metrics(recorder, {"forest.nodes.cmf": 10}, rounds=2)
    assert metrics["trace.wall_s"] == pytest.approx(2.0 + 4.0)
    assert metrics["self_s.forest"] == pytest.approx(1.0)
    assert metrics["self_s.fingerprints"] == pytest.approx(1.0 + 0.5)
    assert metrics["self_s.unattributed"] == pytest.approx(1.0 + 2.5)
    assert metrics["fingerprints.build_goof_s"] == pytest.approx(1.5)
    assert metrics["fingerprints.extract_s.cmf"] == pytest.approx(0.5)
    assert metrics["forest.train_s.cmf"] == pytest.approx(1.0)
    assert metrics["forest.nodes.cmf"] == 10 and metrics["fingerprints.groups"] == 8
    parts = [metrics[f"self_s.{name}"] for name in ("forest", "fingerprints", "unattributed")]
    assert sum(parts) == pytest.approx(metrics["trace.wall_s"])


def test_recorder_nests_stamps_and_counts():
    recorder = spans.Recorder()

    def leaf(n):
        return list(range(n))

    traced_leaf = recorder.wrap(leaf, "forest.leaf", lambda a, k, r, p: {"forest.items": len(r)})

    def middle(n):
        return traced_leaf(n) + traced_leaf(n)

    traced_middle = recorder.wrap(middle, lambda a, k, p: f"fusion.middle.{a[0]}",
                                  op=lambda a, k: f"cell:{a[0]}")
    with recorder.span("bench.round"):
        traced_middle(3)
    names = [s[spans.NAME] for s in recorder.spans]
    assert names == ["bench.round", "fusion.middle.3", "forest.leaf", "forest.leaf"]
    assert [s[spans.PARENT] for s in recorder.spans] == [-1, 0, 1, 1]
    assert [s[spans.OP] for s in recorder.spans] == [None, "cell:3", "cell:3", "cell:3"]
    assert recorder.counts["forest.items"] == 6
    assert spans.time_metric("fusion.middle.3") == "fusion.middle_s.3"
    assert spans.time_metric("cli.build-goof") == "cli.build-goof_s"


def test_parse_fusion_rejects_documents_that_disagree():
    config = workloads.adapter.make_config(1, grid_count=4, num_elements=4, windows=(5,))
    rows = [f"grid={g} w=5 u=4 rho=0.75 selected=cmf:3,psdf:1" for g in range(1, 5)]
    path = HERE / "out" / "fusion-parse-test.txt"
    path.parent.mkdir(exist_ok=True)
    try:
        path.write_text("GOOF-FUSION 1\nwindow=5\n" + "\n".join(rows) + "\n")
        assert workloads.parse_fusion(path, 5, config) == [0.75] * 4
        path.write_text("GOOF-FUSION 1\nwindow=5\n" + "\n".join(rows[:3]) + "\n")
        assert workloads.parse_fusion(path, 5, config) is None
        bad = [r.replace("u=4", "u=3") for r in rows]
        path.write_text("GOOF-FUSION 1\nwindow=5\n" + "\n".join(bad) + "\n")
        assert workloads.parse_fusion(path, 5, config) is None
    finally:
        path.unlink()


@pytest.fixture(scope="module")
def tiny_runs():
    return {
        (name, trace): harness.run(name, seed=3, seconds=0.01, trace=trace, size=workloads.TINY)
        for name in workloads.WORKLOADS
        for trace in (False, True)
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_has_no_failures(tiny_runs, name):
    for trace in (False, True):
        result = tiny_runs[(name, trace)]["result"]
        assert result["attempted"] >= 1
        assert result["failed"] == 0 and result["correct"]
        json.dumps(result)  # the last line of output must serialize


def test_emitted_metrics_are_exactly_the_declared_ones(tiny_runs):
    declared = harness.declared()
    produced = set()
    for (name, trace), outcome in tiny_runs.items():
        names = declared["per_layer" if trace else "end_to_end"]
        assert set(outcome["result"]["metrics"]) == set(names)
        for metric, entry in outcome["result"]["metrics"].items():
            assert entry["unit"] == names[metric]
        if trace:
            produced |= set(outcome["computed"])
        else:  # every end-to-end metric is measured on every workload, never zero
            assert all(e["value"] > 0 for e in outcome["result"]["metrics"].values())
    # each declared per-layer metric is measured on some workload, not zero-filled
    assert set(declared["per_layer"]) <= produced


def test_traced_layers_account_for_the_traced_wall(tiny_runs):
    for (name, trace), outcome in tiny_runs.items():
        if trace:
            computed = outcome["computed"]
            parts = [computed.get(f"self_s.{layer}", 0.0) for layer in harness.LAYERS]
            parts.append(computed["self_s.unattributed"])
            assert sum(parts) == pytest.approx(computed["trace.wall_s"], rel=1e-9)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snr_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_host_speed_is_only_sampled_while_the_program_is_idle():
    sampler = hostspeed.Sampler()
    sampler.take()
    assert len(sampler.seconds) == hostspeed.BURST
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    try:
        with pytest.raises(hostspeed.ProgramBusy, match="thread"):
            sampler.take()
        sampler.inside()  # inside a program call a busy process is skipped, not an error
        assert len(sampler.seconds) == hostspeed.BURST
    finally:
        release.set()
        worker.join()
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        with pytest.raises(hostspeed.ProgramBusy, match=str(child.pid)):
            sampler.take()
    finally:
        child.kill()
        child.wait()
    sampler.take()
    assert len(sampler.seconds) == 2 * hostspeed.BURST


def test_scale_uses_the_bursts_next_to_a_timing():
    sampler = hostspeed.Sampler()
    burst = hostspeed.BURST
    sampler.starts = [0.0] * burst + [1.0] * burst + [5.0] * burst + [9.0] * burst
    sampler.seconds = [1.0] * burst + [2.0] * burst + [4.0] * burst + [8.0] * burst
    nominal = hostspeed.NOMINAL_S
    # harmonic means of the bursts at 1 and 5, and at 1, 5 and 9
    assert sampler.scale(1.5, 4.5) == pytest.approx(nominal * (1 / 2 + 1 / 4) / 2)
    assert sampler.scale(1.5, 9.5) == pytest.approx(nominal * (1 / 2 + 1 / 4 + 1 / 8) / 3)


def test_sample_points_sample_inside_calls_and_come_off():
    class Owner:
        @staticmethod
        def work(n):
            return n + 1

    sampler = hostspeed.Sampler()
    undo = hostspeed.install(sampler, [("owner", "work")], lambda path: Owner)
    try:
        assert Owner.work(1) == 2 and len(sampler.bursts) == 1
        assert Owner.work(2) == 3 and len(sampler.bursts) == 1  # not due again yet
    finally:
        spans.uninstall(undo)
    lo, hi = sampler.bursts[0]
    assert sampler.paused(lo - 1.0, hi + 1.0) == pytest.approx(hi - lo)
    assert Owner.work(3) == 4 and len(sampler.bursts) == 1


def test_sweep_cell_missing_from_the_report_fails_without_stopping_the_run(monkeypatch, tmp_path):
    sweep = workloads.SnrSweep(workloads.TINY)
    state = sweep.setup(3, tmp_path)
    fused_cells = workloads.adapter.fused_cells

    def without_one_cell(report, method):
        cells = fused_cells(report, method)
        cells.pop(("impulse", -2.0))
        return cells

    monkeypatch.setattr(workloads.adapter, "fused_cells", without_one_cell)
    (request,) = sweep.run_round(state).requests
    assert (request.attempted, request.failed) == (6, 1)
