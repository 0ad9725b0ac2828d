"""The three workloads.

Each workload makes its inputs from the seed in :meth:`setup`, then runs
*rounds*: one sweep (``snr_sweep``), one pass over every distinct query
(``online_locate``) or one five-stage CLI pipeline (``staged_cli``). A
round returns its requests: what a user waits for, with its latency and
how many operations it attempted and failed; the operation is a cell, a
query or a CLI stage. Output checks run after the timed part of each
request and count into the failures. A round calls ``between()``, when
given, after each query or CLI stage, while no work is in flight. ``state["configs"]`` holds the
program configs the inputs were made from. All calls into the program go
through :mod:`adapter`.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import adapter
import numpy as np

WINDOW = 5
TRAIN_GROUPS = 12
QUERY_GROUPS = 8
GROUP_SNAPSHOTS = 32
SWEEP_SNRS = (-2.0, 22.0)
SWEEP_CHECKED_KINDS = ("gaussian", "color")
SWEEP_MIN_CLEAN_RHO = 0.9


@dataclass(frozen=True)
class Size:
    """Problem size. :data:`FULL` is what the benchmark measures; the
    tests use :data:`TINY` to run every code path in about a second."""

    grid_count: int = 16
    num_elements: int = 7
    tree_count: int = 40
    depth_limit: int = 8
    # online_locate: (noise kind, SNR dB, query slices per grid). Three
    # shallow-tree queries to one deep-tree query keeps the median inside
    # the shallow mode and the 95th percentile inside the deep one.
    conditions: tuple = (("gaussian", 14.0, 12), ("impulse", 6.0, 4))
    # staged_cli: one impulse cell at a clean and one at a noisy SNR
    staged_snrs: tuple = (22.0, 6.0)


FULL = Size()
TINY = Size(grid_count=4, num_elements=4, tree_count=3, depth_limit=3,
            conditions=(("gaussian", 14.0, 3), ("impulse", 6.0, 1)))


@dataclass
class Request:
    start: float  # perf_counter() when the user's wait began
    latency_s: float
    attempted: int
    failed: int
    samples: int  # fused labels this request produced
    op: str


@dataclass
class RoundResult:
    requests: list
    accuracy: float  # share of fused labels equal to the true grid
    extra: dict = field(default_factory=dict)  # workload-specific figures


def _config_fields(size: Size) -> dict:
    return {
        "grid_count": size.grid_count,
        "num_elements": size.num_elements,
        "tree_count": size.tree_count,
        "depth_limit": size.depth_limit,
        "repetitions": 1,
        "windows": (WINDOW,),
    }


class SnrSweep:
    """The offline study: ``run_snr_sweep`` then ``emit_report(csv)``."""

    name = "snr_sweep"
    min_requests = 1

    def __init__(self, size: Size = FULL):
        self.size = size

    def setup(self, seed: int, workdir: Path):
        config = adapter.make_config(seed, snr_grid_db=SWEEP_SNRS, **_config_fields(self.size))
        return {"config": config, "configs": [config], "workdir": workdir, "reference": None}

    def run_round(self, state, recorder=None, between=None) -> RoundResult:
        config = state["config"]
        cells = [(k, s) for k in config.noise_kinds for s in config.snr_grid_db]
        out_dir = Path(tempfile.mkdtemp(dir=state["workdir"]))
        start = time.perf_counter()
        try:
            report = adapter.run_sweep(config)
            adapter.emit_csv(report, out_dir)
            latency = time.perf_counter() - start
            curves = _curve_rows(out_dir)
        except Exception:  # a failed sweep fails all its cells
            traceback.print_exc(file=sys.stderr)
            return RoundResult([Request(start, 0.0, len(cells), len(cells), 0, "sweep")], 0.0)
        finally:
            shutil.rmtree(out_dir)
        if state["reference"] is None:
            state["reference"] = curves
        fused = adapter.fused_cells(report, f"swim_w{WINDOW}")
        top_snr = max(config.snr_grid_db)
        failed = 0
        for kind, snr in cells:
            rows, cell = curves.get((kind, snr)), fused.get((kind, snr))
            if rows is None or cell is None:  # a cell the report left out has failed
                failed += 1
                continue
            same = rows == state["reference"].get((kind, snr))
            low = kind in SWEEP_CHECKED_KINDS and snr == top_snr and cell[0] < SWEEP_MIN_CLEAN_RHO
            failed += (not same) or low
        samples = sum(n for _, _, n in fused.values()) * (config.test_count - WINDOW + 1)
        request = Request(start, latency, len(cells), failed, samples, "sweep")
        return RoundResult(
            [request],
            accuracy=float(np.mean([rho for rho, _, _ in fused.values()])),
            extra={"fused_error_m": float(np.mean([err for _, err, _ in fused.values()]))},
        )


def _curve_rows(out_dir: Path) -> dict:
    """``(noise kind, snr) -> curve CSV lines`` of every curve file."""
    rows = {}
    for path in sorted(out_dir.glob("curve_*.csv")):
        kind = path.stem[len("curve_"):]
        for line in path.read_text(encoding="utf-8").splitlines()[2:]:
            snr = float(line.split(",", 1)[0])
            rows.setdefault((kind, snr), []).append(line)
    return rows


class OnlineLocate:
    """Closed loop, one client: each query fingerprints one grid's next
    capture slice, runs the trained bank and fuses with SWIM."""

    name = "online_locate"

    def __init__(self, size: Size = FULL):
        self.size = size
        self.min_requests = size.grid_count * sum(n for _, _, n in size.conditions)

    def setup(self, seed: int, workdir: Path):
        query_len = QUERY_GROUPS * GROUP_SNAPSHOTS
        train_len = TRAIN_GROUPS * GROUP_SNAPSHOTS
        queries, configs = [], []
        for noise_kind, snr, slices in self.size.conditions:
            length = train_len + slices * query_len
            config = adapter.make_config(
                seed,
                noise_kinds=(noise_kind,),
                snr_grid_db=(snr,),
                snapshot_count=length,
                group_count=length // GROUP_SNAPSHOTS,
                **_config_fields(self.size),
            )
            configs.append(config)
            blocks = adapter.simulate(config, noise_kind, snr)
            training = [adapter.block_slice(b, 0, train_len) for b in blocks]
            bank = adapter.train(training, TRAIN_GROUPS, config, seed)
            for q in range(slices):
                lo = train_len + q * query_len
                for block in blocks:
                    sliced = adapter.block_slice(block, lo, lo + query_len)
                    queries.append((f"{noise_kind}:{snr:g}dB", bank, config, sliced))
        random.Random(seed).shuffle(queries)
        return {"queries": queries, "configs": configs}

    def run_round(self, state, recorder=None, between=None) -> RoundResult:
        expected = QUERY_GROUPS - WINDOW + 1
        q = self.size.grid_count
        requests, hits, labels_seen = [], 0, 0
        for i, (condition, bank, config, block) in enumerate(state["queries"]):
            op = f"query:{i}:{condition}"
            if recorder is not None:
                recorder.op = op
            grid = adapter.block_grid(block)
            start = time.perf_counter()
            try:
                labels = adapter.locate(bank, block, QUERY_GROUPS, WINDOW, config)
            except Exception:  # a failed query counts and the loop goes on
                requests.append(Request(start, time.perf_counter() - start, 1, 1, 0, op))
                traceback.print_exc(file=sys.stderr)
                continue
            latency = time.perf_counter() - start
            labels = np.asarray(labels)
            ok = labels.shape == (expected,) and bool(((labels >= 1) & (labels <= q)).all())
            requests.append(Request(start, latency, 1, int(not ok), int(labels.size), op))
            if ok:
                hits += int((labels == grid).sum())
                labels_seen += labels.size
            if between is not None:
                between()
        return RoundResult(requests, accuracy=hits / max(labels_seen, 1))


class StagedCli:
    """``goofloc.cli.main`` in-process: simulate, then build-goof, train,
    test and fuse on each of two impulse cells, artifacts in a temp dir."""

    name = "staged_cli"
    min_requests = 1

    def __init__(self, size: Size = FULL):
        self.size = size

    def setup(self, seed: int, workdir: Path):
        config = adapter.make_config(
            seed, noise_kinds=("impulse",), snr_grid_db=self.size.staged_snrs,
            **_config_fields(self.size),
        )
        return {"config": config, "configs": [config], "workdir": workdir, "seed": seed}

    def _plan(self, state, root: Path) -> list:
        config = state["config"]
        data = root / "data"
        plan = [("simulate", "all", ["simulate", "--config", root / "config.txt",
                                     "--out-dir", data])]
        for snr in config.snr_grid_db:
            cell = f"{snr:g}dB"
            dataset = data / adapter.snapshot_file_name("impulse", snr)
            goof, bank = root / f"goof_{cell}", root / f"bank_{cell}"
            bmat, fused = root / f"bmat_{cell}.txt", root / f"fusion_{cell}.txt"
            plan += [
                ("build-goof", cell, ["build-goof", "--dataset", dataset, "--group-count",
                                      config.group_count, "--flom-exponent",
                                      config.flom_exponent, "--out", goof]),
                ("train", cell, ["train", "--goof", goof, "--train-count", config.train_count,
                                 "--tree-count", config.tree_count, "--depth-limit",
                                 config.depth_limit, "--seed", state["seed"], "--out", bank]),
                ("test", cell, ["test", "--goof", goof, "--skip-count", config.train_count,
                                "--bank", bank, "--out", bmat]),
                ("fuse", cell, ["fuse", "--bmatrices", bmat, "--window", WINDOW,
                                "--out", fused]),
            ]
        return plan

    def run_round(self, state, recorder=None, between=None) -> RoundResult:
        root = Path(tempfile.mkdtemp(dir=state["workdir"]))
        try:
            plan = self._plan(state, root)
            codes, start = [], time.perf_counter()
            adapter.write_config(state["config"], root / "config.txt")
            for stage, cell, argv in plan:
                if recorder is not None:
                    recorder.op = f"{stage}:{cell}"
                    with recorder.span("cli." + stage):
                        codes.append(_run_stage(argv))
                else:
                    codes.append(_run_stage(argv))
                if between is not None:
                    between()
            latency = time.perf_counter() - start
            failed, rhos = 0, []
            for (stage, cell, argv), code in zip(plan, codes):
                ok = code == 0
                if ok and stage == "fuse":
                    parsed = parse_fusion(Path(argv[-1]), WINDOW, state["config"])
                    ok = parsed is not None
                    rhos += parsed or []
                failed += not ok
        finally:
            shutil.rmtree(root)
        samples = len(rhos) * (state["config"].test_count - WINDOW + 1)
        request = Request(start, latency, len(plan), failed, samples, "pipeline")
        return RoundResult([request], accuracy=float(np.mean(rhos)) if rhos else 0.0)


def _run_stage(argv) -> int:
    try:
        return adapter.cli_main(argv)[0]
    except Exception:  # a stage that raises has failed; the round goes on
        traceback.print_exc(file=sys.stderr)
        return -1


def parse_fusion(path: Path, window: int, config) -> list | None:
    """Per-grid rho values of a ``GOOF-FUSION 1`` document, or None when
    it does not parse or disagrees with the configuration."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    if lines[:2] != ["GOOF-FUSION 1", f"window={window}"]:
        return None
    u = config.test_count - window + 1
    rhos, grids = [], []
    for line in lines[2:]:
        try:
            fields = dict(tok.split("=", 1) for tok in line.split())
            counts = [int(c.rsplit(":", 1)[1]) for c in fields["selected"].split(",")]
            rho = float(fields["rho"])
            ok = int(fields["w"]) == window and int(fields["u"]) == u and sum(counts) == u
            grids.append(int(fields["grid"]))
        except (KeyError, ValueError, IndexError):
            return None
        if not ok or not 0.0 <= rho <= 1.0:
            return None
        rhos.append(rho)
    if sorted(grids) != list(range(1, config.grid_count + 1)):
        return None
    return rhos


WORKLOADS = {w.name: w for w in (SnrSweep, OnlineLocate, StagedCli)}
