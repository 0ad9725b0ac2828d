"""Steadiness check and bench trajectory.

    python3 perfbench/steady.py --seeds 1-10 --seconds 24
    python3 perfbench/steady.py --seeds 1-10 --seconds 24 --against perfbench/out/steady-A.json
    python3 perfbench/steady.py --seeds 1-10 --seconds 24 --record

Runs ``run.py`` once per (seed, workload), seeds in the outer loop so
that host drift falls on every workload alike. For each end-to-end
metric it prints the median over the seeds and the quartile spread as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
A spread of a third of the bound or more is flagged; so is a median
worse than the ``--against`` summary's by more than the bound.
``--record`` appends the summary to ``trajectory.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats
from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(seeds, seconds) -> dict:
    values = {w: {} for w in WORKLOAD_NAMES}
    for seed in seeds:
        for name in WORKLOAD_NAMES:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                    str(seed), "--seconds", str(seconds), "--trace", "0"]
            started = time.perf_counter()
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: {result['failed']} operations failed")
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"# {name} seed {seed}: {time.perf_counter() - started:.1f} s", flush=True)
    return values


def summarize(values: dict) -> dict:
    summary = {}
    for name, per_metric in values.items():
        summary[name] = {}
        for metric, vals in per_metric.items():
            q1, q2, q3 = stats.quantiles4(vals)
            summary[name][metric] = {"median": q2, "q1": q1, "q3": q3,
                                     "spread": stats.spread(vals), "values": vals}
    return summary


def report(summary: dict, spec: dict, against: dict | None) -> bool:
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    steady = True
    for name, per_metric in summary.items():
        for metric, entry in per_metric.items():
            bound, better = bounds[metric]
            flags = []
            if metric != "setup_s" and entry["spread"] >= bound / 3:
                flags.append("SPREAD")
            line = (f"{name:14s} {metric:17s} median {entry['median']:<12.6g} "
                    f"spread {entry['spread']:.3f} (bound {bound})")
            if against is not None:
                before = against[name][metric]["median"]
                change = (entry["median"] - before) / before
                worse = change if better == "lower" else -change
                if worse > bound:
                    flags.append("WORSE")
                line += f" vs {before:.6g}: {100 * change:+.1f}%"
            steady = steady and not flags
            print(line + ("  " + " ".join(flags) if flags else ""))
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--against", help="summary JSON of an earlier set of runs")
    parser.add_argument("--record", action="store_true", help="append to trajectory.jsonl")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = _seeds(args.seeds)
    values = collect(seeds, args.seconds)
    summary = summarize(values)
    against = json.loads(Path(args.against).read_text()) if args.against else None
    steady = report(summary, spec, against)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"# summary written to {path}")
    if args.record:
        runs = {w: json.loads((OUT / f"{w}-seed{seeds[-1]}-trace0.json").read_text())
                for w in summary}
        provenance = dict(next(iter(runs.values()))["provenance"])
        provenance["config_sha256"] = {
            w: f"{info['provenance']['config_sha256']} (seed {seeds[-1]})"
            for w, info in runs.items()
        }
        entry = {"recorded": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                 "provenance": provenance, "seeds": args.seeds,
                 "seconds": args.seconds,
                 "medians": {w: {m: e["median"] for m, e in per.items()}
                             for w, per in summary.items()},
                 "spreads": {w: {m: round(e["spread"], 4) for m, e in per.items()}
                             for w, per in summary.items()}}
        with open(HERE / "trajectory.jsonl", "a", encoding="utf-8") as out:
            out.write(json.dumps(entry) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
