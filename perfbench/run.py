"""goofloc benchmark entry point.

    python3 perfbench/run.py --workload snr_sweep --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

With ``--trace 0`` the last line of standard output is one JSON object
holding every end-to-end metric ``BENCHMARK.json`` declares; with
``--trace 1`` it holds every per-layer metric. ``--workload all`` runs
each workload in its own process, one after the other, and prints what
each prints. Exit code 2 means the program or ``BENCHMARK.json`` is
missing from the checkout, and 3 that the program kept threads or child
processes alive between its calls, so host speed could not be sampled
(see ``hostspeed.py``); no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOAD_NAMES = ("snr_sweep", "online_locate", "staged_cli")


def cap_threads() -> None:
    """Cap numpy's BLAS and OpenMP pools at the CPUs this process may use.
    Must run before numpy is imported."""
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def _run_all(args) -> int:
    """Each workload in a child process, so peak memory is its own."""
    merged, status = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"{name} exited with code {done.returncode}", file=sys.stderr)
            status = status or done.returncode or 1
            continue
        merged[name] = json.loads(lines[-1])
    if not status:
        print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    cap_threads()
    root = Path(__file__).resolve().parent.parent
    if not (root / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json in {root}", file=sys.stderr)
        return 2
    try:
        import harness  # imports numpy and goofloc, so after cap_threads
    except ImportError as exc:  # includes adapter.ProgramMissing via its base
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    try:
        return harness.main_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.hostspeed.ProgramBusy as exc:
        print(f"{exc}; no result", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
