"""Host speed reference.

The benchmark shares a small machine with other tenants, and the speed
at which the same code runs drifts by a quarter or more within minutes
(see README.md). A fixed kernel that never calls the program, with the
program's kind of work (interpreted tree walks and loops around small
numpy operations), is timed in bursts while the program has no work in
flight: before and after each set-up and round, between requests and
CLI stages, and at the entry of the program functions named in
``adapter.SAMPLE_POINTS``, at most once per :data:`PERIOD_S`. Burst time
is taken out of the timings it falls in, and each timing is rescaled to
a host on which the kernel takes :data:`NOMINAL_S`, by the bursts during
and next to it. A change in the program moves a rescaled time by the
same share as the raw one, while most of the host's drift cancels out.
Raw timings are reported alongside.

No work in flight means no Python thread besides the main one and no
child process; otherwise the kernel would compete with the program's
own workers and the factor would depend on the program. Between calls,
:meth:`Sampler.take` raises :class:`ProgramBusy` when the process is not
idle, and the run fails. Inside a call, :meth:`Sampler.inside` skips the
burst instead, and does nothing in a process forked from the sampler's.
"""

from __future__ import annotations

import bisect
import functools
import os
import statistics
import threading
import time
from pathlib import Path

import numpy as np

# Typical kernel time on the 2-vCPU Intel Xeon (2.1 GHz) virtual machine
# the benchmark was defined on; rescaled times read as seconds on that machine.
NOMINAL_S = 0.0015
PERIOD_S = 0.1
BURST = 3  # timed kernel runs per burst, after one untimed warm-up run

_RNG = np.random.default_rng(20170307)
_X = _RNG.standard_normal((256, 24))
_Y = _RNG.integers(0, 16, 256)
_Q = _RNG.standard_normal((48, 24))


def _tree(depth: int):
    if depth == 0:
        return None
    return (int(_RNG.integers(0, 24)), float(_RNG.standard_normal()),
            _tree(depth - 1), _tree(depth - 1))


_TREES = [_tree(9) for _ in range(2)]


def kernel() -> int:
    """Fixed work: histogram splits as in forest training, then batched
    walks down object trees as in forest prediction."""
    total = 0
    for i in range(40):
        order = np.argsort(_X[:, i % 24])
        hist = np.bincount(_Y[order[: 64 + i % 128]], minlength=16)
        total += int(hist @ hist)
    for tree in _TREES:
        stack = [(tree, np.arange(_Q.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if node is None or rows.size == 0:
                total += rows.size
                continue
            right = _Q[rows, node[0]] >= node[1]
            stack.append((node[2], rows[~right]))
            stack.append((node[3], rows[right]))
    return total


class ProgramBusy(RuntimeError):
    """The program has threads or child processes alive between calls."""


def busy() -> str | None:
    """Why the process may have work in flight, or None when it has none."""
    threads = threading.active_count() - 1
    if threads:
        return f"{threads} Python thread(s) besides the main one"
    children = [pid for path in Path("/proc/self/task").glob("*/children")
                for pid in path.read_text().split()]
    if children:
        return f"child process(es) {', '.join(children)}"
    return None


class Sampler:
    """Kernel timings ``(start, seconds)``, :data:`BURST` per burst, and
    the ``(start, end)`` of each burst, warm-up run included."""

    def __init__(self):
        self.pid = os.getpid()
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.bursts: list[tuple[float, float]] = []

    def _due(self) -> bool:
        return not self.bursts or time.perf_counter() - self.bursts[-1][1] >= PERIOD_S

    def _burst(self) -> None:
        began = time.perf_counter()
        kernel()  # the program may have pushed the kernel's data out of the caches
        for _ in range(BURST):
            start = time.perf_counter()
            kernel()
            self.starts.append(start)
            self.seconds.append(time.perf_counter() - start)
        self.bursts.append((began, time.perf_counter()))

    def take(self) -> None:
        """A burst between the program's calls. Raises :class:`ProgramBusy`
        unless the process is idle."""
        reason = busy()
        if reason:
            raise ProgramBusy(f"cannot time the reference kernel alone: {reason}")
        self._burst()

    def between(self) -> None:
        """:meth:`take`, if :data:`PERIOD_S` has passed since the last burst."""
        if self._due():
            self.take()

    def inside(self) -> None:
        """A burst at a point inside a program call, if one is due and the
        process is idle; skipped otherwise."""
        if os.getpid() == self.pid and self._due() and busy() is None:
            self._burst()

    def paused(self, lo: float, hi: float) -> float:
        """Burst seconds inside ``[lo, hi]``."""
        total = 0.0
        for start, end in self.bursts[bisect.bisect_left(self.bursts, (lo - 1.0,)):]:
            if start > hi:
                break
            total += max(0.0, min(end, hi) - max(start, lo))
        return total

    def scale(self, lo: float, hi: float) -> float:
        """Factor taking a time measured in ``[lo, hi]`` to the nominal
        host: nominal over the harmonic mean kernel time of the last burst
        before ``lo``, the first burst after ``hi`` and any burst in
        between. Bursts come at roughly even intervals of time, so their
        mean speed, not their mean time, is the host's over ``[lo, hi]``."""
        first = max(0, bisect.bisect_right(self.starts, lo) - BURST)
        last = bisect.bisect_left(self.starts, hi) + BURST
        return NOMINAL_S / statistics.harmonic_mean(self.seconds[first:last])


def install(sampler: Sampler, points, resolve) -> list:
    """Call ``sampler.inside()`` on entry to each ``(owner, attribute)``
    point; returns the undo list for ``spans.uninstall``."""
    undo = []
    for owner_path, attr in points:
        owner = resolve(owner_path)
        original = getattr(owner, attr)
        undo.append((owner, attr, original))

        @functools.wraps(original)
        def entry(*args, _original=original, **kwargs):
            sampler.inside()
            return _original(*args, **kwargs)

        setattr(owner, attr, entry)
    return undo
