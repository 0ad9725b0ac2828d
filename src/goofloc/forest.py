"""Random-forest classifier bank, implemented from scratch.

One forest is trained per fingerprint family. Trees grow by drawing a
random feature subspace and random thresholds at every node and keeping
the candidate with the largest Shannon information gain (Extremely
Randomized Trees); leaves store class histograms. Prediction is majority
vote over the trees, ties broken toward the smallest grid label.

All trees of a forest grow together, one depth level per vectorized pass.
A node's random draws depend only on its position (forest seed, tree,
level, heap slot), never on the order in which nodes are grown, so the
level-wise trainer builds exactly the trees a depth-first grower reading
the same draws would build, and groups of trees grown in the workers of
a ``_tree_groups`` block (one per usable CPU, shared by a bank's forests)
concatenate into the table one process would build.

A forest is one node table: flat arrays over every tree's nodes in
pre-order, tree after tree. A split row's left child is the next row and
its right child lies ``right`` rows further on; a leaf row has
``right == 0``.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .fingerprints import KIND_ORDER, FingerprintKind, Goof
from .textio import one_of, positive_int, read_arrays, read_artifact, read_header, write_arrays

# split primitive -> feature indices (and weights) per split
PRIMITIVES = {"axis_aligned_stump": 1, "oriented_hyperplane_2d": 2}


def shannon_entropy(labels, class_count: int) -> float:
    """Entropy in bits of the empirical label distribution; empty -> 0."""
    arr = np.asarray(labels, dtype=int).ravel()
    if arr.size == 0:
        return 0.0
    if arr.min() < 1 or arr.max() > class_count:
        raise ValueError("labels must lie in 1..class_count")
    counts = np.bincount(arr, minlength=class_count + 1)[1:]
    p = counts[counts > 0] / arr.size
    # 0 - sum, not -sum: one label sums to +0.0, which negation turns into -0.0
    return float(0.0 - (p * np.log2(p)).sum())


@dataclass
class WeakLearnerSpec:
    """Per-node split primitive and its randomization budget."""

    primitive: str = "axis_aligned_stump"
    feature_subspace_size: int | None = None  # None -> ceil(sqrt(dim))
    threshold_candidates: int = 10

    def __post_init__(self):
        if self.primitive not in PRIMITIVES:
            raise ConfigError("primitive", f"unknown primitive {self.primitive!r}")
        if self.threshold_candidates < 1:
            raise ConfigError("threshold_candidates", "must be >= 1")

    def subspace(self, dim: int) -> int:
        m = self.feature_subspace_size
        if m is None:
            m = math.ceil(math.sqrt(dim))
        if not 1 <= m <= dim:
            raise ConfigError("feature_subspace", f"size {m} outside 1..{dim}")
        return m


# the node table's columns and the little-endian dtype each is stored as
_COLUMNS = {"features": "<i8", "weights": "<f8", "threshold": "<f8", "right": "<i8",
            "histogram": "<i8"}


def _depth(right: np.ndarray, roots: np.ndarray) -> int:
    """Levels on the longest root-to-leaf path of the trees whose first
    rows are ``roots`` in a node table with the ``right`` column."""
    level, rows = 0, roots
    while rows.size:
        level += 1
        step = right[rows]
        rows = rows[step > 0]
        rows = np.concatenate([rows + 1, rows + step[step > 0]])
    return level


@dataclass
class Tree:
    """The rows of one tree in a node table (views into the forest's)."""

    features: np.ndarray  # (n, arity) feature indices of a split row
    weights: np.ndarray  # (n, arity) projection weights of a split row
    threshold: np.ndarray  # (n,) samples with projection >= threshold go right
    right: np.ndarray  # (n,) rows from a split to its right child; 0 at a leaf
    histogram: np.ndarray  # (n, class_count) class counts of a leaf row

    def node_count(self) -> int:
        return len(self.right)

    def depth(self) -> int:
        """Levels on the longest root-to-leaf path."""
        return _depth(self.right, np.zeros(1, dtype=int))


# A node's draws are a counter-based hash (SplitMix64) of its key. The root
# key comes from the tree's rng and each child's key hashes its parent's
# key with its side, so a key names a position (seed, tree, level, heap
# slot) and no draw depends on the order in which nodes are grown.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SIDES = np.array([0xD1B54A32D192ED03, 0x8CB92BA72F3D8DD7], dtype=np.uint64)  # left, right
# Bound on the cells of a split-search chunk: its nodes start within one
# block of this many (pair, candidate) cells and one block of this many
# (class held, candidate, threshold bin) cells. Thresholds are binned and
# class terms looked up one at a time, so no array of the split search
# grows with t: each holds about one block (less than the bound plus its
# last node's share), the class-slot ones padded to the chunk's most mixed
# node. The bound caps the trainer's working set: a peak of about 5 MB
# while a 40-tree forest trains at 2^16. No result depends on it.
_CHUNK_CELLS = 1 << 16


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser: a bijective hash of an array of uint64 words."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniforms(keys: np.ndarray, count: int) -> np.ndarray:
    """(k, count) floats in [0, 1): the first ``count`` draws of each key."""
    steps = _GOLDEN * np.arange(1, count + 1, dtype=np.uint64)
    return (_mix(keys[:, None] + steps) >> np.uint64(11)) * 2.0**-53


def _child_keys(keys: np.ndarray, side: np.ndarray) -> np.ndarray:
    """Keys of the children on ``side`` (0 left, 1 right) of nodes ``keys``."""
    return _mix(keys ^ _SIDES[side])


def _node_draws(keys: np.ndarray, dim: int, spec: WeakLearnerSpec):
    """Candidate splits of the nodes with ``keys``: feature indices and
    weights, each (k, m, arity), and threshold uniforms (k, m, t)."""
    m, t = spec.subspace(dim), spec.threshold_candidates
    if spec.primitive == "axis_aligned_stump":
        u = _uniforms(keys, dim + m * t)
        # m distinct features: those with the m smallest of one draw each,
        # in index order
        feats = np.sort(np.argpartition(u[:, :dim], m - 1, axis=1)[:, :m], axis=1)[..., None]
        weights = np.ones(feats.shape)
    else:
        u = _uniforms(keys, 3 * m + m * t)
        first = np.minimum((u[:, :m] * dim).astype(np.intp), dim - 1)
        skip = np.minimum((u[:, m : 2 * m] * (dim - 1)).astype(np.intp), dim - 2)
        feats = np.stack([first, (first + 1 + skip) % dim], axis=2)
        angles = 2.0 * math.pi * u[:, 2 * m : 3 * m]
        weights = np.stack([np.cos(angles), np.sin(angles)], axis=2)
    return feats, weights, u[:, u.shape[1] - m * t :].reshape(len(keys), m, t)


def _xlogx(n: int) -> np.ndarray:
    """``c * log2(c)`` for the counts c = 0..n (0 at c = 0)."""
    c = np.arange(n + 1, dtype=float)
    return c * np.log2(np.maximum(c, 1.0))


def _class_sum(values: np.ndarray) -> np.ndarray:
    """Sum over axis 1 (classes), one class at a time in class order, so
    classes with zero terms can be left out without changing a bit."""
    total = values[:, 0]
    for i in range(1, values.shape[1]):
        total = total + values[:, i]
    return total


def _pair_table(counts: np.ndarray, xlogx: np.ndarray):
    """``(table, at)`` with ``table[at[r] + p] == xlogx[p] + xlogx[r - p]``
    for 0 <= p <= r, every count r in ``counts`` and r = 0: one segment per
    distinct count, so the table grows with the counts, not their square."""
    seen = np.bincount(counts)
    seen[0] = 1
    r = np.flatnonzero(seen)
    at = np.zeros(r[-1] + 1, dtype=np.intp)
    at[r] = np.cumsum(r + 1) - (r + 1)
    p = np.arange(at[-1] + r[-1] + 1) - np.repeat(at[r], r + 1)
    return xlogx[p] + xlogx[np.repeat(r, r + 1) - p], at


def _split_gain(part: np.ndarray, parent: np.ndarray, xlogx: np.ndarray, pairs) -> np.ndarray:
    """Information gain in bits of splitting the class counts ``parent``
    into ``part`` and the rest, classes along axis 1 of both (``parent``
    broadcasts against ``part``); 0 where either side is empty. Swapping
    ``part`` and the rest, or dropping classes that neither holds, gives
    the same value bit for bit.

    Uses n H(counts) = n log2 n - sum_c c log2 c, so every entropy term is
    a lookup in ``xlogx``; a class's two child terms, ``xlogx[p] +
    xlogx[r - p]``, are one lookup in the ``pairs`` that :func:`_pair_table`
    built over the class and node counts, the same float sum.
    """
    table, at = pairs
    n = parent.sum(axis=1)
    n_part = part.sum(axis=1)
    # one class at a time, in class order (the float sum _class_sum gives),
    # so no index or term array spans every class
    ends = at[parent]
    terms = table[ends[:, 0] + part[:, 0]]
    for i in range(1, part.shape[1]):
        terms += table[ends[:, i] + part[:, i]]
    children = table[at[n] + n_part] - terms
    gain = (xlogx[n] - _class_sum(xlogx[parent]) - children) / n
    return np.where((n_part > 0) & (n_part < n), gain, 0.0)


def _split_level(x, rows, label, node, hist, keys, search, spec, xlogx):
    """Best split of every node of one level whose ``search`` is set.

    ``rows``/``label``/``node`` describe the level's (tree, sample) pairs,
    sorted by node; ``hist`` is each node's (k, q) class counts. Returns the
    split mask, the chosen features, weights and threshold of each node
    (zeros where it does not split) and, per pair, whether it goes right.

    Searched nodes are scored in chunks. Each projection is compared with
    its node's sorted thresholds one threshold at a time, counting the
    thresholds it reaches, its bin; one bincount over (bin, class, node,
    candidate) counts the chunk, and running sums over the bins give every
    candidate's left-child class counts. Each array of a chunk holds about
    one block of ``_CHUNK_CELLS`` cells; t does not multiply it. A node's
    classes are renumbered to those it holds, so the counts of a chunk have
    as many class slots as its most mixed node. Equal thresholds cut alike
    and share a gain, so the first maximum in draw order is the least draw
    index among the cells of the maximum, whatever order sorting gave equal
    thresholds.
    """
    k, q = hist.shape
    dim = x.shape[1]
    m, t = spec.subspace(dim), spec.threshold_candidates
    arity = PRIMITIVES[spec.primitive]
    split = np.zeros(k, dtype=bool)
    feats = np.zeros((k, arity), dtype=np.intp)
    weights = np.zeros((k, arity))
    threshold = np.zeros(k)
    go_right = np.zeros(node.size, dtype=bool)
    if not search.any():
        return split, feats, weights, threshold, go_right
    present = hist > 0
    # searched nodes, fewest classes first, so that a chunk pads few slots;
    # each node's pairs stay one run, in the same order
    nodes = np.flatnonzero(search)
    width = present[nodes].sum(axis=1)
    fewest = np.argsort(width, kind="stable")
    nodes, width = nodes[fewest], width[fewest]
    rank = np.zeros(k, dtype=np.intp)
    rank[nodes] = np.arange(nodes.size)
    pairs = np.flatnonzero(search[node])
    pairs = pairs[np.argsort(rank[node[pairs]], kind="stable")]
    sizes = hist[nodes].sum(axis=1)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    chunk = (starts[:-1] // max(1, _CHUNK_CELLS // m)
             + (np.cumsum(width) - width) // max(1, _CHUNK_CELLS // (m * (t + 1))))
    bounds = [0, *(np.flatnonzero(np.diff(chunk)) + 1), nodes.size]
    # each pair's class slot among the classes its node holds
    slot = (np.cumsum(present, axis=1) - 1)[node[pairs], label[pairs]]
    lookup = _pair_table(np.concatenate([hist[nodes].ravel(), sizes]), xlogx)
    flat = x.ravel()
    for a, b in zip(bounds[:-1], bounds[1:]):
        ids, c, q_c, run = nodes[a:b], b - a, width[b - 1], sizes[a:b]
        at = pairs[starts[a] : starts[b]]
        # (class slot, node) of each pair
        member = slot[starts[a] : starts[b]] * c + np.repeat(np.arange(c), run)
        f, w, u = _node_draws(keys[ids], dim, spec)
        # each node's draws repeated over its run of pairs: (S, m, arity)
        f_at, w_at = np.repeat(f, run, axis=0), np.repeat(w, run, axis=0)
        base = rows[at, None] * dim
        proj = np.take(flat, base + f_at[..., 0]) * w_at[..., 0]  # (S, m)
        for i in range(1, arity):
            proj += np.take(flat, base + f_at[..., i]) * w_at[..., i]
        offsets = starts[a:b] - starts[a]
        lo = np.minimum.reduceat(proj, offsets)
        hi = np.maximum.reduceat(proj, offsets)
        cut = lo[..., None] + (hi - lo)[..., None] * u  # (c, m, t)
        ascending = np.sort(cut, axis=2).transpose(2, 0, 1)  # (t, c, m)
        # one threshold at a time, counted in the smallest type that holds
        # t: bytes add fastest
        bins = np.zeros(proj.shape, dtype=np.min_scalar_type(t))
        for j in range(t):
            bins += proj >= np.repeat(ascending[j], run, axis=0)
        span = q_c * c * m
        cell = np.multiply(bins, span, dtype=np.intp) + (member[:, None] * m + np.arange(m))
        counts = np.bincount(cell.ravel(), minlength=(t + 1) * span)
        # samples left of the j-th smallest threshold sit in bins 0..j; one
        # add per bin runs over whole slabs, where cumsum steps row by row
        left = counts[: t * span].reshape(t, q_c, c, m)
        for j in range(1, t):
            left[j] += left[j - 1]
        parent = np.bincount(member, minlength=q_c * c).reshape(1, q_c, c, 1)
        gain = _split_gain(left, parent, xlogx, lookup)  # (t, c, m), thresholds ascending
        top = gain.max(axis=0).max(axis=1)
        drawn = np.arange(m) * t + np.argsort(cut, axis=2).transpose(2, 0, 1)
        best = np.where(gain == top[:, None], drawn, m * t).min(axis=0).min(axis=1)
        ok = top > 1e-12
        cand, j = np.divmod(best, t)
        chosen = cut[np.arange(c), cand, j]
        split[ids] = ok
        feats[ids[ok]] = f[ok, cand[ok]]
        weights[ids[ok]] = w[ok, cand[ok]]
        threshold[ids[ok]] = chosen[ok]
        picked = np.take(proj, np.arange(at.size) * m + np.repeat(cand, run))
        go_right[at] = picked >= np.repeat(chosen, run)
    return split, feats, weights, threshold, go_right


def _preorder(levels: list, q: int) -> dict:
    """Node table of the level records ``(split, features, weights,
    threshold, histogram)``. Each level lists its nodes tree by tree and
    left to right; the next level holds the children of its split nodes, in
    (left, right) pairs. Subtree sizes, summed bottom-up, give every split's
    right offset (one past its left subtree) and, top-down, every row."""
    sizes = [np.ones(len(levels[-1][0]), dtype=np.intp)]
    for split, *_ in reversed(levels[:-1]):
        size = np.ones(len(split), dtype=np.intp)
        size[split] += sizes[0][0::2] + sizes[0][1::2]
        sizes.insert(0, size)
    total, arity = int(sizes[0].sum()), levels[0][1].shape[1]
    table = {
        "features": np.zeros((total, arity), dtype=np.intp),
        "weights": np.zeros((total, arity)),
        "threshold": np.zeros(total),
        "right": np.zeros(total, dtype=np.intp),
        "histogram": np.zeros((total, q), dtype=np.int64),
        "roots": np.concatenate([[0], np.cumsum(sizes[0])[:-1]]),
    }
    row = table["roots"]
    for i, (split, *columns) in enumerate(levels):
        for name, column in zip(("features", "weights", "threshold", "histogram"), columns):
            table[name][row] = column
        if split.any():
            parent, below = row[split], sizes[i + 1]
            table["right"][parent] = right = 1 + below[0::2]
            row = np.stack([parent + 1, parent + right], axis=1).ravel()
    return table


def _grow_levels(x, y, boots, keys, depth_limit: int, spec: WeakLearnerSpec, q: int) -> dict:
    """Node table of the trees grown over the rows ``boots[i]`` of ``x``
    from root keys ``keys[i]``, in this process.

    All trees grow together, one level per pass; each (tree, sample) pair
    carries its current node. A node splits when it lies above the depth
    limit, holds two or more classes and its best candidate gains more than
    1e-12 bits; otherwise it is a leaf holding its class histogram.
    """
    xlogx = _xlogx(boots.shape[1])
    rows = boots.ravel()
    label = y[rows] - 1
    node = np.repeat(np.arange(len(keys)), boots.shape[1])
    levels = []
    for level in range(1, depth_limit + 1):
        k = len(keys)
        hist = np.bincount(node * q + label, minlength=k * q).reshape(k, q)
        search = ((hist > 0).sum(axis=1) > 1) & (level < depth_limit)
        split, *columns, go_right = _split_level(x, rows, label, node, hist, keys, search, spec,
                                                 xlogx)
        hist[split] = 0
        levels.append((split, *columns, hist))
        if not split.any():
            break
        keep = split[node]
        child = 2 * (np.cumsum(split) - 1)[node[keep]] + go_right[keep]
        order = np.argsort(child, kind="stable")
        rows, label, node = rows[keep][order], label[keep][order], child[order]
        keys = _child_keys(np.repeat(keys[split], 2), np.tile([0, 1], int(split.sum())))
    return _preorder(levels, q)


def worker_count(tasks: int) -> int:
    """Processes for ``tasks`` independent tasks: one per usable CPU (the
    process's CPU affinity, so ``taskset`` narrows it), no more than there
    are tasks, and one where the affinity cannot be read."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(tasks, len(os.sched_getaffinity(0)))


# Cleared in a sweep's worker processes, whose cells already keep every
# CPU busy: a forest trained there grows in its own process.
_TREE_GROUPS = True


def grow_trees_in_process() -> None:
    """Grow every forest this process trains from now on in the process
    itself, never in tree groups."""
    global _TREE_GROUPS
    _TREE_GROUPS = False


_WORKERS: list | None = None  # the open _tree_groups block's (pid, task fd, result fd)


def _fork_worker() -> tuple:
    """Fork a worker that grows each tree group read from its task pipe (the
    arguments of :func:`_grow_levels`) and pickles back the node table, or
    the error, until the pipe closes. Returns its pid and pipe ends."""
    task_read, task_write = os.pipe()
    result_read, result_write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the worker: never returns
        try:
            # its parent's ends of its own pipes and of the earlier workers'
            for fd in [task_write, result_read, *(fd for _, *fds in _WORKERS for fd in fds)]:
                os.close(fd)
            with open(task_read, "rb") as tasks, open(result_write, "wb") as results:
                while True:
                    task = pickle.load(tasks)  # EOFError once the task pipe closes
                    try:
                        outcome = (True, _grow_levels(*task))
                    except Exception as exc:
                        outcome = (False, exc)
                    pickle.dump(outcome, results, pickle.HIGHEST_PROTOCOL)
                    results.flush()
        except EOFError:
            os._exit(0)
        finally:
            os._exit(1)
    os.close(task_read)
    os.close(result_write)
    return pid, task_write, result_read


@contextmanager
def _tree_groups(trees: int):
    """A block in which :func:`_fit_levels` grows tree groups in workers
    forked for it, one per usable CPU but this one (:func:`worker_count`),
    unless forking is unsafe (a thread is alive) or unwanted (a sweep's
    worker); nested blocks share them. No thread is started. The outermost
    block's exit reaps the workers, already killed if a group failed."""
    global _WORKERS
    if _WORKERS is not None:
        yield
        return
    _WORKERS = []
    try:
        if _TREE_GROUPS and hasattr(os, "fork") and threading.active_count() == 1:
            for _ in range(worker_count(trees) - 1):
                _WORKERS.append(_fork_worker())
        yield
    finally:
        for pid, *fds in _WORKERS:
            for fd in fds:
                os.close(fd)
            os.waitpid(pid, 0)
        _WORKERS = None


def _fit_levels(x, y, boots, keys, depth_limit: int, spec: WeakLearnerSpec, q: int) -> dict:
    """Node table (the columns of :class:`Tree` and ``roots``) of the
    trees grown over the rows ``boots[i]`` of ``x`` from root keys
    ``keys[i]``.

    Contiguous groups of the trees grow one in this process and one in
    each worker of the open :func:`_tree_groups` block, if any. Each tree's
    draws depend on its own key alone, so the groups' tables, concatenated
    in tree order, are the table of one process growing every tree. The
    error raised is the first in group order; it kills the workers.
    """
    workers = (_WORKERS or [])[: len(keys) - 1]
    cuts = [len(keys) * i // (len(workers) + 1) for i in range(len(workers) + 2)]
    tasks = [(x, y, boots[a:b], keys[a:b], depth_limit, spec, q) for a, b in zip(cuts, cuts[1:])]
    try:
        for (_, task_write, _), task in zip(workers, tasks[1:]):
            with open(task_write, "wb", closefd=False) as pipe:
                pickle.dump(task, pipe, pickle.HIGHEST_PROTOCOL)
        tables = [_grow_levels(*tasks[0])]
        for pid, _, result_read in workers:
            with open(result_read, "rb", closefd=False) as pipe:
                try:
                    ok, value = pickle.load(pipe)
                except EOFError:
                    raise RuntimeError(f"tree group process {pid} died") from None
            if not ok:
                raise value
            tables.append(value)
    except BaseException:
        for pid, *_ in workers:  # no use finishing the other groups
            os.kill(pid, signal.SIGKILL)
        raise
    table = {name: np.concatenate([t[name] for t in tables]) for name in _COLUMNS}
    starts = np.cumsum([0] + [len(t["right"]) for t in tables[:-1]])
    table["roots"] = np.concatenate([t["roots"] + start for t, start in zip(tables, starts)])
    return table


def _training_set(samples, labels, tree_count: int, depth_limit: int, spec: WeakLearnerSpec,
                  class_count: int | None):
    """Validated (x, y, class count): every check training makes, before any fork."""
    if tree_count < 1:
        raise ConfigError("tree_count", "must be >= 1")
    x = np.asarray(samples, dtype=float)
    y = np.asarray(labels, dtype=int)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[0] != y.shape[0]:
        raise ValueError("need >= 1 sample with one label per sample")
    q = int(y.max()) if class_count is None else class_count
    if y.min() < 1 or y.max() > q:
        raise ValueError("labels must lie in 1..class_count")
    arity = PRIMITIVES[spec.primitive]
    if x.shape[1] < arity:
        raise ConfigError("primitive", f"{spec.primitive} needs at least {arity} features")
    if depth_limit < 1:
        raise ConfigError("depth_limit", "must be >= 1")
    spec.subspace(x.shape[1])  # a bad subspace size fails here, not at the first split
    return x, y, q


def _forest_draws(seed: int, tree_count: int, n: int):
    """Bootstrap rows (T, n) and root keys (T,) of a forest's trees, each
    tree's from its own rng spawned from ``seed``."""
    boots, keys = [], []
    for child in np.random.SeedSequence(seed).spawn(tree_count):
        rng = np.random.default_rng(child)
        boots.append(rng.integers(0, n, size=n))
        keys.append(rng.integers(0, 2**64, dtype=np.uint64))
    return np.array(boots), np.array(keys, dtype=np.uint64)


@dataclass
class Forest:
    """A trained forest for one fingerprint family: one node table with
    the columns of :class:`Tree` over all trees, and each tree's first row."""

    features: np.ndarray
    weights: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    histogram: np.ndarray
    roots: np.ndarray  # (T,) row of each tree's root
    depth_limit: int
    feature_dim: int
    seed: int
    spec: WeakLearnerSpec = field(default_factory=WeakLearnerSpec)
    kind: FingerprintKind | None = None

    @property
    def class_count(self) -> int:
        return self.histogram.shape[1]

    @property
    def tree_count(self) -> int:
        return len(self.roots)

    @property
    def trees(self) -> list[Tree]:
        ends = [*self.roots[1:], len(self.right)]
        columns = [getattr(self, name) for name in _COLUMNS]
        return [Tree(*(c[a:b] for c in columns)) for a, b in zip(self.roots, ends)]

    @cached_property
    def _descent(self) -> tuple:
        """What :meth:`predict_batch` walks, derived once: each row's left
        and right child (a leaf points to itself), its 0-based leaf label
        (the first maximum of its histogram), the table's realized depth
        (a loaded table may hold deeper trees than ``depth_limit``) and a
        contiguous (feature, weight) column pair per split operand."""
        rows = np.arange(len(self.right))
        split = self.right > 0
        left = np.where(split, rows + 1, rows)
        right = rows + self.right
        depth = _depth(self.right, self.roots)
        operands = [
            (np.ascontiguousarray(self.features[:, i]), np.ascontiguousarray(self.weights[:, i]))
            for i in range(self.features.shape[1])
        ]
        return left, right, self.histogram.argmax(axis=1), depth, operands

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """Majority-vote labels for an (n, dim) sample matrix. All trees
        descend together: an (n, T) matrix of rows moves one level per
        step, realized depth - 1 steps, each projection gathered from the
        flat sample matrix."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.feature_dim:
            raise ValueError(f"expected (n, {self.feature_dim}) features")
        n, q = x.shape[0], self.class_count
        left, right, leaf_label, depth, ((f0, w0), *more) = self._descent
        flat = x.ravel()
        sample = np.arange(n)[:, None]
        base = sample * self.feature_dim
        node = np.tile(self.roots, (n, 1))
        for _ in range(depth - 1):
            # x_f0 * w0 (+ x_f1 * w1): bit for bit the sum over the operands
            proj = flat[base + f0[node]] * w0[node]
            for f, w in more:
                proj = proj + flat[base + f[node]] * w[node]
            node = np.where(proj >= self.threshold[node], right[node], left[node])
        votes = np.bincount((leaf_label[node] + q * sample).ravel(), minlength=n * q)
        return votes.reshape(n, q).argmax(axis=1) + 1  # first max: smallest label wins ties


def train_forest(
    samples,
    labels,
    tree_count: int,
    depth_limit: int,
    spec: WeakLearnerSpec,
    seed: int,
    class_count: int | None = None,
    kind: FingerprintKind | None = None,
) -> Forest:
    """Train ``tree_count`` trees on bootstrap resamples.

    Each tree's bootstrap and root key come from its own rng stream derived
    from ``seed`` and every node's draws from its key, so training is a
    deterministic function of (data, hyperparameters, seed), whichever
    processes grow the trees (see :func:`_tree_groups`).
    """
    x, y, q = _training_set(samples, labels, tree_count, depth_limit, spec, class_count)
    boots, keys = _forest_draws(seed, tree_count, len(y))
    with _tree_groups(tree_count):
        table = _fit_levels(x, y, boots, keys, depth_limit, spec, q)
    return Forest(
        **table,
        depth_limit=depth_limit,
        feature_dim=x.shape[1],
        seed=seed,
        spec=spec,
        kind=kind,
    )


@dataclass
class PredictionMatrix:
    """Z test samples by H classifiers of predicted grid labels."""

    matrix: np.ndarray  # (Z, H) int
    true_label: int | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=int)
        if self.matrix.ndim != 2:
            raise ValueError("prediction matrix must be 2-D")


@dataclass
class ClassifierBank:
    """One trained forest per fingerprint kind, in the fixed kind order."""

    forests: dict  # FingerprintKind -> Forest

    def __post_init__(self):
        missing = [k.value for k in KIND_ORDER if k not in self.forests]
        if missing:
            raise ValueError(f"bank is missing forests for: {', '.join(missing)}")


def key_seed(*key: int) -> int:
    """One integer seed drawn from the seed sequence of ``key``."""
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def train_bank(
    goof: Goof,
    tree_count: int,
    depth_limit: int,
    spec: WeakLearnerSpec,
    seed: int | tuple[int, ...],
    class_count: int | None = None,
) -> ClassifierBank:
    """Train the whole bank from a training fingerprint store.

    ``seed`` is an int or a key tuple of ints (such as a sweep cell key);
    forest i is seeded from ``(*key, 100 + i)``. Every family's arguments
    are checked before the six forests grow in one :func:`_tree_groups`.
    """
    key = tuple(seed) if isinstance(seed, tuple) else (seed,)
    for kind in KIND_ORDER:
        _training_set(*goof.stack(kind), tree_count, depth_limit, spec, class_count)
    with _tree_groups(tree_count):
        forests = {kind: train_forest(*goof.stack(kind), tree_count, depth_limit, spec,
                                      key_seed(*key, 100 + i), class_count=class_count, kind=kind)
                   for i, kind in enumerate(KIND_ORDER)}
    return ClassifierBank(forests=forests)


def predict_matrix(bank: ClassifierBank, samples_by_kind, true_label=None) -> PredictionMatrix:
    """Prediction matrix B for aligned per-kind test samples.

    ``samples_by_kind`` maps every kind to an equal-length sequence of
    feature vectors; row z collects each classifier's label for sample z.
    """
    xs = [np.asarray(samples_by_kind[kind], dtype=float) for kind in KIND_ORDER]
    if len({len(x) for x in xs}) != 1:
        raise ValueError("every kind must supply the same number of test samples")
    if len(xs[0]) < 1:
        raise ValueError("need at least one test sample")
    cols = [bank.forests[kind].predict_batch(x) for kind, x in zip(KIND_ORDER, xs)]
    return PredictionMatrix(matrix=np.stack(cols, axis=1), true_label=true_label)


FOREST_MAGIC = "GOOF-FOREST"
FOREST_VERSION = 2


def serialize_forest(forest: Forest) -> bytes:
    """The header fields, then the node table's columns as the fixed
    little-endian arrays of ``_COLUMNS``; byte-identical for identical
    forests. ``roots`` is not stored: the reader derives it."""
    header = {
        "kind": forest.kind.value if forest.kind else "none",
        "class_count": forest.class_count,
        "depth_limit": forest.depth_limit,
        "tree_count": forest.tree_count,
        "node_count": len(forest.right),
        "feature_dim": forest.feature_dim,
        "seed": forest.seed,
        "primitive": forest.spec.primitive,
        "feature_subspace": forest.spec.feature_subspace_size or 0,
        "threshold_candidates": forest.spec.threshold_candidates,
    }
    columns = [(dtype, getattr(forest, name)) for name, dtype in _COLUMNS.items()]
    return write_arrays(FOREST_MAGIC, FOREST_VERSION, header, columns)


def _tree_roots(right: list, at: int) -> list:
    """First row of each tree, after checking in one pass that ``right``
    (the column's values; ``at`` is its byte offset) holds whole pre-order
    trees: a stack holds the splits whose left subtree is open (on a
    ``None`` for the tree), and the leaf that closes one must sit just
    before that split's right child."""
    roots, open_splits = [], []
    for row, step in enumerate(right):
        if not open_splits:
            roots.append(row)
            open_splits.append(None)
        if step > 0:
            open_splits.append(row)
        elif step < 0:
            raise FormatError(f"negative right offset in row {row}", at + 8 * row)
        else:
            split = open_splits.pop()
            if split is not None and split + right[split] != row + 1:
                raise FormatError(f"right offset of row {split} is not its right child",
                                  at + 8 * split)
    if open_splits:
        raise FormatError(f"tree {len(roots) - 1} ends before its last leaf", at + 8 * len(right))
    return roots


def deserialize_forest(raw: bytes) -> Forest:
    """Read a :func:`serialize_forest` file, checking what prediction
    relies on: the payload's length, every row's feature indices (leaf rows
    are gathered too) and that ``right`` forms ``tree_count`` whole trees.
    A bad header field is a FormatError naming its line, a bad payload one
    carrying its byte offset."""
    doc, offset = read_header(raw, FOREST_MAGIC, FOREST_VERSION)
    kind = doc.get("kind", lambda text: None if text == "none" else FingerprintKind(text), None)
    class_count = doc.get("class_count", positive_int)
    feature_dim = doc.get("feature_dim", positive_int)
    tree_count = doc.get("tree_count", positive_int)
    n = doc.get("node_count", positive_int)
    spec = WeakLearnerSpec(
        primitive=doc.get("primitive", one_of(*PRIMITIVES), "axis_aligned_stump"),
        feature_subspace_size=doc.get("feature_subspace", int, 0) or None,
        threshold_candidates=doc.get("threshold_candidates", positive_int, 10),
    )
    arity = PRIMITIVES[spec.primitive]
    shapes = {"features": (n, arity), "weights": (n, arity), "threshold": (n,), "right": (n,),
              "histogram": (n, class_count)}
    table = dict(zip(_COLUMNS, read_arrays(
        raw, offset, [(dtype, shapes[name]) for name, dtype in _COLUMNS.items()]
    )))
    outside = ((table["features"] < 0) | (table["features"] >= feature_dim)).ravel()
    if outside.any():
        raise FormatError(f"feature index outside 0..{feature_dim - 1}",
                          offset + 8 * int(outside.argmax()))
    at = offset + sum(table[name].nbytes for name in ("features", "weights", "threshold"))
    roots = _tree_roots(table["right"].tolist(), at)
    if len(roots) != tree_count:
        raise FormatError(
            f"line {doc.values['tree_count'][1]}: tree_count={tree_count}, "
            f"but {len(roots)} whole trees follow"
        )
    return Forest(
        **table,
        roots=np.array(roots, dtype=np.intp),
        depth_limit=doc.get("depth_limit", positive_int),
        feature_dim=feature_dim,
        seed=doc.get("seed", int),
        spec=spec,
        kind=kind,
    )


def save_bank(bank: ClassifierBank, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for kind in KIND_ORDER:
        path = directory / f"forest_{kind.value}.goofforest"
        path.write_bytes(serialize_forest(bank.forests[kind]))


def load_bank(directory) -> ClassifierBank:
    forests = {}
    for kind in KIND_ORDER:
        path = Path(directory) / f"forest_{kind.value}.goofforest"
        forests[kind] = deserialize_forest(read_artifact(path))
    return ClassifierBank(forests=forests)
