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

A forest is one node table: flat arrays over every tree's nodes in the
level order they grow in (root, then each level left to right), tree
after tree. One ``split`` flag per row places every row: the children of
the table's k-th split (splits counted from row 0), which lies in tree t,
are rows t + 1 + 2k and t + 2 + 2k, and a tree ends where the running
count of open child slots, ``cumsum(2 split - 1)``, first reaches a new
low.
"""

from __future__ import annotations

import math
import os
import pickle
import select
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
_MAX_CANDIDATES = 1 << 16  # the bound on t: a node's m t draws are one array (_node_draws)


@dataclass
class WeakLearnerSpec:
    """Per-node split primitive and its randomization budget."""

    primitive: str = "axis_aligned_stump"
    feature_subspace_size: int | None = None  # None -> ceil(sqrt(dim))
    threshold_candidates: int = 10

    def __post_init__(self):
        if self.primitive not in PRIMITIVES:
            raise ConfigError("primitive", f"unknown primitive {self.primitive!r}")
        if not 1 <= self.threshold_candidates <= _MAX_CANDIDATES:
            raise ConfigError("threshold_candidates", f"must be in 1..{_MAX_CANDIDATES}")

    def subspace(self, dim: int) -> int:
        m = self.feature_subspace_size
        if m is None:
            m = math.ceil(math.sqrt(dim))
        if not 1 <= m <= dim:
            raise ConfigError("feature_subspace", f"size {m} outside 1..{dim}")
        return m


# the node table's columns and the little-endian dtype each is stored as
_COLUMNS = {"features": "<i8", "weights": "<f8", "threshold": "<f8", "split": "<u1",
            "histogram": "<i8"}


def _tree_ends(split: np.ndarray) -> np.ndarray:
    """Last row of each tree in a ``split`` column: a row fills one open
    child slot and a split opens two, so a tree ends where the running
    count ``cumsum(2 split - 1)`` first reaches a new low below 0."""
    low = np.minimum.accumulate(np.minimum(np.cumsum(2 * split.astype(np.intp) - 1), 0))
    return np.flatnonzero(np.diff(low, prepend=0))


def _left_child(split: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Each split row's left child, t + 1 + 2k for the table's k-th split
    in tree t (its right child is the next row); unused at a leaf row."""
    tree = np.zeros(split.size, dtype=np.intp)
    tree[roots[1:]] = 1
    return np.cumsum(tree) + 1 + 2 * (np.cumsum(split) - split)


# A node's draws are a counter-based hash (SplitMix64) of its key. The root
# key comes from the tree's rng and each child's key hashes its parent's
# key with its side, so a key names a position (seed, tree, level, heap
# slot) and no draw depends on the order in which nodes are grown.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SIDES = np.array([0xD1B54A32D192ED03, 0x8CB92BA72F3D8DD7], dtype=np.uint64)  # left, right
# Bound on the cells of a split-search chunk: its nodes start within one
# block of this many (pair, candidate) cells and one block of this many
# (class held, candidate, threshold bin) cells. Thresholds are binned one
# at a time, so no array of the split search grows with t: each holds less
# than one block plus its last node's share. The bound caps the trainer's
# working set: a peak of about 5 MB while a 40-tree forest trains at 2^16.
# No result depends on it.
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


def _split_gain(left: np.ndarray, parent: np.ndarray, owner: np.ndarray, n: np.ndarray,
                xlogx: np.ndarray, pairs) -> np.ndarray:
    """Information gain in bits, (t, c, m), of splitting c nodes of ``n``
    samples each into ``left`` (t, S, m) and the rest; 0 where either side
    is empty. Class slot s holds ``parent[s]`` samples of node
    ``owner[s]``; a node's slots are consecutive and in class order.
    Swapping ``left`` and the rest, or dropping classes that neither holds,
    gives the same value bit for bit.

    Uses n H(counts) = n log2 n - sum_c c log2 c, so every entropy term is
    a lookup in ``xlogx``; a class's two child terms, ``xlogx[p] +
    xlogx[r - p]``, are one lookup in the ``pairs`` that :func:`_pair_table`
    built over the class and node counts, the same float sum. ``bincount``
    adds its weights one at a time in input order, so each node's terms
    are summed in class order (``reduceat`` does not: it sums integers).
    """
    table, at = pairs
    c, m = n.size, left.shape[2]
    n_left = np.add.reduceat(left, np.searchsorted(owner, np.arange(c)), axis=1)
    # one threshold at a time, so no term array spans every threshold;
    # each (slot, candidate) adds to its (node, candidate)
    node = (owner[:, None] * m + np.arange(m)).ravel()
    ends = at[parent][:, None]
    terms = np.stack([np.bincount(node, table[ends + part].ravel(), c * m) for part in left])
    children = table[at[n][:, None] + n_left] - terms.reshape(n_left.shape)
    gain = ((xlogx[n] - np.bincount(owner, xlogx[parent], c))[:, None] - children) / n[:, None]
    return np.where((n_left > 0) & (n_left < n[:, None]), gain, 0.0)


def _split_level(x, rows, label, node, hist, keys, search, spec, xlogx):
    """Best split of every node of one level whose ``search`` is set.

    ``rows``/``label``/``node`` describe the level's (tree, sample) pairs,
    sorted by node; ``hist`` is each node's (k, q) class counts. Returns the
    split mask, the chosen features, weights and threshold of each node
    (zeros where it does not split) and, per pair, whether it goes right.

    Searched nodes are scored in chunks. Each projection is compared with
    its node's sorted thresholds one threshold at a time, counting the
    thresholds it reaches, its bin; one bincount over (bin, class slot,
    candidate) counts the chunk, and running sums over the bins give every
    candidate's left-child class counts. A node has one slot per class it
    holds, so each array of a chunk holds about one block of
    ``_CHUNK_CELLS`` cells; t does not multiply it. The gain's bincount adds
    a node's slots one at a time in class order, bit for bit the sum of a
    class-by-class loop. Equal thresholds cut alike and share a gain, so
    the first maximum in draw order is the least draw index among the cells
    of the maximum, whatever order sorting gave equal thresholds.
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
    # one class slot per (searched node, class it holds), node by node in
    # class order; a node's pairs are one run (pairs stay sorted by node)
    held = (hist > 0) & search[:, None]
    nodes = np.flatnonzero(search)
    pairs = np.flatnonzero(search[node])
    slot = (np.cumsum(held.ravel()) - 1).reshape(k, q)[node[pairs], label[pairs]]
    parent = hist[held]  # each slot's sample count
    owner = np.nonzero(held[nodes])[0]  # each slot's node
    sizes = hist[nodes].sum(axis=1)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    first = np.concatenate([[0], np.cumsum(held[nodes].sum(axis=1))])  # each node's first slot
    chunk = (starts[:-1] // max(1, _CHUNK_CELLS // m)
             + first[:-1] // max(1, _CHUNK_CELLS // (m * (t + 1))))
    bounds = [0, *(np.flatnonzero(np.diff(chunk)) + 1), nodes.size]
    lookup = _pair_table(np.concatenate([parent, sizes]), xlogx)
    flat = x.ravel()
    for a, b in zip(bounds[:-1], bounds[1:]):
        ids, c, run, s = nodes[a:b], b - a, sizes[a:b], slice(first[a], first[b])
        at = pairs[starts[a] : starts[b]]
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
        span = (first[b] - first[a]) * m
        member = (slot[starts[a] : starts[b]] - first[a])[:, None] * m + np.arange(m)
        cell = np.multiply(bins, span, dtype=np.intp) + member
        counts = np.bincount(cell.ravel(), minlength=(t + 1) * span)
        # samples left of the j-th smallest threshold sit in bins 0..j; one
        # add per bin runs over whole slabs, where cumsum steps row by row
        left = counts[: t * span].reshape(t, -1, m)
        for j in range(1, t):
            left[j] += left[j - 1]
        # (t, c, m), thresholds ascending
        gain = _split_gain(left, parent[s], owner[s] - a, run, xlogx, lookup)
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
        del f_at, w_at, base, proj, bins, member, cell, counts, left, gain, drawn, picked
    return split, feats, weights, threshold, go_right


def _grow_levels(x, y, boots, keys, depth_limit: int, spec: WeakLearnerSpec, q: int) -> dict:
    """Node table of the trees grown over the rows ``boots[i]`` of ``x``
    from root keys ``keys[i]``, in this process.

    All trees grow together, one level per pass; each (tree, sample) pair
    carries its current node. A node splits when it lies above the depth
    limit, holds two or more classes and its best candidate gains more than
    1e-12 bits; otherwise it is a leaf holding its class histogram. Each
    level lists its nodes tree by tree and left to right, the children of
    its splits in (left, right) pairs, so sorting the levels' rows stably
    by tree lays each tree out in level order.
    """
    xlogx = _xlogx(boots.shape[1])
    rows = boots.ravel()
    label = y[rows] - 1
    node = np.repeat(np.arange(len(keys)), boots.shape[1])
    tree = np.arange(len(keys))
    levels = []
    for level in range(1, depth_limit + 1):
        k = len(keys)
        hist = np.bincount(node * q + label, minlength=k * q).reshape(k, q)
        search = ((hist > 0).sum(axis=1) > 1) & (level < depth_limit)
        split, *columns, go_right = _split_level(x, rows, label, node, hist, keys, search, spec,
                                                 xlogx)
        hist[split] = 0
        levels.append((tree, *columns, split, hist))
        if not split.any():
            break
        keep = split[node]
        child = 2 * (np.cumsum(split) - 1)[node[keep]] + go_right[keep]
        order = np.argsort(child, kind="stable")
        rows, label, node = rows[keep][order], label[keep][order], child[order]
        tree = np.repeat(tree[split], 2)
        keys = _child_keys(np.repeat(keys[split], 2), np.tile([0, 1], int(split.sum())))
    tree, *columns = (np.concatenate(column) for column in zip(*levels))
    order = np.argsort(tree, kind="stable")
    return {name: column[order] for name, column in zip(_COLUMNS, columns)}


def worker_count(tasks: int) -> int:
    """Processes for ``tasks`` independent tasks: one per usable CPU (the
    process's CPU affinity, so ``taskset`` narrows it), no more than there
    are tasks, and one where the affinity cannot be read."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(tasks, len(os.sched_getaffinity(0)))


_WORKERS: list | None = None  # the open _tree_groups block's (pid, task fd, result fd)


def _fork_worker(run, siblings: list) -> tuple:
    """Fork a worker that pickles back ``run(*task)``, or its error, for each
    task read from its pipe until the pipe closes, after closing the parent's
    ends of its own and its ``siblings``' pipes. Returns its pid and ends."""
    global _WORKERS
    task_read, task_write = os.pipe()
    result_read, result_write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the worker: never returns
        try:
            _WORKERS = []  # its tasks keep every CPU busy: it grows trees in-process
            for fd in [task_write, result_read, *(fd for _, *fds in siblings for fd in fds)]:
                os.close(fd)
            with open(task_read, "rb") as tasks, open(result_write, "wb") as results:
                while True:
                    task = pickle.load(tasks)  # EOFError once the task pipe closes
                    try:
                        outcome = (True, run(*task))
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
def forked(count: int, run):
    """A block with ``count`` workers forked to run ``run`` for
    :func:`run_all`, none in a worker or beside another thread (forking a
    threaded process is unsafe). Every exit kills and reaps them."""
    workers = []
    try:
        if _WORKERS is None and hasattr(os, "fork") and threading.active_count() == 1:
            for _ in range(count):
                workers.append(_fork_worker(run, workers))
        yield workers
    finally:
        for pid, *fds in workers:
            os.kill(pid, signal.SIGKILL)  # idle, or its task is of no use after an error
            for fd in fds:
                os.close(fd)
            os.waitpid(pid, 0)


def run_all(workers: list, run, tasks: list):
    """``run(*task)`` for every task, yielded in task order: run here when
    asked for if there are no workers, else by the :func:`forked` workers,
    each handed a task now and the next as soon as its result is in, before
    any result is yielded. The first error in task order is raised; a
    worker that dies ends the run at once."""
    if not workers:
        return (run(*task) for task in tasks)
    pending = iter(enumerate(tasks))
    busy = {}  # result fd -> (pid, task fd, index of its task)

    def hand(pid, task_write, result_read):
        for i, task in pending:  # the next task, if any
            with open(task_write, "wb", closefd=False) as pipe:
                pickle.dump(task, pipe, pickle.HIGHEST_PROTOCOL)
            busy[result_read] = pid, task_write, i
            return

    def results():
        outcomes = {}  # task index -> (ok, value)
        for i in range(len(tasks)):
            # wait for task i's result, then take only the results already in
            while ready := select.select(list(busy), [], [], 0 if i in outcomes else None)[0]:
                for fd in ready:
                    pid, task_write, done = busy.pop(fd)
                    with open(fd, "rb", closefd=False) as pipe:
                        try:
                            outcomes[done] = pickle.load(pipe)
                        except EOFError:
                            raise RuntimeError(f"worker process {pid} died") from None
                    hand(pid, task_write, fd)
            ok, value = outcomes.pop(i)
            if not ok:
                raise value
            yield value

    for worker in workers:
        hand(*worker)
    return results()


@contextmanager
def _tree_groups(trees: int):
    """A block whose :func:`_fit_levels` calls grow tree groups in
    :func:`forked` workers; nested blocks share those of the outermost."""
    global _WORKERS
    if _WORKERS is not None:
        yield
        return
    try:
        with forked(worker_count(trees) - 1, _grow_levels) as _WORKERS:
            yield
    finally:
        _WORKERS = None


def _fit_levels(x, y, boots, keys, depth_limit: int, spec: WeakLearnerSpec, q: int) -> dict:
    """Node table (the columns of :class:`Forest`) of the trees grown over
    the rows ``boots[i]`` of ``x`` from root keys ``keys[i]``.

    Contiguous groups of the trees grow one in this process and one in
    each worker of the open :func:`_tree_groups` block, if any. Each tree's
    draws depend on its own key alone, so the groups' tables, concatenated
    in tree order, are the table of one process growing every tree. The
    error raised is the first in group order.
    """
    workers = (_WORKERS or [])[: len(keys) - 1]
    cuts = [len(keys) * i // (len(workers) + 1) for i in range(len(workers) + 2)]
    tasks = [(x, y, boots[a:b], keys[a:b], depth_limit, spec, q) for a, b in zip(cuts, cuts[1:])]
    others = run_all(workers, _grow_levels, tasks[1:])
    tables = [_grow_levels(*tasks[0]), *others]
    return {name: np.concatenate([t[name] for t in tables]) for name in _COLUMNS}


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
    """A trained forest for one fingerprint family: one node table over
    all its trees."""

    features: np.ndarray  # (n, arity) feature indices of a split row
    weights: np.ndarray  # (n, arity) projection weights of a split row
    threshold: np.ndarray  # (n,) samples with projection >= threshold go right
    split: np.ndarray  # (n,) bool, whether the row splits
    histogram: np.ndarray  # (n, class_count) class counts of a leaf row
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

    @cached_property
    def roots(self) -> np.ndarray:
        """(T,) row of each tree's root: one past the previous tree's end."""
        return np.concatenate([[0], _tree_ends(self.split)[:-1] + 1])

    def node_count(self) -> int:
        return len(self.split)

    def depth(self) -> int:
        """Levels on the longest root-to-leaf path of the deepest tree."""
        left = _left_child(self.split, self.roots)
        level, rows = 0, self.roots
        while rows.size:
            level += 1
            rows = left[rows[self.split[rows]]]
            rows = np.concatenate([rows, rows + 1])
        return level

    @property
    def trees(self) -> list[Forest]:
        """Each tree as a one-tree forest whose columns are views into this
        one's; a tree's seed and spec are its forest's."""
        ends = [*self.roots[1:], len(self.split)]
        columns = [getattr(self, name) for name in _COLUMNS]
        return [Forest(*(c[a:b] for c in columns), self.depth_limit, self.feature_dim, self.seed,
                       self.spec, self.kind) for a, b in zip(self.roots, ends)]

    @cached_property
    def _descent(self) -> tuple:
        """What :meth:`predict_batch` walks, derived once: each row's left
        child (a leaf points to itself), its threshold (NaN at a leaf, so
        that no projection passes it), its 0-based leaf label (the first
        maximum of its histogram), the table's realized depth (a loaded
        table may hold deeper trees than ``depth_limit``) and a contiguous
        (feature, weight) column pair per split operand, the weight None
        when the only operand weighs exactly 1.0 at every split row."""
        left = np.where(self.split, _left_child(self.split, self.roots), np.arange(len(self.split)))
        threshold = np.where(self.split, self.threshold, np.nan)
        operands = [
            (np.ascontiguousarray(self.features[:, i]), np.ascontiguousarray(self.weights[:, i]))
            for i in range(self.features.shape[1])
        ]
        if len(operands) == 1 and (self.weights[self.split] == 1.0).all():
            operands = [(operands[0][0], None)]  # x * 1.0 is x, bit for bit
        return left, threshold, self.histogram.argmax(axis=1), self.depth(), operands

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """Majority-vote labels for an (n, dim) sample matrix. All trees
        descend together: a flat, sample-major (n T,) vector of rows moves
        one level per step, realized depth - 1 steps; a row steps to its left
        child plus one if its projection reaches its threshold, so a leaf stays put."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.feature_dim:
            raise ValueError(f"expected (n, {self.feature_dim}) features")
        n, q = x.shape[0], self.class_count
        left, threshold, leaf_label, depth, ((f0, w0), *more) = self._descent
        flat = x.ravel()
        sample = np.repeat(np.arange(n), self.tree_count)
        base = sample * self.feature_dim
        node = np.tile(self.roots, n)
        for _ in range(depth - 1):
            # x_f0 * w0 (+ x_f1 * w1): bit for bit the sum over the operands
            proj = flat[base + f0[node]]
            if w0 is not None:
                proj = proj * w0[node]
            for f, w in more:
                proj = proj + flat[base + f[node]] * w[node]
            node = left[node] + (proj >= threshold[node])
        votes = np.bincount(leaf_label[node] + q * sample, minlength=n * q)
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
FOREST_VERSION = 3


def serialize_forest(forest: Forest) -> bytes:
    """The header fields, then the node table's columns as the fixed
    little-endian arrays of ``_COLUMNS``; byte-identical for identical
    forests."""
    header = {
        "kind": forest.kind.value if forest.kind else "none",
        "class_count": forest.class_count,
        "depth_limit": forest.depth_limit,
        "tree_count": forest.tree_count,
        "node_count": forest.node_count(),
        "feature_dim": forest.feature_dim,
        "seed": forest.seed,
        "primitive": forest.spec.primitive,
        "feature_subspace": forest.spec.feature_subspace_size or 0,
        "threshold_candidates": forest.spec.threshold_candidates,
    }
    columns = [(dtype, getattr(forest, name)) for name, dtype in _COLUMNS.items()]
    return write_arrays(FOREST_MAGIC, FOREST_VERSION, header, columns)


def deserialize_forest(raw: bytes) -> Forest:
    """Read a :func:`serialize_forest` file, checking what prediction
    relies on: the payload's length, every row's feature indices (leaf rows
    are gathered too), split flags of 0 or 1 and that they end exactly at
    the end of the ``tree_count``-th tree.
    A bad header field is a FormatError naming its line, a bad payload one
    carrying its byte offset."""
    doc, offset = read_header(raw, FOREST_MAGIC, FOREST_VERSION)
    kind = doc.get("kind", lambda text: None if text == "none" else FingerprintKind(text), None)
    class_count = doc.get("class_count", positive_int)
    feature_dim = doc.get("feature_dim", positive_int)
    tree_count = doc.get("tree_count", positive_int)
    n = doc.get("node_count", positive_int)
    try:
        spec = WeakLearnerSpec(
            primitive=doc.get("primitive", one_of(*PRIMITIVES), "axis_aligned_stump"),
            feature_subspace_size=doc.get("feature_subspace", int, 0) or None,
            threshold_candidates=doc.get("threshold_candidates", positive_int, 10),
        )
    except ConfigError as exc:  # a bound of the spec's own, such as t <= 2^16
        raise FormatError(f"line {doc.values[exc.field][1]}: {exc}") from None
    arity = PRIMITIVES[spec.primitive]
    shapes = {"features": (n, arity), "weights": (n, arity), "threshold": (n,), "split": (n,),
              "histogram": (n, class_count)}
    table = dict(zip(_COLUMNS, read_arrays(
        raw, offset, [(dtype, shapes[name]) for name, dtype in _COLUMNS.items()]
    )))
    outside = ((table["features"] < 0) | (table["features"] >= feature_dim)).ravel()
    if outside.any():
        raise FormatError(f"feature index outside 0..{feature_dim - 1}",
                          offset + 8 * int(outside.argmax()))
    at = offset + sum(table[name].nbytes for name in ("features", "weights", "threshold"))
    above = table["split"] > 1
    if above.any():
        raise FormatError("split flag above 1", at + int(above.argmax()))
    table["split"] = table["split"].view(bool)
    ends = _tree_ends(table["split"])
    if not ends.size or ends[-1] != n - 1:
        raise FormatError(f"tree {ends.size} is open after the last row", at + n)
    if ends.size != tree_count:
        raise FormatError(
            f"line {doc.values['tree_count'][1]}: tree_count={tree_count}, "
            f"but {ends.size} whole trees follow"
        )
    return Forest(
        **table,
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
    """The bank of a :func:`save_bank` directory. A file whose ``kind`` is
    not the family its name gives is a FormatError naming its kind line."""
    forests = {}
    for kind in KIND_ORDER:
        path = Path(directory) / f"forest_{kind.value}.goofforest"
        raw = read_artifact(path)
        forests[kind] = forest = deserialize_forest(raw)
        if forest.kind is not kind:
            doc = read_header(raw, FOREST_MAGIC, FOREST_VERSION)[0]
            text, line = doc.values.get("kind", ("none", doc.line))
            raise FormatError(f"{path}: line {line}: kind={text}, expected {kind.value}")
    return ClassifierBank(forests=forests)
