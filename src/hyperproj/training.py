"""Per-cluster optimization: Adam updates, epoch loop, negative resampling.

Every cluster owns an independent random stream derived from (seed,
cluster id), its own Adam state, and its own example pool, so one
cluster's result does not depend on the others or on the order they
train in. The stream's first draw is the cluster's initial matrix,
d x d entries from Normal(0, INIT_STD). Within an epoch the stream is
consumed in a fixed order: first the shuffle permutation, then
(neighbor regularizers only) one negative draw per example whose source
has a training negative, in example order.
Examples that fall back to z = x draw nothing. All of an epoch's
negatives are drawn in one call over vocabulary indices, from lookups
each cluster takes once.

The clusters train in lockstep. An epoch first shuffles and draws for
every cluster, in cluster order, each from its own stream, and gathers
the examples with one ``take`` per array into (k, m, d) stacks, one per
batch index: each cluster's batch in its first rows and zero rows below,
up to the largest batch at that index. Then, for each batch index, one
``projection.loss_terms_and_gradient`` call takes the losses and
gradients of every cluster that has a batch, and one ``adam_step`` moves
the (k, d, d) stack of matrices and its Adam state, which keeps one step
count per cluster. A cluster with fewer batches sits the remaining steps
out. A batch whose products zero rows would round apart (a one-row batch,
for one; see ``projection.padding_is_exact``) gets a stack of its own
width instead, another call at that index. Each cluster's terms are
summed over its own rows and Adam is elementwise, so every matrix, loss
and random draw is bitwise the one a cluster training alone gets.

Selecting on validation, ``train`` binds the validation pairs once
(``evaluation.bind_pairs``) and calls ``evaluation.hit_at`` on them once
per check, every VALIDATION_EVERY epochs and at the last; each check's
hit@10 and the selected epoch go into ``TrainingMeta.validation``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import evaluation
from .clustering import ClusterModel, _pair_vectors, assign_clusters, fit_kmeans
from .dataset import RelationDataset, _negative_sampler, negative_index
from .embeddings import EmbeddingTable, vocab_hash
from .errors import InputError, TrainingError, atomic_open
from .projection import (
    ProjectionModel,
    Regularizer,
    TrainingMeta,
    loss_terms_and_gradient,
    padding_is_exact,
)

log = logging.getLogger(__name__)

SELECT_ON = ("final", "best_validation_hit10")  # model selection rules, default first
VALIDATION_EVERY = 10  # epochs between hit@10 checks when selecting on validation

INIT_STD = 0.1  # standard deviation of the initial matrices' entries

# Adam meta-parameters other than the step size: the conventional values
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# the largest gradient entry whose square Adam's second moment can hold
MAX_GRADIENT = math.sqrt(np.finfo(np.float64).max) / 2


@dataclass
class TrainConfig:
    epochs: int = 700
    batch_size: int = 1024
    alpha: float = 0.001  # Adam step size
    lam: float = 0.1
    regularizer: Regularizer = Regularizer.NONE
    k: int = 1
    seed: int = 0
    select_on: str = SELECT_ON[0]

    def validate(self) -> None:
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise InputError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise InputError(f"alpha must be positive and finite, got {self.alpha}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise InputError(f"lambda must be non-negative and finite, got {self.lam}")
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if self.select_on not in SELECT_ON:
            raise InputError(f"unknown select_on {self.select_on!r}")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")


@dataclass
class AdamState:
    """First and second moments, and the steps taken: an int for one matrix,
    an array of one count per matrix for a stack of them."""

    m: np.ndarray
    v: np.ndarray
    t: int | np.ndarray = 0

    @classmethod
    def zeros_like(cls, phi: np.ndarray) -> "AdamState":
        t = np.zeros(phi.shape[:-2], dtype=np.int64) if phi.ndim > 2 else 0
        return cls(np.zeros_like(phi), np.zeros_like(phi), t)


def adam_step(phi: np.ndarray, grad: np.ndarray, state: AdamState,
              alpha: float) -> tuple[np.ndarray, AdamState]:
    """One Adam update with step size alpha; returns the new matrices and state.

    ``phi`` is one (d, d) matrix or a (k, d, d) stack of them, and
    ``state.t`` holds one step count per matrix. The update is elementwise
    and each bias correction is Python's float power of that matrix's
    count, so a matrix in a stack moves bitwise as it would alone. When
    every count is equal the corrections are scalars. The state's fields
    are replaced, never written into.
    """
    if (phi.shape != grad.shape or phi.shape != state.m.shape
            or np.shape(state.t) != phi.shape[:-2]):
        raise InputError("phi, gradient, and Adam state shapes must agree")
    state.t = state.t + 1
    steps = np.ravel(state.t).tolist()
    if len(set(steps)) == 1:
        correct1, correct2 = 1.0 - ADAM_BETA1 ** steps[0], 1.0 - ADAM_BETA2 ** steps[0]
    else:
        shape = (*np.shape(state.t), 1, 1)
        correct1 = np.array([1.0 - ADAM_BETA1 ** t for t in steps]).reshape(shape)
        correct2 = np.array([1.0 - ADAM_BETA2 ** t for t in steps]).reshape(shape)
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (grad * grad)
    m_hat = state.m / correct1
    v_hat = state.v / correct2
    phi = phi - alpha * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return phi, state


class _Cluster:
    """One cluster's random stream, negative sampler and loss trace."""

    def __init__(self, cid: int, sources: np.ndarray, cfg: TrainConfig, d: int,
                 negatives: tuple[np.ndarray, np.ndarray] | None):
        self.cid = cid
        self.sources = sources  # vocabulary rows of the cluster's hyponyms, in example order
        self.rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(cid,)))
        self.phi0 = self.rng.normal(0.0, INIT_STD, size=(d, d))  # the initial matrix
        self.draw = None if negatives is None else _negative_sampler(*negatives, sources)
        self.trace: list[tuple[int, int, float, float, float]] = []

    @property
    def n(self) -> int:
        return self.sources.shape[0]


@dataclass
class _Stack:
    """One loss call: the batches of some clusters at one batch index.

    ``cids`` picks the clusters' matrices (a slice when their ids run
    consecutively) and ``members`` are their places in the active list.
    The stack is ``rows`` of the epoch's gathered arrays, one block of
    ``shape[1]`` rows per cluster: ``counts`` rows of examples, then zero
    rows.
    """

    cids: np.ndarray | slice
    members: list[int]
    counts: np.ndarray
    rows: slice
    shape: tuple[int, int, int]

    def batches(self, A: np.ndarray) -> np.ndarray:
        return A[self.rows].reshape(self.shape)


class _Plan:
    """Where every example of an epoch goes; fixed by the cluster sizes and the batch size.

    The active clusters' training pairs form one pool, cluster after
    cluster (``pool`` orders the rows of X and Y so), with a zero row
    last. Each epoch, one ``take`` per array gathers the shuffled examples
    into the stacks of every batch index, in order. At a batch index,
    every cluster that has a batch joins the stack as wide as the largest
    one, unless zero rows would change its rounding
    (``padding_is_exact``); such a batch joins a stack of its own width.
    """

    def __init__(self, clusters: list[_Cluster], X: np.ndarray, Y: np.ndarray,
                 pool: np.ndarray, batch_size: int):
        sizes = [c.n for c in clusters]
        self.offsets = np.cumsum([0, *sizes[:-1]])
        pad = sum(sizes)  # the zero row's place in the pool
        self.X, self.Y = np.zeros((pad + 1, X.shape[1])), np.zeros((pad + 1, X.shape[1]))
        X.take(pool, axis=0, out=self.X[:pad])
        Y.take(pool, axis=0, out=self.Y[:pad])
        cids = np.array([c.cid for c in clusters])
        self.steps: list[tuple[list[_Stack], np.ndarray]] = []  # stacks, clusters with a batch
        slots: list[np.ndarray] = []
        start = 0
        for lo in range(0, max(sizes), batch_size):
            counts = {i: min(n - lo, batch_size) for i, n in enumerate(sizes) if n > lo}
            width = max(counts.values())
            groups: dict[int, list[int]] = {}  # stack width -> its clusters
            for i, n in counts.items():
                exact = padding_is_exact(X.shape[1], width, n)
                groups.setdefault(width if exact else n, []).append(i)
            stacks = []
            for w, group in groups.items():
                rows = np.full((len(group), w), pad)
                for row, i in zip(rows, group):
                    row[:counts[i]] = self.offsets[i] + lo + np.arange(counts[i])
                slots.append(rows.ravel())
                ids = cids[group]
                if ids[-1] - ids[0] == len(ids) - 1:  # consecutive: index phi by a view
                    ids = slice(ids[0], ids[-1] + 1)
                stacks.append(_Stack(ids, group, np.array([counts[i] for i in group]),
                                     slice(start, start + rows.size), (len(group), w, X.shape[1])))
                start += rows.size
            self.steps.append((stacks, cids[list(counts)]))
        self.slots = np.concatenate(slots)
        self.pads = np.flatnonzero(self.slots == pad)
        # an example's pool row is its place in its cluster's permutation plus the cluster's
        # offset; the one entry after them all stands for the zero row
        self.tail = np.zeros(1, dtype=np.int64)
        self.base = np.append(np.repeat(self.offsets, sizes), pad)

    def gather(self, clusters: list[_Cluster], table: EmbeddingTable):
        """The epoch's hyponyms, hypernyms and negatives (or None), shuffled, in stack order.

        Each cluster draws its permutation and then its negatives from its
        own stream, in cluster order.
        """
        perms, drawn = [], []
        for c in clusters:
            perms.append(c.rng.permutation(c.n))
            if c.draw is not None:
                drawn.append(c.draw(c.rng))
        rows = np.concatenate([*perms, self.tail])
        rows += self.base
        rows = rows.take(self.slots)  # pool rows, in stack order
        Z = None
        if drawn:
            Z = table.vectors.take(np.concatenate([*drawn, self.tail]).take(rows), axis=0)
            Z[self.pads] = 0.0
        return self.X.take(rows, axis=0), self.Y.take(rows, axis=0), Z


def _run_epoch(epoch: int, phi: np.ndarray, state: AdamState, clusters: list[_Cluster],
               cfg: TrainConfig, table: EmbeddingTable, plan: _Plan) -> np.ndarray:
    """One pass of every nonempty cluster over its examples; returns the new stack.

    At each batch index the clusters that have a batch take their losses
    and gradients in one call (more when a batch must not be padded, see
    ``_Plan``), and one Adam step moves their matrices; the others sit it
    out. A gradient with an entry that is not finite, or above
    MAX_GRADIENT (its square would overflow Adam's second moment and
    freeze the matrix), stops its cluster; at the epoch's end the lowest
    such cluster is reported, the one a cluster-by-cluster loop meets first.
    """
    X, Y, Z = plan.gather(clusters, table)
    fit_sums, reg_sums = [0.0] * len(clusters), [0.0] * len(clusters)
    grad = np.zeros_like(phi)
    failed, stopped = np.zeros(len(phi), dtype=bool), False
    for stacks, live in plan.steps:
        for s in stacks:
            fit, reg, g = loss_terms_and_gradient(
                phi[s.cids], s.batches(X), s.batches(Y), None if Z is None else s.batches(Z),
                cfg.regularizer, cfg.lam, s.counts)
            if len(g) == len(phi):  # the stack holds every cluster
                grad = g
            else:
                grad[s.cids] = g
            for i, fit_i, reg_i, n in zip(s.members, fit.tolist(), reg.tolist(),
                                          s.counts.tolist()):
                fit_sums[i] += fit_i * n
                reg_sums[i] += reg_i * n
        if not np.abs(grad).max() <= MAX_GRADIENT:  # NaN fails this too
            bad = ~(np.abs(grad).max(axis=(1, 2)) <= MAX_GRADIENT)
            failed |= bad
            grad[bad] = 0.0
            stopped = True
        if stopped:
            live = live[~failed[live]]
        if len(live) == len(phi):
            phi, state = adam_step(phi, grad, state, cfg.alpha)
        else:  # the clusters without a batch at this index, or stopped, sit the step out
            part = AdamState(state.m[live], state.v[live], state.t[live])
            phi[live], part = adam_step(phi[live], grad[live], part, cfg.alpha)
            state.m[live], state.v[live], state.t[live] = part.m, part.v, part.t
    if stopped:
        raise TrainingError(f"non-finite or overflowing gradient in cluster "
                            f"{np.flatnonzero(failed)[0]} at epoch {epoch}")
    for c, fit_sum, reg_sum in zip(clusters, fit_sums, reg_sums):
        fit_avg, reg_avg = fit_sum / c.n, reg_sum / c.n
        c.trace.append((epoch, c.cid, fit_avg, reg_avg, fit_avg + cfg.lam * reg_avg))
    return phi


def train(dataset: RelationDataset, table: EmbeddingTable, cfg: TrainConfig,
          clusters: ClusterModel | None = None) -> ProjectionModel:
    """Fit one projection matrix per offset cluster.

    Clustering is fit on training-bucket offsets unless a precomputed
    ClusterModel is supplied. With select_on="best_validation_hit10" the
    model snapshot with the best validation hit@10 (checked every 10
    epochs and at the end) is returned instead of the final one.
    """
    cfg.validate()
    d = table.dim
    train_pairs = dataset.relations_in("train")  # a bound dataset's ids are table rows
    if not train_pairs:
        raise InputError("training bucket is empty")
    rows, X, Y = _pair_vectors(train_pairs, table)
    train_offsets = Y - X
    if clusters is None:
        clusters = fit_kmeans(train_offsets, cfg.k, cfg.seed)
    elif clusters.k != cfg.k:
        raise InputError(f"cluster model has k={clusters.k}, config says k={cfg.k}")
    elif clusters.dim != d:
        raise InputError(f"cluster model dimension {clusters.dim} != embedding dim {d}")
    assign = assign_clusters(clusters, train_offsets)
    negatives = negative_index(dataset, table) if cfg.regularizer.needs_negatives else None

    per_cluster: list[_Cluster] = []
    for cid in range(cfg.k):
        sources = rows[assign == cid, 0]
        if not sources.size:
            log.warning("cluster %d has no training pairs; matrix stays at initialization", cid)
        per_cluster.append(_Cluster(cid, sources, cfg, d, negatives))

    select_validation = cfg.select_on == "best_validation_hit10"
    val_pairs = dataset.relations_in("validation") if select_validation else []
    if select_validation and not val_pairs:
        log.warning("validation bucket is empty; falling back to final-epoch selection")
        select_validation = False
    # the validation pairs' rows, clusters and gold rows, bound once for every check
    bound = evaluation.bind_pairs(clusters, table, val_pairs) if select_validation else None
    checks: list[list] = []  # [epoch, hit@10] of every check
    best_hit = -1.0
    best_epoch = None
    best_matrices: np.ndarray | None = None
    active = [c for c in per_cluster if c.n > 0]
    pool = np.argsort(assign, kind="stable")  # the training pairs, cluster after cluster
    plan = _Plan(active, X, Y, pool, cfg.batch_size)
    phi = np.stack([c.phi0 for c in per_cluster])
    state = AdamState.zeros_like(phi)
    vhash = vocab_hash(table)

    meta = TrainingMeta(seed=cfg.seed, epochs=cfg.epochs, batch_size=cfg.batch_size)
    # an overflowing loss stops the run through _run_epoch's MAX_GRADIENT check, without
    # numpy's warnings; one context for the run, as one per batch step costs about 2 us each
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            phi = _run_epoch(epoch, phi, state, active, cfg, table, plan)
            if select_validation and (epoch % VALIDATION_EVERY == 0 or epoch == cfg.epochs):
                snapshot = phi.copy()
                interim = ProjectionModel(snapshot, clusters, cfg.regularizer, cfg.lam, meta,
                                          vhash)
                hit10 = evaluation.hit_at(interim, table, bound, 10)
                log.info("epoch %d validation hit@10 = %.4f", epoch, hit10)
                checks.append([epoch, hit10])
                if hit10 > best_hit:
                    best_hit, best_epoch = hit10, epoch
                    best_matrices = snapshot

    matrices = best_matrices if best_matrices is not None else phi
    meta.final_losses = [c.trace[-1][4] if c.trace else None for c in per_cluster]
    meta.steps = state.t.tolist()
    meta.trace = sorted(row for c in per_cluster for row in c.trace)
    meta.data = _data_accounting(dataset, per_cluster, negatives)
    if select_validation:
        meta.validation = {"every": VALIDATION_EVERY, "hit10": checks,
                           "selected_epoch": best_epoch}
    # lambda is inert without a regularizer; canonicalize so the model file
    # is identical whatever value was passed alongside kind NONE
    lam = 0.0 if cfg.regularizer is Regularizer.NONE else cfg.lam
    return ProjectionModel(matrices, clusters, cfg.regularizer, lam, meta, vhash)


def _data_accounting(dataset: RelationDataset, per_cluster: list[_Cluster],
                     negatives: tuple[np.ndarray, np.ndarray] | None) -> dict:
    """What training consumed: dropped pairs, examples and fallbacks per cluster.

    ``negative_fallbacks[c]`` counts cluster c's examples whose hyponym has
    no training negative; each epoch they train with z = x. It is None
    when the regularizer draws no negatives.
    """
    fallbacks = None
    if negatives is not None:
        indptr = negatives[0]
        fallbacks = [int(np.count_nonzero(indptr[w.sources] == indptr[w.sources + 1]))
                     for w in per_cluster]
    return {
        "dropped_positives": dataset.dropped_positives,
        "dropped_negatives": dataset.dropped_negatives,
        "train_pairs": [w.n for w in per_cluster],
        "negative_fallbacks": fallbacks,
    }


def write_trace_csv(model: ProjectionModel, path) -> None:
    """Dump the per-epoch loss trace collected during train()."""
    rows = model.meta.trace
    with atomic_open(path) as fh:
        fh.write("epoch,cluster,baseline_term,reg_term,total\n")
        for epoch, cid, base, reg, total in rows:
            fh.write(f"{epoch},{cid},{base!r},{reg!r},{total!r}\n")
