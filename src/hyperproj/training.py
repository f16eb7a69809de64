"""Per-cluster optimization: Adam updates, epoch loop, negative resampling.

Every cluster owns an independent random stream derived from (seed,
cluster id), its own Adam state, and its own example pool, so one
cluster's result does not depend on the others or on the order they
train in. The stream's first draw is the cluster's initial matrix,
d x d entries from Normal(0, init_std). Within an epoch the stream is
consumed in a fixed order: first the shuffle permutation, then
(neighbor regularizers only) one negative draw per example whose source
has a training negative, in example order.
Examples that fall back to z = x draw nothing. All of an epoch's
negatives are drawn in one call over vocabulary indices. Each batch
takes its loss and gradient from ``projection.loss_terms_and_gradient``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import evaluation
from .clustering import ClusterModel, assign_clusters, fit_kmeans, offsets
from .dataset import RelationDataset, negative_index, sample_negatives
from .embeddings import EmbeddingTable, vocab_hash
from .errors import InputError, TrainingError
from .projection import (
    ProjectionModel,
    Regularizer,
    TrainingMeta,
    loss_terms_and_gradient,
)

log = logging.getLogger(__name__)

SELECT_ON = ("final", "best_validation_hit10")  # model selection rules, default first
VALIDATION_EVERY = 10  # epochs between hit@10 checks when selecting on validation

# Adam meta-parameters other than the step size: the conventional values
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 700
    batch_size: int = 1024
    init_std: float = 0.1
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
        if not (math.isfinite(self.init_std) and self.init_std > 0):
            raise InputError(f"init_std must be positive and finite, got {self.init_std}")
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
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, phi: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(phi), np.zeros_like(phi), 0)


def adam_step(phi: np.ndarray, grad: np.ndarray, state: AdamState,
              alpha: float) -> tuple[np.ndarray, AdamState]:
    """One Adam update with step size alpha; returns the new matrix and state."""
    if phi.shape != grad.shape or phi.shape != state.m.shape:
        raise InputError("phi, gradient, and Adam state shapes must agree")
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (grad * grad)
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.t)
    phi = phi - alpha * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return phi, state


class _ClusterWorker:
    """Training state for one cluster: examples, matrix, Adam, rng, trace."""

    def __init__(self, cid: int, X: np.ndarray, Y: np.ndarray, sources: np.ndarray,
                 cfg: TrainConfig, d: int):
        self.cid = cid
        self.X = X
        self.Y = Y
        self.sources = sources  # vocabulary rows of the hyponyms, parallel to X
        self.rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(cid,)))
        self.phi = self.rng.normal(0.0, cfg.init_std, size=(d, d))
        self.state = AdamState.zeros_like(self.phi)
        self.steps = 0
        self.trace: list[tuple[int, int, float, float, float]] = []

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def run_epoch(self, epoch: int, cfg: TrainConfig,
                  negatives: tuple[np.ndarray, np.ndarray] | None,
                  table: EmbeddingTable) -> None:
        """One pass over the examples; ``negatives`` is the CSR table or None."""
        perm = self.rng.permutation(self.n)
        Z = None
        if negatives is not None:
            z = sample_negatives(*negatives, self.sources, self.rng)
            Z = table.vectors[z[perm]]
        Xs, Ys = self.X[perm], self.Y[perm]
        base_sum = reg_sum = 0.0
        for start in range(0, self.n, cfg.batch_size):  # final short batch is kept
            stop = min(start + cfg.batch_size, self.n)
            Zb = Z[start:stop] if Z is not None else None
            base, reg, grad = loss_terms_and_gradient(
                self.phi, Xs[start:stop], Ys[start:stop], Zb,
                cfg.regularizer, cfg.lam)
            if not np.isfinite(grad).all():
                raise TrainingError(
                    f"non-finite gradient in cluster {self.cid} at epoch {epoch}")
            self.phi, self.state = adam_step(self.phi, grad, self.state, cfg.alpha)
            self.steps += 1
            base_sum += base * (stop - start)
            reg_sum += reg * (stop - start)
        base_avg = base_sum / self.n
        reg_avg = reg_sum / self.n
        self.trace.append((epoch, self.cid, base_avg, reg_avg,
                           base_avg + cfg.lam * reg_avg))


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
    train_pairs = dataset.pairs_in("train")
    if not train_pairs:
        raise InputError("training bucket is empty")
    train_offsets = offsets(train_pairs, table)
    if clusters is None:
        clusters = fit_kmeans(train_offsets, cfg.k, cfg.seed)
    elif clusters.k != cfg.k:
        raise InputError(f"cluster model has k={clusters.k}, config says k={cfg.k}")
    elif clusters.dim != d:
        raise InputError(f"cluster model dimension {clusters.dim} != embedding dim {d}")
    assign = assign_clusters(clusters, train_offsets)
    negatives = negative_index(dataset, table) if cfg.regularizer.needs_negatives else None

    workers = []
    for cid in range(cfg.k):
        idx = np.flatnonzero(assign == cid)
        pairs_c = [train_pairs[i] for i in idx]
        if not pairs_c:
            log.warning("cluster %d has no training pairs; matrix stays at initialization", cid)
        sources = np.array([table.lookup(p.source) for p in pairs_c], dtype=np.int64)
        Y = table.rows([p.target for p in pairs_c]) if pairs_c else np.zeros((0, d))
        workers.append(_ClusterWorker(cid, table.vectors[sources], Y, sources, cfg, d))

    select_validation = cfg.select_on == "best_validation_hit10"
    val_pairs = dataset.pairs_in("validation") if select_validation else []
    if select_validation and not val_pairs:
        log.warning("validation bucket is empty; falling back to final-epoch selection")
        select_validation = False
    best_hit = -1.0
    best_matrices: np.ndarray | None = None
    active = [w for w in workers if w.n > 0]
    vhash = vocab_hash(table)

    meta = TrainingMeta(seed=cfg.seed, epochs=cfg.epochs, batch_size=cfg.batch_size)
    for epoch in range(1, cfg.epochs + 1):
        for w in active:
            w.run_epoch(epoch, cfg, negatives, table)
        if select_validation and (epoch % VALIDATION_EVERY == 0 or epoch == cfg.epochs):
            snapshot = np.stack([w.phi for w in workers])
            interim = ProjectionModel(snapshot, clusters, cfg.regularizer, cfg.lam, d,
                                      meta, vhash)
            hit10 = evaluation.hit_at(interim, table, val_pairs, 10)
            log.info("epoch %d validation hit@10 = %.4f", epoch, hit10)
            if hit10 > best_hit:
                best_hit = hit10
                best_matrices = snapshot

    matrices = best_matrices if best_matrices is not None else np.stack([w.phi for w in workers])
    meta.final_losses = [w.trace[-1][4] if w.trace else None for w in workers]
    meta.steps = [w.steps for w in workers]
    meta.trace = sorted(row for w in workers for row in w.trace)
    meta.data = _data_accounting(dataset, workers, negatives)
    # lambda is inert without a regularizer; canonicalize so the model file
    # is identical whatever value was passed alongside kind NONE
    lam = 0.0 if cfg.regularizer is Regularizer.NONE else cfg.lam
    return ProjectionModel(matrices, clusters, cfg.regularizer, lam, d, meta, vhash)


def _data_accounting(dataset: RelationDataset, workers: list[_ClusterWorker],
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
                     for w in workers]
    return {
        "dropped_positives": dataset.dropped_positives,
        "dropped_negatives": dataset.dropped_negatives,
        "train_pairs": [w.n for w in workers],
        "negative_fallbacks": fallbacks,
    }


def write_trace_csv(model: ProjectionModel, path) -> None:
    """Dump the per-epoch loss trace collected during train()."""
    rows = model.meta.trace
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,cluster,baseline_term,reg_term,total\n")
        for epoch, cid, base, reg, total in rows:
            fh.write(f"{epoch},{cid},{base!r},{reg!r},{total!r}\n")
