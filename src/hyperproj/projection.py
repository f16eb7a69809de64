"""Per-cluster projection matrices: the training objective and model I/O.

``loss_terms_and_gradient`` is the one definition of the objective,
fit + lam * reg. The fit term is the mean squared L2 distance between the
projected hyponym row vector x @ phi and the hypernym vector y. The
regularizer is the mean squared dot product between a (possibly
re-projected) prediction and a reference vector:

    asymmetric            (x phi . x)^2
    asymmetric re-proj.   (x phi phi . x)^2
    neighbor              (x phi . z)^2
    neighbor re-proj.     (x phi phi . z)^2

where z is a sampled negative (synonym / co-hyponym) of x. With z == x the
neighbor forms reduce to the asymmetric ones exactly. All dot products are
raw row-vector inner products. The tests check the gradient against
central finite differences of the loss.

A model file is a checksummed container (see ``errors``) with magic
``MODEL_MAGIC``, ``HPRJ2``; an ``HPRJ1`` file, of the layout before, is
rejected as "bad magic" and must be retrained.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .clustering import ClusterModel
from .errors import InputError, read_container, write_container

log = logging.getLogger(__name__)

MODEL_MAGIC = b"HPRJ2"


class Regularizer(str, Enum):
    """Loss variants; values double as the CLI --reg names."""

    NONE = "none"
    ASYMMETRIC_PLAIN = "asym"
    ASYMMETRIC_REPROJ = "asym-reproj"
    NEIGHBOR_PLAIN = "neighbor"
    NEIGHBOR_REPROJ = "neighbor-reproj"

    @property
    def needs_negatives(self) -> bool:
        return self in (Regularizer.NEIGHBOR_PLAIN, Regularizer.NEIGHBOR_REPROJ)

    @property
    def reprojects(self) -> bool:
        return self in (Regularizer.ASYMMETRIC_REPROJ, Regularizer.NEIGHBOR_REPROJ)


@dataclass
class TrainingMeta:
    """Provenance recorded by training and persisted in the model header.

    ``trace`` holds (epoch, cluster, baseline_term, reg_term, total) rows;
    it stays in memory only and is written out as CSV, not into the model
    file. ``data`` is training's data accounting (see
    ``training._data_accounting``); it too stays out of the model file and
    goes into the train manifest.
    """

    seed: int
    epochs: int
    batch_size: int
    final_losses: list[float | None] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)
    trace: list[tuple[int, int, float, float, float]] = field(
        default_factory=list, repr=False)
    data: dict = field(default_factory=dict, repr=False)


@dataclass(eq=False)
class ProjectionModel:
    """k square matrices plus the cluster model that routes examples."""

    matrices: np.ndarray  # (k, d, d)
    clusters: ClusterModel
    regularizer: Regularizer
    lam: float
    meta: TrainingMeta
    vocab_hash: str = ""

    def __post_init__(self) -> None:
        self.matrices = np.ascontiguousarray(self.matrices, dtype=np.float64)
        if self.matrices.ndim != 3:
            raise InputError("matrices must have shape (k, d, d)")
        k, d1, d2 = self.matrices.shape
        if d1 != d2:
            raise InputError(f"matrices must be square, got {d1}x{d2}")
        if k != self.clusters.k:
            raise InputError(f"{k} matrices for {self.clusters.k} clusters")
        if self.clusters.dim != d1:
            raise InputError("cluster and matrix dimensions disagree")
        if not np.isfinite(self.matrices).all():
            raise InputError("matrices contain non-finite values")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise InputError(f"lambda must be non-negative and finite, got {self.lam}")

    @property
    def k(self) -> int:
        return int(self.matrices.shape[0])

    @property
    def dim(self) -> int:
        return int(self.matrices.shape[1])


def _as_batch(arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise InputError(f"{name} must be a nonempty (m, d) batch")
    return arr


def loss_terms_and_gradient(
    phi: np.ndarray, X: np.ndarray, Y: np.ndarray, Z: np.ndarray | None,
    kind: Regularizer, lam: float,
) -> tuple[float, float, np.ndarray]:
    """(fit term, regularizer term, d (fit + lam * reg) / d phi) in one pass.

    Kind NONE and lam == 0 give a regularizer term of 0.0 and the fit
    gradient alone. The asymmetric kinds take z = x and ignore ``Z``.
    """
    X = _as_batch(X, "X")
    Y = _as_batch(Y, "Y")
    if X.shape != Y.shape:
        raise InputError(f"X {X.shape} and Y {Y.shape} must align")
    phi = np.asarray(phi, dtype=np.float64)
    m = X.shape[0]
    P = X @ phi
    D = P - Y
    base = float((D * D).sum() / m)
    grad_base = (2.0 / m) * (X.T @ D)
    if kind is Regularizer.NONE or lam == 0.0:
        return base, 0.0, grad_base

    if kind.needs_negatives:
        if Z is None:
            raise InputError(f"regularizer {kind.value} requires a batch of negatives")
        Z = _as_batch(Z, "Z")
        if Z.shape != X.shape:
            raise InputError(f"Z {Z.shape} must align with X {X.shape}")
    else:
        Z = X  # asymmetric kinds regularize against the hyponyms themselves
    if kind.reprojects:
        Q = P @ phi
    else:
        Q = P
    s = (Q * Z).sum(axis=1)
    reg = float((s * s).sum() / m)
    SG = Z * s[:, None]
    if kind.reprojects:
        # d(x phi phi . z)/d phi = x^T (z phi^T) + phi^T (x^T z)
        grad_reg = (2.0 / m) * (X.T @ (SG @ phi.T) + phi.T @ (X.T @ SG))
    else:
        grad_reg = (2.0 / m) * (X.T @ SG)
    return base, reg, grad_base + lam * grad_reg


# ---------------------------------------------------------------------------
# model file: a container (see ``errors``) of MODEL_MAGIC: k centroids, then k matrices
# ---------------------------------------------------------------------------


def save_model(model: ProjectionModel, path: str | Path) -> None:
    inertia = model.clusters.inertia
    header = {
        "dim": model.dim,
        "k": model.k,
        "regularizer": model.regularizer.value,
        "lambda": model.lam,
        "seed": model.meta.seed,
        "epochs": model.meta.epochs,
        "batch_size": model.meta.batch_size,
        "vocab_hash": model.vocab_hash,
        "final_losses": model.meta.final_losses,
        "steps": model.meta.steps,
        "inertia": inertia if np.isfinite(inertia) else None,
    }
    write_container(path, MODEL_MAGIC, header, model.clusters.centroids, model.matrices)


def load_model(path: str | Path) -> ProjectionModel:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"model file not found: {path}")
    header, payload = read_container(path, MODEL_MAGIC)
    try:
        dim = int(header["dim"])
        k = int(header["k"])
        kind = Regularizer(header["regularizer"])
        lam = float(header["lambda"])
        meta = TrainingMeta(
            seed=int(header["seed"]),
            epochs=int(header["epochs"]),
            batch_size=int(header["batch_size"]),
            final_losses=list(header.get("final_losses", [])),
            steps=list(header.get("steps", [])),
        )
        vhash = str(header["vocab_hash"])
        raw_inertia = header.get("inertia")
        inertia = float(raw_inertia) if raw_inertia is not None else float("nan")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: incomplete header ({exc})") from None
    if dim < 1 or k < 1:
        raise InputError(f"{path}: header declares dim={dim} k={k}")
    expected = k * dim + k * dim * dim
    if payload.size != expected:
        raise InputError(f"{path}: payload is {8 * payload.size} bytes, "
                         f"header implies {8 * expected}")
    clusters = ClusterModel(payload[:k * dim].reshape(k, dim), inertia)
    return ProjectionModel(payload[k * dim:].reshape(k, dim, dim), clusters, kind, lam, meta,
                           vhash)
