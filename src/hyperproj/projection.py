"""Per-cluster projection matrices: losses, gradients, prediction, model I/O.

The fit term is the mean squared L2 distance between the projected hyponym
row vector x @ phi and the hypernym vector y. Regularizers penalize the
squared dot product between a (possibly re-projected) prediction and a
reference vector:

    asymmetric            (x phi . x)^2
    asymmetric re-proj.   (x phi phi . x)^2
    neighbor              (x phi . z)^2
    neighbor re-proj.     (x phi phi . z)^2

where z is a sampled negative (synonym / co-hyponym) of x. With z == x the
neighbor forms reduce to the asymmetric ones exactly. All dot products are
raw row-vector inner products.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .clustering import ClusterModel
from .errors import InputError

log = logging.getLogger(__name__)

MODEL_MAGIC = b"HPRJ1"


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
    dim: int
    meta: TrainingMeta
    vocab_hash: str = ""

    def __post_init__(self) -> None:
        self.matrices = np.ascontiguousarray(self.matrices, dtype=np.float64)
        if self.matrices.ndim != 3:
            raise InputError("matrices must have shape (k, d, d)")
        k, d1, d2 = self.matrices.shape
        if d1 != d2 or d1 != self.dim:
            raise InputError(f"matrices must be square of size {self.dim}, got {d1}x{d2}")
        if k != self.clusters.k:
            raise InputError(f"{k} matrices for {self.clusters.k} clusters")
        if self.clusters.dim != self.dim:
            raise InputError("cluster and matrix dimensions disagree")
        if not np.isfinite(self.matrices).all():
            raise InputError("matrices contain non-finite values")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise InputError(f"lambda must be non-negative and finite, got {self.lam}")

    @property
    def k(self) -> int:
        return int(self.matrices.shape[0])


def predict(model: ProjectionModel, x: np.ndarray, cluster: int) -> np.ndarray:
    """Row-vector product x @ phi_cluster."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.dim:
        raise InputError(f"input has dimension {x.shape[-1]}, model has {model.dim}")
    if not 0 <= cluster < model.k:
        raise InputError(f"cluster index {cluster} out of range [0, {model.k})")
    return x @ model.matrices[cluster]


def _as_batch(arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise InputError(f"{name} must be a nonempty (m, d) batch")
    return arr


def loss_baseline(phi: np.ndarray, X: np.ndarray, Y: np.ndarray) -> float:
    """Mean squared L2 distance between X @ phi and Y."""
    X = _as_batch(X, "X")
    Y = _as_batch(Y, "Y")
    if X.shape != Y.shape:
        raise InputError(f"X {X.shape} and Y {Y.shape} must align")
    D = X @ phi - Y
    return float((D * D).sum() / X.shape[0])


def reg_neighbor(phi: np.ndarray, X: np.ndarray, Z: np.ndarray,
                 reproject: bool = True) -> float:
    """Mean squared dot product between the (re-)projected X rows and Z rows."""
    X = _as_batch(X, "X")
    Z = _as_batch(Z, "Z")
    if X.shape != Z.shape:
        raise InputError(f"X {X.shape} and Z {Z.shape} must align")
    Q = X @ phi
    if reproject:
        Q = Q @ phi
    s = (Q * Z).sum(axis=1)
    return float((s * s).sum() / X.shape[0])


def reg_asymmetric(phi: np.ndarray, X: np.ndarray, reproject: bool = True) -> float:
    """Neighbor regularizer with every negative replaced by the hyponym itself."""
    X = _as_batch(X, "X")
    return reg_neighbor(phi, X, X, reproject=reproject)


def _resolve_negatives(kind: Regularizer, X: np.ndarray, Z: np.ndarray | None) -> np.ndarray:
    if kind.needs_negatives:
        if Z is None:
            raise InputError(f"regularizer {kind.value} requires a batch of negatives")
        Z = _as_batch(Z, "Z")
        if Z.shape != X.shape:
            raise InputError(f"Z {Z.shape} must align with X {X.shape}")
        return Z
    return X  # asymmetric kinds regularize against the hyponyms themselves


def total_loss(phi: np.ndarray, X: np.ndarray, Y: np.ndarray, Z: np.ndarray | None,
               kind: Regularizer, lam: float) -> float:
    """Fit term plus lam times the selected regularizer.

    ``kind`` NONE returns the fit term alone, whatever ``lam`` is.
    """
    base = loss_baseline(phi, X, Y)
    if kind is Regularizer.NONE or lam == 0.0:
        return base
    X = _as_batch(X, "X")
    Zr = _resolve_negatives(kind, X, Z)
    return base + lam * reg_neighbor(phi, X, Zr, reproject=kind.reprojects)


def loss_terms_and_gradient(
    phi: np.ndarray, X: np.ndarray, Y: np.ndarray, Z: np.ndarray | None,
    kind: Regularizer, lam: float,
) -> tuple[float, float, np.ndarray]:
    """(fit term, regularizer term, d total_loss / d phi) in one pass.

    The closed forms below are validated against central finite
    differences in the test suite, which is the normative definition of
    the gradient.
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

    Z = _resolve_negatives(kind, X, Z)
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


def gradient(phi: np.ndarray, X: np.ndarray, Y: np.ndarray, Z: np.ndarray | None,
             kind: Regularizer, lam: float) -> np.ndarray:
    """Analytic gradient of total_loss with respect to phi."""
    return loss_terms_and_gradient(phi, X, Y, Z, kind, lam)[2]


# ---------------------------------------------------------------------------
# model file format: MODEL_MAGIC, JSON header, NUL, centroids, matrices
# (all floats row-major little-endian float64)
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
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(blob)
        fh.write(b"\x00")
        fh.write(np.ascontiguousarray(model.clusters.centroids, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.matrices, dtype="<f8").tobytes())


def load_model(path: str | Path) -> ProjectionModel:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"model file not found: {path}")
    data = path.read_bytes()
    if not data.startswith(MODEL_MAGIC):
        raise InputError(f"{path}: bad magic, not a projection model file")
    nul = data.find(b"\x00", len(MODEL_MAGIC))
    if nul < 0:
        raise InputError(f"{path}: unterminated header")
    try:
        header = json.loads(data[len(MODEL_MAGIC):nul].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: malformed header ({exc})") from None
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
    body = data[nul + 1:]
    expected = 8 * (k * dim + k * dim * dim)
    if len(body) != expected:
        raise InputError(
            f"{path}: payload is {len(body)} bytes, header implies {expected}"
        )
    centroids = np.frombuffer(body, dtype="<f8", count=k * dim).reshape(k, dim)
    matrices = np.frombuffer(body, dtype="<f8", offset=8 * k * dim).reshape(k, dim, dim)
    clusters = ClusterModel(centroids.copy(), inertia)
    return ProjectionModel(matrices.copy(), clusters, kind, lam, dim, meta, vhash)
