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

Training takes the terms of k clusters in one call: a (k, d, d) stack of
matrices and (k, m, d) batches, each cluster's rows first and zero rows
below, with per-cluster row counts. The (d, d) and (m, d) call is its
k = 1 case, so there is one definition of the loss. Each cluster's terms
are summed over its own rows only: a sum over the padded block would go
down another pairwise tree. And a batch is padded only where the zero
rows leave every product's rounding alone, which ``padding_is_exact``
checks once per shape; any other batch is computed alone. A one-row
batch (d > 1) is one such: numpy multiplies it with another BLAS routine.

A model file is a checksummed container (see ``errors``) with magic
``MODEL_MAGIC``, ``HPRJ2``; an ``HPRJ1`` file, of the layout before, is
rejected as "bad magic" and must be retrained.
"""

from __future__ import annotations

import functools
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
    ``training._data_accounting``). ``validation`` records the checks of a
    run that selects on validation hit@10, as ``{"every": 10, "hit10":
    [[epoch, hit10], ...], "selected_epoch": e}``, and is None otherwise.
    Both stay out of the model file and go into the train manifest.
    """

    seed: int
    epochs: int
    batch_size: int
    final_losses: list[float | None] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)
    trace: list[tuple[int, int, float, float, float]] = field(
        default_factory=list, repr=False)
    data: dict = field(default_factory=dict, repr=False)
    validation: dict | None = field(default=None, repr=False)


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
    kind: Regularizer, lam: float, counts: np.ndarray | None = None,
) -> tuple[float, float, np.ndarray] | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fit term, regularizer term, d (fit + lam * reg) / d phi) in one pass.

    Kind NONE and lam == 0 give a regularizer term of 0.0 and the fit
    gradient alone. The asymmetric kinds take z = x and ignore ``Z``.

    Without ``counts``, ``phi`` is one (d, d) matrix, X, Y and Z are (m, d)
    batches, and the terms are floats. With ``counts``, ``phi`` is a
    (k, d, d) stack and X, Y and Z are (k, m, d) stacks whose item c holds
    its batch in its first ``counts[c]`` rows and zeros below; the terms
    are (k,) arrays, and item c of every output is bitwise the call without
    ``counts`` on item c's rows alone. An item whose zero rows would change
    that (see ``padding_is_exact``) is computed alone.
    """
    if counts is None:
        X = _as_batch(X, "X")
        Y = _as_batch(Y, "Y")
        if X.shape != Y.shape:
            raise InputError(f"X {X.shape} and Y {Y.shape} must align")
        if kind.needs_negatives and lam != 0.0 and Z is not None:
            Z = _as_batch(Z, "Z")
            if Z.shape != X.shape:
                raise InputError(f"Z {Z.shape} must align with X {X.shape}")
            Z = Z[None]
        else:
            Z = None  # the asymmetric kinds, NONE and lam == 0 do not read it
        fit, reg, grad = _stacked_terms(np.asarray(phi, dtype=np.float64)[None], X[None],
                                        Y[None], Z, kind, lam, np.array([X.shape[0]]))
        return float(fit[0]), float(reg[0]), grad[0]
    k, m, d = X.shape
    counts = np.asarray(counts)
    sizes = counts.tolist()
    if (phi.shape != (k, d, d) or Y.shape != X.shape or counts.shape != (k,)
            or (Z is not None and Z.shape != X.shape) or not 1 <= min(sizes) <= max(sizes) <= m):
        raise InputError("a stack needs phi (k, d, d), X, Y and Z (k, m, d) and k counts in [1, m]")
    fit, reg, grad = _stacked_terms(phi, X, Y, Z, kind, lam, counts)
    for c, n in enumerate(sizes):
        if n < m and not padding_is_exact(d, m, n):
            fit[c], reg[c], grad[c] = loss_terms_and_gradient(
                phi[c], X[c, :n], Y[c, :n], None if Z is None else Z[c, :n], kind, lam)
    return fit, reg, grad


def _stacked_terms(phi, X, Y, Z, kind, lam, counts):
    """The terms and gradients of a padded stack in one pass, every product
    over the whole stack; ``loss_terms_and_gradient`` checks the inputs."""
    P = X @ phi
    D = P - Y
    fit = _item_means(D * D, counts)
    scale = (2.0 / counts)[:, None, None]
    Xt = X.transpose(0, 2, 1)
    grad = scale * (Xt @ D)
    if kind is Regularizer.NONE or lam == 0.0:
        return fit, np.zeros_like(fit), grad

    if kind.needs_negatives:
        if Z is None:
            raise InputError(f"regularizer {kind.value} requires a batch of negatives")
    else:
        Z = X  # asymmetric kinds regularize against the hyponyms themselves
    Q = P @ phi if kind.reprojects else P
    s = (Q * Z).sum(axis=2)
    reg = _item_means(s * s, counts)
    SG = Z * s[:, :, None]
    if kind.reprojects:
        # d(x phi phi . z)/d phi = x^T (z phi^T) + phi^T (x^T z)
        phiT = phi.transpose(0, 2, 1)
        grad_reg = scale * (Xt @ (SG @ phiT) + phiT @ (Xt @ SG))
    else:
        grad_reg = scale * (Xt @ SG)
    return fit, reg, grad + lam * grad_reg


def _item_means(A: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each item's mean over its own rows. A sum over a padded block would
    take numpy's pairwise summation down another tree."""
    sums = [np.add.reduce(A[c, :n], axis=None) for c, n in enumerate(counts.tolist())]
    return np.array(sums) / counts


# random batches per padding check: where zero rows do change the rounding, one
# batch of normal entries showed it in at least 1 of 4 tries (d = 1 and 2 rows
# padded to 1024 the rarest), so 64 miss it with odds below one in 10^8
PROBES = 64


@functools.lru_cache(maxsize=4096)
def padding_is_exact(d: int, width: int, n: int) -> bool:
    """Whether zero rows that pad an n-row batch to ``width`` rows leave the
    loss's products bitwise those of the n rows alone, on the BLAS this
    process runs (so one answer per shape serves every caller).

    Not always: numpy sends a one-row product (or, at d = 1, a column
    product) to another BLAS routine, and a BLAS kernel may round the last
    rows of a block apart (OpenBLAS's Haswell kernels do so for an odd
    count of rows, its SkylakeX kernels at d = 17, for two). So it is
    checked once per shape, on ``PROBES`` random normal batches: x phi,
    x phi^T and x^T y must all agree.
    """
    if n == width:
        return True
    rng = np.random.default_rng(0)
    A, B = np.zeros((2, width, d))
    for _ in range(PROBES):
        A[:n], B[:n] = rng.standard_normal((2, n, d))
        phi = rng.standard_normal((d, d))
        a, b = A[:n].copy(), B[:n].copy()
        if not (np.array_equal((A @ phi)[:n], a @ phi)
                and np.array_equal((A @ phi.T)[:n], a @ phi.T)
                and np.array_equal(A.T @ B, a.T @ b)):
            return False
    return True


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
