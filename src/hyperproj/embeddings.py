"""Dense word embedding tables and brute-force nearest-neighbor search.

Two on-disk formats are supported: plain text (``word v1 v2 ... vd`` per
line, optional ``count dim`` header) and the conventional word2vec binary
layout (ASCII ``count dim\\n`` header, then per word a space-terminated
token followed by d little-endian float32 values). Vectors are held as
float64 internally regardless of the file precision.

Every similarity search, from ``nearest_neighbors`` here to ranking in
the evaluation module, scores through ``cosine_blocks``.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, utf8_lines

log = logging.getLogger(__name__)

TEXT_PRECISION = 9  # significant digits written by save_embeddings_text
BLOCK_ENTRIES = 1 << 15  # scores cosine_blocks holds at once: 256 KiB of float64


@dataclass(eq=False)
class EmbeddingTable:
    """Vocabulary plus row vectors; immutable after construction.

    Attributes:
        vocab: unique words, row order of ``vectors``.
        vectors: (len(vocab), dim) float64 matrix.
        normalized: rows were scaled to unit L2 norm at load time.
    """

    vocab: list[str]
    vectors: np.ndarray
    normalized: bool = False
    _index: dict[str, int] = field(init=False, repr=False)
    _row_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise InputError("embedding matrix must be 2-dimensional")
        if len(self.vocab) != self.vectors.shape[0]:
            raise InputError(
                f"vocabulary size {len(self.vocab)} does not match "
                f"{self.vectors.shape[0]} vector rows"
            )
        if self.vectors.shape[1] < 1:
            raise InputError("embedding dimension must be at least 1")
        if not np.isfinite(self.vectors).all():
            raise InputError("embedding matrix contains non-finite values")
        self._index = {w: i for i, w in enumerate(self.vocab)}
        if len(self._index) != len(self.vocab):
            raise InputError("vocabulary contains duplicate words")
        self._row_norms = np.linalg.norm(self.vectors, axis=1)
        if self.normalized and np.abs(self._row_norms - 1.0).max() > 1e-6:
            raise InputError("normalized table has rows with L2 norm far from 1")

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def lookup(self, word: str) -> int | None:
        """Row index of ``word``, or None if absent."""
        return self._index.get(word)

    def vector(self, word: str) -> np.ndarray:
        idx = self._index.get(word)
        if idx is None:
            raise KeyError(word)
        return self.vectors[idx]

    def rows(self, words: list[str]) -> np.ndarray:
        """Stacked vectors for ``words`` (all must be present)."""
        return self.vectors[[self._index[w] for w in words]]


@dataclass(eq=False)
class NeighborList:
    """Ranked similarity search result.

    ``entries`` is ordered by descending score; ties are broken by
    ascending vocabulary index, so results are fully deterministic.
    """

    query: np.ndarray
    entries: list[tuple[str, float]]

    def words(self) -> list[str]:
        return [w for w, _ in self.entries]


def _normalize_rows(vectors: np.ndarray, origin: str) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise InputError(f"{origin}: zero vector cannot be normalized (row {zero[0] + 1})")
    return vectors / norms[:, None]


def _finish(words: list[str], rows: list[np.ndarray], normalize: bool,
            path: str, dupes: int) -> EmbeddingTable:
    if not words:
        raise InputError(f"{path}: no embedding rows found")
    if dupes:
        log.warning("%s: dropped %d duplicate word(s), kept first occurrence", path, dupes)
    vectors = np.vstack(rows)
    if normalize:
        vectors = _normalize_rows(vectors, path)
    return EmbeddingTable(words, vectors, normalized=normalize)


def _load_text(path: Path, normalize: bool) -> EmbeddingTable:
    words: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    dupes = 0
    dim: int | None = None
    for lineno, line in utf8_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        tokens = line.split(" ")
        if tokens and tokens[-1] == "":  # tolerate one trailing space
            tokens.pop()
        if lineno == 1 and len(tokens) == 2 and _is_int(tokens[0]) and _is_int(tokens[1]):
            continue  # `count dim` header
        if len(tokens) < 2:
            raise InputError(f"{path}:{lineno}: expected `word v1 ... vd`")
        word = tokens[0]
        try:
            vec = np.array([float(t) for t in tokens[1:]], dtype=np.float64)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: unparsable vector component ({exc})") from None
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise InputError(
                f"{path}:{lineno}: dimension mismatch (got {vec.size}, expected {dim})"
            )
        if not np.isfinite(vec).all():
            raise InputError(f"{path}:{lineno}: non-finite vector component")
        if word in seen:
            dupes += 1
            continue
        seen.add(word)
        words.append(word)
        rows.append(vec)
    return _finish(words, rows, normalize, str(path), dupes)


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def _load_binary(path: Path, normalize: bool) -> EmbeddingTable:
    data = path.read_bytes()
    if not data:
        raise InputError(f"{path}: empty file")
    nl = data.find(b"\n")
    if nl < 0:
        raise InputError(f"{path}: missing `count dim` header")
    header = data[:nl].split()
    if len(header) != 2 or not all(_is_int(t.decode("ascii", "replace")) for t in header):
        raise InputError(f"{path}: malformed header {data[:nl]!r}")
    count, dim = int(header[0]), int(header[1])
    if count < 1 or dim < 1:
        raise InputError(f"{path}: header declares count={count} dim={dim}")
    vec_bytes = 4 * dim
    pos = nl + 1
    words: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    dupes = 0
    for i in range(count):
        while pos < len(data) and data[pos : pos + 1] in (b"\n", b" "):
            pos += 1
        end = data.find(b" ", pos)
        if end < 0 or end + vec_bytes > len(data):
            raise InputError(f"{path}: truncated at word {i + 1} of {count}")
        try:
            word = data[pos:end].decode("utf-8")
        except UnicodeDecodeError:
            raise InputError(
                f"{path}: word {i + 1} of {count} is not valid UTF-8 ({data[pos:end]!r})"
            ) from None
        vec = np.frombuffer(data, dtype="<f4", count=dim, offset=end + 1).astype(np.float64)
        pos = end + 1 + vec_bytes
        if not np.isfinite(vec).all():
            raise InputError(f"{path}: non-finite value in vector for {word!r}")
        if word in seen:
            dupes += 1
            continue
        seen.add(word)
        words.append(word)
        rows.append(vec)
    return _finish(words, rows, normalize, str(path), dupes)


def load_embeddings(path: str | Path, format: str = "text",
                    normalize: bool = False) -> EmbeddingTable:
    """Load an embedding file.

    Args:
        path: file to read.
        format: "text" or "binary" (word2vec layouts, see module docstring).
        normalize: scale every row to unit L2 norm; zero vectors are
            rejected when set.

    Duplicate words keep their first occurrence and log a warning. Words
    are matched verbatim (no case folding).
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"embedding file not found: {path}")
    if format == "text":
        return _load_text(path, normalize)
    if format == "binary":
        return _load_binary(path, normalize)
    raise InputError(f"unknown embedding format {format!r} (expected text or binary)")


def save_embeddings_text(table: EmbeddingTable, path: str | Path) -> None:
    """Write a table in the text format with a `count dim` header.

    Components are printed with 9 significant digits; values that fit in
    that precision round-trip bitwise through load_embeddings.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for word, row in zip(table.vocab, table.vectors):
            comps = " ".join(f"{v:.{TEXT_PRECISION}g}" for v in row)
            fh.write(f"{word} {comps}\n")


def cosine_blocks(table: EmbeddingTable, queries: np.ndarray,
                  exclude: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Cosine similarity of every query row with every vocabulary row.

    Yields ``(start, S)`` where ``S[i, j]`` scores query ``start + i``
    against vocabulary row j, for blocks of at most
    ``max(1, BLOCK_ENTRIES // len(table))`` queries. Zero-norm vocabulary
    rows, zero-norm queries and, per query, the row ``exclude[i]`` (when
    it is >= 0) score -inf. ``S`` is overwritten by the next block.

    Each query row is one matrix-vector product with the table, so its
    scores are bitwise the same whatever block it lands in.
    """
    queries = np.asarray(queries, dtype=np.float64)
    n, vocab = queries.shape[0], len(table)
    rows = max(1, BLOCK_ENTRIES // vocab)
    qnorms = np.sqrt((queries[:, None, :] @ queries[:, :, None]).reshape(n))
    dead = np.flatnonzero(table._row_norms == 0.0)
    scores = np.empty((min(rows, n), 1, vocab))
    denom = np.empty((min(rows, n), vocab))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        S, D = scores[:stop - start], denom[:stop - start]
        np.matmul(queries[start:stop, None, :], table.vectors.T, out=S)
        S = S.reshape(D.shape)
        np.multiply(table._row_norms, qnorms[start:stop, None], out=D)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(S, D, out=S)
        S[:, dead] = -np.inf
        S[qnorms[start:stop] == 0.0] = -np.inf
        if exclude is not None:
            ex = exclude[start:stop]
            hit = np.flatnonzero(ex >= 0)
            S[hit, ex[hit]] = -np.inf
        yield start, S


def top_indices(scores: np.ndarray, l: int) -> np.ndarray:
    """Indices of the ``l`` best finite scores, by descending score then index."""
    m = min(l, int(np.count_nonzero(scores > -np.inf)))
    if m == 0:
        return np.zeros(0, dtype=np.intp)
    cutoff = -np.partition(-scores, m - 1)[m - 1]
    tied_or_better = np.flatnonzero(scores >= cutoff)  # the whole tie class at the cut
    order = np.argsort(-scores[tied_or_better], kind="stable")
    return tied_or_better[order[:m]]


def nearest_neighbors(table: EmbeddingTable, query: np.ndarray, l: int,
                      exclude: str | None = None) -> NeighborList:
    """Exhaustive top-``l`` cosine scan of the vocabulary.

    Zero-norm rows are unusable and never returned. If ``l`` exceeds the
    usable vocabulary, all usable words are returned. A zero query vector
    is an error (similarity undefined).
    """
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.shape[0] != table.dim:
        raise InputError(f"query has dimension {query.shape[0]}, table has {table.dim}")
    if float(np.linalg.norm(query)) == 0.0:
        raise InputError("cosine similarity is undefined for a zero query vector")
    idx = table.lookup(exclude) if exclude is not None else None
    ex = np.array([-1 if idx is None else idx])
    _, S = next(cosine_blocks(table, query[None, :], ex))
    scores = S[0]
    entries = [(table.vocab[i], float(scores[i])) for i in top_indices(scores, l)]
    return NeighborList(query=query, entries=entries)


def vocab_hash(table: EmbeddingTable) -> str:
    """SHA-256 over the newline-joined vocabulary; recorded in model files."""
    import hashlib

    h = hashlib.sha256()
    for word in table.vocab:
        h.update(word.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
