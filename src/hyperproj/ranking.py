"""Exact cosine ranking of a whole embedding table, for eval, validation and predict.

Ranking has one exact scorer, ``_per_row_cosines``, called once per ranking
call: one ``np.einsum`` forms each dot product as numpy's own float64 per-row
product of one query and one row, so a score depends on neither the other
pairs, how they broadcast, the BLAS library nor its threads. Ranking runs one
float32 matrix product of unit queries against the table's kept float32 unit
columns (``unit_columns``, 4 bytes an entry, half the table's size), then
scores exactly only the rows within ``tie_window`` of a cut, so every rank and
score is that of an exact float64 scan. ``gold_ranks`` ranks a gold row per
query from one product of many queries (``_window_ranks``): the rows above the
window of the gold row's float64 estimate are counted, and those inside it,
read off each block with one ``np.nonzero``, are scored exactly in one call.
``top_cosines`` keeps every row within the window of the l-th best of one
product of few queries (``_product_scores``) and scores those exactly. Each
float32 score is compared with window ends computed in float64 and rounded
outward to float32 (``_float32_end``). ``embeddings.nearest_neighbors`` is
``top_cosines`` of one query; the tests keep a whole-vocabulary scan as their
oracle. Queries and rows alike are first scaled by the power of two that
brings their norm into [1/4, 1/2) (``_quarters``): exact, so no score depends
on a scale, and every table ranks through the window. A table keeps each
row's exponent and scaled norm from construction (``_shifts`` and
``_quarter_norms``, 12 bytes a row); queries are scaled per call
(``_scaled_queries``). ``_below_one`` measures vectors near the float64
limits: row norms, queries with an entry outside [2^-255, 2^254) in
magnitude, and projections that overflow.

Every ranking function scores a query's excluded row -inf before it counts
or cuts; ``_product_scores`` scores the zero rows -inf too, and
``_window_ranks`` takes them, which score ±0.0, back out of its counts.
``gold_targets`` holds what no query changes, so that pairs ranked again and
again bind it once. A matrix product yields at most BLOCK_ENTRIES scores
(256 KiB of float32) at once, and the row norms (``embeddings._row_norms``)
and unit columns are computed from that many float64 entries at a time, so
that no temporary array of the table's size is held.

The two scans stay apart: one loop serving both ``_window_ranks``'s gold counts
and ``_product_scores``'s best scores ran desk predict and validation slower.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .embeddings import EmbeddingTable

# scores one ranking matrix product yields, 256 KiB of float32; and the float64
# entries (512 KiB) the row norms and unit columns are computed from at a time
BLOCK_ENTRIES = 1 << 16
MIN_WHOLE_ROWS = 4  # gold_ranks tiles the vocabulary when fewer whole score rows fit
GEMM_ROWS = 64  # queries per matrix product when gold_ranks tiles the vocabulary


def _below_one(A: np.ndarray, axis: int | tuple[int, ...] = -1) -> tuple[np.ndarray, np.ndarray]:
    """``A`` times 2^-e, where e brings the largest |entry| of each vector along
    ``axis`` into [0.5, 1), and e (with ``axis`` kept). A zero vector keeps e = 0.

    The package's rescaling rule for measuring vectors near the float64 limits:
    a power of two changes no cosine, as the product is exact unless an entry
    far below the largest falls into the subnormals (the caller decides, through
    ``np.errstate``, whether that underflow is reported).
    """
    _, exponent = np.frexp(np.abs(A).max(axis=axis, keepdims=True))
    return np.ldexp(A, -exponent), exponent


def _quarters(vectors: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exponent of the power of two that brings each nonzero norm ``norms`` of
    ``vectors`` into [1/4, 1/2), and the norm times it; a zero norm gives 0.

    A subnormal norm holds too few bits for a cosine: its vector is measured
    again once scaled, and its exponent combines both powers of two. That is
    exact: the first, at least 2^1021, brings every entry, 2^-1074 too, into the
    normals without losing a bit; the held norm is off by at most 2^-1075, so
    the measured one lies in about [1/8, 3/4), the second is 2^-1, 1 or 2, and
    every entry stays normal. Two such norms multiply to at least 1/16.
    """
    fraction, exponent = np.frexp(norms)
    shift, norms = -1 - exponent, fraction / 2
    if exponent.min(initial=0) < -1021:  # a norm below 2^-1022
        low = np.flatnonzero(exponent < -1021)
        scaled = np.ldexp(vectors[low], shift[low, None])
        again, norms[low] = _quarters(scaled, np.linalg.norm(scaled, axis=1))
        shift[low] += again
    return shift, norms


def _quartered(queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each query and its norm times the power of two ``_quarters`` gives: exact,
    as ``_below_one``'s scaling is, so an ordinary cosine keeps its bits. A zero
    query stays zero, with norm 0. Each norm is measured by numpy's dot product of
    the query with itself. Tables keep each row's exponent and norm
    (``EmbeddingTable._shifts``), so only queries come here.
    """
    norms = np.sqrt((queries[:, None, :] @ queries[:, :, None]).reshape(len(queries)))
    shift, norms = _quarters(queries, norms)
    return np.ldexp(queries, shift[:, None]), norms


def _scaled_queries(queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each query ``_quartered``, and its norm; the caller's array is not modified.

    A query whose sum of squares could overflow or fall into the subnormals is
    first brought by ``_below_one`` to a largest |entry| in [0.5, 1). When every
    nonzero |entry| of every query lies in [2^-255, 2^254) (``np.frexp``
    exponents in [-254, 254]; a zero's is 0), that step is skipped, as it
    changes no bit. With it or without, each nonzero square is then at least
    2^-1022 (the entries of a query lie within 2^509 of each other) and a sum of
    them far below the float64 maximum, so every product and sum of one norm is
    an exact scaled copy of the other's, the square root halves the scale, and
    ``_quartered`` lands on the same bits. Both routes measure a contiguous array,
    so numpy takes the same dot product kernel.
    """
    _, exponent = np.frexp(queries)
    if np.abs(exponent).max(initial=0) <= 254:
        return _quartered(np.ascontiguousarray(queries))
    with np.errstate(under="ignore"):
        return _quartered(_below_one(queries)[0])


def unit_columns(table: EmbeddingTable) -> np.ndarray:
    """(dim, len) float32 array whose column j is row j of ``table``, scaled by
    2^_shifts[j], over its quartered norm, rounded once to float32, zero for a zero
    row: the factor of every ranking matrix product (``EmbeddingTable._unit_columns``).

    Built BLOCK_ENTRIES float64 entries at a time, so the table is never copied
    whole in float64; an entry that underflows to a float32 subnormal or to zero
    is a subnormal term of ``tie_window``. OpenBLAS multiplies a few queries by a
    contiguous (d, V) array about twice as fast as by a transposed view.
    """
    columns = np.empty((table.dim, len(table)), dtype=np.float32)
    step = max(1, BLOCK_ENTRIES // table.dim)
    for first in range(0, len(table), step):
        rows = slice(first, first + step)
        units = np.ldexp(table.vectors[rows], table._shifts[rows, None])
        norms = table._quarter_norms[rows, None]
        np.divide(units, norms, out=units, where=norms > 0.0)  # a zero row stays zero
        with np.errstate(under="ignore"):
            columns[:, rows] = units.T
    return columns


def _per_row_cosines(table: EmbeddingTable, rows: np.ndarray, queries: np.ndarray,
                     qnorms: np.ndarray) -> np.ndarray:
    """The exact cosines fl(fl(q·v) / fl(rn·qn)) of the table rows ``rows`` and
    ``queries``, scaled by ``_scaled_queries`` with norms ``qnorms``, pair by pair as
    ``rows`` and ``qnorms`` broadcast: (k, 1, d) queries and m rows give (k, m) scores,
    one query per row one score per row. Each row is scaled by the power of two the
    table keeps (``_shifts``, norm ``_quarter_norms``); NaN for a zero row or query.

    One ``np.einsum`` forms each dot product in numpy's own loop over one row and
    one query, whose order of operations depends only on the dimension, so a
    score has the same bits whatever other pairs are in the call, however they
    broadcast, and whatever the BLAS library or its thread count.
    """
    vectors = np.ldexp(table.vectors[rows], table._shifts[rows, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.einsum("...j,...j->...", vectors, queries)
                / (table._quarter_norms[rows] * qnorms))


@functools.cache  # one value per dimension, read by every ranking call
def tie_window(dim: int) -> float:
    """How far apart two cosines must be for the float32 ranking matrix product (of
    ``gold_ranks`` and ``top_cosines``) and the exact float64 per-row product of
    ``_per_row_cosines`` to order them alike, at embedding dimension ``dim``.

    Take u = 2^-24 and u' = 2^-53, the float32 and float64 unit roundoffs, and
    γ_n = n·u / (1 - n·u), γ'_n likewise with u'. Let q be a nonzero query and v a
    nonzero row, each scaled by the power of two of ``_quarters``, with norms qn and
    rn in [1/4, 1/2), and ρ = ‖q‖·‖v‖ / (qn·rn). Each computed norm is the true
    one times 1 + θ with |θ| ≤ γ'_{d+3}, power-of-two rescaling and a subnormal
    norm's second measure included, so ρ ≤ 1 + γ'_{2d+6}. A dot product of d
    terms, summed in any order, with or without fused multiply-adds and however
    threads split it, is within γ_d·Σ|a_k b_k| of the exact one in float32, γ'_d
    in float64, plus half the least subnormal for each product that underflows,
    2^-150 in float32 (Higham, Accuracy and Stability of Numerical Algorithms,
    §2.1 and §3.1); Σ|a_k b_k| ≤ ‖a‖·‖b‖.

    - The per-row product scores fl(fl(q·v) / fl(qn·rn)), and ``gold_ranks``
      estimates a gold row's score as the float64 product of fl(q/qn) and
      fl(v/rn). Both are within γ'_{d+2}·ρ of q·v / (qn·rn), plus subnormal terms
      below d·2^-1069: qn·rn ≥ 1/16, and every factor is at most about 1.
    - The matrix product is taken in float32, of the same two factors each
      rounded once more to float32: times (1 + u')(1 + u), or off by at most
      2^-150 where a factor lands in the float32 subnormals or at zero. As
      (1 + γ_d)(1 + u)^2 ≤ 1 + γ_{d+2}, it is within ((1 + γ_{d+2})(1 + u')^2 - 1)·ρ
      of q·v / (qn·rn), plus 3d subnormal terms, below d·2^-148 in all.

    So any two of these scores of one pair, the float64 ones included, differ by
    at most β = ((1 + γ_{d+2})(1 + u')^2 - 1 + γ'_{d+2})·ρ + d·2^-147, and a
    difference of two scores moves by at most 2β from one product to the other.
    The window adds 2u' for rounding its ends in float64, c ± window with
    |c ± window| < 2, and u' for evaluating this formula. Each end is then
    rounded outward to float32 (``_float32_end``), which only widens the window,
    so that float32 scores meet float32 ends whatever numpy's promotion rules.
    ``gold_ranks`` centres the window on the gold row's float64 estimate: a row
    whose product score lies outside it is at least window - 2β from the gold
    row exactly, and the gold row's own product score, at most β from the
    estimate, lies inside. A best score over several
    queries moves by at most β too, so a row of the exact top l scores at least
    the exact l-th best, which is at least the product's l-th best less β, and
    the row's own product score is at most β below its exact one:
    ``top_cosines`` keeps every row within the window of the product's l-th
    best. The window is about 2(d + 2)·u: 1.4e-6 at d = 10, 1.2e-5 at d = 100.
    """
    u, u64 = 2.0 ** -24, 2.0 ** -53

    def gamma(k: int, unit: float) -> float:
        return k * unit / (1 - k * unit)

    g = gamma(dim + 2, u)
    # (1 + g)(1 + u64)^2 - 1 without the cancellation
    product = g + (1 + g) * (2 + u64) * u64
    beta = (product + gamma(dim + 2, u64)) * (1 + gamma(2 * dim + 6, u64)) + dim * 2.0 ** -147
    return 2 * beta + 3 * u64


def _float32_end(bound, toward: float) -> np.ndarray | np.float32:
    """The float64 window ends ``bound`` rounded to float32 toward ``toward``: +inf
    for upper ends, -inf for lower ones. Comparing a float32 score with it, in
    float32, never narrows the window, and relies on no promotion rule, which
    differs between numpy versions."""
    nearest = np.float32(bound)  # an array for an array, else a scalar
    widened = np.float64(nearest)
    inward = widened < bound if toward > 0 else widened > bound
    if np.ndim(inward):
        return np.where(inward, np.nextafter(nearest, np.float32(toward)), nearest)
    # one end, that of a predict: a scalar choice costs a third of np.where's
    return np.nextafter(nearest, np.float32(toward)) if inward else nearest


class GoldTargets(NamedTuple):
    """What ranking one gold row per query needs that no query changes, so that
    pairs ranked again and again (validation during training) bind it once."""

    gold: np.ndarray  # the row to rank, per query
    exclude: np.ndarray  # the row left out, per query; -1 for none or a zero row
    units: np.ndarray  # each gold row over its norm, NaN for a zero row
    rankable: np.ndarray  # the gold row is nonzero and not the one left out


def gold_targets(table: EmbeddingTable, gold: np.ndarray, exclude: np.ndarray) -> GoldTargets:
    """``GoldTargets`` of the table rows ``gold``, each ranked without row ``exclude[i]``.

    A zero row scores -inf whether it is left out or not, so an excluded zero
    row is recorded as -1, none.
    """
    gold, exclude = np.asarray(gold, dtype=np.intp), np.asarray(exclude, dtype=np.intp)
    norms = table._row_norms
    vectors = np.ldexp(table.vectors[gold], table._shifts[gold, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        units = vectors / table._quarter_norms[gold, None]
    rankable = (norms[gold] > 0.0) & (gold != exclude)
    exclude = np.where((exclude >= 0) & (norms[exclude] > 0.0), exclude, -1)
    return GoldTargets(gold, exclude, units, rankable)


def gold_ranks(table: EmbeddingTable, queries: np.ndarray,
               targets: GoldTargets) -> tuple[np.ndarray, int]:
    """1-based rank of row ``targets.gold[i]`` among query i's exact cosines
    (``_per_row_cosines``), and how many queries had rows scored exactly.

    Ties go to the lower vocabulary index, and zero rows and row
    ``targets.exclude[i]`` take no part; the rank is 0 where the gold row or
    the query is zero, or the gold row is the one left out. Blocks of unit
    queries are scored with one float32 matrix product against tiles of the
    table's unit columns (``_window_ranks``). A row whose product score lies
    above the ``tie_window`` of the gold row's float64 estimate beats it
    exactly, and one below loses; the rows inside the window, read off the same
    product, and each of their queries' gold row are scored exactly in one call,
    and one ``np.bincount`` adds up the wins. Every rank equals the exact one.
    """
    queries, qnorms = _scaled_queries(np.asarray(queries, dtype=np.float64))
    ranks, which, rows = _window_ranks(table, queries, qnorms, targets)
    if not which.size:  # no near tie: every rank is counted
        return ranks, 0
    tied, of_pair = np.unique(which, return_inverse=True)  # their gold rows are scored last
    both = np.concatenate([which, tied])
    exact = _per_row_cosines(table, np.concatenate([rows, targets.gold[tied]]), queries[both],
                             qnorms[both])
    s_gold, exact = exact[len(which):][of_pair], exact[:len(which)]
    # of a tie, the lower index ranks first
    wins = (exact > s_gold) | ((exact == s_gold) & (rows < targets.gold[which]))
    ranks += np.bincount(which[wins], minlength=len(ranks))
    return ranks, len(tied)


def _rank_tiles(n: int, vocab: int) -> tuple[int, int]:
    """(queries, columns) of each matrix product of ``_window_ranks``.

    BLOCK_ENTRIES // vocab queries against the whole vocabulary when at least
    MIN_WHOLE_ROWS fit, else GEMM_ROWS queries against BLOCK_ENTRIES //
    GEMM_ROWS columns at a time.
    """
    whole = BLOCK_ENTRIES // vocab
    if whole >= MIN_WHOLE_ROWS:
        return max(1, min(n, whole)), vocab
    return max(1, min(n, GEMM_ROWS)), max(1, BLOCK_ENTRIES // GEMM_ROWS)


def _true_counts(mask: np.ndarray) -> np.ndarray:
    """How many entries of each row of the C-contiguous bool array ``mask`` are
    True; each row spans a whole number of 8 bytes. Each 8 bytes are read as one
    uint64 word, and a word times 0x0101010101010101 holds the sum of its bytes,
    each 0 or 1, in its top byte: about a third of the time of ``mask.sum(axis=1)``."""
    words = mask.view(np.uint64) * np.uint64(0x0101010101010101)
    return (words >> np.uint64(56)).sum(axis=1, dtype=np.intp)


def _window_ranks(table: EmbeddingTable, queries: np.ndarray, qnorms: np.ndarray,
                  targets: GoldTargets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each query's rank counted from the matrix-product cosines, 1 + the rows
    above the window of its gold row (0 where the gold row cannot be ranked),
    and the (query, row) pairs of the other nonzero rows inside that window.

    Each query's excluded row scores -inf in its block of scores, as in
    ``_product_scores``. A zero row's unit column is zero, so it scores
    exactly ±0.0 against every live query, and the zero rows are taken back
    out of the counts from that. The gold row itself lies inside the window
    wherever it is scored (see ``tie_window``); one ``np.nonzero`` per block reads
    off the rows inside for the queries whose counts show others there, and the
    gold and zero rows are dropped from the pairs after the scan.
    """
    n, vocab = len(queries), len(table)
    rows, width = _rank_tiles(n, vocab)
    live = (qnorms > 0.0) & targets.rankable
    with np.errstate(divide="ignore", invalid="ignore"):  # zero queries and rows: NaN
        units = queries / qnorms[:, None]
        s_gold = np.einsum("ij,ij->i", units, targets.units)
    with np.errstate(under="ignore"):
        units = units.astype(np.float32)
    window = tie_window(table.dim)
    above = _float32_end(np.where(live, s_gold + window, np.inf), np.inf)
    below = _float32_end(np.where(live, s_gold - window, np.inf), -np.inf)
    ahead = np.zeros(n, dtype=np.intp)  # rows above the window
    # the (query, row) pairs inside the window, of queries with other rows there
    near_queries, near_rows = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    whole = width == vocab
    # float32 scores, and a spare entry no block reaches
    score_buf = np.empty(rows * min(width, vocab) + 1, dtype=np.float32)
    # narrow tiles pad each mask row with zeros to a whole number of 8 bytes
    span = vocab if whole else -(-min(width, vocab) // 8) * 8
    masks = np.zeros((rows, span), dtype=bool)
    for first in range(0, vocab, width):
        last = min(first + width, vocab)
        # narrow tiles are copied: each block of queries packs the tile again, and
        # OpenBLAS packs columns of a contiguous tile faster than ones V apart
        tile = np.ascontiguousarray(table._unit_columns[:, first:last])
        column = targets.exclude - first
        inside = (column >= 0) & (column < last - first)
        # each query's excluded row in its block's flattened scores, else -1: the spare entry
        flat = np.where(inside, np.arange(n) % rows * (last - first) + column, -1)
        gold_here = live & (targets.gold >= first) & (targets.gold < last)
        masks[:, last - first:] = False  # a last tile narrower than the others
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            shape = (stop - start, last - first)
            S = score_buf[:shape[0] * shape[1]].reshape(shape)
            padded = masks[:shape[0]]
            M = padded[:, :shape[1]]
            np.matmul(units[start:stop], tile, out=S)
            score_buf[flat[start:stop]] = -np.inf
            counts = []  # of the rows above the window, then of those at or above its low end
            for bound, op in ((above, np.greater), (below, np.greater_equal)):
                op(S, bound[start:stop, None], out=M)
                # one 1-D count per whole row is fastest; narrow tiles add up
                # their rows eight bytes at a time
                counts.append(np.array([np.count_nonzero(r) for r in M]) if whole
                              else _true_counts(padded))
            ahead[start:stop] += counts[0]
            # M holds the rows at or above the low end: the window, and the rows above it
            others = np.flatnonzero(counts[1] - counts[0] > gold_here[start:stop])
            if others.size:
                q, column = np.nonzero(M[others] & (S[others] <= above[start + others, None]))
                near_queries.append(start + others[q])
                near_rows.append(first + column)
    ahead -= len(table._dead) * (0.0 > above)
    ranks = np.where(live, 1 + ahead, 0)
    # a rank is proven when only the gold row lies inside the window, zero rows
    # aside; any other query's rows inside are left to gold_ranks
    which, inside = np.concatenate(near_queries), np.concatenate(near_rows)
    keep = (inside != targets.gold[which]) & (table._row_norms[inside] > 0.0)
    return ranks, which[keep], inside[keep]


def _product_scores(table: EmbeddingTable, units: np.ndarray, exclude: int) -> np.ndarray:
    """Each row's best float32 matrix-product cosine over the float64 unit queries
    ``units``, rounded once to float32, -inf for a zero row and for row ``exclude``
    (-1 for none): the scan of few queries. The product with the table's unit
    columns is taken BLOCK_ENTRIES scores at a time."""
    columns, vocab = table._unit_columns, len(table)
    with np.errstate(under="ignore"):
        units = units.astype(np.float32)
    width = max(1, BLOCK_ENTRIES // len(units))
    best = np.empty(vocab, dtype=np.float32)
    for first in range(0, vocab, width):
        # the ufunc's own reduce: np.max adds a Python wrapper's cost per call
        np.maximum.reduce(units @ columns[:, first:first + width], axis=0,
                          out=best[first:first + width])
    best[table._dead] = -np.inf
    if exclude >= 0:
        best[exclude] = -np.inf
    return best


def top_cosines(table: EmbeddingTable, queries: np.ndarray, l: int,
                exclude: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The ``l`` rows with the best exact cosine over the queries, each row keeping
    its best score over them, and those scores, by descending score then index;
    row ``exclude`` (None for none), zero rows and zero queries take no part.

    Not every row is scored exactly: each row's best matrix-product cosine
    comes from ``_product_scores``, and only the rows whose best score is
    within ``tie_window`` of the l-th best are scored again by
    ``_per_row_cosines``. Each matrix-product cosine is within β of the exact
    one and the window is at least 2β, so every row of the exact top l, the
    whole tie class at the cut included, is among them. Those rows are in index
    order, so one stable sort by descending exact score gives ties to the lower
    index.
    """
    queries, qnorms = _scaled_queries(np.asarray(queries, dtype=np.float64))
    live = qnorms > 0.0
    if not live.any():
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    queries, qnorms = queries[live], qnorms[live]
    exclude = -1 if exclude is None else exclude
    best = _product_scores(table, queries / qnorms[:, None], exclude)
    vocab = len(table)
    # every row but these scores a finite cosine against the live queries
    m = min(l, vocab - len(table._dead) - bool(exclude >= 0 and table._row_norms[exclude] > 0.0))
    if m == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    cut = np.partition(best, vocab - m)[vocab - m]  # the m-th best
    short = np.flatnonzero(best >= _float32_end(float(cut) - tie_window(table.dim), -np.inf))
    exact = np.maximum.reduce(_per_row_cosines(table, short, queries[:, None], qnorms[:, None]),
                              axis=0)
    # every score is finite, and the indices ascend: ties go to the lower index
    top = np.argsort(-exact, kind="stable")[:l]
    return short[top], exact[top]
