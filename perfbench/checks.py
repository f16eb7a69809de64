"""Output checks: each raises CheckError with a one-line reason."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


class CheckError(Exception):
    """An output of the program is wrong."""


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def verify_manifest(path: Path) -> dict:
    """Re-hash every output a manifest lists; returns the manifest."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        outputs = payload["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckError(f"{path}: unreadable manifest ({exc})") from None
    if not outputs:
        raise CheckError(f"{path}: manifest lists no outputs")
    for out, digest in outputs.items():
        if not Path(out).is_file():
            raise CheckError(f"{out}: listed in {path.name} but missing")
        if sha256(Path(out)) != digest:
            raise CheckError(f"{out}: SHA-256 differs from {path.name}")
    return payload


def check_report(report: dict, n_test: int, hit10_floor: float) -> None:
    """An eval report: a valid hit curve, its trapezoid AUC, every test pair scored."""
    hits = report.get("hits")
    if not isinstance(hits, list) or len(hits) != report.get("l_max") or len(hits) < 10:
        raise CheckError(f"hit curve has {len(hits or [])} levels, l_max {report.get('l_max')}")
    if not all(isinstance(h, (int, float)) and 0.0 <= h <= 1.0 for h in hits):
        raise CheckError("a hit rate lies outside [0, 1]")
    if any(b < a for a, b in zip(hits, hits[1:])):
        raise CheckError("hit curve decreases")
    trapezoid = 0.5 * sum(a + b for a, b in zip(hits, hits[1:]))
    if not math.isclose(report.get("auc", math.nan), trapezoid, rel_tol=1e-12, abs_tol=1e-12):
        raise CheckError(f"auc {report.get('auc')} is not the trapezoid sum {trapezoid}")
    if report.get("n_pairs") != n_test:
        raise CheckError(f"n_pairs {report.get('n_pairs')} but the test bucket has {n_test}")
    if report.get("skips") != 0:
        raise CheckError(f"{report.get('skips')} test pairs skipped")
    if hits[9] < hit10_floor:
        raise CheckError(f"hit@10 {hits[9]:.4f} is below the floor {hit10_floor}")


def check_candidates(word: str, candidates: list[tuple[str, float]], l: int) -> None:
    """A predict answer: exactly l candidates, not the query, scores non-increasing."""
    if len(candidates) != l:
        raise CheckError(f"{word}: {len(candidates)} candidates, expected {l}")
    if any(cand == word for cand, _ in candidates):
        raise CheckError(f"{word}: the query word is among its own candidates")
    scores = [score for _, score in candidates]
    if not all(math.isfinite(s) for s in scores):
        raise CheckError(f"{word}: non-finite score")
    if any(b > a for a, b in zip(scores, scores[1:])):
        raise CheckError(f"{word}: scores increase down the list")
