"""Command-line pipeline: split, cluster, train, eval, predict, synth.

Every subcommand is deterministic in (inputs, flags, seed) and records a
manifest with input/output content hashes, per-stage timings and the BLAS
kernel set and thread count (``blas``: numpy's bundled OpenBLAS, as it
reports them, or null for any other BLAS). Exit
codes: 0 success, 2 usage or validation error, 1 runtime failure. The
HYPERPROJ_LOG environment variable (debug/info/warning/error) controls
log verbosity.

Every command that reads ``--embeddings`` goes through ``_load_table``,
and ``cluster`` and ``train`` read ``--split-dir`` through ``_read_split``:
both look their input up in the cache directory (see ``cache``), so that
every arm trained on one split skips its parse. Outputs are the same with a
cold or a warm cache; a manifest's ``cache`` maps each input looked up there
to "hit" or "miss", and is left out when nothing was.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import cache, evaluation, synth, training
from . import dataset as ds
from .clustering import ClusterModel, fit_kmeans, offsets
from .embeddings import FORMATS, EmbeddingTable, load_embeddings, vocab_hash
from .errors import HyperprojError, InputError, atomic_open, file_sha256, read_hashed
from .projection import ProjectionModel, Regularizer, load_model, save_model
from .synth import SynthConfig
from .training import SELECT_ON, TrainConfig

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


@functools.cache  # once per process
def blas_info() -> dict | None:
    """``{"core", "threads"}`` of numpy's bundled OpenBLAS: the kernel set it picked for
    this CPU and its thread count. None for any other BLAS, which this cannot ask."""
    numpy_dir = Path(np.__file__).parent
    libraries = [*numpy_dir.parent.glob("numpy.libs/*openblas*"),
                 *numpy_dir.glob(".dylibs/*openblas*")]
    for library in sorted(libraries):
        try:
            blas = ctypes.CDLL(str(library))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):  # numpy 2 wheels, then numpy 1
            core = getattr(blas, f"{prefix}_get_corename64_", None)
            threads = getattr(blas, f"{prefix}_get_num_threads64_", None)
            if core is not None and threads is not None:
                core.argtypes, core.restype = [], ctypes.c_char_p
                threads.argtypes, threads.restype = [], ctypes.c_int
                return {"core": core().decode("ascii", "replace"), "threads": int(threads())}
    return None


class Manifest:
    """Run record: the parsed flags, input/output hashes, stage timings, the BLAS."""

    def __init__(self, args: argparse.Namespace):
        config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
        self.payload: dict = {"command": args.command, "config": config, "blas": blas_info(),
                              "inputs": {}, "outputs": {}, "timings": {}}
        self._t0 = time.monotonic()
        self._stage_start = self._t0

    def add_input(self, path: Path, digest: str, cache_status: str | None = None) -> None:
        """Record an input's SHA-256, ``digest``, of the bytes the caller parsed; and
        whether a cache lookup of it was a "hit" or a "miss", if there was one."""
        self.payload["inputs"][str(path)] = digest
        if cache_status is not None:
            self.payload.setdefault("cache", {})[str(path)] = cache_status

    def add_output(self, path: Path) -> None:
        self.payload["outputs"][str(path)] = file_sha256(path)

    def stage(self, name: str) -> None:
        now = time.monotonic()
        self.payload["timings"][name] = now - self._stage_start
        self._stage_start = now

    def write(self, path: Path) -> None:
        self.payload["timings"]["total"] = time.monotonic() - self._t0
        with atomic_open(path) as fh:
            fh.write(json.dumps(self.payload, sort_keys=True, indent=2) + "\n")


def _load_table(args, manifest: Manifest | None = None) -> EmbeddingTable:
    """The --embeddings table, through the cache; the manifest gets the digest of its bytes."""
    path = Path(args.embeddings)
    table = load_embeddings(path, format=args.format, normalize=args.normalize,
                            cache=cache.directory())
    if manifest is not None:
        manifest.add_input(path, table.source_sha256, table.cache_status)
    return table


def _read_split(args, table, manifest: Manifest) -> ds.RelationDataset:
    """The bound --split-dir, through the cache; the manifest gets the digest of each
    file's bytes."""
    bound = ds.read_split_dir(args.split_dir, table, cache=cache.directory())
    for path, digest in bound.source_sha256.items():
        manifest.add_input(path, digest, bound.cache_status)
    return bound


def _check_vocab_hash(model: ProjectionModel, table) -> None:
    if model.vocab_hash and model.vocab_hash != vocab_hash(table):
        log.warning("embedding vocabulary differs from the one the model was trained on")


def _write_clusters_json(clusters: ClusterModel, path: Path) -> None:
    payload = {
        "k": clusters.k,
        "dim": clusters.dim,
        "inertia": clusters.inertia,
        "centroids": clusters.centroids.tolist(),
    }
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def _read_clusters_json(path: Path) -> tuple[ClusterModel, str]:
    if not path.is_file():
        raise InputError(f"cluster file not found: {path}")
    data, digest = read_hashed(path)
    try:
        payload = json.loads(data.decode("utf-8"))
        centroids = np.array(payload["centroids"], dtype=np.float64)
        inertia = float(payload["inertia"])
    except (RecursionError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: malformed cluster file ({exc})") from None
    return ClusterModel(centroids, inertia), digest


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_split(args) -> int:
    fractions = tuple(args.fractions)
    ds.validate_fractions(fractions)
    manifest = Manifest(args)
    relations = ds.read_relations(args.relations)
    manifest.add_input(Path(args.relations), relations.source_sha256)
    manifest.stage("load")
    split = ds.split_relations(relations, fractions, args.seed)
    manifest.stage("split")
    out_dir = Path(args.out)
    paths = ds.write_split(split, out_dir)
    for path in paths.values():
        manifest.add_output(path)
    manifest.stage("write")
    manifest.write(out_dir / "manifest.json")
    counts = np.bincount(split.buckets, minlength=len(ds.BUCKETS)).tolist()
    print(f"split {len(split.hypernyms)} positive pairs -> "
          + ", ".join(f"{b}={n}" for b, n in zip(ds.BUCKETS, counts)))
    return 0


def cmd_cluster(args) -> int:
    manifest = Manifest(args)
    table = _load_table(args, manifest)
    manifest.stage("load_embeddings")
    train_pairs = _read_split(args, table, manifest).relations_in("train")
    if not train_pairs:
        raise InputError("training bucket is empty after binding")
    manifest.stage("load_relations")
    model = fit_kmeans(offsets(train_pairs, table), args.k, args.seed)
    manifest.stage("fit")
    out = Path(args.out)
    _write_clusters_json(model, out)
    manifest.add_output(out)
    manifest.write(out.with_name(out.name + ".manifest.json"))
    print(f"k={model.k} clusters on {len(train_pairs)} offsets, inertia {model.inertia:.6g}")
    return 0


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        alpha=args.alpha,
        lam=args.lam,
        regularizer=Regularizer(args.reg),
        k=args.k,
        seed=args.seed,
        select_on=args.select_on,
    )


def cmd_train(args) -> int:
    cfg = _train_config(args)
    cfg.validate()
    manifest = Manifest(args)
    table = _load_table(args, manifest)
    manifest.stage("load_embeddings")
    bound = _read_split(args, table, manifest)
    manifest.stage("load_relations")
    clusters = None
    if args.clusters:
        clusters, digest = _read_clusters_json(Path(args.clusters))
        manifest.add_input(Path(args.clusters), digest)
    model = training.train(bound, table, cfg, clusters=clusters)
    manifest.stage("train")
    out = Path(args.out)
    save_model(model, out)
    manifest.add_output(out)
    trace_path = Path(args.trace) if args.trace else out.with_name(out.name + ".trace.csv")
    training.write_trace_csv(model, trace_path)
    manifest.add_output(trace_path)
    manifest.stage("write")
    manifest.payload["data"] = model.meta.data
    manifest.payload["validation"] = model.meta.validation
    manifest.write(out.with_name(out.name + ".manifest.json"))
    losses = ", ".join("none" if v is None else f"{v:.6g}" for v in model.meta.final_losses)
    print(f"trained k={model.k} reg={model.regularizer.value} lambda={model.lam}; "
          f"final loss per cluster: {losses}")
    return 0


def cmd_eval(args) -> int:
    manifest = Manifest(args)
    model = load_model(args.model)
    manifest.add_input(Path(args.model), model.source_sha256)
    table = _load_table(args, manifest)
    _check_vocab_hash(model, table)
    manifest.stage("load")
    relations = ds.read_relations(args.test)
    pairs = relations.take(relations.codes == ds.HYPERNYM)
    if not pairs:
        raise InputError(f"{args.test}: no hypernym pairs to evaluate")
    manifest.add_input(Path(args.test), relations.source_sha256)
    report = evaluation.evaluate(model, table, pairs, l_max=args.l_max)
    manifest.stage("evaluate")
    manifest.payload["ranking"] = {"queries": report.n_pairs, "rechecked": report.rechecked}
    config_echo = {
        "model": args.model, "test": args.test, "l_max": args.l_max,
        "k": model.k, "regularizer": model.regularizer.value, "lambda": model.lam,
        "seed": model.meta.seed, "epochs": model.meta.epochs,
        "batch_size": model.meta.batch_size,
    }
    out = Path(args.out)
    evaluation.write_report_json(report, out, config_echo)
    manifest.add_output(out)
    pp_path = Path(args.per_pair) if args.per_pair else out.with_name(out.name + ".pairs.tsv")
    evaluation.write_per_pair_tsv(report, pp_path)
    manifest.add_output(pp_path)
    manifest.stage("write")
    manifest.write(out.with_name(out.name + ".manifest.json"))
    shown = {i: report.hits[i - 1] for i in (1, 5, 10) if i <= report.l_max}
    curve = " ".join(f"hit@{i}={v:.4f}" for i, v in shown.items())
    print(f"{curve} auc={report.auc:.4f} n={report.n_pairs} skips={report.skips}")
    return 0


def cmd_predict(args) -> int:
    if args.l < 1:  # before any file is read, so that the exit code does not depend on them
        raise InputError(f"l must be >= 1, got {args.l}")
    model = load_model(args.model)
    table = _load_table(args)
    _check_vocab_hash(model, table)
    resolved = 0
    for word in args.words:
        if word not in table:
            print(f"warning: {word!r} is not in the vocabulary", file=sys.stderr)
            continue
        candidates = evaluation.predict_candidates(model, table, word, args.l)
        if not candidates:  # a zero row, or a model that projects it to zero
            print(f"warning: {word!r} has no candidates", file=sys.stderr)
            continue
        resolved += 1
        for rank, (cand, score) in enumerate(candidates, start=1):
            print(f"{word}\t{rank}\t{cand}\t{score:.9g}")
    return 0 if resolved else 1


def cmd_synth(args) -> int:
    cfg = SynthConfig(dim=args.d, n_pairs=args.n, noise=args.noise,
                            distractors=args.distractors, seed=args.seed,
                            planted_clusters=args.clusters,
                            hyper_angle_deg=args.hyper_angle,
                            distractor_angle_deg=args.distractor_angle)
    cfg.validate()
    manifest = Manifest(args)
    try:
        table, relations = synth.make_fixture(cfg)
    except MemoryError as exc:  # the sizes come from flags
        raise InputError(f"the fixture does not fit in memory: {exc}") from None
    manifest.stage("generate")
    paths = synth.write_fixture(table, relations, args.out)
    for path in paths.values():
        manifest.add_output(path)
    manifest.stage("write")
    manifest.write(Path(args.out) / "manifest.json")
    print(f"wrote {len(table)} words (dim {table.dim}) and {len(relations)} relations "
          f"to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_embedding_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--embeddings", required=True, help="embedding file")
    parser.add_argument("--format", choices=FORMATS, default="text",
                        help="embedding file format (default text)")
    parser.add_argument("--normalize", action="store_true",
                        help="L2-normalize embedding rows at load time")


@functools.cache  # built once per process: every default is immutable
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperproj",
        description="Learn and evaluate per-cluster hypernym projection matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="lexically disjoint train/validation/test split")
    p.add_argument("--relations", required=True, help="relations TSV")
    p.add_argument("--fractions", type=float, nargs=3, default=ds.DEFAULT_FRACTIONS,
                   metavar=("TRAIN", "VAL", "TEST"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("cluster", help="fit k-means over training offsets")
    _add_embedding_flags(p)
    p.add_argument("--split-dir", required=True, help="directory written by split")
    # train's defaults, so `cluster` then `train --clusters` fits what `train` alone does
    p.add_argument("--k", type=int, default=TrainConfig.k)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--out", required=True, help="output cluster JSON")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="train per-cluster projection matrices")
    _add_embedding_flags(p)
    p.add_argument("--split-dir", required=True, help="directory written by split")
    p.add_argument("--k", type=int, default=TrainConfig.k)
    p.add_argument("--reg", choices=[r.value for r in Regularizer],
                   default=TrainConfig.regularizer.value)
    p.add_argument("--lambda", dest="lam", type=float, default=TrainConfig.lam,
                   help="regularization weight (default %(default)s)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--alpha", type=float, default=TrainConfig.alpha, help="Adam learning rate")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--select-on", choices=SELECT_ON, default=TrainConfig.select_on)
    p.add_argument("--clusters", help="precomputed cluster JSON from the cluster command")
    p.add_argument("--trace", help="loss trace CSV (default: <out>.trace.csv)")
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="hit@l curve and AUC on a test TSV")
    _add_embedding_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True, help="test pairs TSV")
    p.add_argument("--l-max", type=int, default=evaluation.DEFAULT_L_MAX)
    p.add_argument("--per-pair", help="per-pair TSV (default: <out>.pairs.tsv)")
    p.add_argument("--out", required=True, help="output report JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="ranked hypernym candidates for words")
    _add_embedding_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--l", type=int, default=10, help="candidates per word")
    p.add_argument("words", nargs="+", help="query words")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("synth", help="generate a synthetic embedding+relations fixture")
    p.add_argument("--d", type=int, default=SynthConfig.dim, help="embedding dimension")
    p.add_argument("--n", type=int, default=SynthConfig.n_pairs, help="number of hypernym pairs")
    p.add_argument("--noise", type=float, default=SynthConfig.noise, help="hypernym noise std")
    p.add_argument("--distractors", type=int, default=SynthConfig.distractors,
                   help="synonyms per hyponym")
    p.add_argument("--clusters", type=int, default=SynthConfig.planted_clusters,
                   help="planted mixing matrices")
    p.add_argument("--hyper-angle", type=float, default=SynthConfig.hyper_angle_deg,
                   help="planted hyponym-hypernym angle in degrees (default %(default)s)")
    p.add_argument("--distractor-angle", type=float, default=SynthConfig.distractor_angle_deg,
                   help="distractor cone half-angle in degrees (default %(default)s)")
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def _configure_logging() -> None:
    level = os.environ.get("HYPERPROJ_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HyperprojError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
