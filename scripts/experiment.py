#!/usr/bin/env python3
"""Train a grid of seeds x cluster counts x loss variants on the distractor fixture.

Each seed synthesizes one fixture and splits it once. Every (k, variant)
model trained on it is evaluated on both the validation and the test
bucket. One JSON line per model goes to --out: seed, k, reg, the fixture
and training configs, and per bucket the hit@1..10 curve, its AUC and the
per-pair ranks (in bucket order, null beyond 10). A table of the means
over seeds per (k, variant) is printed after the grid.

Usage:
    # all five variants at k=1, means over five seeds
    python scripts/experiment.py --out runs.jsonl
    # quality against the cluster count on a four-cluster planted fixture
    python scripts/experiment.py --seeds 1 --k 1 2 4 8 --reg none neighbor-reproj \\
        --planted-clusters 4 --out sweep.jsonl
"""

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from hyperproj.dataset import build_dataset
from hyperproj.evaluation import evaluate
from hyperproj.projection import Regularizer
from hyperproj.synth import SynthConfig, make_fixture
from hyperproj.training import TrainConfig, train

BUCKETS = ("validation", "test")


def run_seed(seed, args):
    """One JSON-ready row per (k, variant), all trained on this seed's fixture."""
    cfg = SynthConfig(dim=args.d, n_pairs=args.n, noise=args.noise,
                      distractors=args.distractors, seed=seed,
                      planted_clusters=args.planted_clusters, hyper_angle_deg=args.hyper_angle)
    table, relations = make_fixture(cfg)
    data = build_dataset(relations, table, seed=seed)
    pairs = {bucket: data.pairs_in(bucket) for bucket in BUCKETS}
    for k in args.k:
        for reg in args.reg:
            tc = TrainConfig(epochs=args.epochs, lam=args.lam, regularizer=Regularizer(reg),
                             k=k, seed=seed)
            model = train(data, table, tc)
            row = {"seed": seed, "k": k, "reg": reg, "fixture": asdict(cfg),
                   "training": asdict(tc)}
            for bucket in BUCKETS:
                rep = evaluate(model, table, pairs[bucket], l_max=10)
                row[bucket] = {"hits": rep.hits, "auc": rep.auc,
                               "ranks": [p.rank for p in rep.per_pair]}
            yield row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--k", type=int, nargs="+", default=[1])
    parser.add_argument("--reg", nargs="+", default=[r.value for r in Regularizer],
                        choices=[r.value for r in Regularizer])
    parser.add_argument("--lambda", dest="lam", type=float, default=0.5)
    parser.add_argument("--d", type=int, default=10)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--noise", type=float, default=0.05)
    parser.add_argument("--distractors", type=int, default=20)
    parser.add_argument("--hyper-angle", type=float, default=25.0)
    parser.add_argument("--planted-clusters", type=int, default=1)
    parser.add_argument("--epochs", type=int, default=700)
    parser.add_argument("--out", required=True, help="JSON lines output path")
    args = parser.parse_args()

    rows = {}  # (k, reg) -> its row of every seed
    with open(args.out, "w", encoding="utf-8") as fh:
        for seed in args.seeds:
            for row in run_seed(seed, args):
                fh.write(json.dumps(row) + "\n")
                rows.setdefault((row["k"], row["reg"]), []).append(row)

    print(f"means over seeds {args.seeds}")
    header = f"{'bucket':<10} {'k':>3} {'model':<16} " + " ".join(
        f"{name:>7}" for name in ("hit@1", "hit@5", "hit@10", "AUC"))
    print(header)
    print("-" * len(header))
    for bucket in BUCKETS:
        for (k, reg), seeds in rows.items():
            scores = [[r[bucket]["hits"][i] for i in (0, 4, 9)] + [r[bucket]["auc"]]
                      for r in seeds]
            mean = np.array(scores).mean(axis=0)
            print(f"{bucket:<10} {k:>3} {reg:<16} " + " ".join(f"{m:>7.3f}" for m in mean))
    return 0


if __name__ == "__main__":
    sys.exit(main())
