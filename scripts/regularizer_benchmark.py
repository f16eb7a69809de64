#!/usr/bin/env python3
"""Compare all five loss variants on the synthetic distractor fixture.

Trains baseline plus the four regularizers over several seeds and prints
mean hit@1 / hit@5 / hit@10 / AUC on the test bucket. This is the
desk-scale analogue of the headline comparison tables: distractor
synonyms sit close to each hyponym, so regularizers that push predictions
away from the hyponym's own neighborhood should rank the gold hypernym
higher.

Usage:
    python scripts/regularizer_benchmark.py --seeds 1 2 3 4 5 --lambda 0.5
"""

import argparse
import sys

import numpy as np

from hyperproj.dataset import build_dataset
from hyperproj.evaluation import evaluate
from hyperproj.projection import Regularizer
from hyperproj.synth import SynthConfig, make_fixture
from hyperproj.training import TrainConfig, train


def run_seed(seed, lam, args):
    """hit@1, hit@5, hit@10 and AUC of every loss variant, trained on one seed's fixture."""
    cfg = SynthConfig(dim=args.d, n_pairs=args.n, noise=args.noise,
                      distractors=args.distractors, seed=seed,
                      hyper_angle_deg=args.hyper_angle)
    table, relations = make_fixture(cfg)
    data = build_dataset(relations, table, seed=seed)
    scores = {}
    for kind in Regularizer:
        tc = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, k=args.k, seed=seed,
                         regularizer=kind, lam=lam if kind is not Regularizer.NONE else 0.0)
        model = train(data, table, tc)
        rep = evaluate(model, table, data.pairs_in("test"), l_max=10)
        scores[kind] = (rep.hits[0], rep.hits[4], rep.hits[9], rep.auc)
    return scores


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--lambda", dest="lam", type=float, default=0.5)
    parser.add_argument("--d", type=int, default=10)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--noise", type=float, default=0.05)
    parser.add_argument("--distractors", type=int, default=20)
    parser.add_argument("--hyper-angle", type=float, default=25.0)
    parser.add_argument("--epochs", type=int, default=700)
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--k", type=int, default=1)
    args = parser.parse_args()

    print(f"fixture: d={args.d} n={args.n} noise={args.noise} "
          f"distractors={args.distractors} angle={args.hyper_angle} seeds={args.seeds}")
    print(f"training: epochs={args.epochs} batch={args.batch_size} k={args.k} "
          f"lambda={args.lam}")
    print()
    header = f"{'model':<18} {'hit@1':>7} {'hit@5':>7} {'hit@10':>7} {'AUC':>7}"
    print(header)
    print("-" * len(header))
    per_seed = [run_seed(seed, args.lam, args) for seed in args.seeds]
    for kind in Regularizer:
        rows = np.array([scores[kind] for scores in per_seed])
        mean = rows.mean(axis=0)
        print(f"{kind.value:<18} {mean[0]:>7.3f} {mean[1]:>7.3f} {mean[2]:>7.3f} "
              f"{mean[3]:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
