#!/usr/bin/env python3
"""Print the SHA-256 of every output of the reference pipeline.

Runs synth -> split -> cluster (k=4) -> train (the five regularizers,
plus neighbor with validation-based model selection and neighbor-reproj
in batches of 68) -> eval and predict of each model, all through the
command-line entry point, in a temporary directory. Prints
``sha256  path`` for every file written except the ``*manifest.json``
run records (they hold timings), then one digest of everything
``predict`` printed, then one digest of the ``validation`` record of
every train manifest: the hit@10 of each validation check, not only
the snapshot it selects. Two commits that print the same lines
produce the same bytes on this pipeline.

Model and trace bytes are fixed per BLAS kernel set, so the script first
writes ``blas: {"core": ..., "threads": ...}`` (``cli.blas_info()``, null for
a BLAS other than numpy's bundled OpenBLAS) to standard error. Standard
output holds only the digests, so runs at different thread counts can be
compared with ``diff``.

Paths are relative to the temporary directory, because ``eval`` echoes
the model path into its report.

Usage:
    PYTHONPATH=src python scripts/golden_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from hyperproj.cli import blas_info
from hyperproj.cli import main as cli

FIXTURE = ["--d", "10", "--n", "1000", "--noise", "0.05", "--distractors", "5",
           "--hyper-angle", "25", "--seed", "3"]
TRAINING = ["--k", "4", "--clusters", "clusters.json", "--epochs", "60", "--alpha", "0.01",
            "--lambda", "0.5", "--seed", "3"]
ARMS = {reg: ["--reg", reg] for reg in
        ("none", "asym", "asym-reproj", "neighbor", "neighbor-reproj")}
ARMS["neighbor-select"] = ["--reg", "neighbor", "--select-on", "best_validation_hit10"]
# the clusters of 193, 193, 205 and 209 training pairs take 3, 3, 4 and 4
# batches of 68, so two clusters sit out the last step of each epoch; that
# step holds a one-row batch beside a five-row one
ARMS["neighbor-reproj-batch68"] = ["--reg", "neighbor-reproj", "--batch-size", "68"]
PREDICT_WORDS = 5  # the hyponyms of the first test pairs


def run(*argv: str) -> str:
    """Run one command and return what it printed; exit on failure."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli(list(argv))
    if code != 0:
        sys.exit(f"{' '.join(argv)}: exit {code}")
    return out.getvalue()


def pipeline() -> str:
    """Write every output into the working directory; return predict's output."""
    emb = ["--embeddings", "fixture/embeddings.txt"]
    run("synth", *FIXTURE, "--out", "fixture")
    run("split", "--relations", "fixture/relations.tsv", "--seed", "3", "--out", "split")
    run("cluster", *emb, "--split-dir", "split", "--k", "4", "--seed", "3",
        "--out", "clusters.json")
    lines = Path("split/test.tsv").read_text(encoding="utf-8").splitlines()
    words = [line.split("\t")[0] for line in lines[:PREDICT_WORDS]]
    printed = []
    for name, flags in ARMS.items():
        model = f"{name}.hprj"
        run("train", *emb, "--split-dir", "split", *TRAINING, *flags, "--out", model)
        run("eval", "--model", model, *emb, "--test", "split/test.tsv",
            "--out", f"{name}.report.json")
        printed.append(run("predict", "--model", model, *emb, *words))
    return "".join(printed)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    print(f"blas: {json.dumps(blas_info())}", file=sys.stderr)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            predicted = pipeline()
            for path in sorted(Path(".").rglob("*")):
                if path.is_file() and not path.name.endswith("manifest.json"):
                    print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
            validation = {path.name: json.loads(path.read_text(encoding="utf-8"))["validation"]
                          for path in sorted(Path(".").glob("*.hprj.manifest.json"))}
        finally:
            os.chdir(cwd)
    print(f"{sha256(predicted)}  (predict stdout)")
    print(f"{sha256(json.dumps(validation, sort_keys=True))}  (train validation records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
