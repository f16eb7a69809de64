import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperproj import cache, cli, dataset, embeddings
from hyperproj.cli import main
from hyperproj.embeddings import load_embeddings
from hyperproj.errors import read_container, write_container
from hyperproj.projection import MODEL_MAGIC, load_model, save_model


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def fixture_dir(tmp_path):
    out = tmp_path / "fix"
    assert run("synth", "--d", 6, "--n", 80, "--noise", 0, "--distractors", 2,
               "--seed", 5, "--out", out) == 0
    return out


@pytest.fixture
def split_dir(tmp_path, fixture_dir):
    out = tmp_path / "split"
    assert run("split", "--relations", fixture_dir / "relations.tsv",
               "--seed", 5, "--out", out) == 0
    return out


def train_quick(fixture_dir, split_dir, out, **flags):
    argv = ["train", "--embeddings", fixture_dir / "embeddings.txt",
            "--split-dir", split_dir, "--k", 1, "--epochs", 30,
            "--seed", 5, "--out", out]
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", value]
    return run(*argv)


class TestSplitCommand:
    def test_bucket_word_sets_disjoint(self, tmp_path):
        rel = tmp_path / "r.tsv"
        rel.write_text("a\tb\thypernym\nc\td\thypernym\ne\tf\thypernym\ng\th\thypernym\n")
        out = tmp_path / "sp"
        assert run("split", "--relations", rel, "--fractions", 0.5, 0.25, 0.25,
                   "--seed", 1, "--out", out) == 0
        vocabs = []
        for bucket in ("train", "validation", "test"):
            words = set()
            for line in (out / f"{bucket}.tsv").read_text().splitlines():
                src, tgt, _ = line.split("\t")
                words |= {src, tgt}
            vocabs.append(words)
        assert not (vocabs[0] & vocabs[1])
        assert not (vocabs[0] & vocabs[2])
        assert not (vocabs[1] & vocabs[2])

    def test_rerun_is_byte_identical(self, tmp_path, fixture_dir):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert run("split", "--relations", fixture_dir / "relations.tsv",
                       "--seed", 9, "--out", out) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == ["manifest.json", "negatives.tsv", "test.tsv", "train.tsv",
                         "validation.tsv"]
        for name in names[1:]:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_bad_fractions_exit_2(self, tmp_path, fixture_dir):
        code = run("split", "--relations", fixture_dir / "relations.tsv",
                   "--fractions", 0.5, 0.2, 0.2, "--seed", 1, "--out", tmp_path / "sp")
        assert code == 2

    def test_consecutive_calls_get_their_own_values(self, tmp_path, fixture_dir):
        # the parser is built once per process, so no call may leave a value behind
        rel = fixture_dir / "relations.tsv"
        assert run("split", "--relations", rel, "--fractions", 0.5, 0.25, 0.25,
                   "--seed", 1, "--out", tmp_path / "a") == 0
        assert run("split", "--relations", rel, "--out", tmp_path / "b") == 0
        assert cli.build_parser() is cli.build_parser()
        configs = [json.loads((tmp_path / name / "manifest.json").read_text())["config"]
                   for name in ("a", "b")]
        assert [(c["fractions"], c["seed"]) for c in configs] == [([0.5, 0.25, 0.25], 1),
                                                                 ([0.8, 0.1, 0.1], 0)]

    def test_manifest_records_hashes(self, tmp_path, fixture_dir, split_dir):
        manifest = json.loads((split_dir / "manifest.json").read_text())
        assert manifest["command"] == "split"
        assert str(fixture_dir / "relations.tsv") in manifest["inputs"]
        assert manifest["outputs"]
        assert "total" in manifest["timings"]


class TestClusterCommand:
    def test_writes_cluster_json(self, tmp_path, fixture_dir, split_dir):
        out = tmp_path / "clusters.json"
        assert run("cluster", "--embeddings", fixture_dir / "embeddings.txt",
                   "--split-dir", split_dir, "--k", 3, "--seed", 2, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["k"] == 3
        assert len(payload["centroids"]) == 3

    def test_manifest_hashes_the_split_files(self, tmp_path, fixture_dir, split_dir):
        out = tmp_path / "clusters.json"
        emb = fixture_dir / "embeddings.txt"
        assert run("cluster", "--embeddings", emb, "--split-dir", split_dir, "--k", 2,
                   "--out", out) == 0
        inputs = json.loads((tmp_path / "clusters.json.manifest.json").read_text())["inputs"]
        files = [emb] + [split_dir / f"{name}.tsv"
                         for name in ("train", "validation", "test", "negatives")]
        assert inputs == {str(f): hashlib.sha256(f.read_bytes()).hexdigest() for f in files}

    def test_train_accepts_precomputed_clusters(self, tmp_path, fixture_dir, split_dir):
        clusters = tmp_path / "clusters.json"
        assert run("cluster", "--embeddings", fixture_dir / "embeddings.txt",
                   "--split-dir", split_dir, "--k", 2, "--seed", 2, "--out", clusters) == 0
        model_path = tmp_path / "m.hprj"
        assert run("train", "--embeddings", fixture_dir / "embeddings.txt",
                   "--split-dir", split_dir, "--k", 2, "--epochs", 5, "--seed", 2,
                   "--clusters", clusters, "--out", model_path) == 0
        model = load_model(model_path)
        assert model.k == 2
        assert np.array_equal(model.clusters.centroids,
                              np.array(json.loads(clusters.read_text())["centroids"]))

    @pytest.mark.parametrize("seed", [None, 4], ids=["default-seed", "seed-4"])
    def test_cluster_then_train_fits_what_train_alone_fits(self, tmp_path, fixture_dir,
                                                          split_dir, seed):
        emb = ["--embeddings", fixture_dir / "embeddings.txt", "--split-dir", split_dir,
               "--k", 2, *(["--seed", seed] if seed is not None else [])]
        assert run("cluster", *emb, "--out", tmp_path / "c.json") == 0
        train = ["train", *emb, "--epochs", 10, "--reg", "neighbor"]
        assert run(*train, "--clusters", tmp_path / "c.json", "--out", tmp_path / "two.hprj") == 0
        assert run(*train, "--out", tmp_path / "one.hprj") == 0
        for name in ("{}.hprj", "{}.hprj.trace.csv"):
            one = (tmp_path / name.format("one")).read_bytes()
            assert one == (tmp_path / name.format("two")).read_bytes()


class TestTrainCommand:
    def test_lambda_inert_under_baseline(self, tmp_path, fixture_dir, split_dir):
        m0, m5 = tmp_path / "m0.hprj", tmp_path / "m5.hprj"
        assert train_quick(fixture_dir, split_dir, m0, reg="none", **{"lambda": "0"}) == 0
        assert train_quick(fixture_dir, split_dir, m5, reg="none", **{"lambda": "5"}) == 0
        assert m0.read_bytes() == m5.read_bytes()

    def test_missing_embeddings_exit_2_no_partial_output(self, tmp_path, split_dir):
        model_path = tmp_path / "m.hprj"
        code = run("train", "--embeddings", tmp_path / "absent.txt",
                   "--split-dir", split_dir, "--k", 1, "--epochs", 5,
                   "--seed", 1, "--out", model_path)
        assert code == 2
        assert not model_path.exists()

    def test_writes_trace_csv(self, tmp_path, fixture_dir, split_dir):
        model_path = tmp_path / "m.hprj"
        assert train_quick(fixture_dir, split_dir, model_path) == 0
        trace = (tmp_path / "m.hprj.trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,cluster,baseline_term,reg_term,total"
        assert len(trace) == 1 + 30  # one row per epoch for k=1

    def test_all_regularizers_train(self, tmp_path, fixture_dir, split_dir):
        for reg in ("asym", "asym-reproj", "neighbor", "neighbor-reproj"):
            out = tmp_path / f"{reg}.hprj"
            assert train_quick(fixture_dir, split_dir, out, reg=reg) == 0
            assert load_model(out).regularizer.value == reg

    def test_gradient_too_large_for_adam_exit_1(self, tmp_path, fixture_dir, split_dir,
                                                capsys):
        # a finite gradient entry above about 1.3e154 would overflow Adam's
        # second moment, and every later step of its matrix would be 0
        out = tmp_path / "m.hprj"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = train_quick(fixture_dir, split_dir, out, reg="neighbor", **{"lambda": "1e200"})
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == ["error: non-finite or overflowing gradient in cluster 0 at epoch 1"]
        assert not out.exists()
        assert train_quick(fixture_dir, split_dir, out, reg="neighbor", **{"lambda": "1e100"}) == 0


class TestEvalCommand:
    def test_report_and_pairs_written(self, tmp_path, fixture_dir, split_dir):
        model_path = tmp_path / "m.hprj"
        assert train_quick(fixture_dir, split_dir, model_path, epochs="200") == 0
        report_path = tmp_path / "report.json"
        assert run("eval", "--model", model_path,
                   "--embeddings", fixture_dir / "embeddings.txt",
                   "--test", split_dir / "test.tsv", "--l-max", 10,
                   "--out", report_path) == 0
        payload = json.loads(report_path.read_text())
        assert len(payload["hits"]) == 10
        assert payload["hits"] == sorted(payload["hits"])
        pairs_lines = (tmp_path / "report.json.pairs.tsv").read_text().splitlines()
        assert len(pairs_lines) == payload["n_pairs"]

    def test_malformed_test_tsv_exit_2(self, tmp_path, fixture_dir, split_dir):
        model_path = tmp_path / "m.hprj"
        assert train_quick(fixture_dir, split_dir, model_path) == 0
        bad = tmp_path / "bad.tsv"
        bad.write_text("only two\tcolumns\n")
        code = run("eval", "--model", model_path,
                   "--embeddings", fixture_dir / "embeddings.txt",
                   "--test", bad, "--out", tmp_path / "r.json")
        assert code == 2

    def test_perfect_projector_through_files(self, tmp_path):
        # gold hypernym vectors coincide with their hyponyms, so the
        # identity matrix is a perfect projector: hits must all be 1
        from conftest import make_model
        from hyperproj.projection import save_model

        emb = tmp_path / "e.txt"
        emb.write_text("x1 1 0\ny1 1 0\nx2 0 1\ny2 0 1\n")
        test = tmp_path / "t.tsv"
        test.write_text("x1\ty1\thypernym\nx2\ty2\thypernym\n")
        model_path = tmp_path / "ident.hprj"
        save_model(make_model(np.eye(2)), model_path)
        report_path = tmp_path / "r.json"
        assert run("eval", "--model", model_path, "--embeddings", emb,
                   "--test", test, "--l-max", 4, "--out", report_path) == 0
        payload = json.loads(report_path.read_text())
        assert payload["hits"] == [1.0, 1.0, 1.0, 1.0]
        assert payload["auc"] == 3.0

    def test_toy_rank_curve_through_files(self, tmp_path):
        # hand-built vectors: gold ranks 2 and 1 -> hit curve 0.5, 1, 1, 1
        from conftest import make_model
        from hyperproj.projection import save_model

        emb = tmp_path / "e.txt"
        emb.write_text("x1 1 0\ny1 0.9 0.3\nw 0.995 0.1\nx2 0 1\ny2 0.1 0.995\n")
        test = tmp_path / "t.tsv"
        test.write_text("x1\ty1\thypernym\nx2\ty2\thypernym\n")
        model_path = tmp_path / "ident.hprj"
        save_model(make_model(np.eye(2)), model_path)
        report_path = tmp_path / "r.json"
        assert run("eval", "--model", model_path, "--embeddings", emb,
                   "--test", test, "--l-max", 4, "--out", report_path) == 0
        payload = json.loads(report_path.read_text())
        assert payload["hits"] == [0.5, 1.0, 1.0, 1.0]


class TestPredictCommand:
    def test_identity_model_lists_own_neighbors(self, tmp_path, capsys):
        # build a tiny identity model through the library, then query the CLI
        from conftest import make_model
        from hyperproj.projection import save_model

        emb = tmp_path / "e.txt"
        emb.write_text("a 1 0\nb 0.9 0.1\nc 0 1\n")
        table = load_embeddings(emb)
        model = make_model(np.eye(2))
        model_path = tmp_path / "ident.hprj"
        save_model(model, model_path)
        assert run("predict", "--model", model_path, "--embeddings", emb,
                   "--l", 2, "a") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t")[:3] == ["a", "1", "b"]

    def test_planted_model_ranks_gold_first(self, tmp_path, capsys):
        fix, sp = tmp_path / "fix", tmp_path / "sp"
        model_path = tmp_path / "m.hprj"
        assert run("synth", "--d", 8, "--n", 200, "--noise", 0, "--seed", 23,
                   "--out", fix) == 0
        assert run("split", "--relations", fix / "relations.tsv", "--seed", 23,
                   "--out", sp) == 0
        assert run("train", "--embeddings", fix / "embeddings.txt", "--split-dir", sp,
                   "--k", 1, "--epochs", 700, "--seed", 23, "--out", model_path) == 0
        capsys.readouterr()
        first_train_pair = (sp / "train.tsv").read_text().splitlines()[0].split("\t")
        assert run("predict", "--model", model_path,
                   "--embeddings", fix / "embeddings.txt",
                   "--l", 5, first_train_pair[0]) == 0
        top = capsys.readouterr().out.splitlines()[0].split("\t")
        assert top[1] == "1"
        assert top[2] == first_train_pair[1]  # gold hypernym at rank 1

    def test_oov_warning_and_exit_codes(self, tmp_path, capsys):
        from conftest import make_model
        from hyperproj.projection import save_model

        emb = tmp_path / "e.txt"
        emb.write_text("a 1 0\nb 0 1\n")
        model_path = tmp_path / "m.hprj"
        save_model(make_model(np.eye(2)), model_path)
        assert run("predict", "--model", model_path, "--embeddings", emb,
                   "--l", 1, "a", "zzz") == 0
        err = capsys.readouterr().err
        assert "zzz" in err
        # every word unresolvable -> failure
        assert run("predict", "--model", model_path, "--embeddings", emb,
                   "--l", 1, "qqq") == 1

    @pytest.mark.parametrize("rows, matrix, words, code", [
        ("a 0 0\nb 0 1\nc 1 1\n", np.eye(2), ["a"], 1),
        ("a 0 0\nb 0 1\nc 1 1\n", np.eye(2), ["a", "b"], 0),
        ("a 1 0\nb 0 1\n", np.zeros((2, 2)), ["a"], 1),
    ], ids=["zero-row", "zero-row-and-a-word-that-resolves", "zero-model"])
    def test_word_with_no_candidates_warns_and_is_unresolved(self, tmp_path, capsys, rows,
                                                             matrix, words, code):
        from conftest import make_model

        emb = tmp_path / "e.txt"
        emb.write_text(rows)
        model_path = tmp_path / "m.hprj"
        save_model(make_model(matrix), model_path)
        capsys.readouterr()
        assert run("predict", "--model", model_path, "--embeddings", emb, *words) == code
        out, err = capsys.readouterr()
        assert err == "warning: 'a' has no candidates\n"
        assert [line.split("\t")[0] for line in out.splitlines()] == ["b"] * (code == 0)

    @pytest.mark.parametrize("words", [["a"], ["qqq"], ["a", "qqq"]],
                             ids=["known", "unknown", "both"])
    def test_l_below_1_exits_2_whatever_the_words(self, tmp_path, capsys, words):
        from conftest import make_model

        emb = tmp_path / "e.txt"
        emb.write_text("a 1 0\nb 0 1\n")
        model_path = tmp_path / "m.hprj"
        save_model(make_model(np.eye(2)), model_path)
        capsys.readouterr()
        code = run("predict", "--model", model_path, "--embeddings", emb, "--l", 0, *words)
        assert_one_error_line(code, capsys, "l must be >= 1, got 0")
        # checked before any file is read
        code = run("predict", "--model", tmp_path / "absent.hprj",
                   "--embeddings", tmp_path / "absent.txt", "--l", 0, *words)
        assert_one_error_line(code, capsys, "l must be >= 1, got 0")


class TestSynthCommand:
    def test_same_seed_identical_fixtures(self, tmp_path):
        d1, d2 = tmp_path / "f1", tmp_path / "f2"
        for out in (d1, d2):
            assert run("synth", "--d", 5, "--n", 30, "--distractors", 1,
                       "--seed", 3, "--out", out) == 0
        assert (d1 / "embeddings.txt").read_bytes() == (d2 / "embeddings.txt").read_bytes()
        assert (d1 / "relations.tsv").read_bytes() == (d2 / "relations.tsv").read_bytes()

    def test_invalid_dimension_exit_2(self, tmp_path):
        assert run("synth", "--d", 1, "--n", 10, "--out", tmp_path / "f") == 2


class TestEndToEndDeterminism:
    def test_full_pipeline_reproduces_bytes(self, tmp_path, monkeypatch):
        # identical inputs means identical arguments too, so each run uses
        # the same relative paths from its own working directory
        artifacts = []
        for name in ("run1", "run2"):
            base = tmp_path / name
            base.mkdir()
            monkeypatch.chdir(base)
            assert run("synth", "--d", 6, "--n", 60, "--noise", 0.02,
                       "--distractors", 1, "--seed", 8, "--out", "fix") == 0
            assert run("split", "--relations", "fix/relations.tsv",
                       "--seed", 8, "--out", "sp") == 0
            assert run("cluster", "--embeddings", "fix/embeddings.txt",
                       "--split-dir", "sp", "--k", 2, "--seed", 8, "--out", "c.json") == 0
            assert run("train", "--embeddings", "fix/embeddings.txt",
                       "--split-dir", "sp", "--k", 2, "--clusters", "c.json",
                       "--epochs", 25, "--seed", 8, "--reg", "neighbor-reproj",
                       "--lambda", 0.5, "--out", "m.hprj") == 0
            assert run("eval", "--model", "m.hprj", "--embeddings", "fix/embeddings.txt",
                       "--test", "sp/test.tsv", "--out", "r.json") == 0
            artifacts.append(((base / "m.hprj").read_bytes(),
                              (base / "r.json").read_bytes(),
                              (base / "r.json.pairs.tsv").read_bytes()))
        assert artifacts[0] == artifacts[1]


def assert_one_error_line(code, capsys, expected=""):
    check_one_error_line(code, capsys.readouterr().err, expected)


def check_one_error_line(code, err, expected=""):
    assert code == 2
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and expected in errors[0]


class TestOverflowingTraining:
    @pytest.mark.parametrize("alpha", [1e308, 1e160])
    def test_one_error_line_and_no_numpy_warning(self, tmp_path, capsys, fixture_dir, split_dir,
                                                 alpha):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = train_quick(fixture_dir, split_dir, tmp_path / "m.hprj", alpha=alpha,
                               epochs=2)
        err = capsys.readouterr().err
        assert code == 1 and "RuntimeWarning" not in err and "Traceback" not in err
        assert [str(w.message) for w in caught] == []
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == ["error: non-finite or overflowing gradient in cluster 0 at epoch 2"]
        assert not (tmp_path / "m.hprj").exists()


class TestBadInputExit2:
    @staticmethod
    def eval_of_a_saved_model(tmp_path):
        """The path of an identity model, saved for the test to alter, and an eval of it."""
        from conftest import make_model

        emb = tmp_path / "e.txt"
        emb.write_text("x1 1 0\ny1 0.9 0.3\n")
        test = tmp_path / "t.tsv"
        test.write_text("x1\ty1\thypernym\n")
        model_path = tmp_path / "m.hprj"
        save_model(make_model(np.eye(2)), model_path)
        return model_path, ["eval", "--model", model_path, "--embeddings", emb, "--test", test,
                            "--out", tmp_path / "r.json"]

    @pytest.mark.parametrize("changes, expected", [
        ({"dim": None}, "incomplete header"),
        ({"lambda": None}, "incomplete header"),
        ({"seed": None}, "incomplete header"),
        ({"inertia": "x"}, "incomplete header"),
        ({"k": -1}, "declares dim=2 k=-1"),
        ({"dim": 0}, "declares dim=0 k=1"),
        ({"lambda": float("nan")}, "lambda must be non-negative and finite"),
        ({"lambda": float("inf")}, "lambda must be non-negative and finite"),
    ], ids=["dim-null", "lambda-null", "seed-null", "inertia-text", "k-negative", "dim-zero",
            "lambda-nan", "lambda-inf"])
    def test_bad_model_header(self, tmp_path, capsys, changes, expected):
        model_path, argv = self.eval_of_a_saved_model(tmp_path)
        header, payload = read_container(model_path, MODEL_MAGIC)
        header.update(changes)
        write_container(model_path, MODEL_MAGIC, header, payload)  # with a valid checksum
        assert_one_error_line(run(*argv), capsys, expected)

    @pytest.mark.parametrize("damage, expected", [
        ("flipped", "checksum mismatch"), ("hprj1", "bad magic, not a HPRJ2 file"),
    ])
    def test_damaged_or_old_model(self, tmp_path, capsys, damage, expected):
        model_path, argv = self.eval_of_a_saved_model(tmp_path)
        data = bytearray(model_path.read_bytes())
        if damage == "flipped":
            data[data.index(b"\x00") + 9] ^= 0x01  # one byte of the payload's second value
        else:  # the layout before the container: no padding and no checksum
            header, payload = read_container(model_path, MODEL_MAGIC)
            blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
            data = b"HPRJ1" + blob + b"\x00" + payload.tobytes()
        model_path.write_bytes(data)
        assert_one_error_line(run(*argv), capsys, expected)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("file", ["clusters", "model"])
    def test_deep_nesting(self, tmp_path, capsys, fixture_dir, split_dir, file):
        emb = fixture_dir / "embeddings.txt"
        deep = b"[" * 100_000
        if file == "clusters":
            clusters = tmp_path / "c.json"
            clusters.write_bytes(deep)
            argv = ["train", "--embeddings", emb, "--split-dir", split_dir,
                    "--clusters", clusters, "--epochs", 1, "--out", tmp_path / "m.hprj"]
            expected = "c.json: malformed cluster file"
        else:
            model = tmp_path / "m.hprj"
            # json.dumps cannot nest this deep, so the container gets the bytes themselves
            with mock.patch("json.dumps", return_value=deep.decode()):
                write_container(model, MODEL_MAGIC, {})
            argv = ["eval", "--model", model, "--embeddings", emb,
                    "--test", split_dir / "test.tsv", "--out", tmp_path / "r.json"]
            expected = "m.hprj: malformed header"
        capsys.readouterr()
        assert_one_error_line(run(*argv), capsys, expected)

    def test_missing_relations_file(self, tmp_path, capsys):
        code = run("split", "--relations", tmp_path / "missing.tsv", "--out", tmp_path / "s")
        assert_one_error_line(code, capsys, "relations file not found: ")
        assert not (tmp_path / "s").exists()
        # in a process of its own, at the default log level, the error line is all of stderr
        env = {k: v for k, v in os.environ.items() if k != "HYPERPROJ_LOG"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-m", "hyperproj", "split", "--relations",
                               str(tmp_path / "missing.tsv"), "--out", str(tmp_path / "s")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == f"error: relations file not found: {tmp_path / 'missing.tsv'}\n"

    def test_non_utf8_relations(self, tmp_path, capsys):
        relations = tmp_path / "r.tsv"
        relations.write_bytes(b"a\tb\thypernym\n\xff\tc\thypernym\n")
        code = run("split", "--relations", relations, "--out", tmp_path / "s")
        assert_one_error_line(code, capsys, "r.tsv:2: not valid UTF-8")

    def test_non_utf8_text_embeddings(self, tmp_path, capsys, fixture_dir, split_dir):
        emb = tmp_path / "e.txt"
        emb.write_bytes((fixture_dir / "embeddings.txt").read_bytes() + b"\xff 1 2 3 4 5 6\n")
        capsys.readouterr()
        code = run("cluster", "--embeddings", emb, "--split-dir", split_dir,
                   "--out", tmp_path / "c.json")
        assert_one_error_line(code, capsys, "e.txt:322: not valid UTF-8")

    def test_non_utf8_binary_embeddings(self, tmp_path, capsys, split_dir):
        emb = tmp_path / "e.bin"
        emb.write_bytes(b"2 2\nab " + np.array([1, 0], "<f4").tobytes()
                        + b"\xff " + np.array([0, 1], "<f4").tobytes())
        capsys.readouterr()
        code = run("cluster", "--embeddings", emb, "--format", "binary",
                   "--split-dir", split_dir, "--out", tmp_path / "c.json")
        assert_one_error_line(code, capsys, "word 2 of 2 is not valid UTF-8")

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would reach stderr too
    @pytest.mark.parametrize("command", ["cluster", "predict"])
    def test_row_norm_above_the_float64_maximum(self, tmp_path, capsys, split_dir, command):
        from conftest import make_model

        emb = tmp_path / "e.txt"
        emb.write_text("a 1 0\nbig 1.7e308 1.7e308\n")
        model = tmp_path / "m.hprj"
        save_model(make_model(np.eye(2)), model)
        argv = {
            "cluster": ["cluster", "--embeddings", emb, "--split-dir", split_dir,
                        "--out", tmp_path / "c.json"],
            "predict": ["predict", "--model", model, "--embeddings", emb, "a"],
        }[command]
        capsys.readouterr()
        assert_one_error_line(run(*argv), capsys, "row 2 ('big') has an L2 norm above")

    @pytest.mark.parametrize("command", ["train", "cluster"])
    @pytest.mark.parametrize("member, row, expected", [
        ("train", "hypo01\thyper01\tsynonym\n",
         "train.tsv: row ('hypo01', 'hyper01', 'synonym') is a synonym pair"),
        ("negatives", "hypo01\thyper01\thypernym\n",
         "negatives.tsv: row ('hypo01', 'hyper01', 'hypernym') is a hypernym pair"),
    ], ids=["bucket-non-hypernym", "negatives-hypernym"])
    def test_split_row_of_the_wrong_relation(self, tmp_path, capsys, fixture_dir, split_dir,
                                             member, row, expected, command):
        path = split_dir / f"{member}.tsv"
        path.write_text(path.read_text() + row)
        out = tmp_path / "out"
        capsys.readouterr()
        flags = {"train": ["--epochs", 2], "cluster": []}[command]
        code = run(command, "--embeddings", fixture_dir / "embeddings.txt",
                   "--split-dir", split_dir, *flags, "--out", out)
        assert_one_error_line(code, capsys, expected)
        assert not out.exists()

    @pytest.mark.parametrize("header, expected", [
        ("5 2", "e.txt: header declares 5 rows, the file holds 2"),
        ("2 3", "e.txt:2: dimension mismatch (got 2, expected 3)"),
        ("2 -3", "e.txt: header declares count=2 dim=-3"),
    ], ids=["count", "dim", "dim-below-1"])
    def test_text_header_that_the_rows_break(self, tmp_path, capsys, header, expected):
        from conftest import make_model

        emb = tmp_path / "e.txt"
        emb.write_text(f"{header}\na 1 0\nb 0 1\n")
        model = tmp_path / "m.hprj"
        save_model(make_model(np.eye(2)), model)
        capsys.readouterr()
        code = run("predict", "--model", model, "--embeddings", emb, "a")
        assert_one_error_line(code, capsys, f"{emb}{expected[len('e.txt'):]}")

    def test_byte_order_marks_before_header_and_relations(self, tmp_path, capsys):
        from conftest import make_model

        emb, rel = tmp_path / "e.txt", tmp_path / "test.tsv"
        emb.write_bytes("\ufeff3 2\nhypo 1 0\nhyper 0.9 0.1\nother 0 1\n".encode())
        rel.write_bytes("\ufeffhypo\thyper\thypernym\n".encode())
        model = tmp_path / "m.hprj"
        save_model(make_model(np.eye(2)), model)
        capsys.readouterr()
        assert run("eval", "--model", model, "--embeddings", emb, "--test", rel,
                   "--out", tmp_path / "r.json") == 0
        out = capsys.readouterr().out
        assert "hit@1=1.0000" in out and "n=1 skips=0" in out

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_model_dimension_differs_from_embeddings(self, tmp_path, capsys, command):
        from conftest import make_model

        fix = tmp_path / "fix"
        assert run("synth", "--d", 3, "--n", 20, "--seed", 1, "--out", fix) == 0
        model = tmp_path / "m.hprj"
        save_model(make_model(np.eye(4)), model)
        emb = ["--model", model, "--embeddings", fix / "embeddings.txt"]
        word = load_embeddings(fix / "embeddings.txt").vocab[0]
        argv = {
            "eval": ["eval", *emb, "--test", fix / "relations.tsv", "--out", tmp_path / "r.json"],
            "predict": ["predict", *emb, word],
        }[command]
        capsys.readouterr()
        code = run(*argv)
        assert_one_error_line(code, capsys, "model has dimension 4, embeddings have 3")


    @pytest.mark.parametrize("command, flags, expected", [
        ("train", ["--lambda", "nan"], "lambda"),
        ("train", ["--reg", "neighbor", "--lambda", "inf"], "lambda"),
        ("train", ["--alpha", "-1"], "alpha"),
        ("train", ["--alpha", "nan"], "alpha"),
        ("split", ["--fractions", "nan", "0.5", "0.5"], "fractions"),
        ("synth", ["--noise", "nan"], "noise"),
        ("synth", ["--distractors", "1", "--distractor-angle", "inf"], "distractor_angle"),
        ("synth", ["--seed", "-1"], "seed must be non-negative"),
        ("split", ["--seed", "-1"], "seed must be non-negative"),
        ("cluster", ["--seed", "-1"], "seed must be non-negative"),
        ("train", ["--seed", "-1"], "seed must be non-negative"),
    ], ids=["lambda-nan", "lambda-inf", "alpha-negative", "alpha-nan",
            "fractions-nan", "noise-nan", "distractor-angle-inf",
            "synth-seed-negative", "split-seed-negative", "cluster-seed-negative",
            "train-seed-negative"])
    def test_bad_numeric_flag(self, tmp_path, capsys, fixture_dir, split_dir,
                              command, flags, expected):
        emb = ["--embeddings", fixture_dir / "embeddings.txt"]
        out = tmp_path / "out"
        argv = {
            "train": ["train", *emb, "--split-dir", split_dir, "--epochs", 2],
            "split": ["split", "--relations", fixture_dir / "relations.tsv"],
            "synth": ["synth", "--d", 4, "--n", 10],
            "cluster": ["cluster", *emb, "--split-dir", split_dir],
        }[command]
        capsys.readouterr()
        code = run(*argv, *flags, "--out", out)
        assert_one_error_line(code, capsys, expected)
        assert not out.exists()


    # every size lies above the 128 TiB user address space, so the first
    # allocation fails on any Linux host and no memory is touched
    @pytest.mark.parametrize("flags, expected", [
        (["--n", 1000, "--distractors", 10**11], "does not fit in memory"),
        (["--n", 100000, "--d", 10**9], "does not fit in memory"),
        (["--n", 10, "--d", 10**11], "cannot be addressed"),
        (["--n", 1000, "--distractors", 10**18], "cannot be addressed"),
    ], ids=["distractors", "dim", "dim-unaddressable", "distractors-unaddressable"])
    def test_fixture_too_large(self, tmp_path, capsys, flags, expected):
        out = tmp_path / "out"
        code = run("synth", *flags, "--out", out)
        assert_one_error_line(code, capsys, expected)
        assert not out.exists()


def test_manifest_config_is_the_parsed_flags(tmp_path, fixture_dir, split_dir):
    emb = fixture_dir / "embeddings.txt"
    model, trace = tmp_path / "m.hprj", tmp_path / "loss.csv"
    report, pairs = tmp_path / "r.json", tmp_path / "ranks.tsv"
    assert run("train", "--embeddings", emb, "--split-dir", split_dir, "--reg", "asym",
               "--lambda", 0.25, "--epochs", 3, "--trace", trace, "--out", model) == 0
    assert run("eval", "--model", model, "--embeddings", emb, "--test",
               split_dir / "test.tsv", "--per-pair", pairs, "--out", report) == 0
    train_manifest = json.loads((tmp_path / "m.hprj.manifest.json").read_text())
    assert train_manifest["command"] == "train"
    assert train_manifest["config"] == {
        "embeddings": str(emb), "format": "text", "normalize": False,
        "split_dir": str(split_dir), "k": 1, "reg": "asym", "lam": 0.25, "epochs": 3,
        "batch_size": 1024, "alpha": 0.001, "seed": 0,
        "select_on": "final", "clusters": None, "trace": str(trace), "out": str(model),
    }
    eval_manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
    assert eval_manifest["command"] == "eval"
    assert eval_manifest["config"] == {
        "embeddings": str(emb), "format": "text", "normalize": False, "model": str(model),
        "test": str(split_dir / "test.tsv"), "l_max": 10, "per_pair": str(pairs),
        "out": str(report),
    }
    n_pairs = json.loads(report.read_text())["n_pairs"]
    assert eval_manifest["ranking"] == {"queries": n_pairs, "rechecked": 0}


def test_every_manifest_records_the_blas(tmp_path, fixture_dir, split_dir):
    blas = cli.blas_info()
    if blas is not None:  # numpy's bundled OpenBLAS: its kernel set and thread count
        assert set(blas) == {"core", "threads"}
        assert isinstance(blas["core"], str) and blas["core"]
        assert isinstance(blas["threads"], int) and blas["threads"] >= 1
    emb = fixture_dir / "embeddings.txt"
    assert run("cluster", "--embeddings", emb, "--split-dir", split_dir, "--k", 2,
               "--out", tmp_path / "c.json") == 0
    assert train_quick(fixture_dir, split_dir, tmp_path / "m.hprj") == 0
    assert run("eval", "--model", tmp_path / "m.hprj", "--embeddings", emb,
               "--test", split_dir / "test.tsv", "--out", tmp_path / "r.json") == 0
    for manifest in (fixture_dir / "manifest.json", split_dir / "manifest.json",
                     tmp_path / "c.json.manifest.json", tmp_path / "m.hprj.manifest.json",
                     tmp_path / "r.json.manifest.json"):
        assert json.loads(manifest.read_text())["blas"] == blas


def test_blas_is_none_without_a_bundled_openblas(tmp_path, monkeypatch):
    (tmp_path / "numpy").mkdir()
    monkeypatch.setattr(cli, "np", mock.Mock(__file__=str(tmp_path / "numpy" / "__init__.py")))
    assert cli.blas_info.__wrapped__() is None


def test_split_files_are_read_once(tmp_path, fixture_dir, split_dir):
    """The manifest's digest of a split file is that of the bytes parsed: no second read."""
    reads = []
    read_hashed = dataset.read_hashed

    def record(path):
        reads.append(Path(path))
        return read_hashed(path)

    with mock.patch.object(dataset, "read_hashed", side_effect=record), \
            mock.patch.object(cli, "file_sha256", wraps=cli.file_sha256) as hashed:
        assert train_quick(fixture_dir, split_dir, tmp_path / "m.hprj") == 0
    files = [split_dir / f"{name}.tsv" for name in ("train", "validation", "test", "negatives")]
    assert reads == files
    assert not set(map(Path, (c.args[0] for c in hashed.call_args_list))) & set(files)


def test_model_and_cluster_files_are_read_once(tmp_path, fixture_dir, split_dir):
    """``eval --model`` and ``train --clusters`` record the digest of the bytes they
    parsed: the manifest never hashes either file again."""
    emb = fixture_dir / "embeddings.txt"
    clusters, model = tmp_path / "c.json", tmp_path / "m.hprj"
    assert run("cluster", "--embeddings", emb, "--split-dir", split_dir, "--k", 1,
               "--seed", 5, "--out", clusters) == 0
    assert train_quick(fixture_dir, split_dir, model) == 0
    inputs = {clusters, model}
    file_sha256 = cli.file_sha256

    def outputs_only(path):
        assert Path(path) not in inputs, f"{path} was read again to hash it"
        return file_sha256(path)

    with mock.patch.object(cli, "file_sha256", side_effect=outputs_only):
        assert train_quick(fixture_dir, split_dir, tmp_path / "m2.hprj",
                           clusters=clusters) == 0
        assert run("eval", "--model", model, "--embeddings", emb,
                   "--test", split_dir / "test.tsv", "--out", tmp_path / "r.json") == 0
    for path, manifest in ((clusters, "m2.hprj"), (model, "r.json")):
        recorded = json.loads((tmp_path / f"{manifest}.manifest.json").read_text())["inputs"]
        assert recorded[str(path)] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_train_manifest_records_data_accounting(tmp_path):
    # x1..x4 train, x5 test; x2 and x4 have no negative, x3 only a held-out one
    words = ["x1", "x2", "x3", "x4", "x5", "y1", "y5", "n1", "n2"]
    emb = tmp_path / "e.txt"
    emb.write_text("".join(f"{w} {i % 3 + 1} {i % 2} {i / 10}\n" for i, w in enumerate(words)))
    split = tmp_path / "sp"
    split.mkdir()
    (split / "train.tsv").write_text(
        "x1\ty1\thypernym\nx2\ty1\thypernym\nx3\ty1\thypernym\n"
        "x4\ty1\thypernym\nx1\toov\thypernym\n")
    (split / "validation.tsv").write_text("")
    (split / "test.tsv").write_text("x5\ty5\thypernym\n")
    (split / "negatives.tsv").write_text(
        "x1\tn1\tsynonym\nx1\tn2\tcohyponym\nx3\tx5\tcohyponym\nx4\toov\tsynonym\n")
    model = tmp_path / "m.hprj"
    assert run("train", "--embeddings", emb, "--split-dir", split, "--reg", "neighbor",
               "--epochs", 2, "--out", model) == 0
    data = json.loads((tmp_path / "m.hprj.manifest.json").read_text())["data"]
    assert data == {"dropped_positives": 1, "dropped_negatives": 1,
                    "train_pairs": [4], "negative_fallbacks": [3]}
    assert run("train", "--embeddings", emb, "--split-dir", split, "--reg", "asym",
               "--epochs", 2, "--out", model) == 0
    data = json.loads((tmp_path / "m.hprj.manifest.json").read_text())["data"]
    assert data["negative_fallbacks"] is None and data["train_pairs"] == [4]


def test_train_manifest_records_the_validation_checks(tmp_path, fixture_dir, split_dir):
    out = tmp_path / "m.hprj"
    manifest = tmp_path / "m.hprj.manifest.json"
    assert train_quick(fixture_dir, split_dir, out, select_on="best_validation_hit10") == 0
    record = json.loads(manifest.read_text())["validation"]
    assert record["every"] == 10
    assert [epoch for epoch, _ in record["hit10"]] == [10, 20, 30]  # train_quick's 30 epochs
    hits = [hit for _, hit in record["hit10"]]
    assert all(0.0 <= hit <= 1.0 for hit in hits)
    assert record["selected_epoch"] == record["hit10"][hits.index(max(hits))][0]
    assert train_quick(fixture_dir, split_dir, out) == 0
    assert json.loads(manifest.read_text())["validation"] is None


def test_unknown_subcommand_exit_2():
    assert run("frobnicate") == 2


def test_usage_error_exit_2(tmp_path):
    assert run("split", "--relations") == 2


@pytest.mark.parametrize("argv", [["cluster", "--max-iter", 5], ["train", "--init-std", 0.2],
                                  ["cluster", "--tol", 0.1]], ids=["max-iter", "init-std", "tol"])
def test_removed_flags_are_usage_errors(capsys, argv):
    assert run(*argv, "--embeddings", "e.txt", "--split-dir", "sp", "--out", "o") == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


class TestEmbeddingCache:
    def test_cache_dir_follows_the_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HYPERPROJ_CACHE", str(tmp_path / "mine"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert cache.directory() == tmp_path / "mine"
        monkeypatch.setenv("HYPERPROJ_CACHE", "")
        assert cache.directory() == tmp_path / "xdg" / "hyperproj"
        monkeypatch.delenv("HYPERPROJ_CACHE")
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert cache.directory() == tmp_path / "home" / ".cache" / "hyperproj"
        monkeypatch.setattr(Path, "home", mock.Mock(side_effect=RuntimeError("no home")))
        assert cache.directory() is None

    def test_embeddings_are_parsed_once_and_hashed_once_per_warm_command(
            self, tmp_path, monkeypatch, fixture_dir, split_dir):
        monkeypatch.setenv("HYPERPROJ_CACHE", str(tmp_path / "cache"))
        emb = fixture_dir / "embeddings.txt"
        digest = hashlib.sha256(emb.read_bytes()).hexdigest()
        flags = ["--embeddings", emb]
        commands = {
            "c.json": ["cluster", *flags, "--split-dir", split_dir, "--k", 1, "--out"],
            "m.hprj": ["train", *flags, "--split-dir", split_dir, "--k", 1, "--epochs", 2,
                       "--out"],
            "r.json": ["eval", *flags, "--model", tmp_path / "m.hprj",
                       "--test", split_dir / "test.tsv", "--out"],
        }
        hashed, parsed, counts, looked_up = [], [], [], []
        real_hash, real_parse = embeddings.file_sha256, embeddings._parse_text

        def record_hash(path):
            hashed.append(Path(path))
            return real_hash(path)

        with mock.patch.object(cli, "file_sha256", record_hash), \
                mock.patch.object(embeddings, "file_sha256", record_hash), \
                mock.patch.object(embeddings, "_parse_text",
                                  lambda path: parsed.append(path) or real_parse(path)):
            for out, argv in commands.items():
                hashed.clear()
                parsed.clear()
                assert run(*argv, tmp_path / out) == 0
                manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
                assert manifest["inputs"][str(emb)] == digest
                assert len(hashed) > hashed.count(emb)  # the other inputs are hashed too
                counts.append((hashed.count(emb), len(parsed)))
                looked_up.append(manifest["cache"])
                # perfbench re-hashes outputs: a cache entry, which a later run may evict,
                # is never one
                assert all(Path(o).parent != tmp_path / "cache" for o in manifest["outputs"])
        # cold: hashed before and after its one parse; warm: hashed once, not parsed
        assert counts == [(2, 1), (1, 0), (1, 0)]
        # every cached input, and only those: the model and the test TSV are not cached
        split_files = [str(split_dir / f"{name}.tsv") for name in dataset.SPLIT_FILES]
        assert looked_up == [dict.fromkeys([str(emb), *split_files], "miss"),
                             dict.fromkeys([str(emb), *split_files], "hit"),
                             {str(emb): "hit"}]
        # one table entry and one bound split entry
        assert (sorted(p.suffix for p in (tmp_path / "cache").iterdir())
                == [".hpsplit", ".hptab"])
        assert (tmp_path / "cache" / f"{digest}-{embeddings.CACHE_VERSION}.hptab").is_file()

    def test_without_a_cache_directory_manifests_leave_the_field_out(
            self, tmp_path, fixture_dir, split_dir):
        flags = ["--embeddings", fixture_dir / "embeddings.txt"]
        with mock.patch.object(cache, "directory", return_value=None):
            assert run("cluster", *flags, "--split-dir", split_dir, "--k", 1,
                       "--out", tmp_path / "c.json") == 0
            assert run("train", *flags, "--split-dir", split_dir, "--k", 1, "--epochs", 2,
                       "--out", tmp_path / "m.hprj") == 0
            assert run("eval", *flags, "--model", tmp_path / "m.hprj",
                       "--test", split_dir / "test.tsv", "--out", tmp_path / "r.json") == 0
        for out in ("c.json", "m.hprj", "r.json"):
            manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
            assert "cache" not in manifest and manifest["inputs"]

    def test_embeddings_changed_while_read_exit_2_with_no_entry(self, tmp_path, monkeypatch,
                                                               capsys):
        from conftest import make_model

        monkeypatch.setenv("HYPERPROJ_CACHE", str(tmp_path / "cache"))
        emb, test, model = tmp_path / "e.txt", tmp_path / "test.tsv", tmp_path / "m.hprj"
        emb.write_text("hypo 1 0\nhyper 0.9 0.1\n")
        test.write_text("hypo\thyper\thypernym\n")
        save_model(make_model(np.eye(2)), model)
        real_parse = embeddings._parse_text

        def parse_then_append(path):
            parsed = real_parse(path)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("other 0 1\n")
            return parsed

        capsys.readouterr()
        with mock.patch.object(embeddings, "_parse_text", parse_then_append):
            code = run("eval", "--model", model, "--embeddings", emb, "--test", test,
                       "--out", tmp_path / "r.json")
        assert_one_error_line(code, capsys, f"error: {emb}: changed while it was read")
        assert not (tmp_path / "cache").exists() and not (tmp_path / "r.json").exists()


def stderr_of(argv):
    """Exit code and standard error of one command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(*argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small fixture, its split, and a cluster file and model trained on it."""
    tmp = tmp_path_factory.mktemp("trained")
    emb = tmp / "fix" / "embeddings.txt"
    assert run("synth", "--d", 3, "--n", 30, "--seed", 1, "--out", tmp / "fix") == 0
    assert run("split", "--relations", tmp / "fix" / "relations.tsv", "--out", tmp / "split") == 0
    assert run("cluster", "--embeddings", emb, "--split-dir", tmp / "split", "--k", 1,
               "--out", tmp / "c.json") == 0
    assert run("train", "--embeddings", emb, "--split-dir", tmp / "split", "--k", 1,
               "--epochs", 2, "--out", tmp / "m.hprj") == 0
    return tmp


def fuzzed(valid: bytes, start: bytes, kind: str, junk: bytes, cut: int) -> bytes:
    """Arbitrary bytes, bytes after ``start``, or ``valid`` cut short: never a valid file."""
    cases = {"arbitrary": junk, "started": start + junk, "truncated": valid[:cut % len(valid)]}
    return cases[kind]


FUZZ = given(kind=st.sampled_from(["arbitrary", "started", "truncated"]),
             junk=st.binary(max_size=200), cut=st.integers(min_value=0))
HUGE = b"1" + b"0" * 400  # an integer too large for a float


def damaged(valid: bytes, kind: str, junk: bytes, at: int) -> bytes:
    """``junk`` in place of ``valid``, ``valid`` cut short at ``at``, or ``junk`` inserted there."""
    at %= len(valid) + 1
    cases = {"arbitrary": junk, "truncated": valid[:at],
             "inserted": valid[:at] + junk + valid[at:]}
    return cases[kind]


DAMAGE = {"kind": st.sampled_from(["arbitrary", "truncated", "inserted"]),
          "junk": st.binary(max_size=200), "at": st.integers(min_value=0)}


def check_exit_0_or_2(code, err):
    """Success, or one error line on exit 2; never a crash."""
    if code == 2:
        check_one_error_line(code, err)
    else:
        assert code == 0 and "Traceback" not in err, err


class TestLoaderFuzz:
    """Bad model and cluster files exit 2 with one error line, whatever their bytes."""

    @FUZZ
    @settings(deadline=None)
    def test_model_file(self, trained, kind, junk, cut):
        model = trained / "fuzz.hprj"
        model.write_bytes(fuzzed((trained / "m.hprj").read_bytes(), MODEL_MAGIC, kind, junk, cut))
        check_one_error_line(*stderr_of([
            "eval", "--model", model, "--embeddings", trained / "fix" / "embeddings.txt",
            "--test", trained / "split" / "test.tsv", "--out", trained / "r.json"]))

    @FUZZ
    @example(kind="started", junk=b"[[1, 2, 3]], " + b'"inertia": ' + HUGE + b"}", cut=0)
    @example(kind="started", junk=b"[[" + HUGE + b", 2, 3]], " + b'"inertia": 1}', cut=0)
    @settings(deadline=None)
    def test_cluster_file(self, trained, kind, junk, cut):
        clusters = trained / "fuzz.json"
        clusters.write_bytes(fuzzed((trained / "c.json").read_bytes().rstrip(),
                                    b'{"centroids": ', kind, junk, cut))
        check_one_error_line(*stderr_of([
            "train", "--embeddings", trained / "fix" / "embeddings.txt", "--split-dir",
            trained / "split", "--k", 1, "--epochs", 1, "--clusters", clusters,
            "--out", trained / "fuzz.hprj"]))


@pytest.fixture(scope="module")
def split_fuzz(tmp_path_factory):
    """A small fixture with distractors, so that no member of its split is empty."""
    tmp = tmp_path_factory.mktemp("split-fuzz")
    assert run("synth", "--d", 3, "--n", 30, "--distractors", 1, "--seed", 1,
               "--out", tmp / "fix") == 0
    assert run("split", "--relations", tmp / "fix" / "relations.tsv", "--out", tmp / "valid") == 0
    return tmp


class TestSplitDirFuzz:
    """A damaged split directory exits 0 or 2, never a crash, with one error line on 2."""

    @pytest.mark.parametrize("command", ["train", "cluster"])
    @given(member=st.sampled_from(["train", "validation", "test", "negatives"]),
           kind=st.sampled_from(["arbitrary", "truncated", "inserted", "missing"]),
           junk=DAMAGE["junk"], at=DAMAGE["at"])
    @settings(deadline=None)
    def test_damaged_member(self, split_fuzz, command, member, kind, junk, at):
        split = split_fuzz / "split"
        shutil.rmtree(split, ignore_errors=True)
        shutil.copytree(split_fuzz / "valid", split)
        path = split / f"{member}.tsv"
        if kind == "missing":
            path.unlink()
        else:
            path.write_bytes(damaged(path.read_bytes(), kind, junk, at))
        flags = {"train": ["--epochs", 1], "cluster": []}[command]
        check_exit_0_or_2(*stderr_of([
            command, "--embeddings", split_fuzz / "fix" / "embeddings.txt",
            "--split-dir", split, "--k", 1, *flags, "--out", split_fuzz / "out"]))


class TestInputFuzz:
    """Damaged relations and embedding files exit 0 or 2, never a crash, through
    every other command that reads them; predict may also exit 1 when no word resolves."""

    @pytest.mark.parametrize("command", ["split", "eval"])
    @given(**DAMAGE)
    @settings(deadline=None)
    def test_relations(self, trained, command, kind, junk, at):
        valid = trained / {"split": "fix/relations.tsv", "eval": "split/test.tsv"}[command]
        relations = trained / "fuzz.tsv"
        relations.write_bytes(damaged(valid.read_bytes(), kind, junk, at))
        argv = {
            "split": ["split", "--relations", relations, "--out", trained / "fuzz-split"],
            "eval": ["eval", "--model", trained / "m.hprj",
                     "--embeddings", trained / "fix" / "embeddings.txt",
                     "--test", relations, "--out", trained / "fuzz.json"],
        }[command]
        check_exit_0_or_2(*stderr_of(argv))

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @given(**DAMAGE)
    @settings(deadline=None)
    def test_text_embeddings(self, trained, command, kind, junk, at):
        emb = trained / "fuzz.txt"
        emb.write_bytes(damaged((trained / "fix" / "embeddings.txt").read_bytes(), kind, junk, at))
        test = trained / "split" / "test.tsv"
        word = test.read_text().split("\t", 1)[0]
        flags = ["--model", trained / "m.hprj", "--embeddings", emb]
        if command == "eval":
            check_exit_0_or_2(*stderr_of(["eval", *flags, "--test", test,
                                          "--out", trained / "fuzz.json"]))
            return
        code, err = stderr_of(["predict", *flags, word])
        if code == 1:
            assert f"warning: {word!r} is not in the vocabulary" in err and "Traceback" not in err
            assert not any(line.startswith("error:") for line in err.splitlines()), err
        else:
            check_exit_0_or_2(code, err)
