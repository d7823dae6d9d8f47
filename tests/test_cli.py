import argparse
import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shlex
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moodlyrics
from moodlyrics import analytics, baseline, cli
from moodlyrics.analytics import lexical_stats
from moodlyrics._config import _CODECS, parse_setting
from moodlyrics.cli import main
from moodlyrics.corpus import clean_text, load_corpus, save_corpus, synthesize_corpus
from moodlyrics.errors import MoodlyricsError
from moodlyrics.model import ModelConfig, param_shapes
from moodlyrics.tokenizer import TokenizerConfig
from moodlyrics.trainer import TrainConfig

# the split, init and train seeds that --seed 42 derives, in that order
SEEDS_42 = {"split": 2684470948, "init": 4091952314, "train": 233227757}

BERT_FLAGS = [
    "--set", "epochs=3", "--set", "num_layers=1", "--set", "hidden_size=16",
    "--set", "max_sequence_length=24", "--set", "vocab_size=400",
    "--set", "learning_rate=2e-3",
]


@pytest.fixture(scope="module")
def corpus_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.csv"
    save_corpus(synthesize_corpus(seed=1, per_class=12), path)
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestIngest:
    def test_synthetic_writes_32_row_csv(self, tmp_path):
        out = tmp_path / "out"
        assert run(["ingest", "--synthetic", "seed=1,per_class=8", "--out", out]) == 0
        corpus, _ = load_corpus(out / "corpus.csv")
        assert len(corpus) == 32
        assert (out / "mood_distribution.svg").is_file()
        assert (out / "mood_distribution.csv").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["records"] == 32
        for artifact in manifest["outputs"]:
            assert Path(artifact).is_file()

    def test_bad_header_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("title,cat,lyrics,mood\na,b,c,happy\n", encoding="utf-8")
        assert run(["ingest", "--input", bad, "--out", tmp_path / "o"]) == 2
        assert "title,cat,lyrics,mood" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, named",
        [
            (b"a,x,\xff\xfe la,happy\n", "not UTF-8"),
            (b"a,x,la,happy\nb,x," + b"a" * 140_000 + b",sad\n", "line 3"),
        ],
        ids=["not-utf8", "field-over-csv-limit"],
    )
    def test_unreadable_csv_exits_2(self, tmp_path, capsys, body, named):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"title,category,lyrics,mood\n" + body)
        assert run(["ingest", "--input", bad, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and named in err

    def test_drop_report_logged(self, tmp_path, capsys):
        csv_path = tmp_path / "c.csv"
        csv_path.write_text(
            "title,category,lyrics,mood\na,x,la,happy\nb,x,,sad\nc,x,la,relaxed\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert run(["ingest", "--input", csv_path, "--out", out]) == 0
        assert "dropped rows: 1" in capsys.readouterr().err
        assert "dropped rows: 1" in (out / "drops.log").read_text()


class TestAnalyze:
    def test_artifacts_and_determinism(self, corpus_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["analyze", "--input", corpus_csv, "--out", out_a]) == 0
        assert run(["analyze", "--input", corpus_csv, "--out", out_b]) == 0
        for name in ("freq.csv", "lexical_stats.csv", "density_curve.svg",
                     "density_curve.csv"):
            assert (out_a / name).is_file()
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_lexical_stats_computed_once_per_song(self, corpus_csv, tmp_path, monkeypatch):
        songs = len(load_corpus(corpus_csv)[0])
        calls = []

        def counting_lexical_stats(record, *args, **kwargs):
            calls.append(record.title)
            return lexical_stats(record, *args, **kwargs)

        monkeypatch.setattr(analytics, "lexical_stats", counting_lexical_stats)
        monkeypatch.setattr(cli, "lexical_stats", counting_lexical_stats)
        assert run(["analyze", "--input", corpus_csv, "--out", tmp_path / "o"]) == 0
        assert len(calls) == songs

    def test_single_song_corpus(self, tmp_path):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text(
            "title,category,lyrics,mood\nonly,x,la di da,happy\n", encoding="utf-8"
        )
        out = tmp_path / "o"
        assert run(["analyze", "--input", csv_path, "--out", out]) == 0
        lines = (out / "density_curve.csv").read_text().splitlines()
        assert len(lines) == 2  # header plus one point

    def test_titles_needing_quotes_round_trip(self, tmp_path):
        titles = ["Hello, World", 'say "hi"']
        csv_path = tmp_path / "quoted.csv"
        csv_path.write_text(
            'title,category,lyrics,mood\n"Hello, World",x,la la,happy\n'
            '"say ""hi""",x,la di,sad\n',
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert run(["analyze", "--input", csv_path, "--out", out]) == 0
        with (out / "lexical_stats.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 5 for row in rows), rows
        assert [row[0] for row in rows[1:]] == titles


class TestTrain:
    def test_nb_perfect_on_synthetic(self, corpus_csv, tmp_path):
        out = tmp_path / "nb"
        assert run(["train", "--input", corpus_csv, "--model", "nb",
                    "--out", out, "--seed", 42]) == 0
        assert (out / "model.nb").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["test"]["accuracy"] == 1.0

    def test_bert_artifacts(self, corpus_csv, tmp_path):
        out = tmp_path / "bert"
        assert run(["train", "--input", corpus_csv, "--model", "bert",
                    "--out", out, "--seed", 42, *BERT_FLAGS]) == 0
        for name in ("checkpoint.ckpt", "vocab.txt", "history.csv",
                     "accuracy_curve.svg", "accuracy_curve.csv", "manifest.json"):
            assert (out / name).is_file(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["best_epoch"] >= 1

    def test_unknown_model_exits_2(self, corpus_csv, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(["train", "--input", corpus_csv, "--model", "svm", "--out", tmp_path])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["train", "--model", "nb", "--set", "bogus=1"], "bogus"),
            (["train", "--model", "bert", "--set", "epochs=abc"], "epochs='abc'"),
            (["train", "--model", "nb", "--set", "alpha=abc"], "alpha='abc'"),
            (["ingest", "--synthetic", "seed=x"], "seed='x'"),
            (["train", "--model", "bert", "--set", "learning_rate=nan"], "learning_rate"),
            (["train", "--model", "bert", "--set", "learning_rate=inf"], "learning_rate"),
            (["train", "--model", "bert", "--set", "weight_decay=nan"], "weight_decay"),
            (["train", "--model", "bert", "--set", "epsilon=inf"], "epsilon"),
            (["train", "--model", "bert", "--set", "epsilon=0"], "epsilon must be > 0, got 0"),
            (["train", "--model", "bert", "--set", "epsilon=-1"], "epsilon must be > 0, got -1"),
            (["train", "--model", "bert", "--set", "max_grad_norm=nan"], "max_grad_norm"),
            (["train", "--model", "bert", "--set", "class_weights=1,nan,1,1"], "class_weights"),
            (["train", "--model", "nb", "--set", "alpha=nan"], "alpha"),
            (["train", "--model", "nb", "--set", "alpha=inf"], "alpha"),
        ],
        ids=[
            "bogus", "epochs-not-int", "alpha-not-float", "synthetic-seed-not-int",
            "learning-rate-nan", "learning-rate-inf", "weight-decay-nan", "epsilon-inf",
            "epsilon-zero", "epsilon-negative",
            "max-grad-norm-nan", "class-weight-nan", "alpha-nan", "alpha-inf",
        ],
    )
    def test_unknown_config_key_exits_2(self, corpus_csv, tmp_path, capsys, argv, named):
        if argv[0] == "train":
            argv = [*argv, "--input", corpus_csv]
        assert run([*argv, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_class_weights_flag(self, corpus_csv, tmp_path):
        out = tmp_path / "o"
        assert run(["train", "--input", corpus_csv, "--model", "bert",
                    "--out", out, "--seed", 1, *BERT_FLAGS,
                    "--set", "epochs=1", "--set", "class_weights=1,1,1,2.5"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train_config"]["class_weights"] == [1, 1, 1, 2.5]

    def test_config_file_applied(self, corpus_csv, tmp_path):
        config = tmp_path / "train.cfg"
        config.write_text(
            "# desk run\nepochs=2\nnum_layers=1\nhidden_size=16\n"
            "max_sequence_length=24\nvocab_size=400\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert run(["train", "--input", corpus_csv, "--model", "bert",
                    "--config", config, "--out", out, "--seed", 1]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train_config"]["epochs"] == 2
        assert manifest["config"]["model_config"]["hidden_size"] == 16


@pytest.fixture(scope="module")
def trained(corpus_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run(["train", "--input", corpus_csv, "--model", "bert",
                "--out", out, "--seed", 42, *BERT_FLAGS]) == 0
    return out


class TestEval:
    @pytest.mark.parametrize("model", ["nb", "bert"])
    def test_matches_train_manifest_metrics(self, corpus_csv, trained, nb_model, tmp_path,
                                            model):
        model_flags = {
            "nb": ["--checkpoint", nb_model],
            "bert": ["--checkpoint", trained / "checkpoint.ckpt",
                     "--vocab", trained / "vocab.txt"],
        }[model]
        train_out = {"nb": nb_model.parent, "bert": trained}[model]
        out = tmp_path / "ev"
        assert run(["eval", *model_flags, "--input", corpus_csv,
                    "--split", "test", "--out", out, "--seed", 42]) == 0
        train_metrics = json.loads((train_out / "manifest.json").read_text())["metrics"]
        eval_metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        assert eval_metrics["test"] == train_metrics["test"]
        for name in ("report.txt", "report.csv", "confusion.csv",
                     "confusion_heatmap.svg"):
            assert (out / name).is_file()

    def test_nb_eval_diagonal_confusion(self, corpus_csv, tmp_path):
        nb_out = tmp_path / "nb"
        assert run(["train", "--input", corpus_csv, "--model", "nb",
                    "--out", nb_out, "--seed", 42]) == 0
        ev_out = tmp_path / "ev"
        assert run(["eval", "--checkpoint", nb_out / "model.nb",
                    "--input", corpus_csv, "--split", "test",
                    "--out", ev_out, "--seed", 42]) == 0
        rows = (ev_out / "confusion.csv").read_text().splitlines()[1:]
        cells = [[int(v) for v in row.split(",")[1:]] for row in rows]
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert cells[i][j] == 0

    def test_vocab_hash_mismatch_exits_2(self, corpus_csv, trained, tmp_path, capsys):
        wrong = tmp_path / "wrong_vocab.txt"
        wrong.write_text(
            (trained / "vocab.txt").read_text(encoding="utf-8") + "extra\n",
            encoding="utf-8",
        )
        assert run(["eval", "--checkpoint", trained / "checkpoint.ckpt",
                    "--vocab", wrong, "--input", corpus_csv,
                    "--out", tmp_path / "o", "--seed", 42]) == 2
        assert "hash mismatch" in capsys.readouterr().err

    def test_missing_vocab_flag_exits_2(self, corpus_csv, trained, tmp_path):
        assert run(["eval", "--checkpoint", trained / "checkpoint.ckpt",
                    "--input", corpus_csv, "--out", tmp_path / "o",
                    "--seed", 42]) == 2


class TestPredict:
    def test_output_format_parseable(self, corpus_csv, tmp_path, capsys):
        nb_out = tmp_path / "nb"
        assert run(["train", "--input", corpus_csv, "--model", "nb",
                    "--out", nb_out, "--seed", 42]) == 0
        capsys.readouterr()  # drop training output
        assert run(["predict", "--checkpoint", nb_out / "model.nb",
                    "--lyrics", "ভালোবাসা প্রেম"]) == 0
        line = capsys.readouterr().out.strip()
        match = re.fullmatch(
            r"mood=(happy|sad|romantic|relaxed) "
            r"p=(\d\.\d{6}),(\d\.\d{6}),(\d\.\d{6}),(\d\.\d{6})",
            line,
        )
        assert match, line
        assert match.group(1) == "romantic"

    def test_empty_lyrics_warns(self, corpus_csv, tmp_path, capsys):
        nb_out = tmp_path / "nb"
        assert run(["train", "--input", corpus_csv, "--model", "nb",
                    "--out", nb_out, "--seed", 42]) == 0
        capsys.readouterr()
        assert run(["predict", "--checkpoint", nb_out / "model.nb",
                    "--lyrics", "।।"]) == 0
        captured = capsys.readouterr()
        assert "empty after cleaning" in captured.err
        assert captured.out.startswith("mood=")

    def test_empty_lyrics_with_missing_checkpoint_is_one_error(self, tmp_path, capsys):
        # the checkpoint loads before the empty-lyrics warning can print
        missing = tmp_path / "missing.ckpt"
        code = run(["predict", "--checkpoint", missing, "--lyrics", "।।"])
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert err == f"error: checkpoint not found: {missing}\n"

    def test_lyrics_from_file(self, corpus_csv, tmp_path, capsys):
        nb_out = tmp_path / "nb"
        assert run(["train", "--input", corpus_csv, "--model", "nb",
                    "--out", nb_out, "--seed", 42]) == 0
        lyrics_file = tmp_path / "lyrics.txt"
        lyrics_file.write_text("দুঃখ কান্না বিরহ", encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", "--checkpoint", nb_out / "model.nb",
                    "--file", lyrics_file]) == 0
        assert capsys.readouterr().out.startswith("mood=sad")


@pytest.mark.parametrize("which", ["config", "vocab", "lyrics", "corpus"])
def test_non_utf8_file_exits_2(corpus_csv, trained, tmp_path, capsys, which):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("vocab_size=400 # caf\xe9\n".encode("latin-1"))
    checkpoint, vocab = trained / "checkpoint.ckpt", trained / "vocab.txt"
    argv = {
        "corpus": ["analyze", "--input", bad, "--out", tmp_path / "o"],
        "config": ["train", "--input", corpus_csv, "--model", "nb",
                   "--config", bad, "--out", tmp_path / "o"],
        "vocab": ["predict", "--checkpoint", checkpoint, "--vocab", bad, "--lyrics", "x"],
        "lyrics": ["predict", "--checkpoint", checkpoint, "--vocab", vocab, "--file", bad],
    }[which]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"not UTF-8: {bad}" in err
    assert err.startswith("error: ") and err.count("\n") == 1


def assert_one_error_line(code, err):
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def directory_bytes(directory):
    """Each entry of ``directory`` by name: a file's bytes, or None for a
    subdirectory."""
    return {path.name: path.read_bytes() if path.is_file() else None
            for path in directory.iterdir()}


def cli_child(argv, cap_mib=None, **popen_kwargs):
    """``python -m moodlyrics.cli`` in a child process, with its address space
    capped at ``cap_mib`` MiB when given."""
    cap = None if cap_mib is None else cap_mib << 20
    return subprocess.Popen(
        [sys.executable, "-m", "moodlyrics.cli", *map(str, argv)], text=True,
        env={**os.environ, "PYTHONPATH": str(Path(moodlyrics.__file__).parents[1]),
             "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=cap and (lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap))),
        **popen_kwargs,
    )


@pytest.mark.parametrize(
    "which",
    ["ingest", "analyze", "checkpoint", "config", "predict-vocab", "eval-vocab", "lyrics"],
)
def test_over_long_file_name_exits_2(corpus_csv, trained, tmp_path, capsys, which):
    long = tmp_path / ("x" * 5000)
    checkpoint, vocab = trained / "checkpoint.ckpt", trained / "vocab.txt"
    out = tmp_path / "o"
    argv = {
        "ingest": ["ingest", "--input", long, "--out", out],
        "analyze": ["analyze", "--input", long, "--out", out],
        "checkpoint": ["predict", "--checkpoint", long, "--lyrics", "x"],
        "config": ["train", "--input", corpus_csv, "--model", "nb",
                   "--config", long, "--out", out],
        "predict-vocab": ["predict", "--checkpoint", checkpoint, "--vocab", long,
                          "--lyrics", "x"],
        "eval-vocab": ["eval", "--checkpoint", checkpoint, "--vocab", long,
                       "--input", corpus_csv, "--out", out],
        "lyrics": ["predict", "--checkpoint", checkpoint, "--vocab", vocab,
                   "--file", long],
    }[which]
    code = run(argv)
    err = capsys.readouterr().err
    assert_one_error_line(code, err)
    assert f"cannot be read (File name too long): {long}" in err


@pytest.mark.parametrize("command", ["ingest", "analyze"])
def test_empty_input_path_exits_2(tmp_path, capsys, command):
    code = run([command, "--input", "", "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert_one_error_line(code, err)
    assert err == "error: corpus file not found: .\n"


@pytest.mark.parametrize("command", ["ingest", "analyze"])
def test_empty_out_exits_2(corpus_csv, tmp_path, monkeypatch, capsys, command):
    """``--out ""`` is refused, not taken for a missing --out: the command
    writes nothing into the default directory or the current one."""
    monkeypatch.chdir(tmp_path)
    code = run([command, "--input", corpus_csv, "--out", ""])
    err = capsys.readouterr().err
    assert_one_error_line(code, err)
    assert err == "error: --out must name a directory, got ''\n"
    assert list(tmp_path.iterdir()) == []


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    code = run(["ingest", "--synthetic", "seed=1,per_class=2", "--out", taken])
    err = capsys.readouterr().err
    assert_one_error_line(code, err)
    assert f"cannot create output directory {taken}" in err


def with_header(checkpoint: bytes, edit) -> bytes:
    """``checkpoint`` with ``edit`` applied to its JSON header dict."""
    header_len = struct.unpack("<II", checkpoint[4:12])[1]
    header = json.loads(checkpoint[12 : 12 + header_len])
    edit(header)
    return with_header_bytes(checkpoint, json.dumps(header).encode("utf-8"))


def with_header_bytes(checkpoint: bytes, blob: bytes) -> bytes:
    """``checkpoint`` with its header replaced by the bytes ``blob``."""
    version, header_len = struct.unpack("<II", checkpoint[4:12])
    return (checkpoint[:4] + struct.pack("<II", version, len(blob)) + blob
            + checkpoint[12 + header_len :])


@pytest.fixture(scope="module")
def nb_model(corpus_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("nb")
    assert run(["train", "--input", corpus_csv, "--model", "nb",
                "--out", out, "--seed", 42]) == 0
    return out / "model.nb"


def _short_priors(nb_text: str) -> str:
    lines = nb_text.split("\n")
    lines[3] = "\t".join(lines[3].split("\t")[:-1])
    return "\n".join(lines)


def _nb_field(nb_text: str, line: int, index: int, value: str) -> str:
    """``nb_text`` with tab-separated field ``index`` of ``line`` set to ``value``."""
    lines = nb_text.split("\n")
    fields = lines[line].split("\t")
    fields[index] = value
    lines[line] = "\t".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize(
    "which",
    ["tokenizer-unknown-key", "tokenizer-length-not-int", "tokenizer-not-a-mapping",
     "model-hidden-float", "model-heads-bool", "tokenizer-length-float",
     "tokenizer-length-inf", "tokenizer-length-past-model", "vocab-hash-not-a-string",
     "tokenizer-null", "header-deeply-nested", "nb-priors-short", "nb-alpha-nan",
     "nb-prior-nan", "nb-likelihood-inf", "model-heads-indivisible", "tokenizer-vocab-zero",
     "nb-classes-reordered", "nb-alpha-negative", "nb-word-repeated",
     "trailing-array-bytes", "neither-format"],
)
def test_bad_model_file_exits_2(trained, nb_model, tmp_path, capsys, which):
    checkpoint = (trained / "checkpoint.ckpt").read_bytes()
    bad = tmp_path / "bad.model"
    if which.startswith("nb-"):
        nb_text = nb_model.read_text(encoding="utf-8")
        bad.write_text({
            "nb-priors-short": _short_priors,
            "nb-alpha-nan": lambda text: _nb_field(text, 1, 1, "nan"),
            "nb-prior-nan": lambda text: _nb_field(text, 3, 1, "nan"),
            "nb-likelihood-inf": lambda text: _nb_field(text, 4, 2, "inf"),
            "nb-classes-reordered":
                lambda text: text.replace("happy\tsad\tromantic\trelaxed",
                                          "relaxed\tromantic\tsad\thappy"),
            "nb-alpha-negative": lambda text: _nb_field(text, 1, 1, "-3.0"),
            "nb-word-repeated": lambda text: text + text.split("\n")[4] + "\n",
        }[which](nb_text), encoding="utf-8")
    elif which == "header-deeply-nested":
        bad.write_bytes(with_header_bytes(checkpoint, b"[" * 100_000))
    elif which == "neither-format":
        bad.write_text(LYRICS, encoding="utf-8")
    elif which == "trailing-array-bytes":
        # 16 bytes, one more head.b, past the arrays the config fixes
        bad.write_bytes(checkpoint + struct.pack("<4f", 7, 7, 7, 7))
    else:
        edit = {
            "tokenizer-unknown-key": lambda h: h["tokenizer"].update(lowercsae=True),
            "tokenizer-length-not-int":
                lambda h: h["tokenizer"].update(max_sequence_length="24"),
            "tokenizer-not-a-mapping": lambda h: h.update(tokenizer=5),
            "model-hidden-float":
                lambda h: h["model"].update(hidden_size=float(h["model"]["hidden_size"])),
            "model-heads-bool": lambda h: h["model"].update(num_heads=True),
            "tokenizer-length-float":
                lambda h: h["tokenizer"].update(
                    max_sequence_length=float(h["tokenizer"]["max_sequence_length"])),
            # json writes inf as Infinity; 1e400 parses to the same float
            "tokenizer-length-inf":
                lambda h: h["tokenizer"].update(max_sequence_length=math.inf),
            "tokenizer-length-past-model":
                lambda h: h["tokenizer"].update(max_sequence_length=10**400),
            "vocab-hash-not-a-string": lambda h: h.update(vocab_sha256=5),
            "tokenizer-null": lambda h: h.update(tokenizer=None),
            # out of range: the config classes' own checks reject these
            "model-heads-indivisible":
                lambda h: h["model"].update(hidden_size=64, num_heads=3),
            "tokenizer-vocab-zero": lambda h: h["tokenizer"].update(vocab_size=0),
        }[which]
        bad.write_bytes(with_header(checkpoint, edit))
    code = run(["predict", "--checkpoint", bad, "--vocab", trained / "vocab.txt",
                "--lyrics", "ভালোবাসা প্রেম"])
    err = capsys.readouterr().err
    assert_one_error_line(code, err)
    assert str(bad) in err


def test_header_claiming_huge_layer_count_exits_2(trained, tmp_path):
    """A config of 10**30 layers is read without building an entry per layer.
    The command runs in a child process capped at 2 GiB of address space, so
    a loader that does build them fails here with a MemoryError instead of
    exhausting the machine."""
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(with_header((trained / "checkpoint.ckpt").read_bytes(),
                                lambda h: h["model"].update(num_layers=10**30)))
    proc = cli_child(["predict", "--checkpoint", bad, "--vocab", trained / "vocab.txt",
                      "--lyrics", "ভালোবাসা প্রেম"], 2048,
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=300)
    assert_one_error_line(proc.returncode, err)
    assert str(bad) in err


@pytest.mark.parametrize(
    "settings, cap_mib",
    [(["hidden_size=100000000", "num_heads=1"], 2048),
     (["epochs=1", "hidden_size=2048", "num_heads=1"], 900)],
    ids=["embedding-table", "optimizer-state"],
)
def test_model_too_large_for_memory_exits_2(corpus_csv, tmp_path, settings, cap_mib):
    """An embedding table of 10**8 columns cannot be allocated; a model of
    50.7M parameters (193 MiB) can, but its optimizer state cannot. The
    command runs in a child process with its address space capped, as above."""
    sets = [arg for setting in settings for arg in ("--set", setting)]
    proc = cli_child(["train", "--input", corpus_csv, "--model", "bert", *BERT_FLAGS, *sets,
                      "--out", tmp_path / "o"], cap_mib,
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=300)
    assert_one_error_line(proc.returncode, err)
    assert err.startswith("error: out of memory: ")


@pytest.mark.parametrize("command", ["train", "eval"])
def test_negative_seed_exits_2(corpus_csv, nb_model, tmp_path, capsys, command):
    argv = {"train": ["train", "--model", "nb", "--seed", "-1"],
            "eval": ["eval", "--checkpoint", nb_model, "--seed", "-3"]}[command]
    code = run([*argv, "--input", corpus_csv, "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert_one_error_line(code, err)
    assert "--seed must be a non-negative integer, got -" in err


@pytest.mark.parametrize(
    "key, message",
    [("seed", "set the seed with the --seed flag, not the config file"),
     ("max_positions", "unknown config key 'max_positions'"),
     ("num_classes", "unknown config key 'num_classes'"),
     ("lowercase", "expected a boolean, got 'maybe'"),
     ("num_layers", "cannot parse num_layers='maybe'")],
    ids=["seed", "max-positions", "num-classes", "bool", "int"],
)
def test_fixed_keys_and_unparsable_values_exit_2(corpus_csv, tmp_path, capsys, key, message):
    code = run(["train", "--input", corpus_csv, "--model", "nb",
                "--set", f"{key}=maybe", "--out", tmp_path / "o"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "model, settings, unread",
    [("nb", ["--set", "epochs=3", "--set", "hidden_size=8"], "epochs, hidden_size"),
     ("nb", ["--set", "class_weights=1,2,3"], "class_weights"),
     ("nb", ["--config", "run.cfg"], "lowercase"),
     ("bert", ["--set", "alpha=-5"], "alpha")],
    ids=["nb-set", "nb-invalid-class-weights", "nb-config-file", "bert-alpha"],
)
def test_setting_the_model_does_not_read_exits_2(corpus_csv, tmp_path, monkeypatch, capsys,
                                                 model, settings, unread):
    """A key that only the other model reads is refused before any training,
    whatever its value, naming each such key."""
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("lowercase=true\n", encoding="utf-8")
    out = tmp_path / "o"
    code = run(["train", "--input", corpus_csv, "--model", model, *settings, "--out", out])
    err = capsys.readouterr().err
    assert_one_error_line(code, err)
    assert err == f"error: --model {model} does not read {unread}\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_vocab_with_naive_bayes_checkpoint_exits_2(corpus_csv, nb_model, tmp_path, capsys,
                                                  command):
    """Only a transformer reads --vocab; a Naive Bayes file refuses it before
    the vocabulary is opened, so a missing one is not what is named."""
    missing = tmp_path / "missing_vocab.txt"
    argv = {"eval": ["eval", "--input", corpus_csv, "--out", tmp_path / "o"],
            "predict": ["predict", "--lyrics", "ভালোবাসা"]}[command]
    code = run([*argv, "--checkpoint", nb_model, "--vocab", missing])
    err = capsys.readouterr().err
    assert_one_error_line(code, err)
    assert str(nb_model) in err and str(missing) not in err


@pytest.mark.parametrize("where", ["config", "set", "synthetic"])
def test_item_without_equals_exits_2(corpus_csv, tmp_path, capsys, where):
    """A --config line, a --set item and a --synthetic part share one
    key=value grammar, and one error naming where the item came from."""
    config = tmp_path / "run.cfg"
    config.write_text("# desk settings\n\nalpha = 0.5\n  alpha 2  \n", encoding="utf-8")
    train = ["train", "--input", corpus_csv, "--model", "nb"]
    argv, message = {
        "config": ([*train, "--config", config],
                   f"{config}:4: expected key=value, got 'alpha 2'"),
        "set": ([*train, "--set", "alpha=2", "--set", "alpha"],
                "--set: expected key=value, got 'alpha'"),
        "synthetic": (["ingest", "--synthetic", "seed=1, per_class"],
                      "--synthetic: expected key=value, got ' per_class'"),
    }[where]
    code = run([*argv, "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert_one_error_line(code, err)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("split", ["train", "val", "test", "all"])
def test_eval_scores_the_named_split(corpus_csv, nb_model, tmp_path, monkeypatch, split):
    scored = []
    score = cli._score

    def recording_score(model, chosen):
        scored.append(chosen)
        return score(model, chosen)

    monkeypatch.setattr(cli, "_score", recording_score)
    assert run(["eval", "--checkpoint", nb_model, "--input", corpus_csv,
                "--split", split, "--out", tmp_path / "o"]) == 0
    [chosen] = scored
    assert chosen.provenance == (str(corpus_csv) if split == "all"
                                 else f"{corpus_csv}[{split}]")


def test_eval_split_all_never_splits(nb_model, tmp_path, capsys):
    """A class of 2 songs cannot fill 3 splits, but ``--split all`` scores
    the whole corpus without splitting it."""
    corpus = synthesize_corpus(seed=3, per_class=3)
    small = tmp_path / "small.csv"
    # the last record is the third Relaxed song; every other class keeps 3
    save_corpus(dataclasses.replace(corpus, records=corpus.records[:-1]), small)
    argv = ["eval", "--checkpoint", nb_model, "--input", small, "--out", tmp_path / "o"]
    assert run([*argv, "--split", "all"]) == 0
    capsys.readouterr()
    code = run([*argv, "--split", "test"])
    err = capsys.readouterr().err
    assert_one_error_line(code, err)
    assert "class Relaxed has 2 members, fewer than 3 splits" in err


@pytest.mark.parametrize(
    "command",
    [["analyze"], ["train", "--model", "nb"], ["train", "--model", "bert", *BERT_FLAGS]],
    ids=["analyze", "train-nb", "train-bert"],
)
def test_each_song_is_cleaned_once(corpus_csv, tmp_path, monkeypatch, command):
    songs = len(load_corpus(corpus_csv)[0])
    cleaned = []

    def counting_clean_text(raw):
        cleaned.append(raw)
        return clean_text(raw)

    for name, module in list(sys.modules.items()):
        if name.startswith("moodlyrics") and hasattr(module, "clean_text"):
            monkeypatch.setattr(module, "clean_text", counting_clean_text)
    assert run([*command, "--input", corpus_csv, "--out", tmp_path / "out"]) == 0
    assert len(cleaned) == songs


@pytest.mark.parametrize(
    "which",
    ["ingest", "analyze", "train-nb", "train-bert", "eval-bert", "eval-nb",
     "predict-bert", "predict-nb"],
)
def test_each_input_file_is_read_once(corpus_csv, trained, nb_model, tmp_path,
                                      monkeypatch, which):
    config = tmp_path / "train.cfg"
    config.write_text("epochs=1\n", encoding="utf-8")
    nb_config = tmp_path / "nb.cfg"
    nb_config.write_text("alpha=0.5\n", encoding="utf-8")
    checkpoint, vocab = trained / "checkpoint.ckpt", trained / "vocab.txt"
    out = ["--out", tmp_path / "o"]
    argv, inputs = {
        "ingest": (["ingest", "--input", corpus_csv, *out], [corpus_csv]),
        "analyze": (["analyze", "--input", corpus_csv, *out], [corpus_csv]),
        "train-nb": (["train", "--model", "nb", "--input", corpus_csv, "--config", nb_config,
                      *out], [corpus_csv, nb_config]),
        "train-bert": (["train", "--model", "bert", "--input", corpus_csv,
                        "--config", config, *BERT_FLAGS, *out], [corpus_csv, config]),
        "eval-bert": (["eval", "--checkpoint", checkpoint, "--vocab", vocab,
                       "--input", corpus_csv, *out], [corpus_csv, checkpoint, vocab]),
        "eval-nb": (["eval", "--checkpoint", nb_model, "--input", corpus_csv, *out],
                    [corpus_csv, nb_model]),
        "predict-bert": (["predict", "--checkpoint", checkpoint, "--vocab", vocab,
                          "--lyrics", "ভালোবাসা"], [checkpoint, vocab]),
        "predict-nb": (["predict", "--checkpoint", nb_model, "--lyrics", "ভালোবাসা"],
                       [nb_model]),
    }[which]
    reads = []
    read_bytes = Path.read_bytes

    def counting_read_bytes(path):
        reads.append(str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    assert run(argv) == 0
    assert sorted(reads) == sorted(map(str, inputs))


@pytest.mark.parametrize("which", ["eval-bert", "eval-nb", "train-config"])
def test_manifest_hashes_every_input_file(corpus_csv, trained, nb_model, tmp_path, which):
    config = tmp_path / "train.cfg"
    config.write_text("alpha=0.5\n", encoding="utf-8")
    checkpoint, vocab = trained / "checkpoint.ckpt", trained / "vocab.txt"
    out = tmp_path / "o"
    argv, hashed = {
        "eval-bert": (["eval", "--checkpoint", checkpoint, "--vocab", vocab],
                      [corpus_csv, checkpoint]),
        "eval-nb": (["eval", "--checkpoint", nb_model], [corpus_csv, nb_model]),
        "train-config": (["train", "--model", "nb", "--config", config],
                         [corpus_csv, config]),
    }[which]
    assert run([*argv, "--input", corpus_csv, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in hashed
    }


def with_array_value(checkpoint: bytes, name: str, value: float) -> bytes:
    """``checkpoint`` with the first float32 of array ``name`` set to ``value``."""
    header_len = struct.unpack("<II", checkpoint[4:12])[1]
    offset = 12 + header_len
    config = ModelConfig(**json.loads(checkpoint[12 : 12 + header_len])["model"])
    for array, shape in param_shapes(config).items():
        if array == name:
            break
        offset += 4 * math.prod(shape)
    return checkpoint[:offset] + struct.pack("<f", value) + checkpoint[offset + 4 :]


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_non_finite_checkpoint_value_exits_2(corpus_csv, trained, tmp_path, capsys,
                                             command, value):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(with_array_value((trained / "checkpoint.ckpt").read_bytes(),
                                     "layers.0.attn.wq", value))
    model_flags = ["--checkpoint", bad, "--vocab", trained / "vocab.txt"]
    argv = {"eval": ["eval", *model_flags, "--input", corpus_csv, "--out", tmp_path / "o"],
            "predict": ["predict", *model_flags, "--lyrics", "ভালোবাসা প্রেম"]}[command]
    code = run(argv)
    err = capsys.readouterr().err
    assert_one_error_line(code, err)
    assert str(bad) in err and "layers.0.attn.wq" in err


class TestEnvironment:
    def test_out_env_var_override(self, corpus_csv, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("MOODLYRICS_OUT", str(target))
        assert run(["ingest", "--input", corpus_csv]) == 0
        assert (target / "corpus.csv").is_file()


class TestManifests:
    def test_records_the_argv_main_parsed(self, corpus_csv, tmp_path):
        argv = ["analyze", "--input", str(corpus_csv), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["argv"] == argv

    def manifest_covers_directory(self, out):
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {Path(p).name for p in manifest["outputs"]}
        present = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert listed == present, (listed, present)

    def test_no_orphan_artifacts(self, corpus_csv, trained, nb_model, tmp_path):
        ingest_out = tmp_path / "ing"
        assert run(["ingest", "--input", corpus_csv, "--out", ingest_out]) == 0
        self.manifest_covers_directory(ingest_out)

        analyze_out = tmp_path / "ana"
        assert run(["analyze", "--input", corpus_csv, "--out", analyze_out]) == 0
        self.manifest_covers_directory(analyze_out)

        self.manifest_covers_directory(trained)
        self.manifest_covers_directory(nb_model.parent)

        eval_out = tmp_path / "ev"
        assert run(["eval", "--checkpoint", trained / "checkpoint.ckpt",
                    "--vocab", trained / "vocab.txt", "--input", corpus_csv,
                    "--out", eval_out, "--seed", 42]) == 0
        self.manifest_covers_directory(eval_out)

        nb_eval_out = tmp_path / "nb_ev"
        assert run(["eval", "--checkpoint", nb_model, "--input", corpus_csv,
                    "--out", nb_eval_out, "--seed", 42]) == 0
        self.manifest_covers_directory(nb_eval_out)

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--model", "bert", "--set", "epochs=0"],
            ["analyze", "--bin-width", "0"],
            ["train", "--model", "bert", "--set", "hidden_size=16", "--set", "num_heads=3"],
            ["eval", "--checkpoint", "<nb_model>", "--split", "all", "--seed", "5"],
        ],
        ids=["epochs-0", "bin-width-0", "heads-not-dividing-hidden", "eval-all-seed"],
    )
    def test_failing_command_writes_no_manifest(self, corpus_csv, nb_model, tmp_path, capsys,
                                                argv):
        out = tmp_path / "o"
        argv = [nb_model if arg == "<nb_model>" else arg for arg in argv]
        code = run([*argv, "--input", corpus_csv, "--out", out])
        assert_one_error_line(code, capsys.readouterr().err)
        assert out.is_dir()
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "which", ["train-bert", "train-nb", "eval-test", "eval-val", "eval-unseeded", "eval-all",
                  "eval-bert-test"]
    )
    def test_records_only_the_seeds_read(self, corpus_csv, trained, nb_model, tmp_path, which):
        """A command records --seed and the seeds derived from it that it
        read: the fixtures train with --seed 42, and an unseeded run reads 42
        too. The values pin the split, init, train order of the derivation."""
        derived = {"train-bert": SEEDS_42.keys(), "eval-all": ()}.get(which, ["split"])
        nb = ["--checkpoint", nb_model]
        evals = {"eval-test": [*nb, "--split", "test", "--seed", 42],
                 "eval-val": [*nb, "--split", "val", "--seed", 42],
                 "eval-unseeded": nb, "eval-all": [*nb, "--split", "all"],
                 "eval-bert-test": ["--checkpoint", trained / "checkpoint.ckpt",
                                    "--vocab", trained / "vocab.txt", "--split", "test"]}
        out = {"train-bert": trained, "train-nb": nb_model.parent}.get(which, tmp_path / "o")
        if which in evals:
            assert run(["eval", *evals[which], "--input", corpus_csv, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == (42 if derived else None)
        assert manifest["derived_seeds"] == {name: SEEDS_42[name] for name in derived}

    def test_records_the_environment(self, corpus_csv, trained, nb_model, tmp_path):
        """Every command's manifest names the Python, numpy and BLAS it ran
        on and the CPU count."""
        ingest_out, analyze_out, eval_out = tmp_path / "ing", tmp_path / "ana", tmp_path / "ev"
        assert run(["ingest", "--input", corpus_csv, "--out", ingest_out]) == 0
        assert run(["analyze", "--input", corpus_csv, "--out", analyze_out]) == 0
        assert run(["eval", "--checkpoint", nb_model, "--input", corpus_csv,
                    "--out", eval_out, "--split", "all"]) == 0
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        expected = {"python": platform.python_version(), "numpy": np.__version__,
                    "blas": blas["name"], "blas_version": blas["version"],
                    "cpu_count": os.cpu_count()}
        for out in (ingest_out, analyze_out, trained, nb_model.parent, eval_out):
            assert json.loads((out / "manifest.json").read_text())["environment"] == expected

    def test_environment_without_blas_report(self, monkeypatch):
        # numpy before 1.25 has no show_config(mode="dicts")
        monkeypatch.setattr(np, "__version__", "1.24.4")
        environment = cli._environment()
        assert environment["numpy"] == "1.24.4"
        assert environment["blas"] is None and environment["blas_version"] is None

    @pytest.mark.parametrize("failure", ["rejected-setting", "diverged", "out-of-memory",
                                         "killed"])
    def test_rejected_settings_keep_the_earlier_run(self, corpus_csv, trained, tmp_path,
                                                    capsys, failure):
        """A train run into an earlier run's directory that fails at any point
        leaves every file as it was. Each failing run asks for another
        vocabulary size, so a vocabulary written into place would differ."""
        out = tmp_path / "reused"
        shutil.copytree(trained, out)
        before = directory_bytes(out)
        argv = ["train", "--input", corpus_csv, "--model", "bert", "--out", out]
        if failure == "rejected-setting":
            code = run([*argv, "--set", "vocab_size=60", "--set", "hidden_size=16",
                        "--set", "num_heads=3"])
            assert_one_error_line(code, capsys.readouterr().err)
        elif failure == "diverged":
            code = run([*argv, *BERT_FLAGS, "--set", "learning_rate=1e6",
                        "--set", "max_grad_norm=1e30", "--set", "vocab_size=80"])
            err = capsys.readouterr().err
            assert_one_error_line(code, err)
            assert re.match(r"error: training diverged at epoch 1, step \d+ \(lr [0-9.e+]+\): ",
                            err), err
        elif failure == "out-of-memory":
            # 50.7M parameters fit under the cap; their optimizer state does not
            proc = cli_child([*argv, *BERT_FLAGS, "--set", "epochs=1", "--set", "vocab_size=60",
                              "--set", "hidden_size=2048", "--set", "num_heads=1"],
                             cap_mib=900, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            _, err = proc.communicate(timeout=300)
            assert_one_error_line(proc.returncode, err)
            assert err.startswith("error: out of memory: "), err
        else:
            # killed once the first epoch's checkpoint is in staging
            with cli_child([*argv, *BERT_FLAGS, "--set", "epochs=100", "--set", "vocab_size=80"],
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
                for line in proc.stderr:
                    if line.startswith("epoch 1/"):
                        break
                proc.kill()
            assert proc.wait() == -signal.SIGKILL
        after = directory_bytes(out)
        staged = [name for name in after if name.startswith(".partial-")]
        assert len(staged) <= (failure == "killed"), staged
        for name in staged:
            del after[name]
        assert after == before
        assert run(["predict", "--checkpoint", out / "checkpoint.ckpt",
                    "--vocab", out / "vocab.txt", "--lyrics", "ভালোবাসা"]) == 0

    def test_staging_that_cannot_be_made_exits_2(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(tempfile, "mkdtemp", refuse)
        out = tmp_path / "o"
        code = run(["ingest", "--synthetic", "seed=1,per_class=2", "--out", out])
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert err == f"error: cannot write to output directory {out}: Permission denied\n"
        assert list(out.iterdir()) == []


def quick_start_commands():
    """The argv of each command in README.md's fenced ``sh`` block under
    ``## Quick start``: continued lines joined, comments and blank lines
    dropped."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Quick start\n")[1].split("```sh\n")[1].split("\n```")[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [argv for line in lines if (argv := shlex.split(line, comments=True))]


# runs each argv of its JSON argument through cli.main, stopping at a failure
QUICK_START_CHILD = """
import json, sys
from moodlyrics import cli
for argv in json.loads(sys.argv[1]):
    if code := cli.main(argv):
        sys.exit(f"exit {code}: {argv}")
"""


def test_quick_start_alike_under_two_hash_seeds(tmp_path):
    """The README quick start as written, then a Naive Bayes run from a
    config file, its eval over the whole corpus and an ingest of the CSV,
    in two processes whose string hashes differ: both exit 0, leave no
    staging directory, print the same stdout and write the same bytes to
    every file but the manifests (which hold the run time and the paths)."""
    commands = quick_start_commands()
    assert {argv[0] for argv in commands} == {"moodlyrics"}
    assert {argv[1] for argv in commands} == {"ingest", "analyze", "train", "eval", "predict"}
    corpus = "out/ingest/corpus.csv"
    argvs = [argv[1:] for argv in commands] + [
        ["train", "--input", corpus, "--model", "nb", "--config", "nb.cfg",
         "--out", "out/nb_config"],
        ["eval", "--checkpoint", "out/nb_config/model.nb", "--input", corpus,
         "--split", "all", "--out", "out/eval_nb_all"],
        ["ingest", "--input", corpus, "--out", "out/ingest_csv"],
    ]
    passes = []
    for hash_seed in ("1", "2"):
        cwd = tmp_path / f"hash-seed-{hash_seed}"
        cwd.mkdir()
        (cwd / "nb.cfg").write_text("# smoothing for the baseline\nalpha = 0.5\n",
                                    encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-c", QUICK_START_CHILD, json.dumps(argvs)], cwd=cwd,
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(moodlyrics.__file__).parents[1]),
                 "PYTHONHASHSEED": hash_seed},
        )
        assert done.returncode == 0, done.stderr
        paths = sorted(cwd.rglob("*"))
        assert [path for path in paths if path.name.startswith(".partial-")] == []
        passes.append((done.stdout, {path.relative_to(cwd): path.read_bytes() for path in paths
                                     if path.is_file() and path.name != "manifest.json"}))
    (stdout_1, files_1), (stdout_2, files_2) = passes
    assert stdout_1 == stdout_2
    assert files_1.keys() == files_2.keys()
    assert [path for path in files_1 if files_1[path] != files_2[path]] == []


def mutate(data: bytes, kind: str, at: int) -> bytes:
    """``data`` cut at an offset, with one bit flipped, or re-encoded as
    UTF-16 (bytes that are not UTF-8 are replaced first)."""
    if kind == "truncate":
        return data[: at % (len(data) + 1)]
    if kind == "flip":
        bit = at % (8 * len(data))
        flipped = data[bit // 8] ^ (1 << bit % 8)
        return data[: bit // 8] + bytes([flipped]) + data[bit // 8 + 1 :]
    return data.decode("utf-8", errors="replace").encode("utf-16")


MUTATIONS = st.tuples(st.sampled_from(["truncate", "flip", "utf16"]),
                      st.integers(min_value=0, max_value=2**32))
MUTATED = settings(max_examples=50, derandomize=True, database=None, deadline=None)
LYRICS = "ভালোবাসা প্রেম\nদুঃখ কান্না বিরহ\n"
CONFIG = "# desk run\nalpha=0.5\nepochs=2\nlowercase=true\nclass_weights=1,1,1,2.5\n"


class TestMutatedInputs:
    """A mutated input file exits 0, or exits 2 with one ``error:`` line
    and no traceback; it never exits 1."""

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutated")

    def check(self, scratch, original: bytes, mutation, argv_for) -> None:
        target = scratch / "input"
        target.write_bytes(mutate(original, *mutation))
        self.check_run(argv_for(target))

    @staticmethod
    def check_run(argv) -> None:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv)
        err = err.getvalue()
        assert "Traceback" not in err, err
        assert code in (0, 2), err
        if code == 2:
            assert sum(ln.startswith("error: ") for ln in err.splitlines()) == 1, err

    @MUTATED
    @given(mutation=MUTATIONS)
    def test_checkpoint(self, trained, scratch, mutation):
        self.check(scratch, (trained / "checkpoint.ckpt").read_bytes(), mutation,
                   lambda m: ["predict", "--checkpoint", m, "--vocab",
                              trained / "vocab.txt", "--lyrics", LYRICS])

    @MUTATED
    @given(mutation=MUTATIONS)
    def test_nb_model(self, nb_model, scratch, mutation):
        self.check(scratch, nb_model.read_bytes(), mutation,
                   lambda m: ["predict", "--checkpoint", m, "--lyrics", LYRICS])

    @MUTATED
    @given(mutation=MUTATIONS)
    def test_vocabulary(self, trained, scratch, mutation):
        self.check(scratch, (trained / "vocab.txt").read_bytes(), mutation,
                   lambda m: ["predict", "--checkpoint", trained / "checkpoint.ckpt",
                              "--vocab", m, "--lyrics", LYRICS])

    @MUTATED
    @given(mutation=MUTATIONS)
    def test_corpus(self, corpus_csv, scratch, mutation):
        self.check(scratch, corpus_csv.read_bytes(), mutation,
                   lambda m: ["train", "--input", m, "--model", "nb",
                              "--out", scratch / "out"])

    @MUTATED
    @given(mutation=MUTATIONS)
    def test_config(self, corpus_csv, scratch, mutation):
        self.check(scratch, CONFIG.encode("utf-8"), mutation,
                   lambda m: ["train", "--input", corpus_csv, "--model", "nb",
                              "--config", m, "--out", scratch / "out"])

    @MUTATED
    @given(mutation=MUTATIONS)
    def test_lyrics(self, trained, scratch, mutation):
        self.check(scratch, LYRICS.encode("utf-8"), mutation,
                   lambda m: ["predict", "--checkpoint", trained / "checkpoint.ckpt",
                              "--vocab", trained / "vocab.txt", "--file", m])

    @MUTATED
    @given(data=st.data())
    def test_checkpoint_header(self, trained, scratch, data):
        """A real header with one value deleted, swapped to another JSON type
        or replaced; values in the model and tokenizer blocks are drawn as
        often as all the others together."""
        checkpoint = (trained / "checkpoint.ckpt").read_bytes()
        header_len = struct.unpack("<II", checkpoint[4:12])[1]
        paths = list(_header_paths(json.loads(checkpoint[12 : 12 + header_len])))[1:]
        config_paths = [p for p in paths if p[0] in ("model", "tokenizer")]
        path = data.draw(st.sampled_from(config_paths) | st.sampled_from(paths))
        action = data.draw(st.sampled_from([("delete",), ("swap",)])
                           | HEADER_VALUES.map(lambda value: ("set", value)))
        target = scratch / "header.ckpt"
        target.write_bytes(with_header(checkpoint, lambda h: _edit_at(h, path, action)))
        self.check_run(["predict", "--checkpoint", target, "--vocab", trained / "vocab.txt",
                        "--lyrics", LYRICS])


HEADER_VALUES = st.sampled_from([
    None, True, False, 0, -1, 1, 3, 7, 2**63, 10**30, 0.5, 24.0, -0.0, math.inf,
    -math.inf, math.nan, "", "24", "x", [], [8, 16], {}, {"hidden_size": 16},
])


def _header_paths(node, path=()):
    """Every key path into a parsed JSON header, the root first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _header_paths(child, (*path, key))


def _swap_type(value):
    """``value`` as another JSON type holding the same number or text."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return float(value)
    if isinstance(value, float):
        return str(value)
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return {str(i): item for i, item in enumerate(value)}
    if isinstance(value, dict):
        return list(value.values())
    return 0


def _edit_at(header: dict, path: tuple, action: tuple) -> None:
    *parents, last = path
    node = header
    for key in parents:
        node = node[key]
    if action[0] == "delete":
        del node[last]
    else:
        node[last] = _swap_type(node[last]) if action[0] == "swap" else action[1]


SETTING_TEXT = st.one_of(
    st.sampled_from([
        "nan", "inf", "-inf", "1e400", "-1e400", "", " 5 ", "٣٢", "১৬", "٣.٥", "True",
        "true", "yes", "maybe", "0", "-1", "1_000", "0x10", "2e-3", "1,1,1,2.5",
        "1,nan,1,1", "1,2,3", "1,1,1,1,1", ",", "None", "9" * 5000,
    ]),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=8),
    st.lists(st.floats().map(repr), min_size=1, max_size=5).map(",".join),
)
SETTABLE_KEYS = sorted(cli._SETTABLE)
# what each annotation's values are once parsed
PARSED_TYPES = {"int": int, "float": float, "bool": bool,
                "tuple[float, float, float, float] | None": tuple}


def test_every_config_field_has_a_codec():
    for cls in (TokenizerConfig, ModelConfig, TrainConfig):
        for field in dataclasses.fields(cls):
            assert field.type in _CODECS and field.type in PARSED_TYPES, field


class TestSettingValues:
    """Any text for a settable key or a ``--synthetic`` option gives its
    settings or a ``MoodlyricsError``, never another exception. Checked at the
    codec and config level, so no drawn size allocates a model."""

    @MUTATED
    @given(key=st.sampled_from(SETTABLE_KEYS), raw=SETTING_TEXT)
    def test_codec_gives_the_annotated_type(self, key, raw):
        annotation = cli._SETTABLE[key][1]
        try:
            value = parse_setting(annotation, key, raw)
        except MoodlyricsError as exc:
            assert f"{key}=" in str(exc) or "expected a boolean" in str(exc)
        else:
            assert type(value) is PARSED_TYPES[annotation]

    @MUTATED
    @given(pairs=st.dictionaries(st.sampled_from(SETTABLE_KEYS), SETTING_TEXT, max_size=4))
    def test_set_flags_give_configs(self, pairs):
        args = argparse.Namespace(config=None, set=[f"{k}={v}" for k, v in pairs.items()])
        try:
            routed = cli._read_settings(args)
            TokenizerConfig(**routed[TokenizerConfig])
            ModelConfig(vocab_size=400, max_positions=24, **routed[ModelConfig])
            TrainConfig(**routed[TrainConfig])
            baseline.nb_train(synthesize_corpus(1, 1), **routed[baseline.nb_train])
        except MoodlyricsError:
            pass

    @MUTATED
    @given(spec=st.text(max_size=12) | st.lists(
        st.tuples(st.sampled_from(["seed", "per_class", " seed ", "bogus"]), SETTING_TEXT),
        max_size=3).map(lambda kv: ",".join(f"{k}={v}" for k, v in kv)))
    def test_synthetic_spec_gives_options(self, spec):
        try:
            options = cli._parse_synthetic(spec)
            synthesize_corpus(options["seed"], min(options["per_class"], 1))
        except MoodlyricsError:
            return
        assert all(type(value) is int for value in options.values())
