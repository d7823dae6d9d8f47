import json
import re
from pathlib import Path

import pytest

from moodlyrics.cli import main
from moodlyrics.corpus import load_corpus, save_corpus, synthesize_corpus

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

    def test_single_song_corpus(self, tmp_path):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text(
            "title,category,lyrics,mood\nonly,x,la di da,happy\n", encoding="utf-8"
        )
        out = tmp_path / "o"
        assert run(["analyze", "--input", csv_path, "--out", out]) == 0
        lines = (out / "density_curve.csv").read_text().splitlines()
        assert len(lines) == 2  # header plus one point


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
        assert manifest["derived_seeds"].keys() == {"split", "init", "train"}

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
        ],
        ids=["bogus", "epochs-not-int", "alpha-not-float", "synthetic-seed-not-int"],
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
    def test_matches_train_manifest_metrics(self, corpus_csv, trained, tmp_path):
        out = tmp_path / "ev"
        assert run(["eval", "--checkpoint", trained / "checkpoint.ckpt",
                    "--vocab", trained / "vocab.txt", "--input", corpus_csv,
                    "--split", "test", "--out", out, "--seed", 42]) == 0
        train_metrics = json.loads((trained / "manifest.json").read_text())["metrics"]
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


class TestEnvironment:
    def test_out_env_var_override(self, corpus_csv, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("MOODLYRICS_OUT", str(target))
        assert run(["ingest", "--input", corpus_csv]) == 0
        assert (target / "corpus.csv").is_file()


class TestManifests:
    def manifest_covers_directory(self, out):
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {Path(p).name for p in manifest["outputs"]}
        present = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert listed == present, (listed, present)

    def test_no_orphan_artifacts(self, corpus_csv, trained, tmp_path):
        ingest_out = tmp_path / "ing"
        assert run(["ingest", "--input", corpus_csv, "--out", ingest_out]) == 0
        self.manifest_covers_directory(ingest_out)

        analyze_out = tmp_path / "ana"
        assert run(["analyze", "--input", corpus_csv, "--out", analyze_out]) == 0
        self.manifest_covers_directory(analyze_out)

        self.manifest_covers_directory(trained)

        eval_out = tmp_path / "ev"
        assert run(["eval", "--checkpoint", trained / "checkpoint.ckpt",
                    "--vocab", trained / "vocab.txt", "--input", corpus_csv,
                    "--out", eval_out, "--seed", 42]) == 0
        self.manifest_covers_directory(eval_out)


class TestPipelineDeterminism:
    def artifacts_identical(self, out_a, out_b):
        names_a = sorted(p.name for p in out_a.iterdir() if p.name != "manifest.json")
        names_b = sorted(p.name for p in out_b.iterdir() if p.name != "manifest.json")
        assert names_a == names_b
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_ingest_and_eval_byte_identical(self, corpus_csv, trained, tmp_path):
        outs = []
        for name in ("ia", "ib"):
            out = tmp_path / name
            assert run(["ingest", "--input", corpus_csv, "--out", out]) == 0
            outs.append(out)
        self.artifacts_identical(*outs)

        outs = []
        for name in ("ea", "eb"):
            out = tmp_path / name
            assert run(["eval", "--checkpoint", trained / "checkpoint.ckpt",
                        "--vocab", trained / "vocab.txt", "--input", corpus_csv,
                        "--out", out, "--seed", 42]) == 0
            outs.append(out)
        self.artifacts_identical(*outs)
