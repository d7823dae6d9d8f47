"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

import moodlyrics.trainer as trainer_module
from moodlyrics.baseline import nb_predict, nb_train
from moodlyrics.cli import main
from moodlyrics.corpus import (
    MoodLabel,
    SongRecord,
    Corpus,
    load_corpus,
    mood_distribution,
    synthesize_corpus,
)
from moodlyrics.evaluation import ConfusionMatrix, report
from moodlyrics.model import (
    ModelConfig,
    forward,
    init_model,
    load_checkpoint,
)
from moodlyrics.tokenizer import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    TokenizerConfig,
    encode,
    encode_corpus,
    train_wordpiece,
    wordpiece_segment,
)
from moodlyrics.trainer import (
    TrainConfig,
    adamw_step,
    clip_grad_norm,
    evaluate,
    init_adam_state,
    linear_schedule,
    train,
)
from moodlyrics.model import Parameters

from helpers import gradient_check
from oracles import nb_brute_force_posterior, tokenize_like_baseline, write_counts_csv


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL - {summary}")
        raise
    print(f"\nACCEPTANCE {number} PASS - {summary}")


def desk_setup(per_class=8, max_len=48, seed=42):
    corpus = synthesize_corpus(seed=seed, per_class=per_class)
    tok_config = TokenizerConfig(max_sequence_length=max_len, vocab_size=500)
    vocab = train_wordpiece(corpus, tok_config)
    return corpus, tok_config, vocab


def test_1_gradient_correctness():
    with criterion(1, "analytic gradients match central differences (rel err <= 1e-3)"):
        started = time.perf_counter()
        corpus, tok_config, vocab = desk_setup(per_class=2, max_len=16, seed=3)
        config = ModelConfig(
            vocab_size=len(vocab), max_positions=16, num_layers=2,
            hidden_size=64, num_heads=2, dropout_rate=0.1, seed=7,
        )
        params = init_model(config, dtype=np.float64)
        batch = encode_corpus(corpus, vocab, tok_config)[:4]
        errors = gradient_check(
            params, batch, eps=1e-4, max_entries_per_array=8, seed=11
        )
        elapsed = time.perf_counter() - started
        assert set(errors) == set(params.arrays), "every parameter array checked"
        worst_name = max(errors, key=errors.get)
        assert errors[worst_name] <= 1e-3, (
            f"gradient mismatch {errors[worst_name]:.2e} in {worst_name}"
        )
        assert elapsed <= 60.0, f"gradient check took {elapsed:.1f}s"


def test_2_overfit_reaches_full_training_accuracy(tmp_path, capsys):
    with criterion(2, "desk model hits 100% training accuracy within 100 epochs"):
        started = time.perf_counter()
        corpus, tok_config, vocab = desk_setup(per_class=8, max_len=48, seed=42)
        config = ModelConfig(
            vocab_size=len(vocab), max_positions=48, num_layers=2,
            hidden_size=64, num_heads=2, dropout_rate=0.1, seed=1,
        )
        params = init_model(config)
        # batch size 8 per the recipe; base rate scaled up from 8e-5 for a
        # model trained from random initialization
        train_config = TrainConfig(
            batch_size=8, learning_rate=2e-3, epochs=100, seed=42
        )
        ckpt = tmp_path / "overfit.ckpt"
        _, history = train(params, corpus, corpus, vocab, tok_config, train_config,
                           checkpoint_path=ckpt)
        elapsed = time.perf_counter() - started
        hit = [i + 1 for i, acc in enumerate(history.train_acc) if acc == 1.0]
        assert hit, f"never reached 100% (max {max(history.train_acc):.3f})"
        assert hit[0] <= 100
        assert elapsed <= 300.0, f"training took {elapsed:.1f}s"

        # the overfit model, driven through the CLI, reproduces a training
        # record's own label
        vocab_path = vocab.save(tmp_path / "vocab.txt")
        record = corpus[0]
        capsys.readouterr()
        rc = main(["predict", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                   "--lyrics", record.lyrics])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith(f"mood={record.mood.name.lower()} p="), line
        print(f"\n  first 100% training accuracy at epoch {hit[0]} ({elapsed:.1f}s)")


def test_3_naive_bayes_matches_brute_force_oracle():
    with criterion(3, "NB posteriors match brute-force Bayes within 1e-9 on 100 corpora"):
        rng = random.Random(99)
        moods = list(MoodLabel)
        for trial in range(100):
            vocab = [f"w{i}" for i in range(rng.randint(2, 10))]
            n_docs = rng.randint(4, 20)
            records = []
            for i in range(n_docs):
                mood = moods[i % 4] if i < 4 else rng.choice(moods)
                words = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
                records.append(SongRecord(f"d{i}", "", " ".join(words), mood))
            corpus = Corpus(tuple(records), f"trial{trial}")
            alpha = rng.choice([0.5, 1.0, 2.0])
            model = nb_train(corpus, alpha=alpha)
            docs = [
                (tokenize_like_baseline(rec.lyrics), int(rec.mood)) for rec in corpus
            ]
            query = corpus[rng.randrange(len(corpus))].lyrics
            _, posterior = nb_predict(model, query)
            expected = nb_brute_force_posterior(
                docs, alpha, tokenize_like_baseline(query)
            )
            assert np.abs(posterior - expected).max() <= 1e-9, f"trial {trial}"


def test_4_tokenizer_contract_on_random_texts():
    with criterion(4, "encode invariants hold for 1000 random texts; 512 truncation exact"):
        corpus, _, vocab = desk_setup(per_class=8, seed=5)
        config = TokenizerConfig(max_sequence_length=512, vocab_size=500)
        word_pool = [t for t in vocab.tokens[4:] if not t.startswith("##")]
        word_pool += ["xyzzy", "la", "বাংলা"]
        rng = random.Random(17)
        saw_long = 0
        for i in range(1000):
            if i % 10 == 0:
                words = [rng.choice(word_pool) for _ in range(rng.randint(520, 700))]
            else:
                words = [rng.choice(word_pool) for _ in range(rng.randint(0, 80))]
            text = " ".join(words)
            example = encode(text, vocab, config)
            ids, mask = example.ids, example.mask
            assert ids.shape == (512,) and mask.shape == (512,)
            assert ids[0] == CLS_ID
            non_pad = np.nonzero(ids != PAD_ID)[0]
            assert ids[non_pad[-1]] == SEP_ID
            assert np.array_equal(mask, (ids != PAD_ID).astype(mask.dtype))
            n_pieces = sum(len(wordpiece_segment(w, vocab)) for w in words)
            assert mask.sum() == 2 + min(n_pieces, 510)
            if n_pieces > 510:
                saw_long += 1
                assert mask.sum() == 512
                assert ids[511] == SEP_ID
        assert saw_long >= 100, "need plenty of over-length inputs"


def test_5_padding_never_changes_logits():
    with criterion(5, "mutating padded ids never changes eval logits (1000 exact trials)"):
        corpus, tok_config, vocab = desk_setup(per_class=4, max_len=24, seed=9)
        config = ModelConfig(
            vocab_size=len(vocab), max_positions=24, num_layers=2,
            hidden_size=32, num_heads=2, seed=2,
        )
        params = init_model(config)
        batch = encode_corpus(corpus, vocab, tok_config)[:4]
        reference = forward(params, batch, mode="eval").logits
        rng = np.random.default_rng(23)
        for _ in range(1000):
            mutated = []
            for example in batch:
                ids = example.ids.copy()
                pads = np.nonzero(example.mask == 0)[0]
                ids[pads] = rng.integers(0, config.vocab_size, size=len(pads))
                mutated.append(type(example)(ids, example.mask, example.label))
            logits = forward(params, mutated, mode="eval").logits
            assert np.array_equal(logits, reference)


def test_6_optimizer_and_schedule():
    with criterion(6, "schedule endpoints exact; AdamW hand step 1e-6; clip norm 1e-9"):
        assert linear_schedule(0, 1000, 8e-5) == 8e-5
        assert linear_schedule(1000, 1000, 8e-5) == 0.0

        config = ModelConfig(vocab_size=8, max_positions=8, num_layers=1,
                             hidden_size=8, num_heads=2)
        params = Parameters(config, {"w": np.zeros(4)})
        state = init_adam_state(params)
        state.grads["w"][:] = 1.0
        adamw_step(state, lr=0.1, config=TrainConfig(weight_decay=0.0))
        assert np.abs(params["w"] + 0.1).max() <= 1e-6

        rng = np.random.default_rng(31)
        for _ in range(100):
            grads = {
                name: rng.normal(size=rng.integers(1, 30))
                for name in ("a", "b", "c")
            }
            norm = math.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
            max_norm = float(rng.uniform(0.2, 2.5))
            clip_grad_norm(grads, max_norm)
            after = math.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
            assert abs(after - min(norm, max_norm)) <= 1e-9


def test_7_metrics_identities_and_fig2_counts(tmp_path):
    with criterion(7, "weighted recall = accuracy; f1 formula; Fig. 2 counts exact"):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            cells = rng.integers(0, 50, size=(4, 4)).astype(np.int64)
            if cells.sum() == 0:
                cells[1, 1] = 1
            rep = report(ConfusionMatrix(cells))
            assert abs(rep.weighted_recall - rep.accuracy) <= 1e-12
            for c in range(4):
                p, r = rep.precision[c], rep.recall[c]
                expected_f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
                assert abs(rep.f1[c] - expected_f1) <= 1e-12

        counts = {"sad": 1513, "romantic": 1362, "happy": 886, "relaxed": 239}
        path = write_counts_csv(tmp_path / "paper_counts.csv", counts)
        corpus, _ = load_corpus(path)
        dist = mood_distribution(corpus)
        assert dist.counts[MoodLabel.SAD] == 1513
        assert dist.counts[MoodLabel.ROMANTIC] == 1362
        assert dist.counts[MoodLabel.HAPPY] == 886
        assert dist.counts[MoodLabel.RELAXED] == 239
        assert len(corpus) == 4000


def test_8_cli_train_determinism(tmp_path):
    with criterion(8, "cmd_train twice: byte-identical history, checkpoint, plots"):
        from moodlyrics.corpus import save_corpus

        data = tmp_path / "corpus.csv"
        save_corpus(synthesize_corpus(seed=1, per_class=12), data)
        flags = [
            "--set", "epochs=3", "--set", "num_layers=1", "--set", "hidden_size=16",
            "--set", "max_sequence_length=24", "--set", "vocab_size=400",
            "--set", "learning_rate=2e-3",
        ]
        outs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            rc = main(["train", "--input", str(data), "--model", "bert",
                       "--out", str(out), "--seed", "42", *flags])
            assert rc == 0
            outs.append(out)
        for artifact in ("history.csv", "checkpoint.ckpt", "accuracy_curve.svg",
                         "accuracy_curve.csv", "vocab.txt"):
            a = (outs[0] / artifact).read_bytes()
            b = (outs[1] / artifact).read_bytes()
            assert a == b, f"{artifact} differs between identical runs"


def test_9_best_checkpoint_rule(tmp_path, monkeypatch):
    with criterion(9, "validation [0.50, 0.63, 0.61] selects epoch 2; reload exact"):
        corpus, tok_config, vocab = desk_setup(per_class=6, max_len=24, seed=13)
        config = ModelConfig(
            vocab_size=len(vocab), max_positions=24, num_layers=1,
            hidden_size=16, num_heads=2, seed=3,
        )
        train_config = TrainConfig(batch_size=8, learning_rate=2e-3, epochs=3, seed=11)

        # scripted sequence through the real training loop
        scripted = iter([0.10, 0.50, 0.20, 0.63, 0.30, 0.61])  # (train, val) pairs
        with monkeypatch.context() as patch:
            patch.setattr(
                trainer_module, "evaluate", lambda *a, **k: (1.0, next(scripted))
            )
            _, history = train(
                init_model(config), corpus, corpus, vocab, tok_config, train_config
            )
        assert history.val_acc == [0.50, 0.63, 0.61]
        assert history.best_epoch == 2

        # a real run's best checkpoint reproduces its recorded metric exactly
        ckpt = tmp_path / "best.ckpt"
        _, real_history = train(
            init_model(config), corpus, corpus, vocab, tok_config, train_config,
            checkpoint_path=ckpt,
        )
        reloaded, _, _ = load_checkpoint(ckpt)
        examples = encode_corpus(corpus, vocab, tok_config)
        _, accuracy = evaluate(reloaded, examples)
        assert accuracy == real_history.val_acc[real_history.best_epoch - 1]
