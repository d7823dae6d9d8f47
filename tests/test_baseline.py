import math
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import moodlyrics
from moodlyrics.baseline import (
    load_nb,
    nb_predict,
    nb_train,
    save_nb,
)
from moodlyrics.corpus import (
    Corpus,
    MoodLabel,
    SongRecord,
    clean_text,
    stratified_split,
    synthesize_corpus,
)
from moodlyrics.errors import MoodlyricsError

from oracles import (
    nb_brute_force_posterior,
    nb_posterior_loop,
    nb_train_loops,
    tokenize_like_baseline,
)


def corpus_from(docs):
    """docs: list of (lyrics, mood) pairs."""
    records = tuple(
        SongRecord(f"t{i}", "", lyrics, mood) for i, (lyrics, mood) in enumerate(docs)
    )
    return Corpus(records, "test")


def random_tiny_corpus(rng, vocab_size=None, n_docs=None):
    vocab = [f"w{i}" for i in range(vocab_size or rng.randint(2, 10))]
    n = n_docs or rng.randint(4, 20)
    docs = []
    moods = list(MoodLabel)
    for i in range(n):
        mood = moods[i % 4] if i < 4 else rng.choice(moods)  # every class present
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        docs.append((" ".join(words), mood))
    return corpus_from(docs)


class TestNbTrain:
    def test_smoothing_hand_example(self):
        # class Happy sees "x x"; vocabulary is {x, y}:
        # P(x|Happy) = (2+1)/(2+2) = 0.75
        corpus = corpus_from(
            [
                ("x x", MoodLabel.HAPPY),
                ("y", MoodLabel.SAD),
                ("y", MoodLabel.ROMANTIC),
                ("y", MoodLabel.RELAXED),
            ]
        )
        model = nb_train(corpus, alpha=1.0)
        p = math.exp(model.log_likelihood[model.vocabulary["x"], MoodLabel.HAPPY])
        assert p == pytest.approx(0.75, abs=1e-12)

    def test_balanced_classes_equal_priors(self):
        corpus = synthesize_corpus(seed=3, per_class=5)
        model = nb_train(corpus)
        assert np.allclose(np.exp(model.log_priors), 0.25, atol=1e-12)

    def test_alpha_zero_is_error(self):
        corpus = synthesize_corpus(seed=3, per_class=2)
        with pytest.raises(MoodlyricsError, match="alpha must be finite and > 0"):
            nb_train(corpus, alpha=0.0)

    @pytest.mark.parametrize("alpha", [5e-324, 1e308])
    def test_alpha_that_zeroes_a_likelihood_is_error(self, alpha):
        corpus = synthesize_corpus(seed=3, per_class=2)
        # the error alone: no numpy divide-by-zero warning ahead of it
        with warnings.catch_warnings(), pytest.raises(MoodlyricsError, match="likelihood of 0"):
            warnings.simplefilter("error")
            nb_train(corpus, alpha=alpha)

    def test_missing_class_is_error(self):
        corpus = corpus_from([("x", MoodLabel.HAPPY), ("y", MoodLabel.SAD)])
        with pytest.raises(MoodlyricsError, match="missing"):
            nb_train(corpus)

    def test_likelihoods_sum_to_one_per_class(self):
        rng = random.Random(5)
        for _ in range(10):
            model = nb_train(random_tiny_corpus(rng), alpha=rng.choice([0.5, 1.0, 2.0]))
            sums = np.exp(model.log_likelihood).sum(axis=0)
            assert np.allclose(sums, 1.0, atol=1e-9)


class TestNbPredict:
    def test_exclusive_keywords_pick_their_class(self):
        corpus = synthesize_corpus(seed=7, per_class=6)
        model = nb_train(corpus)
        for rec in corpus:
            label, posterior = nb_predict(model, rec.lyrics)
            assert label is rec.mood
            assert posterior.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_text_falls_back_to_priors(self):
        corpus = corpus_from(
            [("x", MoodLabel.SAD)] * 3
            + [("y", MoodLabel.HAPPY), ("z", MoodLabel.ROMANTIC), ("w", MoodLabel.RELAXED)]
        )
        model = nb_train(corpus)
        label, posterior = nb_predict(model, "")
        assert label is MoodLabel.SAD
        assert np.allclose(posterior, np.exp(model.log_priors), atol=1e-12)

    def test_duplicating_corpus_preserves_predictions(self):
        # smoothing shifts the posterior values (alpha does not double with
        # the counts), but the predicted labels stay the same
        corpus = synthesize_corpus(seed=11, per_class=4)
        doubled = Corpus(corpus.records + corpus.records, "doubled")
        model_a = nb_train(corpus)
        model_b = nb_train(doubled)
        for rec in corpus:
            label_a, _ = nb_predict(model_a, rec.lyrics)
            label_b, _ = nb_predict(model_b, rec.lyrics)
            assert label_a is label_b

    def test_matches_brute_force_oracle(self):
        rng = random.Random(13)
        for _ in range(30):
            corpus = random_tiny_corpus(rng)
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
            assert np.allclose(posterior, expected, atol=1e-9)

    def test_separable_corpus_perfect_test_accuracy(self):
        corpus = synthesize_corpus(seed=21, per_class=10)
        train_split, _, test_split = stratified_split(corpus, (0.8, 0.1, 0.1), seed=2)
        model = nb_train(train_split)
        correct = sum(
            nb_predict(model, rec.lyrics)[0] is rec.mood for rec in test_split
        )
        assert correct == len(test_split)


def assert_matches_loop_oracle(corpus, alpha, queries):
    """``nb_train`` and ``nb_predict`` give the loop oracles' bits: the
    vocabulary in id order, priors, likelihoods and every posterior."""
    model = nb_train(corpus, alpha=alpha)
    vocabulary, log_priors, log_likelihood = nb_train_loops(corpus, alpha)
    assert list(model.vocabulary.items()) == list(vocabulary.items())
    assert np.array_equal(model.log_priors, log_priors)
    assert np.array_equal(model.log_likelihood, log_likelihood)
    for query in queries:
        label, posterior = nb_predict(model, query)
        expected = nb_posterior_loop(vocabulary, log_priors, log_likelihood, clean_text(query))
        assert np.array_equal(posterior, expected), query
        assert label is MoodLabel(int(np.argmax(expected)))


class TestMatchesLoopOracle:
    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 1.0, 2.0])
    def test_random_tiny_corpora(self, alpha):
        rng = random.Random(int(alpha * 1000))
        for _ in range(25):
            corpus = random_tiny_corpus(rng)
            queries = [rec.lyrics for rec in corpus] + ["", "unseen w0 never w1 W0"]
            assert_matches_loop_oracle(corpus, alpha, queries)

    def test_lyrics_that_clean_to_empty(self):
        corpus = corpus_from(
            [("x y", MoodLabel.HAPPY), ("। ॥ !?", MoodLabel.SAD), ("y z", MoodLabel.ROMANTIC),
             ("z", MoodLabel.RELAXED), ("", MoodLabel.SAD)]
        )
        assert_matches_loop_oracle(corpus, 1.0, ["", "।", "x y z q", "q"])

    def test_long_songs_and_queries(self):
        rng = random.Random(29)
        vocab = [f"w{i}" for i in range(300)]
        # Zipf-like word draws, so likelihood rows span many magnitudes
        weights = [1 / (rank + 1) for rank in range(len(vocab))]
        docs = [(" ".join(rng.choices(vocab, weights, k=rng.randint(1000, 1500))), mood)
                for mood in list(MoodLabel) * 3]
        corpus = corpus_from(docs)
        queries = [rec.lyrics for rec in corpus]
        queries.append(" ".join(rng.choices(vocab + ["unseen", "other"], k=2000)))
        for alpha in (1e-3, 1.0):
            assert_matches_loop_oracle(corpus, alpha, queries)

    def test_synthetic_bangla_corpus(self):
        corpus = synthesize_corpus(seed=7, per_class=8)
        queries = [rec.lyrics for rec in corpus] + ["ভালোবাসা প্রেম হৃদয়", "অচেনা শব্দ"]
        assert_matches_loop_oracle(corpus, 0.5, queries)


VALID_NB = (
    b"moodlyrics-nb v1\nalpha\t1.0\nclasses\thappy\tsad\tromantic\trelaxed\n"
    b"priors\t-1.4\t-1.3\t-1.2\t-1.6\nword\tx\t-1.0\t-0.5\t-0.25\t-2.0\n"
    b"word\ty\t-1.5\t-1.5\t-1.5\t-1.5\n"
)
MALFORMED = "^malformed model file: "


class TestSerialization:
    def test_round_trip_bit_exact_predictions(self, tmp_path):
        corpus = synthesize_corpus(seed=17, per_class=5)
        model = nb_train(corpus, alpha=1.5)
        path = save_nb(model, tmp_path / "model.nb")
        reloaded = load_nb(path)
        assert reloaded.alpha == model.alpha
        assert np.array_equal(reloaded.log_priors, model.log_priors)
        for rec in corpus:
            label_a, post_a = nb_predict(model, rec.lyrics)
            label_b, post_b = nb_predict(reloaded, rec.lyrics)
            assert label_a is label_b
            assert np.array_equal(post_a, post_b)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"hello", "^not a Naive Bayes model file: "),
            (b"moodlyrics-nb v1\n", MALFORMED),
            (b"moodlyrics-nb v1\nalpha\tabc\nclasses\npriors\t0\t0\t0\t0\n", MALFORMED),
            (b"moodlyrics-nb v1\nalpha\t1.0\n\xff\xfe\n", "^model file is not UTF-8: "),
            (b"moodlyrics-nb v1\nalpha\t1.0\nclasses\thappy\tsad\tromantic\trelaxed\n"
             b"priors\t-1.4\t-1.4\t-1.4\nword\tx\t-1.0\t-1.0\t-1.0\t-1.0\n", MALFORMED),
            (VALID_NB.replace(b"happy\tsad\tromantic\trelaxed", b"relaxed\tromantic\tsad\thappy"),
             MALFORMED),
            (VALID_NB.replace(b"alpha\t1.0", b"alpha\t-3.0"), MALFORMED),
            (VALID_NB.replace(b"alpha\t1.0", b"alpha\t0.0"), MALFORMED),
            (VALID_NB.replace(b"alpha\t1.0", b"smoothing\t1.0"), MALFORMED),
            (VALID_NB.replace(b"alpha\t1.0", b"alpha\t1.0\t2.0"), MALFORMED),
            (VALID_NB.replace(b"priors", b"prior"), MALFORMED),
            (VALID_NB + b"word\tx\t-2.0\t-2.0\t-2.0\t-2.0\n", MALFORMED),
        ],
        ids=["not-a-model", "format-line-only", "alpha-not-float", "not-utf8",
             "three-priors", "classes-reordered", "alpha-negative", "alpha-zero",
             "alpha-key-renamed", "alpha-two-values", "priors-key-renamed",
             "word-repeated"],
    )
    def test_rejects_garbage_file(self, tmp_path, data, message):
        path = tmp_path / "bad.nb"
        path.write_bytes(data)
        with pytest.raises(MoodlyricsError, match=message):
            load_nb(path)

    def test_hand_written_file_loads(self, tmp_path):
        # the file the garbage cases above edit one line of
        model = load_nb(tmp_path / "model.nb", data=VALID_NB)
        assert model.alpha == 1.0
        assert list(model.vocabulary.items()) == [("x", 0), ("y", 1)]
        assert np.array_equal(model.log_priors, [-1.4, -1.3, -1.2, -1.6])
        assert np.array_equal(model.log_likelihood, [[-1.0, -0.5, -0.25, -2.0], [-1.5] * 4])


def test_importing_baseline_leaves_the_transformer_unloaded():
    code = "import sys, moodlyrics.baseline; print('moodlyrics.model' in sys.modules)"
    src = str(Path(moodlyrics.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src},
    ).stdout
    assert out == "False\n"
