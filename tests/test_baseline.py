import math
import random

import numpy as np
import pytest

from moodlyrics.baseline import (
    load_nb,
    nb_predict,
    nb_train,
    nearest_centroid_fit,
    nearest_centroid_predict,
    save_nb,
    tfidf_fit,
    tfidf_transform,
)
from moodlyrics.corpus import Corpus, MoodLabel, SongRecord, stratified_split, synthesize_corpus
from moodlyrics.errors import BaselineError

from oracles import nb_brute_force_posterior, tokenize_like_baseline


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


class TestTfidf:
    def test_word_in_every_document_has_idf_one(self):
        corpus = corpus_from(
            [
                ("common a", MoodLabel.HAPPY),
                ("common b", MoodLabel.SAD),
                ("common c", MoodLabel.ROMANTIC),
            ]
        )
        model = tfidf_fit(corpus)
        # ln((1+3)/(1+3)) + 1 = 1
        assert model.idf[model.vocabulary["common"]] == pytest.approx(1.0, abs=1e-12)
        assert model.idf[model.vocabulary["a"]] == pytest.approx(
            math.log(4 / 2) + 1, abs=1e-12
        )

    def test_absent_word_gets_zero_weight(self):
        corpus = corpus_from([("x y", MoodLabel.HAPPY), ("z", MoodLabel.SAD)])
        model = tfidf_fit(corpus)
        vec = tfidf_transform(model, "x x")
        assert model.vocabulary["z"] not in vec
        assert vec[model.vocabulary["x"]] == pytest.approx(
            2 * (math.log(3 / 2) + 1)
        )

    def test_empty_text_is_zero_vector(self):
        corpus = corpus_from([("x", MoodLabel.HAPPY)])
        model = tfidf_fit(corpus)
        assert tfidf_transform(model, "") == {}

    def test_unseen_words_ignored(self):
        corpus = corpus_from([("x", MoodLabel.HAPPY)])
        model = tfidf_fit(corpus)
        assert tfidf_transform(model, "never seen") == {}

    def test_empty_corpus_is_error(self):
        with pytest.raises(BaselineError):
            tfidf_fit(Corpus((), "x"))


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
        with pytest.raises(BaselineError):
            nb_train(corpus, alpha=0.0)

    def test_missing_class_is_error(self):
        corpus = corpus_from([("x", MoodLabel.HAPPY), ("y", MoodLabel.SAD)])
        with pytest.raises(BaselineError, match="missing"):
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
        "data",
        [
            b"hello",
            b"moodlyrics-nb v1\n",
            b"moodlyrics-nb v1\nalpha\tabc\nclasses\npriors\t0\t0\t0\t0\n",
            b"moodlyrics-nb v1\nalpha\t1.0\n\xff\xfe\n",
        ],
        ids=["not-a-model", "format-line-only", "alpha-not-float", "not-utf8"],
    )
    def test_rejects_garbage_file(self, tmp_path, data):
        path = tmp_path / "bad.nb"
        path.write_bytes(data)
        with pytest.raises(BaselineError):
            load_nb(path)


class TestNearestCentroid:
    def test_separable_corpus(self):
        corpus = synthesize_corpus(seed=23, per_class=8)
        model = tfidf_fit(corpus)
        centroids = nearest_centroid_fit(model, corpus)
        correct = sum(
            nearest_centroid_predict(model, centroids, rec.lyrics) is rec.mood
            for rec in corpus
        )
        assert correct / len(corpus) > 0.9
