"""TF-IDF features and a multinomial Naive Bayes classifier.

Naive Bayes consumes raw token counts with additive smoothing; TF-IDF
vectors feed reporting and a nearest-centroid probe. Model files are
versioned plain text with ``repr`` floats, so a reload reproduces
predictions bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, MoodLabel, clean_text
from .errors import BaselineError
from .model import softmax

NB_FORMAT = "moodlyrics-nb v1"


def _words(text: str) -> list[str]:
    return clean_text(text).lower().split()


@dataclass(frozen=True)
class TfidfModel:
    """Vocabulary with smoothed inverse document frequencies:
    idf = ln((1+N)/(1+df)) + 1."""

    vocabulary: dict[str, int]
    idf: np.ndarray


def tfidf_fit(corpus: Corpus) -> TfidfModel:
    if len(corpus) == 0:
        raise BaselineError("cannot fit TF-IDF on an empty corpus")
    doc_freq: dict[str, int] = {}
    for rec in corpus:
        for word in set(_words(rec.lyrics)):
            doc_freq[word] = doc_freq.get(word, 0) + 1
    vocabulary = {word: i for i, word in enumerate(sorted(doc_freq))}
    n_docs = len(corpus)
    idf = np.empty(len(vocabulary))
    for word, col in vocabulary.items():
        idf[col] = math.log((1 + n_docs) / (1 + doc_freq[word])) + 1.0
    return TfidfModel(vocabulary=vocabulary, idf=idf)


def tfidf_transform(model: TfidfModel, text: str) -> dict[int, float]:
    """Sparse map column -> tf * idf; words unseen in training are ignored."""
    weights: dict[int, float] = {}
    for word in _words(text):
        col = model.vocabulary.get(word)
        if col is not None:
            weights[col] = weights.get(col, 0.0) + model.idf[col]
    return weights


@dataclass(frozen=True)
class NaiveBayesModel:
    """Log priors and per-class word log-likelihoods with smoothing alpha."""

    vocabulary: dict[str, int]
    log_priors: np.ndarray  # [4]
    log_likelihood: np.ndarray  # [V, 4]
    alpha: float


def nb_train(corpus: Corpus, alpha: float = 1.0) -> NaiveBayesModel:
    """Multinomial NB: priors are class fractions, likelihood(w|c) =
    (count(w,c) + alpha) / (total(c) + alpha * |V|)."""
    if alpha <= 0:
        raise BaselineError(f"smoothing alpha must be > 0, got {alpha}")
    if len(corpus) == 0:
        raise BaselineError("cannot train Naive Bayes on an empty corpus")
    class_docs = {label: 0 for label in MoodLabel}
    word_counts: dict[str, np.ndarray] = {}
    class_totals = np.zeros(len(MoodLabel))
    for rec in corpus:
        class_docs[rec.mood] += 1
        for word in _words(rec.lyrics):
            row = word_counts.get(word)
            if row is None:
                row = word_counts[word] = np.zeros(len(MoodLabel))
            row[rec.mood] += 1
            class_totals[rec.mood] += 1
    missing = [label.display for label in MoodLabel if class_docs[label] == 0]
    if missing:
        raise BaselineError(f"classes missing from training corpus: {missing}")
    vocabulary = {word: i for i, word in enumerate(sorted(word_counts))}
    counts = np.zeros((len(vocabulary), len(MoodLabel)))
    for word, row in word_counts.items():
        counts[vocabulary[word]] = row
    log_priors = np.log(
        np.array([class_docs[label] for label in MoodLabel]) / len(corpus)
    )
    log_likelihood = np.log(
        (counts + alpha) / (class_totals + alpha * len(vocabulary))
    )
    return NaiveBayesModel(
        vocabulary=vocabulary,
        log_priors=log_priors,
        log_likelihood=log_likelihood,
        alpha=alpha,
    )


def nb_predict(model: NaiveBayesModel, text: str) -> tuple[MoodLabel, np.ndarray]:
    """Argmax of log prior + summed token log-likelihoods; posterior is the
    softmax of the class log-scores. Unseen words are skipped; ties break
    toward the lowest class index."""
    scores = model.log_priors.copy()
    for word in _words(text):
        row = model.vocabulary.get(word)
        if row is not None:
            scores += model.log_likelihood[row]
    posterior = softmax(scores)
    return MoodLabel(int(np.argmax(scores))), posterior


def save_nb(model: NaiveBayesModel, path: str | Path) -> Path:
    path = Path(path)
    lines = [
        NB_FORMAT,
        f"alpha\t{model.alpha!r}",
        "classes\t" + "\t".join(label.name.lower() for label in MoodLabel),
        "priors\t" + "\t".join(repr(float(p)) for p in model.log_priors),
    ]
    for word, row in sorted(model.vocabulary.items(), key=lambda item: item[1]):
        values = "\t".join(repr(float(v)) for v in model.log_likelihood[row])
        lines.append(f"word\t{word}\t{values}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_nb(path: str | Path) -> NaiveBayesModel:
    path = Path(path)
    if not path.is_file():
        raise BaselineError(f"model file not found: {path}")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        raise BaselineError(f"model file is not UTF-8: {path}") from None
    if not lines or lines[0] != NB_FORMAT:
        raise BaselineError(f"not a Naive Bayes model file: {path}")
    vocabulary: dict[str, int] = {}
    rows = []
    try:
        alpha = float(lines[1].split("\t")[1])
        priors = np.array([float(v) for v in lines[3].split("\t")[1:]])
        for line in lines[4:]:
            fields = line.split("\t")
            if fields[0] != "word" or len(fields) != 2 + len(MoodLabel):
                raise BaselineError(f"malformed model line: {line!r}")
            vocabulary[fields[1]] = len(rows)
            rows.append([float(v) for v in fields[2:]])
    except (IndexError, ValueError):
        raise BaselineError(f"malformed model file: {path}") from None
    return NaiveBayesModel(
        vocabulary=vocabulary,
        log_priors=priors,
        log_likelihood=np.array(rows).reshape(len(rows), len(MoodLabel)),
        alpha=alpha,
    )


def nearest_centroid_fit(model: TfidfModel, corpus: Corpus) -> np.ndarray:
    """Per-class mean TF-IDF vector, for the reporting probe."""
    centroids = np.zeros((len(MoodLabel), len(model.vocabulary)))
    counts = np.zeros(len(MoodLabel))
    for rec in corpus:
        for col, weight in tfidf_transform(model, rec.lyrics).items():
            centroids[rec.mood, col] += weight
        counts[rec.mood] += 1
    counts[counts == 0] = 1.0
    return centroids / counts[:, None]


def nearest_centroid_predict(
    model: TfidfModel, centroids: np.ndarray, text: str
) -> MoodLabel:
    """Cosine-nearest centroid; ties break toward the lowest class index."""
    vec = np.zeros(len(model.vocabulary))
    for col, weight in tfidf_transform(model, text).items():
        vec[col] = weight
    norms = np.linalg.norm(centroids, axis=1) * max(np.linalg.norm(vec), 1e-12)
    norms[norms == 0] = 1.0
    similarity = centroids @ vec / norms
    return MoodLabel(int(np.argmax(similarity)))
