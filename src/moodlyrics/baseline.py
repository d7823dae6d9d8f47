"""Multinomial Naive Bayes baseline classifier.

Naive Bayes consumes raw token counts with additive smoothing. Model files
are versioned plain text with ``repr`` floats, so a reload reproduces
predictions bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from ._atomic import read_input_text, write_atomic
from .corpus import Corpus, MoodLabel, clean_text
from .errors import BaselineError

NB_FORMAT = "moodlyrics-nb v1"


def _words(cleaned: str) -> list[str]:
    return cleaned.lower().split()


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
    if not (0 < alpha < math.inf):
        raise BaselineError(f"smoothing alpha must be finite and > 0, got {alpha}")
    if len(corpus) == 0:
        raise BaselineError("cannot train Naive Bayes on an empty corpus")
    class_docs = {label: 0 for label in MoodLabel}
    word_counts: dict[str, np.ndarray] = {}
    class_totals = np.zeros(len(MoodLabel))
    for rec in corpus:
        class_docs[rec.mood] += 1
        for word in _words(rec.cleaned):
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
    likelihood = (counts + alpha) / (class_totals + alpha * len(vocabulary))
    if not likelihood.all():
        raise BaselineError(f"smoothing alpha {alpha} gives a word likelihood of 0")
    return NaiveBayesModel(
        vocabulary=vocabulary,
        log_priors=log_priors,
        log_likelihood=np.log(likelihood),
        alpha=alpha,
    )


def nb_predict(
    model: NaiveBayesModel, text: str, *, cleaned: str | None = None
) -> tuple[MoodLabel, np.ndarray]:
    """Argmax of log prior + summed token log-likelihoods; posterior is the
    softmax of the class log-scores. Unseen words are skipped; ties break
    toward the lowest class index. ``cleaned``, when given, is
    ``clean_text(text)`` already computed, and ``text`` is not cleaned
    again."""
    if cleaned is None:
        cleaned = clean_text(text)
    scores = model.log_priors.copy()
    for word in _words(cleaned):
        row = model.vocabulary.get(word)
        if row is not None:
            scores += model.log_likelihood[row]
    label = MoodLabel(int(np.argmax(scores)))
    return label, _kernels.softmax_inplace(scores)


def save_nb(model: NaiveBayesModel, path: str | Path) -> Path:
    lines = [
        NB_FORMAT,
        f"alpha\t{model.alpha!r}",
        "classes\t" + "\t".join(label.name.lower() for label in MoodLabel),
        "priors\t" + "\t".join(repr(float(p)) for p in model.log_priors),
    ]
    for word, row in sorted(model.vocabulary.items(), key=lambda item: item[1]):
        values = "\t".join(repr(float(v)) for v in model.log_likelihood[row])
        lines.append(f"word\t{word}\t{values}")
    return write_atomic(path, [("\n".join(lines) + "\n").encode("utf-8")])


def load_nb(path: str | Path, *, data: bytes | None = None) -> NaiveBayesModel:
    """Read a :func:`save_nb` file; ``data``, when given, is its bytes."""
    path = Path(path)
    lines = read_input_text(path, "model file", BaselineError, data=data).splitlines()
    if not lines or lines[0] != NB_FORMAT:
        raise BaselineError(f"not a Naive Bayes model file: {path}")
    vocabulary: dict[str, int] = {}
    rows = []
    try:
        alpha = float(lines[1].split("\t")[1])
        priors = np.array([float(v) for v in lines[3].split("\t")[1:]])
        if len(priors) != len(MoodLabel):
            raise BaselineError(f"wrong number of priors in {path}")
        for line in lines[4:]:
            fields = line.split("\t")
            if fields[0] != "word" or len(fields) != 2 + len(MoodLabel):
                raise BaselineError(f"malformed model line: {line!r}")
            vocabulary[fields[1]] = len(rows)
            rows.append([float(v) for v in fields[2:]])
    except (IndexError, ValueError):
        raise BaselineError(f"malformed model file: {path}") from None
    log_likelihood = np.array(rows).reshape(len(rows), len(MoodLabel))
    # nb_predict's posterior softmax does not check its input
    if not np.isfinite([alpha, *priors]).all() or not np.isfinite(log_likelihood).all():
        raise BaselineError(f"malformed model file (non-finite value): {path}")
    return NaiveBayesModel(
        vocabulary=vocabulary,
        log_priors=priors,
        log_likelihood=log_likelihood,
        alpha=alpha,
    )

