"""Multinomial Naive Bayes baseline classifier.

Training builds one word-by-class count matrix (McCallum & Nigam 1998)
with additive smoothing ``alpha``, 1 by default. Model files are versioned
plain text with ``repr`` floats, so a reload reproduces predictions bit-exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from ._atomic import read_input_text, write_atomic
from .corpus import Corpus, MoodLabel, clean_text
from .errors import MoodlyricsError

NB_FORMAT = "moodlyrics-nb v1"
_CLASSES_LINE = "classes\t" + "\t".join(label.name.lower() for label in MoodLabel)


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
    (count(w,c) + alpha) / (total(c) + alpha * |V|) over one [V, 4] count
    matrix, words in sorted order; total(c) is its column sum."""
    if not (0 < alpha < math.inf):
        raise MoodlyricsError(f"smoothing alpha must be finite and > 0, got {alpha}")
    if len(corpus) == 0:
        raise MoodlyricsError("cannot train Naive Bayes on an empty corpus")
    class_docs = np.bincount([rec.mood for rec in corpus], minlength=len(MoodLabel))
    missing = [label.display for label in MoodLabel if class_docs[label] == 0]
    if missing:
        raise MoodlyricsError(f"classes missing from training corpus: {missing}")
    class_words = [Counter() for _ in MoodLabel]
    for rec in corpus:
        class_words[rec.mood].update(_words(rec.cleaned))
    vocabulary = {word: i for i, word in enumerate(sorted(set().union(*class_words)))}
    counts = np.zeros((len(vocabulary), len(MoodLabel)))
    for label, words in enumerate(class_words):
        counts[[vocabulary[word] for word in words], label] = list(words.values())
    likelihood = (counts + alpha) / (counts.sum(axis=0) + alpha * len(vocabulary))
    if not likelihood.all():
        raise MoodlyricsError(f"smoothing alpha {alpha} gives a word likelihood of 0")
    return NaiveBayesModel(
        vocabulary=vocabulary,
        log_priors=np.log(class_docs / len(corpus)),
        log_likelihood=np.log(likelihood),
        alpha=alpha,
    )


def nb_predict(
    model: NaiveBayesModel, text: str, *, cleaned: str | None = None
) -> tuple[MoodLabel, np.ndarray]:
    """Argmax of log prior + summed token log-likelihoods; posterior is the
    softmax of the class log-scores. One axis-0 sum adds the prior, then the
    tokens' rows in token order. Unseen words are skipped; ties break toward
    the lowest class index. ``cleaned``, when given, is ``clean_text(text)``
    already computed, and ``text`` is not cleaned again."""
    if cleaned is None:
        cleaned = clean_text(text)
    vocabulary = model.vocabulary
    rows = [vocabulary[word] for word in _words(cleaned) if word in vocabulary]
    stack = (model.log_priors[None], model.log_likelihood.take(rows, axis=0))
    scores = np.concatenate(stack).sum(axis=0)
    label = MoodLabel(int(np.argmax(scores)))
    return label, _kernels.softmax_inplace(scores)


def save_nb(model: NaiveBayesModel, path: str | Path) -> Path:
    lines = [
        NB_FORMAT,
        f"alpha\t{model.alpha!r}",
        _CLASSES_LINE,
        "priors\t" + "\t".join(repr(float(p)) for p in model.log_priors),
    ]
    for word, row in sorted(model.vocabulary.items(), key=lambda item: item[1]):
        values = "\t".join(repr(float(v)) for v in model.log_likelihood[row])
        lines.append(f"word\t{word}\t{values}")
    return write_atomic(path, [("\n".join(lines) + "\n").encode("utf-8")])


def _fields(line: str, key: str, width: int) -> list[str]:
    """The fields after ``key`` of a ``width``-field model-file line."""
    fields = line.split("\t")
    if fields[0] != key or len(fields) != width:
        raise ValueError
    return fields[1:]


def load_nb(path: str | Path, *, data: bytes | None = None) -> NaiveBayesModel:
    """Read a :func:`save_nb` file; ``data``, when given, is its bytes.
    Every line must be as :func:`save_nb` writes it: alpha > 0, the classes
    in ``MoodLabel`` order, four priors and each word once."""
    path = Path(path)
    lines = read_input_text(path, "model file", data=data).splitlines()
    if not lines or lines[0] != NB_FORMAT:
        raise MoodlyricsError(f"not a Naive Bayes model file: {path}")
    vocabulary: dict[str, int] = {}
    rows = []
    try:
        (alpha,) = [float(v) for v in _fields(lines[1], "alpha", 2)]
        if lines[2] != _CLASSES_LINE or not alpha > 0:
            raise ValueError
        priors = [float(v) for v in _fields(lines[3], "priors", 1 + len(MoodLabel))]
        for line in lines[4:]:
            word, *values = _fields(line, "word", 2 + len(MoodLabel))
            if word in vocabulary:
                raise ValueError
            vocabulary[word] = len(rows)
            rows.append([float(v) for v in values])
    except (IndexError, ValueError):
        raise MoodlyricsError(f"malformed model file: {path}") from None
    log_likelihood = np.array(rows).reshape(len(rows), len(MoodLabel))
    # nb_predict's posterior softmax does not check its input
    if not np.isfinite([alpha, *priors]).all() or not np.isfinite(log_likelihood).all():
        raise MoodlyricsError(f"malformed model file (non-finite value): {path}")
    return NaiveBayesModel(
        vocabulary=vocabulary,
        log_priors=np.array(priors),
        log_likelihood=log_likelihood,
        alpha=alpha,
    )
