"""Seeded Zipfian Bengali-script lyrics generator for the benchmark.

Word types are built from consonant + vowel-sign syllables, so every type is
plain Bengali script that ``clean_text`` leaves intact. Filler words are drawn
from a Zipf law over the type inventory (rank r has weight 1 / r**exponent);
a fixed share of word positions instead carries a keyword from the song's own
mood pool, which makes the classes separable by a bag-of-words model.

The lexicon (types, their ranks and the keyword pools) is the same for every
seed; the seed draws the songs. A per-seed lexicon would give each seed
different lengths for its most frequent words, and so a different amount of
text work per song.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from moodlyrics.corpus import Corpus, MoodLabel, SongRecord

_CONSONANTS = tuple("কখগঘচছজঝটঠডঢতথদধনপফবভমযরলশষসহ")
_VOWEL_SIGNS = ("", "া", "ি", "ী", "ু", "ূ", "ে", "ৈ", "ো", "ৌ")
_CATEGORIES = ("modern", "folk", "film", "classical", "band")
_LEXICON_SEED = 0


@dataclass(frozen=True)
class ZipfShape:
    """Generator parameters; the run output records them."""

    songs: int = 1000
    words_per_song: int = 120
    types: int = 8000
    exponent: float = 1.0
    keyword_share: float = 0.1
    keywords_per_mood: int = 12
    words_per_line: int = 8


def _word_types(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` distinct words of 2 or 3 syllables, in generation order."""
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < count:
        syllables = int(rng.integers(2, 4))
        cons = rng.integers(0, len(_CONSONANTS), size=syllables)
        vows = rng.integers(0, len(_VOWEL_SIGNS), size=syllables)
        word = "".join(_CONSONANTS[c] + _VOWEL_SIGNS[v] for c, v in zip(cons, vows))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def zipf_corpus(seed: int, shape: ZipfShape = ZipfShape()) -> Corpus:
    """Generate ``shape.songs`` records, balanced over the four moods."""
    n_keywords = shape.keywords_per_mood * len(MoodLabel)
    vocab = _word_types(np.random.default_rng(_LEXICON_SEED), shape.types + n_keywords)
    rng = np.random.default_rng(seed)
    fillers, keywords = vocab[: shape.types], vocab[shape.types :]
    pools = {
        mood: keywords[i * shape.keywords_per_mood : (i + 1) * shape.keywords_per_mood]
        for i, mood in enumerate(MoodLabel)
    }
    weights = 1.0 / np.arange(1, shape.types + 1) ** shape.exponent
    weights /= weights.sum()

    records = []
    for index in range(shape.songs):
        mood = MoodLabel(index % len(MoodLabel))
        n = shape.words_per_song
        ranks = rng.choice(shape.types, size=n, p=weights)
        is_keyword = rng.random(n) < shape.keyword_share
        picks = rng.integers(0, shape.keywords_per_mood, size=n)
        words = [
            pools[mood][p] if kw else fillers[r]
            for r, kw, p in zip(ranks, is_keyword, picks)
        ]
        lines = [
            " ".join(words[i : i + shape.words_per_line]) + "।"
            for i in range(0, n, shape.words_per_line)
        ]
        records.append(
            SongRecord(
                title=f"zipf song {index + 1}",
                category=_CATEGORIES[int(rng.integers(0, len(_CATEGORIES)))],
                lyrics="\n".join(lines),
                mood=mood,
            )
        )
    return Corpus(tuple(records), f"zipf(seed={seed})")


def describe(corpus: Corpus, shape: ZipfShape) -> dict:
    """Shape as generated plus what the corpus actually contains."""
    observed = {w for rec in corpus for w in rec.lyrics.replace("।", " ").split()}
    return {
        "songs": len(corpus),
        "words_per_song": shape.words_per_song,
        "type_inventory": shape.types,
        "types_observed": len(observed),
        "zipf_exponent": shape.exponent,
        "keyword_share": shape.keyword_share,
        "keywords_per_mood": shape.keywords_per_mood,
    }
