"""Lyrics corpus handling: CSV load/save, text cleaning, stratified splits,
and a synthetic corpus generator.

The on-disk format is UTF-8 CSV with the exact header
``title,category,lyrics,mood`` and RFC-4180 quoting, so lyrics may contain
commas and newlines. Mood labels are matched case-insensitively. Rows whose
lyrics are empty after cleaning or whose mood does not parse are dropped and
counted in a :class:`DropReport`.

Each :class:`SongRecord` cleans its lyrics once: ``record.cleaned`` is
``clean_text(record.lyrics)``, computed on first use and kept on the record.
It is not a dataclass field, so it takes no part in equality or hashing.
``load_corpus`` fills it while testing for empty lyrics, and every stage that
works on a record's words (Naive Bayes, WordPiece training and encoding, the
lexical statistics) reads it instead of cleaning the lyrics again.
"""

from __future__ import annotations

import enum
import csv
import functools
import io
import math
import random
import unicodedata
from dataclasses import dataclass
from pathlib import Path

from ._atomic import read_input_text, write_csv
from .errors import CorpusError

CSV_HEADER = ["title", "category", "lyrics", "mood"]


class MoodLabel(enum.IntEnum):
    """The four mood classes with their fixed integer encoding."""

    HAPPY = 0
    SAD = 1
    ROMANTIC = 2
    RELAXED = 3

    @classmethod
    def parse(cls, text: str) -> "MoodLabel":
        """Parse a label case-insensitively; any other string is an error."""
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise CorpusError(f"unknown mood label: {text!r}") from None

    @property
    def display(self) -> str:
        return self.name.capitalize()


@dataclass(frozen=True)
class SongRecord:
    """One dataset row: title, free-form genre, lyrics text, mood label."""

    title: str
    category: str
    lyrics: str
    mood: MoodLabel

    @functools.cached_property
    def cleaned(self) -> str:
        """``clean_text(self.lyrics)``, computed once per record."""
        return clean_text(self.lyrics)


@dataclass(frozen=True)
class Corpus:
    """Ordered, immutable collection of song records."""

    records: tuple[SongRecord, ...]
    provenance: str

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index: int) -> SongRecord:
        return self.records[index]


@dataclass
class DropReport:
    """Counts of rows dropped while loading a corpus file."""

    empty_lyrics: int = 0
    bad_mood: int = 0
    malformed: int = 0

    @property
    def dropped(self) -> int:
        return self.empty_lyrics + self.bad_mood + self.malformed

    def lines(self) -> list[str]:
        return [
            f"dropped rows: {self.dropped}",
            f"  empty lyrics after cleaning: {self.empty_lyrics}",
            f"  unparseable mood label: {self.bad_mood}",
            f"  malformed row: {self.malformed}",
        ]


@dataclass(frozen=True)
class MoodDistribution:
    """Per-label counts and fractions over a corpus."""

    counts: dict[MoodLabel, int]
    fractions: dict[MoodLabel, float]


class _PunctToSpace(dict):
    """``str.translate`` table mapping each punctuation code point to a
    space and every other one to itself, filled one code point at a time."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        # Unicode category P* covers ASCII punctuation and the Bengali danda
        # characters U+0964 and U+0965.
        mapped = self[code] = " " if unicodedata.category(ch).startswith("P") else ch
        return mapped


_PUNCT_TO_SPACE = _PunctToSpace()


def clean_text(raw: str) -> str:
    """Normalize text: NFC composition, punctuation to spaces, whitespace
    runs collapsed, ends stripped. Idempotent; may return an empty string."""
    text = unicodedata.normalize("NFC", raw).translate(_PUNCT_TO_SPACE)
    return " ".join(text.split())


def _csv_rows(fh, path: Path):
    """The CSV reader's rows, with its parse errors raised as
    :class:`CorpusError` naming the file."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise CorpusError(f"{path}, line {reader.line_num}: {exc}") from None


def load_corpus(path: str | Path, *, data: bytes | None = None) -> tuple[Corpus, DropReport]:
    """Load a corpus CSV, dropping and counting invalid rows. ``data``, when
    given, is the file's bytes already read.

    Raises :class:`CorpusError` on a missing or unreadable file, bytes that
    are not UTF-8, a row the CSV reader rejects (such as a field over its
    size limit), a header that is not exactly ``title,category,lyrics,mood``,
    or zero surviving rows.
    """
    path = Path(path)
    text = read_input_text(path, "corpus file", CorpusError, data=data)
    records: list[SongRecord] = []
    report = DropReport()
    reader = _csv_rows(io.StringIO(text, newline=""), path)
    try:
        header = next(reader)
    except StopIteration:
        raise CorpusError(f"malformed header: {path} is empty") from None
    if header != CSV_HEADER:
        raise CorpusError(
            f"malformed header {','.join(header)!r}, expected "
            f"{','.join(CSV_HEADER)!r}"
        )
    for row in reader:
        if len(row) != len(CSV_HEADER):
            report.malformed += 1
            continue
        title, category, lyrics, mood_text = row
        try:
            mood = MoodLabel.parse(mood_text)
        except CorpusError:
            report.bad_mood += 1
            continue
        record = SongRecord(title, category, lyrics, mood)
        if not record.cleaned:
            report.empty_lyrics += 1
            continue
        records.append(record)
    if not records:
        raise CorpusError(f"zero surviving rows in {path}")
    return Corpus(tuple(records), str(path)), report


def save_corpus(corpus: Corpus, path: str | Path) -> Path:
    """Write a corpus back to CSV; load/save/load is identity on records."""
    rows = [[rec.title, rec.category, rec.lyrics, rec.mood.name.lower()] for rec in corpus]
    return write_csv(path, [CSV_HEADER, *rows])


def mood_distribution(corpus: Corpus) -> MoodDistribution:
    """Exact per-label counts and fractions. Errors on an empty corpus."""
    if len(corpus) == 0:
        raise CorpusError("cannot compute mood distribution of an empty corpus")
    counts = {label: 0 for label in MoodLabel}
    for rec in corpus:
        counts[rec.mood] += 1
    total = len(corpus)
    fractions = {label: counts[label] / total for label in MoodLabel}
    return MoodDistribution(counts=counts, fractions=fractions)


def stratified_split(
    corpus: Corpus, ratios: tuple[float, ...], seed: int
) -> tuple[Corpus, ...]:
    """Split into train/val/test preserving per-class proportions.

    Per-class allocation uses largest-remainder rounding with a running
    carry across classes, so overall split sizes match the ratios exactly
    whenever the arithmetic allows while per-class deviation stays within
    one record. Deterministic for a fixed seed; splits are disjoint and
    cover the corpus.
    """
    if any(r <= 0 for r in ratios):
        raise CorpusError(f"split ratios must be positive, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise CorpusError(f"split ratios must sum to 1, got {sum(ratios)}")
    n_splits = len(ratios)
    by_class: dict[MoodLabel, list[int]] = {}
    for i, rec in enumerate(corpus):
        by_class.setdefault(rec.mood, []).append(i)
    for label, members in by_class.items():
        if len(members) < n_splits:
            raise CorpusError(
                f"class {label.display} has {len(members)} members, "
                f"fewer than {n_splits} splits"
            )
    rng = random.Random(seed)
    split_indices: list[list[int]] = [[] for _ in range(n_splits)]
    carry = [0.0] * n_splits
    for label in sorted(by_class):
        members = list(by_class[label])
        rng.shuffle(members)
        exact = [len(members) * r for r in ratios]
        base = [math.floor(e) for e in exact]
        remainder = [e - b for e, b in zip(exact, base)]
        leftover = len(members) - sum(base)
        order = sorted(range(n_splits), key=lambda j: (-(remainder[j] + carry[j]), j))
        counts = list(base)
        for j in order[:leftover]:
            counts[j] += 1
        for j in range(n_splits):
            carry[j] += remainder[j] - (counts[j] - base[j])
        start = 0
        for j, count in enumerate(counts):
            split_indices[j].extend(members[start : start + count])
            start += count
    names = ("train", "val", "test")
    splits = []
    for j, indices in enumerate(split_indices):
        indices.sort()
        name = names[j] if j < len(names) else f"split{j}"
        splits.append(
            Corpus(
                tuple(corpus[i] for i in indices),
                f"{corpus.provenance}[{name}]",
            )
        )
    return tuple(splits)


# Keyword pools for the synthetic corpus. Each mood owns an exclusive pool so
# classes stay separable by a bag-of-words model; fillers are shared.
_MOOD_KEYWORDS: dict[MoodLabel, tuple[str, ...]] = {
    MoodLabel.HAPPY: ("খুশি", "আনন্দ", "হাসি", "উৎসব", "রঙিন", "সুখ"),
    MoodLabel.SAD: ("দুঃখ", "কান্না", "বিরহ", "অশ্রু", "ব্যথা", "হারানো"),
    MoodLabel.ROMANTIC: ("ভালোবাসা", "প্রেম", "হৃদয়", "প্রিয়া", "চুম্বন", "মায়া"),
    MoodLabel.RELAXED: ("শান্ত", "ঘুম", "নিরিবিলি", "বাতাস", "নদী", "ছায়া"),
}
_FILLER_WORDS = ("আমি", "তুমি", "আমার", "তোমার", "গান", "মন", "এই", "আকাশ", "রাত", "দিন")
_CATEGORIES = ("modern", "folk", "film", "classical", "")


def synthesize_corpus(seed: int, per_class: int) -> Corpus:
    """Generate ``per_class`` records per mood from mood-exclusive keyword
    pools plus shared fillers. Deterministic per seed."""
    if per_class < 1:
        raise CorpusError(f"per_class must be >= 1, got {per_class}")
    rng = random.Random(seed)
    records = []
    for index in range(per_class):
        for mood in MoodLabel:
            pool = _MOOD_KEYWORDS[mood]
            words = [rng.choice(pool) for _ in range(rng.randint(3, 5))]
            words += [rng.choice(_FILLER_WORDS) for _ in range(rng.randint(4, 8))]
            rng.shuffle(words)
            mid = max(1, len(words) // 2)
            lyrics = " ".join(words[:mid]) + "\n" + " ".join(words[mid:]) + "।"
            records.append(
                SongRecord(
                    title=f"{mood.display} song {index + 1}",
                    category=rng.choice(_CATEGORIES),
                    lyrics=lyrics,
                    mood=mood,
                )
            )
    return Corpus(tuple(records), f"synthetic(seed={seed})")
