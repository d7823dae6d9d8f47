"""Word tokenization, WordPiece vocabulary training, and fixed-length
sequence encoding.

The vocabulary is learned from the corpus with frequency-greedy pair
merging (BPE-style) over character pieces, emitting WordPiece-marked
entries: a word-initial piece is a plain string, continuations carry the
``##`` marker. Training keeps its pair counts across merges and rewrites
only the words that hold the merged pair; the merge chosen each round (the
most frequent pair, ties to the smallest, none below a count of 2) is the
one a full recount would choose. Segmentation at encode time is greedy
longest-prefix matching, so any word whose characters were all seen in
training segments without UNK. No piece longer than the vocabulary's
longest token is tried: the bounded form of MaxMatch (Fast WordPiece, Song
et al. 2021, arXiv:2012.15524, goes further with a trie).

Vocabulary file format: UTF-8 text, one token per line, line number = id;
the first four lines are exactly ``[PAD] [UNK] [CLS] [SEP]``.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._atomic import read_input_text, write_atomic
from .corpus import Corpus, MoodLabel, clean_text
from .errors import TokenizerError

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN)
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3

CONTINUATION = "##"


@dataclass(frozen=True)
class TokenizerConfig:
    max_sequence_length: int = 512
    vocab_size: int = 8000
    lowercase: bool = True

    def __post_init__(self):
        if self.max_sequence_length < 8:
            raise TokenizerError(
                f"max_sequence_length must be >= 8, got {self.max_sequence_length}"
            )
        if self.vocab_size < 8:
            raise TokenizerError(f"vocab_size must be >= 8, got {self.vocab_size}")


class Vocabulary:
    """WordPiece token inventory with dense ids and fixed special tokens."""

    def __init__(self, tokens: tuple[str, ...]):
        if tuple(tokens[:4]) != SPECIAL_TOKENS:
            raise TokenizerError(
                f"vocabulary must start with {' '.join(SPECIAL_TOKENS)}"
            )
        if len(set(tokens)) != len(tokens):
            raise TokenizerError("vocabulary contains duplicate tokens")
        self.tokens = tuple(tokens)
        self.id_of = {tok: i for i, tok in enumerate(self.tokens)}
        # no piece tried at segmentation can match beyond this many characters
        self.longest = max(map(len, self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.id_of

    def _serialized(self) -> bytes:
        return ("\n".join(self.tokens) + "\n").encode("utf-8")

    def save(self, path: str | Path) -> Path:
        return write_atomic(path, [self._serialized()])

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        text = read_input_text(path, "vocabulary file", TokenizerError)
        return cls(tuple(text.splitlines()))

    def sha256(self) -> str:
        """Hash of the serialized token list; identifies the vocabulary."""
        return hashlib.sha256(self._serialized()).hexdigest()


@dataclass(frozen=True)
class EncodedExample:
    """Fixed-length id sequence with attention mask and optional label."""

    ids: np.ndarray
    mask: np.ndarray
    label: MoodLabel | None = None


def word_tokenize(text: str) -> list[str]:
    """Split cleaned text on whitespace; duplicates preserved."""
    return text.split()


def normalize_words(text: str, config: TokenizerConfig) -> list[str]:
    """Clean raw text and split to words, lowercasing if configured."""
    return _cleaned_words(clean_text(text), config)


def _cleaned_words(cleaned: str, config: TokenizerConfig) -> list[str]:
    """Split already cleaned text to words, lowercasing if configured.

    Lowercasing only affects cased scripts (Latin here); Bengali has no
    case so it passes through unchanged.
    """
    if config.lowercase:
        cleaned = cleaned.lower()
    return word_tokenize(cleaned)


def _word_symbols(word: str) -> list[str]:
    return [word[0]] + [CONTINUATION + ch for ch in word[1:]]


def _merge_symbols(left: str, right: str) -> str:
    return left + right[len(CONTINUATION):]


def _merge_pair(syms: list[str], pair: tuple[str, str], merged: str) -> list[str]:
    """Replace each occurrence of ``pair`` in ``syms``, scanning left to
    right without overlaps."""
    left, right = pair
    out = []
    i = 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def _pop_best(heap: list, pair_counts: dict) -> tuple[tuple[str, str], int] | None:
    """Pop the most frequent live pair, ties to the smallest pair; ``None``
    once no pair is left. Entries whose count is not the live count are
    stale and dropped."""
    while heap:
        neg_count, pair = heapq.heappop(heap)
        if pair_counts.get(pair) == -neg_count:
            return pair, -neg_count
    return None


def train_wordpiece(corpus: Corpus, config: TokenizerConfig) -> Vocabulary:
    """Learn a subword vocabulary of at most ``config.vocab_size`` entries.

    Starts from all character pieces observed in the corpus (word-initial
    and ``##``-marked continuations), then repeatedly merges the most
    frequent adjacent pair until the budget is reached or no pair occurs at
    least twice. Deterministic: ties break on the lexicographically
    smallest pair. Overlapping occurrences count (``##a ##a ##a`` holds two
    ``(##a, ##a)``), and a merge rewrites each word left to right without
    overlaps. A merge whose product is already a token uses up a round but
    adds nothing.

    Pair counts are kept across merges (the incremental statistics of
    Sennrich et al. 2016, arXiv:1508.07909): a pair -> word index names the
    words holding each pair, a merge rewrites only those words and moves the
    counts of the pairs they lose and gain, and a heap of ``(-count, pair)``
    with stale entries skipped yields the next merge.
    """
    if len(corpus) == 0:
        raise TokenizerError("cannot train a vocabulary on an empty corpus")
    word_freq: Counter[str] = Counter()
    for rec in corpus:
        word_freq.update(_cleaned_words(rec.cleaned, config))
    if not word_freq:
        raise TokenizerError("corpus has no words after cleaning")

    words = [_word_symbols(w) for w in word_freq]
    freqs = list(word_freq.values())
    base = sorted({sym for syms in words for sym in syms})
    if len(SPECIAL_TOKENS) + len(base) > config.vocab_size:
        raise TokenizerError(
            f"vocab_size {config.vocab_size} cannot hold {len(SPECIAL_TOKENS)} "
            f"special tokens plus {len(base)} character pieces"
        )
    tokens = list(SPECIAL_TOKENS) + base
    seen = set(tokens)

    pair_counts: Counter[tuple[str, str]] = Counter()
    # may name words that have since lost the pair; rewriting those is a no-op
    where: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for i, syms in enumerate(words):
        for pair in zip(syms, syms[1:]):
            pair_counts[pair] += freqs[i]
            where[pair].add(i)
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)

    while len(tokens) < config.vocab_size:
        popped = _pop_best(heap, pair_counts)
        if popped is None or popped[1] < 2:
            break
        best = popped[0]
        merged = _merge_symbols(*best)
        delta: Counter[tuple[str, str]] = Counter()
        for i in where.pop(best):
            old = words[i]
            new = _merge_pair(old, best, merged)
            if len(new) == len(old):
                continue
            words[i] = new
            for pair in zip(old, old[1:]):
                delta[pair] -= freqs[i]
            for pair in zip(new, new[1:]):
                delta[pair] += freqs[i]
                where[pair].add(i)
        for pair, change in delta.items():
            if change == 0:
                continue
            count = pair_counts[pair] + change
            if count:
                pair_counts[pair] = count
                heapq.heappush(heap, (-count, pair))
            else:
                del pair_counts[pair]
                where.pop(pair, None)
        if merged not in seen:
            tokens.append(merged)
            seen.add(merged)
    return Vocabulary(tuple(tokens))


def wordpiece_segment(word: str, vocab: Vocabulary) -> list[str]:
    """Greedy longest-prefix segmentation; a word with any unmatchable
    position maps to ``[UNK]`` as a whole. Pieces are tried longest first,
    none longer than the vocabulary's longest token."""
    if word.split() != [word]:
        raise TokenizerError(f"segmentation needs a nonempty whitespace-free word, got {word!r}")
    known = vocab.id_of
    pieces = []
    start = 0
    while start < len(word):
        end = min(len(word), start + vocab.longest)
        match = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = CONTINUATION + piece
            if piece in known:
                match = piece
                break
            end -= 1
        if match is None:
            return [UNK_TOKEN]
        pieces.append(match)
        start = end
    return pieces


def encode(
    text: str,
    vocab: Vocabulary,
    config: TokenizerConfig,
    label: MoodLabel | None = None,
    *,
    segments: dict[str, list[str]] | None = None,
    cleaned: str | None = None,
) -> EncodedExample:
    """Encode raw text to a fixed-length id sequence.

    Pipeline: clean, word-tokenize, WordPiece-segment each word, truncate
    the piece list to ``max_sequence_length - 2`` keeping the head, wrap in
    [CLS]/[SEP], pad with [PAD]. The mask marks non-pad positions.

    ``segments`` memoises word -> pieces; calls that share one dict (and
    one vocabulary) segment each distinct word once. ``cleaned``, when
    given, is ``clean_text(text)`` already computed (a record's
    ``cleaned``), and ``text`` is not cleaned again.
    """
    if segments is None:
        segments = {}
    if cleaned is None:
        cleaned = clean_text(text)
    pieces = []
    for w in _cleaned_words(cleaned, config):
        word_pieces = segments.get(w)
        if word_pieces is None:
            word_pieces = segments[w] = wordpiece_segment(w, vocab)
        pieces += word_pieces
    max_len = config.max_sequence_length
    pieces = pieces[: max_len - 2]
    ids = np.full(max_len, PAD_ID, dtype=np.int32)
    ids[0] = CLS_ID
    ids[1 : len(pieces) + 1] = [vocab.id_of[piece] for piece in pieces]
    ids[len(pieces) + 1] = SEP_ID
    mask = np.zeros(max_len, dtype=np.int32)
    mask[: len(pieces) + 2] = 1
    return EncodedExample(ids=ids, mask=mask, label=label)


def encode_corpus(
    corpus: Corpus, vocab: Vocabulary, config: TokenizerConfig
) -> list[EncodedExample]:
    """Encode every record's cleaned lyrics, carrying the mood label along.
    The records share one segmentation memo, which lives only for this
    call."""
    segments: dict[str, list[str]] = {}
    return [
        encode(rec.lyrics, vocab, config, label=rec.mood, segments=segments,
               cleaned=rec.cleaned)
        for rec in corpus
    ]
