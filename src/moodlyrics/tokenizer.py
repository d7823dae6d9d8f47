"""Word tokenization, WordPiece vocabulary training, and fixed-length
sequence encoding.

The vocabulary is learned from the corpus with frequency-greedy pair
merging (BPE-style) over character pieces, emitting WordPiece-marked
entries: a word-initial piece is a plain string, continuations carry the
``##`` marker. Segmentation at encode time is greedy longest-prefix
matching, so any word whose characters were all seen in training segments
without UNK.

Vocabulary file format: UTF-8 text, one token per line, line number = id;
the first four lines are exactly ``[PAD] [UNK] [CLS] [SEP]``.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._atomic import write_atomic
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
        path = Path(path)
        if not path.is_file():
            raise TokenizerError(f"vocabulary file not found: {path}")
        lines = path.read_text(encoding="utf-8").splitlines()
        return cls(tuple(lines))

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
    """Clean raw text and split to words, lowercasing if configured.

    Lowercasing only affects cased scripts (Latin here); Bengali has no
    case so it passes through unchanged.
    """
    cleaned = clean_text(text)
    if config.lowercase:
        cleaned = cleaned.lower()
    return word_tokenize(cleaned)


def _word_symbols(word: str) -> list[str]:
    return [word[0]] + [CONTINUATION + ch for ch in word[1:]]


def _merge_symbols(left: str, right: str) -> str:
    return left + right[len(CONTINUATION):]


def train_wordpiece(corpus: Corpus, config: TokenizerConfig) -> Vocabulary:
    """Learn a subword vocabulary of at most ``config.vocab_size`` entries.

    Starts from all character pieces observed in the corpus (word-initial
    and ``##``-marked continuations), then repeatedly merges the most
    frequent adjacent pair until the budget is reached or no pair occurs at
    least twice. Deterministic: ties break on the lexicographically
    smallest pair.
    """
    if len(corpus) == 0:
        raise TokenizerError("cannot train a vocabulary on an empty corpus")
    word_freq: Counter[str] = Counter()
    for rec in corpus:
        word_freq.update(normalize_words(rec.lyrics, config))
    if not word_freq:
        raise TokenizerError("corpus has no words after cleaning")

    words = {w: _word_symbols(w) for w in word_freq}
    base = sorted({sym for syms in words.values() for sym in syms})
    if len(SPECIAL_TOKENS) + len(base) > config.vocab_size:
        raise TokenizerError(
            f"vocab_size {config.vocab_size} cannot hold {len(SPECIAL_TOKENS)} "
            f"special tokens plus {len(base)} character pieces"
        )
    tokens = list(SPECIAL_TOKENS) + base
    seen = set(tokens)

    while len(tokens) < config.vocab_size:
        pair_counts: Counter[tuple[str, str]] = Counter()
        for word, syms in words.items():
            freq = word_freq[word]
            for a, b in zip(syms, syms[1:]):
                pair_counts[(a, b)] += freq
        if not pair_counts:
            break
        best_pair, best_count = min(
            pair_counts.items(), key=lambda item: (-item[1], item[0])
        )
        if best_count < 2:
            break
        merged = _merge_symbols(*best_pair)
        for word, syms in words.items():
            out = []
            i = 0
            while i < len(syms):
                if (
                    i + 1 < len(syms)
                    and syms[i] == best_pair[0]
                    and syms[i + 1] == best_pair[1]
                ):
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[word] = out
        if merged not in seen:
            tokens.append(merged)
            seen.add(merged)
    return Vocabulary(tuple(tokens))


def wordpiece_segment(word: str, vocab: Vocabulary) -> list[str]:
    """Greedy longest-prefix segmentation; a word with any unmatchable
    position maps to ``[UNK]`` as a whole."""
    if not word or any(ch.isspace() for ch in word):
        raise TokenizerError(f"segmentation needs a nonempty whitespace-free word, got {word!r}")
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        match = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = CONTINUATION + piece
            if piece in vocab:
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
) -> EncodedExample:
    """Encode raw text to a fixed-length id sequence.

    Pipeline: clean, word-tokenize, WordPiece-segment each word, truncate
    the piece list to ``max_sequence_length - 2`` keeping the head, wrap in
    [CLS]/[SEP], pad with [PAD]. The mask marks non-pad positions.
    """
    pieces = [
        piece
        for w in normalize_words(text, config)
        for piece in wordpiece_segment(w, vocab)
    ]
    max_len = config.max_sequence_length
    pieces = pieces[: max_len - 2]
    ids = np.full(max_len, PAD_ID, dtype=np.int32)
    ids[0] = CLS_ID
    for i, piece in enumerate(pieces, start=1):
        ids[i] = vocab.id_of[piece]
    ids[len(pieces) + 1] = SEP_ID
    mask = np.zeros(max_len, dtype=np.int32)
    mask[: len(pieces) + 2] = 1
    return EncodedExample(ids=ids, mask=mask, label=label)


def encode_corpus(
    corpus: Corpus, vocab: Vocabulary, config: TokenizerConfig
) -> list[EncodedExample]:
    """Encode every record's lyrics, carrying the mood label along."""
    return [encode(rec.lyrics, vocab, config, label=rec.mood) for rec in corpus]
