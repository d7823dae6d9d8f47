import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moodlyrics import tokenizer as tokenizer_module
from moodlyrics.corpus import Corpus, MoodLabel, SongRecord
from moodlyrics.errors import TokenizerError
from moodlyrics.tokenizer import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    UNK_TOKEN,
    TokenizerConfig,
    Vocabulary,
    encode,
    encode_corpus,
    normalize_words,
    train_wordpiece,
    word_tokenize,
    wordpiece_segment,
)

from oracles import wordpiece_full_recount, wordpiece_segment_uncapped


def corpus_of(*texts):
    records = tuple(
        SongRecord(f"t{i}", "", text, MoodLabel.HAPPY) for i, text in enumerate(texts)
    )
    return Corpus(records, "test")


def small_vocab(*extra):
    return Vocabulary(SPECIAL_TOKENS + tuple(extra))


class TestWordTokenize:
    def test_bengali(self):
        assert word_tokenize("আমার সোনার বাংলা") == ["আমার", "সোনার", "বাংলা"]

    def test_empty(self):
        assert word_tokenize("") == []

    def test_duplicates_preserved(self):
        assert word_tokenize("la la la") == ["la", "la", "la"]


class TestConfig:
    def test_bounds(self):
        with pytest.raises(TokenizerError):
            TokenizerConfig(max_sequence_length=4)
        with pytest.raises(TokenizerError):
            TokenizerConfig(vocab_size=4)

    def test_lowercase_latin_only(self):
        config = TokenizerConfig()
        assert normalize_words("LA লা La", config) == ["la", "লা", "la"]
        config_cased = TokenizerConfig(lowercase=False)
        assert normalize_words("LA লা", config_cased) == ["LA", "লা"]


class TestTrainWordpiece:
    def test_two_word_corpus_contains_char_pieces(self):
        vocab = train_wordpiece(
            corpus_of("aa ab"), TokenizerConfig(vocab_size=16, max_sequence_length=8)
        )
        for piece in ("a", "##a", "##b"):
            assert piece in vocab
        for word in ("aa", "ab"):
            assert wordpiece_segment(word, vocab) != [UNK_TOKEN]

    def test_zero_unk_on_training_corpus(self, synth32, vocab32, tok_config):
        for rec in synth32:
            for word in normalize_words(rec.lyrics, tok_config):
                assert UNK_TOKEN not in wordpiece_segment(word, vocab32)

    def test_budget_too_small_for_characters(self):
        corpus = corpus_of("abcdefghij")
        with pytest.raises(TokenizerError, match="cannot hold"):
            train_wordpiece(corpus, TokenizerConfig(vocab_size=8, max_sequence_length=8))

    def test_vocab_capped_at_budget(self, synth32):
        config = TokenizerConfig(vocab_size=80, max_sequence_length=8)
        vocab = train_wordpiece(synth32, config)
        assert len(vocab) <= 80

    def test_deterministic_vocabulary_bytes(self, synth32, tok_config, tmp_path):
        a = train_wordpiece(synth32, tok_config).save(tmp_path / "a.txt")
        b = train_wordpiece(synth32, tok_config).save(tmp_path / "b.txt")
        assert a.read_bytes() == b.read_bytes()

    def test_merges_compress_frequent_words(self, synth32, vocab32, tok_config):
        # frequent corpus words should segment into few pieces, not characters
        lengths = []
        for rec in synth32:
            for word in normalize_words(rec.lyrics, tok_config):
                lengths.append(len(wordpiece_segment(word, vocab32)))
        assert sum(lengths) / len(lengths) < 2.0


def tokens_or_error(fn):
    try:
        return fn()
    except TokenizerError as exc:
        return ("TokenizerError", str(exc))


@st.composite
def small_alphabet_corpora(draw):
    """Songs over 1 to 3 letters, so that equal pair counts are common."""
    letters = draw(st.lists(st.sampled_from("abcকখ"), min_size=1, max_size=3, unique=True))
    word = st.text(alphabet=letters, min_size=1, max_size=8)
    songs = draw(st.lists(st.lists(word, max_size=12).map(" ".join), max_size=5))
    return corpus_of(*songs)


class TestTrainerMatchesFullRecount:
    """The incremental trainer against the oracle that recounts every pair
    on every merge: same tokens, or the same error."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(corpus=small_alphabet_corpora(), vocab_size=st.integers(8, 200))
    def test_random_small_alphabet_corpora(self, corpus, vocab_size):
        config = TokenizerConfig(vocab_size=vocab_size, max_sequence_length=8)
        assert tokens_or_error(
            lambda: train_wordpiece(corpus, config).tokens
        ) == tokens_or_error(lambda: wordpiece_full_recount(corpus, config))

    @pytest.mark.parametrize("text", ["ab ab cd cd", "cd cd ab ab"])
    def test_tie_goes_to_smallest_pair(self, text):
        # (a, ##b) and (c, ##d) both occur twice; one merge fits the budget
        config = TokenizerConfig(vocab_size=9, max_sequence_length=8)
        tokens = train_wordpiece(corpus_of(text), config).tokens
        assert tokens[-1] == "ab"
        assert tokens == wordpiece_full_recount(corpus_of(text), config)

    def test_stops_below_count_two(self):
        config = TokenizerConfig(vocab_size=100, max_sequence_length=8)
        once = train_wordpiece(corpus_of("ab cd"), config).tokens
        assert once == SPECIAL_TOKENS + ("##b", "##d", "a", "c")
        twice = train_wordpiece(corpus_of("ab cd ab"), config).tokens
        assert twice == once + ("ab",)
        for text in ("ab cd", "ab cd ab"):
            assert train_wordpiece(corpus_of(text), config).tokens == (
                wordpiece_full_recount(corpus_of(text), config)
            )

    def test_overlapping_pairs_count(self):
        # "aaaa" is a ##a ##a ##a: it holds (##a, ##a) twice, so one word
        # is enough to merge it
        config = TokenizerConfig(vocab_size=100, max_sequence_length=8)
        tokens = train_wordpiece(corpus_of("aaaa"), config).tokens
        assert tokens == SPECIAL_TOKENS + ("##a", "a", "##aa")

    def test_merge_product_already_a_token_adds_nothing(self, monkeypatch):
        # No corpus searched makes two merges with one product, so force it:
        # merging (c, ##d) also yields "ab". That round adds no token, and
        # training goes on to (e, ##f).
        real = tokenizer_module._merge_symbols
        monkeypatch.setattr(
            tokenizer_module,
            "_merge_symbols",
            lambda left, right: "ab" if left == "c" else real(left, right),
        )
        config = TokenizerConfig(vocab_size=100, max_sequence_length=8)
        tokens = train_wordpiece(corpus_of("ab ab ab cd cd ef ef"), config).tokens
        assert tokens == SPECIAL_TOKENS + ("##b", "##d", "##f", "a", "c", "e", "ab", "ef")


class TestVocabulary:
    def test_specials_pinned(self):
        vocab = small_vocab("x")
        assert vocab.id_of["[PAD]"] == PAD_ID == 0
        assert vocab.id_of["[UNK]"] == UNK_ID == 1
        assert vocab.id_of["[CLS]"] == CLS_ID == 2
        assert vocab.id_of["[SEP]"] == SEP_ID == 3

    def test_rejects_bad_specials(self):
        with pytest.raises(TokenizerError):
            Vocabulary(("[PAD]", "[CLS]", "[UNK]", "[SEP]"))

    def test_rejects_duplicates(self):
        with pytest.raises(TokenizerError):
            Vocabulary(SPECIAL_TOKENS + ("x", "x"))

    def test_file_round_trip_and_hash(self, vocab32, tmp_path):
        path = vocab32.save(tmp_path / "vocab.txt")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[:4] == list(SPECIAL_TOKENS)
        reloaded = Vocabulary.load(path)
        assert reloaded.tokens == vocab32.tokens
        assert reloaded.sha256() == vocab32.sha256()


class TestSegment:
    def test_greedy_two_pieces(self):
        assert wordpiece_segment("ab", small_vocab("a", "##b")) == ["a", "##b"]

    def test_identity_piece(self):
        assert wordpiece_segment("a", small_vocab("a")) == ["a"]

    def test_unknown_char_maps_to_unk(self):
        assert wordpiece_segment("q", small_vocab("a")) == [UNK_TOKEN]

    def test_longest_match_wins(self):
        vocab = small_vocab("ab", "a", "##b", "##c")
        assert wordpiece_segment("abc", vocab) == ["ab", "##c"]

    def test_rejects_empty_or_spaced(self):
        with pytest.raises(TokenizerError):
            wordpiece_segment("", small_vocab("a"))
        with pytest.raises(TokenizerError):
            wordpiece_segment("a b", small_vocab("a"))

    def test_longest_is_the_longest_token(self):
        assert small_vocab("a", "##bcdefg").longest == len("##bcdefg")

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(
        pieces=st.lists(st.text(alphabet="ab#", min_size=1, max_size=7), max_size=12),
        word=st.text(alphabet="ab# ", max_size=12),
    )
    def test_capped_equals_uncapped_oracle(self, pieces, word):
        vocab = Vocabulary(SPECIAL_TOKENS + tuple(dict.fromkeys(pieces)))
        assert tokens_or_error(lambda: wordpiece_segment(word, vocab)) == tokens_or_error(
            lambda: wordpiece_segment_uncapped(word, vocab)
        )

    def test_round_trip_reassembly(self, synth32, vocab32, tok_config):
        for rec in synth32:
            for word in normalize_words(rec.lyrics, tok_config):
                pieces = wordpiece_segment(word, vocab32)
                if UNK_TOKEN in pieces:
                    continue
                rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
                assert rebuilt == word


class TestEncode:
    def test_truncation_to_max_with_terminal_sep(self):
        vocab = small_vocab("a")
        config = TokenizerConfig(max_sequence_length=512, vocab_size=8)
        example = encode("a " * 600, vocab, config)
        assert len(example.ids) == 512
        assert example.ids[0] == CLS_ID
        assert all(example.ids[i] == vocab.id_of["a"] for i in range(1, 511))
        assert example.ids[511] == SEP_ID
        assert example.mask.sum() == 512

    def test_empty_text(self):
        vocab = small_vocab("a")
        config = TokenizerConfig(max_sequence_length=8, vocab_size=8)
        example = encode("", vocab, config)
        assert list(example.ids[:2]) == [CLS_ID, SEP_ID]
        assert example.mask.sum() == 2

    def test_single_token(self):
        vocab = small_vocab("a")
        config = TokenizerConfig(max_sequence_length=8, vocab_size=8)
        example = encode("a", vocab, config)
        assert list(example.ids) == [CLS_ID, vocab.id_of["a"], SEP_ID] + [PAD_ID] * 5
        assert list(example.mask) == [1, 1, 1, 0, 0, 0, 0, 0]

    def test_label_carried(self, synth32, vocab32, tok_config):
        examples = encode_corpus(synth32, vocab32, tok_config)
        assert [ex.label for ex in examples] == [rec.mood for rec in synth32]

    def test_invariants_on_random_texts(self, vocab32, tok_config):
        rng = random.Random(7)
        pieces_pool = [t for t in vocab32.tokens[4:] if not t.startswith("##")]
        for _ in range(300):
            words = [rng.choice(pieces_pool) for _ in range(rng.randint(0, 60))]
            text = " ".join(words)
            example = encode(text, vocab32, tok_config)
            ids, mask = example.ids, example.mask
            assert ids[0] == CLS_ID
            non_pad = np.nonzero(ids != PAD_ID)[0]
            assert ids[non_pad[-1]] == SEP_ID
            assert np.array_equal(mask, (ids != PAD_ID).astype(mask.dtype))
            n_pieces = sum(
                len(wordpiece_segment(w, vocab32)) for w in words
            )
            limit = tok_config.max_sequence_length - 2
            assert mask.sum() == 2 + min(n_pieces, limit)
