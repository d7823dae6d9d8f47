import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moodlyrics
from moodlyrics.corpus import (
    Corpus,
    MoodLabel,
    SongRecord,
    clean_text,
    load_corpus,
    mood_distribution,
    save_corpus,
    stratified_split,
    synthesize_corpus,
)
from moodlyrics.errors import CorpusError

from oracles import clean_text_by_category, write_counts_csv


def make_corpus(moods, lyrics="la la la"):
    records = tuple(
        SongRecord(f"t{i}", "cat", lyrics, mood) for i, mood in enumerate(moods)
    )
    return Corpus(records, "test")


class TestMoodLabel:
    def test_fixed_encoding(self):
        assert [int(m) for m in MoodLabel] == [0, 1, 2, 3]
        assert MoodLabel.HAPPY == 0 and MoodLabel.RELAXED == 3

    def test_parse_case_insensitive(self):
        assert MoodLabel.parse("Sad") is MoodLabel.SAD
        assert MoodLabel.parse(" ROMANTIC ") is MoodLabel.ROMANTIC

    def test_parse_rejects_unknown(self):
        with pytest.raises(CorpusError):
            MoodLabel.parse("angry")


class TestCleanText:
    def test_bengali_danda_removed(self):
        assert clean_text("আমার  সোনার বাংলা।") == "আমার সোনার বাংলা"

    def test_empty(self):
        assert clean_text("") == ""

    def test_ascii_punctuation(self):
        assert clean_text("a,b!!c") == "a b c"

    def test_double_danda_and_newlines(self):
        assert clean_text("এক॥\nদুই\t তিন ") == "এক দুই তিন"

    def test_idempotent_on_random_strings(self):
        rng = random.Random(0)
        alphabet = "abচছ।॥,.!?  \n\tλ—é"
        for _ in range(200):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
            once = clean_text(raw)
            assert clean_text(once) == once

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(
        raw=st.text(
            alphabet=st.one_of(
                st.sampled_from("abcXYZé ,.!?'\"-()[]#\n\t"),
                st.characters(min_codepoint=0x0980, max_codepoint=0x09FF),  # Bengali
                st.characters(min_codepoint=0x0300, max_codepoint=0x036F),  # combining
                # danda, double danda, ZWNJ, ZWJ, NBSP, Ogham space mark,
                # line separator, ideographic space
                st.sampled_from("\u0964\u0965\u200c\u200d\u00a0\u1680\u2028\u3000"),
            ),
            max_size=40,
        )
    )
    def test_equals_per_character_oracle_and_is_idempotent(self, raw):
        once = clean_text(raw)
        assert once == clean_text_by_category(raw)
        assert clean_text(once) == once


class TestCleanedRecord:
    def test_cleaned_is_the_cleaned_lyrics(self):
        rec = SongRecord("t", "c", "এক।  দুই॥ তিন", MoodLabel.SAD)
        assert rec.cleaned == clean_text(rec.lyrics) == "এক দুই তিন"

    def test_cached_cleaned_leaves_equality_and_hash_alone(self):
        cached = SongRecord("t", "c", "এক। দুই", MoodLabel.SAD)
        assert cached.cleaned == "এক দুই"
        fresh = SongRecord("t", "c", "এক। দুই", MoodLabel.SAD)
        assert "cleaned" in vars(cached) and "cleaned" not in vars(fresh)
        assert cached == fresh and hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh)

    def test_load_keeps_the_cleaned_text(self, tmp_path):
        generated = synthesize_corpus(seed=3, per_class=2)
        loaded, _ = load_corpus(save_corpus(generated, tmp_path / "c.csv"))
        assert all("cleaned" in vars(rec) for rec in loaded)
        assert loaded.records == generated.records


def _recleaned_lyrics(tree: ast.AST):
    """Line numbers of calls that clean a ``.lyrics`` attribute again:
    ``clean_text`` on it, or ``encode``/``nb_predict`` on it without the
    record's ``cleaned`` text."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        args = node.args + [kw.value for kw in node.keywords]
        if not any(isinstance(arg, ast.Attribute) and arg.attr == "lyrics" for arg in args):
            continue
        if name == "clean_text" or (
            name in ("encode", "nb_predict")
            and not any(kw.arg == "cleaned" for kw in node.keywords)
        ):
            yield node.lineno


def test_no_module_cleans_record_lyrics_again():
    package = Path(moodlyrics.__file__).parent
    offenders = [
        f"{source.name}:{line}"
        for source in sorted(package.glob("*.py"))
        if source.name != "corpus.py"
        for line in _recleaned_lyrics(ast.parse(source.read_text(encoding="utf-8")))
    ]
    assert offenders == [], "read the record's cleaned text instead"


@pytest.mark.parametrize(
    "code, hits",
    [
        ("clean_text(rec.lyrics)", 1),
        ("corpus.clean_text(raw=song.lyrics)", 1),
        ("encode(rec.lyrics, vocab, config)", 1),
        ("baseline.nb_predict(model, rec.lyrics)", 1),
        ("encode(rec.lyrics, v, c, cleaned=rec.cleaned); clean_text(lyrics)", 0),
        ("nb_predict(m, rec.lyrics, cleaned=rec.cleaned); SongRecord(t, c, rec.lyrics, m)", 0),
    ],
)
def test_reclean_guard_finds_calls(code, hits):
    assert len(list(_recleaned_lyrics(ast.parse(code)))) == hits


class TestLoadCorpus:
    def test_paper_counts_load_to_4000(self, tmp_path):
        path = write_counts_csv(
            tmp_path / "paper.csv",
            {"sad": 1513, "romantic": 1362, "happy": 886, "relaxed": 239},
        )
        corpus, report = load_corpus(path)
        assert len(corpus) == 4000
        assert report.dropped == 0

    def test_header_only_is_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("title,category,lyrics,mood\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="zero surviving rows"):
            load_corpus(path)

    def test_empty_lyrics_row_dropped_and_counted(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "title,category,lyrics,mood\n"
            "a,x,la la,happy\n"
            "b,x,,sad\n"
            "c,x,di di,relaxed\n",
            encoding="utf-8",
        )
        corpus, report = load_corpus(path)
        assert len(corpus) == 2
        assert report.empty_lyrics == 1
        assert report.dropped == 1

    def test_punctuation_only_lyrics_dropped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "title,category,lyrics,mood\na,x,।।!!,happy\nb,x,ok,sad\n",
            encoding="utf-8",
        )
        corpus, report = load_corpus(path)
        assert len(corpus) == 1 and report.empty_lyrics == 1

    def test_bad_mood_dropped(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "title,category,lyrics,mood\na,x,la,angry\nb,x,la,happy\n",
            encoding="utf-8",
        )
        corpus, report = load_corpus(path)
        assert len(corpus) == 1 and report.bad_mood == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_corpus(tmp_path / "nope.csv")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("title,category,mood\na,x,happy\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="malformed header"):
            load_corpus(path)

    def test_reload_is_identity_and_order_stable(self, tmp_path):
        original = synthesize_corpus(seed=9, per_class=5)
        path = save_corpus(original, tmp_path / "round.csv")
        loaded, _ = load_corpus(path)
        assert loaded.records == original.records
        again, _ = load_corpus(path)
        assert again.records == loaded.records

    def test_multiline_quoted_lyrics_round_trip(self, tmp_path):
        rec = SongRecord("t", "c", 'line one, with comma\n"quoted" line', MoodLabel.SAD)
        path = save_corpus(Corpus((rec,), "x"), tmp_path / "q.csv")
        loaded, _ = load_corpus(path)
        assert loaded[0] == rec


class TestMoodDistribution:
    def test_one_of_each(self):
        dist = mood_distribution(make_corpus(list(MoodLabel)))
        assert all(f == 0.25 for f in dist.fractions.values())

    def test_all_sad(self):
        dist = mood_distribution(make_corpus([MoodLabel.SAD] * 10))
        assert dist.counts[MoodLabel.SAD] == 10
        assert dist.fractions[MoodLabel.SAD] == 1.0
        assert sum(dist.counts.values()) == 10

    def test_empty_corpus_is_error(self):
        with pytest.raises(CorpusError):
            mood_distribution(Corpus((), "empty"))

    def test_counts_sum_to_corpus_size(self):
        rng = random.Random(3)
        for _ in range(25):
            moods = [rng.choice(list(MoodLabel)) for _ in range(rng.randint(1, 60))]
            dist = mood_distribution(make_corpus(moods))
            assert sum(dist.counts.values()) == len(moods)
            assert abs(sum(dist.fractions.values()) - 1.0) < 1e-9


class TestStratifiedSplit:
    def test_80_10_10_on_balanced_100(self):
        corpus = make_corpus([m for m in MoodLabel for _ in range(25)])
        train, val, test = stratified_split(corpus, (0.8, 0.1, 0.1), seed=7)
        assert (len(train), len(val), len(test)) == (80, 10, 10)
        train_dist = mood_distribution(train)
        assert all(c == 20 for c in train_dist.counts.values())

    def test_deterministic_for_fixed_seed(self):
        corpus = synthesize_corpus(seed=2, per_class=10)
        first = stratified_split(corpus, (0.8, 0.1, 0.1), seed=7)
        second = stratified_split(corpus, (0.8, 0.1, 0.1), seed=7)
        for a, b in zip(first, second):
            assert a.records == b.records

    def test_too_small_class_is_error(self):
        moods = [m for m in MoodLabel for _ in range(5)][:-3]  # RELAXED gets 2
        corpus = make_corpus(moods)
        with pytest.raises(CorpusError, match="fewer than"):
            stratified_split(corpus, (0.8, 0.1, 0.1), seed=0)

    def test_bad_ratios(self):
        corpus = synthesize_corpus(seed=2, per_class=4)
        with pytest.raises(CorpusError):
            stratified_split(corpus, (0.5, 0.4, 0.2), seed=0)
        with pytest.raises(CorpusError):
            stratified_split(corpus, (0.9, -0.1, 0.2), seed=0)

    def test_partition_and_per_class_deviation(self):
        rng = random.Random(5)
        for trial in range(10):
            moods = [m for m in MoodLabel for _ in range(rng.randint(3, 40))]
            corpus = make_corpus(moods)
            ratios = (0.7, 0.2, 0.1)
            splits = stratified_split(corpus, ratios, seed=trial)
            merged = sorted(
                (rec for split in splits for rec in split.records),
                key=lambda r: r.title,
            )
            assert merged == sorted(corpus.records, key=lambda r: r.title)
            for label in MoodLabel:
                class_n = sum(1 for m in moods if m is label)
                for ratio, split in zip(ratios, splits):
                    got = sum(1 for rec in split if rec.mood is label)
                    assert abs(got - class_n * ratio) <= 1.0 + 1e-9


class TestSynthesizeCorpus:
    def test_counts(self):
        corpus = synthesize_corpus(seed=1, per_class=8)
        assert len(corpus) == 32
        dist = mood_distribution(corpus)
        assert all(c == 8 for c in dist.counts.values())

    def test_deterministic_bytes(self, tmp_path):
        a = save_corpus(synthesize_corpus(seed=1, per_class=8), tmp_path / "a.csv")
        b = save_corpus(synthesize_corpus(seed=1, per_class=8), tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_per_class_zero_is_error(self):
        with pytest.raises(CorpusError):
            synthesize_corpus(seed=1, per_class=0)

    def test_keyword_pools_are_disjoint_across_moods(self):
        corpus = synthesize_corpus(seed=4, per_class=6)
        words_by_mood = {m: set() for m in MoodLabel}
        for rec in corpus:
            words_by_mood[rec.mood].update(clean_text(rec.lyrics).split())
        shared = set.intersection(*words_by_mood.values())
        for mood, words in words_by_mood.items():
            exclusive = words - shared - set().union(
                *(w for m, w in words_by_mood.items() if m is not mood)
            )
            assert exclusive, f"no exclusive keywords for {mood.display}"
