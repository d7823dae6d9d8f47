import hashlib

import pytest

from moodlyrics.analytics import (
    density_curve,
    emit_plot,
    freq_dist,
    lexical_stats,
)
from moodlyrics.corpus import Corpus, MoodLabel, SongRecord
from moodlyrics.errors import AnalyticsError

from helpers import read_plot_csv


def song(lyrics, title="t"):
    return SongRecord(title, "", lyrics, MoodLabel.HAPPY)


def corpus_of(*lyrics):
    return Corpus(tuple(song(text, f"t{i}") for i, text in enumerate(lyrics)), "test")


class TestFreqDist:
    def test_counts(self):
        table = freq_dist(["la", "la", "di"])
        assert table.counts == {"la": 2, "di": 1}
        assert table.total == 3

    def test_empty(self):
        table = freq_dist([])
        assert table.counts == {} and table.total == 0

    def test_thousand_copies(self):
        table = freq_dist(["t"] * 1000)
        assert table.counts == {"t": 1000}

    def test_total_equals_input_length(self):
        import random

        rng = random.Random(1)
        for _ in range(20):
            tokens = [rng.choice("abcde") for _ in range(rng.randint(0, 50))]
            assert freq_dist(tokens).total == len(tokens)


class TestLexicalStats:
    def test_ttr_and_density_no_stopwords(self):
        stats = lexical_stats(song("a b a b"))
        assert stats.type_token_ratio == 0.5
        assert stats.lexical_density == 1.0

    def test_all_distinct(self):
        stats = lexical_stats(song("x y z"))
        assert stats.type_token_ratio == 1.0

    def test_stopwords_reduce_density(self):
        stats = lexical_stats(song("a the b"), stopwords=frozenset({"the"}))
        assert stats.lexical_density == pytest.approx(2 / 3)

    def test_empty_after_cleaning_is_error(self):
        with pytest.raises(AnalyticsError):
            lexical_stats(song("!!!"))

    def test_ttr_one_iff_all_distinct(self):
        assert lexical_stats(song("p q r s")).type_token_ratio == 1.0
        assert lexical_stats(song("p q p")).type_token_ratio < 1.0


class TestDensityCurve:
    def test_single_song_single_point(self):
        curve = density_curve(corpus_of("a b c"))
        assert len(curve) == 1

    def test_identical_songs_share_a_bin(self):
        curve = density_curve(corpus_of("a b c", "a b c"))
        assert len(curve) == 1
        assert curve[0][1] == 1.0

    def test_empty_corpus_is_error(self):
        with pytest.raises(AnalyticsError):
            density_curve(Corpus((), "x"))

    def test_bins_partition_points(self):
        texts = [" ".join(f"w{i}" for i in range(n)) for n in (3, 10, 30, 31, 60)]
        bin_width = 25
        curve = density_curve(corpus_of(*texts), bin_width=bin_width)
        starts = [b for b, _ in curve]
        assert starts == sorted(set(starts))
        for n in (3, 10, 30, 31, 60):
            containing = [b for b in starts if b <= n < b + bin_width]
            assert len(containing) == 1

    def test_given_stats_give_the_same_curve(self, synth32):
        stopwords = frozenset({"এই", "তুমি", "আমি"})
        stats = [lexical_stats(rec, stopwords) for rec in synth32]
        assert any(song.lexical_density < 1.0 for song in stats)
        for bin_width in (1, 2, 25):
            assert density_curve(synth32, bin_width, stats=stats) == density_curve(
                synth32, bin_width, stopwords
            )

    def test_sorted_by_bin(self, synth32):
        curve = density_curve(synth32, bin_width=2)
        assert [b for b, _ in curve] == sorted(b for b, _ in curve)


class TestEmitPlot:
    def test_bar_chart_four_bars(self, tmp_path):
        series = [(m, [(float(i), float(c))]) for i, (m, c) in enumerate(
            [("Happy", 886), ("Sad", 1513), ("Romantic", 1362), ("Relaxed", 239)]
        )]
        path = emit_plot(series, tmp_path / "dist.svg", "bar")
        svg = path.read_text(encoding="utf-8")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        reloaded = read_plot_csv(path.with_suffix(".csv"))
        assert len(reloaded) == 4
        assert sum(len(points) for _, points in reloaded) == 4

    def test_line_chart_point_count(self, tmp_path):
        points = [(float(e), e / 100.0) for e in range(1, 101)]
        series = [("train", points), ("validation", points)]
        path = emit_plot(series, tmp_path / "acc.svg", "line")
        reloaded = dict(read_plot_csv(path.with_suffix(".csv")))
        assert len(reloaded["train"]) == 100
        assert len(reloaded["validation"]) == 100

    def test_heatmap_sixteen_cells(self, tmp_path):
        series = [
            (f"row{r}", [(float(c), float(r * 4 + c)) for c in range(4)])
            for r in range(4)
        ]
        path = emit_plot(series, tmp_path / "cm.svg", "heatmap")
        svg = path.read_text(encoding="utf-8")
        assert svg.count("rgb(") == 16

    def test_sidecar_round_trips_exactly(self, tmp_path):
        points = [(0.1, 1 / 3), (2.000000001, 0.7), (5.0, 1e-17)]
        path = emit_plot([("s", points)], tmp_path / "p.svg", "line")
        (name, reloaded), = read_plot_csv(path.with_suffix(".csv"))
        assert reloaded == points

    def test_deterministic_bytes(self, tmp_path):
        series = [("s", [(1.0, 2.0), (3.0, 4.0)])]
        a = emit_plot(series, tmp_path / "a.svg", "line")
        b = emit_plot(series, tmp_path / "b.svg", "line")
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()

    def test_rejects_empty_and_unknown_kind(self, tmp_path):
        with pytest.raises(AnalyticsError):
            emit_plot([], tmp_path / "x.svg", "line")
        with pytest.raises(AnalyticsError):
            emit_plot([("s", [(1.0, 1.0)])], tmp_path / "x.svg", "pie")

    # SHA-256 of the SVG and of its sidecar CSV, recorded from the renderer
    # before line, bar and heatmap shared one document frame
    @pytest.mark.parametrize(
        "kind, series, svg_digest, csv_digest",
        [
            ("line",
             [("train", [(1.0, 0.25), (2.0, 0.5), (3.0, 0.625)]),
              ("validation", [(3.0, 0.7), (1.0, 0.3), (2.0, 0.45)])],
             "94c5b41d86a3762ca9937ac768ac15cd73b1ba68b491d439223efee0d2e68504",
             "d37749bfe49ce0a89bfd640752ea54c04fffb86b90468f5785a2cf239a5958db"),
            ("bar",
             [("Happy", [(0.0, 12.0)]), ("Sad", [(1.0, -3.5)]),
              ("Romantic", [(2.0, 7.25)]), ("Relaxed", [(3.0, 0.0)])],
             "72819a7fd3068af6053067e56ecfe55bb9b659fe60fde4a85a197ce469aeecc7",
             "9f6799ea069785f16db9ec565664c57d30f5baafcbccc269b1d237067e8c2794"),
            ("heatmap",
             [("a", [(0.0, 5.0), (1.0, 1.0), (2.0, 0.0)]),
              ("b", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]),
              ("c", [(0.0, 2.0), (1.0, 3.0), (2.0, 4.0)])],
             "918970228f1dc4c9d2ff736763598c57d94709165a3ad86fb923e619a87bc120",
             "91c14f52bdf64c827261b81fab896466fcf4b13aa93e426d9ae9be41a5ad1de1"),
            ("line",
             [("s", [(2.0, 5.0)])],
             "9095ce07bf1e882fff29a9e57395500af1fadb42cd7889f2c298a816d94f18cd",
             "8fcae12d06258db9a696b225323257469d7a54941d1716e4e3197f5c99c9ee77"),
        ],
        ids=["line-two-series", "bar-negative", "heatmap-zero-row", "line-one-point"],
    )
    def test_pinned_bytes(self, tmp_path, kind, series, svg_digest, csv_digest):
        path = emit_plot(series, tmp_path / "chart.svg", kind)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == svg_digest
        csv_bytes = path.with_suffix(".csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == csv_digest
