"""Corpus statistics and plot emission: frequency distribution, type-token
ratio, lexical-density curve, and a small deterministic SVG writer.

Lexical density is the fraction of content tokens, i.e. tokens not in a
caller-supplied stopword list; with an empty list every token counts as
content and the density is 1. Plots are self-contained SVG 1.1 files with a
sidecar CSV (header ``x,y`` or ``x,y,series``) holding the raw points;
identical input yields identical bytes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from ._atomic import write_atomic, write_csv
from .corpus import Corpus, SongRecord
from .errors import AnalyticsError
from .tokenizer import word_tokenize

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

Series = tuple[str, list[tuple[float, float]]]


@dataclass(frozen=True)
class FreqTable:
    """Exact multiset counts of word tokens."""

    counts: dict[str, int]
    total: int


@dataclass(frozen=True)
class LexicalStats:
    token_count: int
    unique_count: int
    type_token_ratio: float
    lexical_density: float


def freq_dist(tokens: list[str]) -> FreqTable:
    counts = Counter(tokens)
    return FreqTable(counts=dict(counts), total=len(tokens))


def lexical_stats(
    record: SongRecord, stopwords: frozenset[str] = frozenset()
) -> LexicalStats:
    """Token count, distinct count, type-token ratio, and content-word
    fraction for one song. Errors on lyrics that clean to nothing."""
    tokens = word_tokenize(record.cleaned)
    if not tokens:
        raise AnalyticsError(f"no tokens after cleaning: {record.title!r}")
    unique = len(set(tokens))
    content = sum(1 for tok in tokens if tok not in stopwords)
    return LexicalStats(
        token_count=len(tokens),
        unique_count=unique,
        type_token_ratio=unique / len(tokens),
        lexical_density=content / len(tokens),
    )


def density_curve(
    corpus: Corpus,
    bin_width: int = 25,
    stopwords: frozenset[str] = frozenset(),
    *,
    stats: list[LexicalStats] | None = None,
) -> list[tuple[int, float]]:
    """Mean lexical density per unique-token-count bin, sorted by bin.

    Bins are half-open intervals [k*bin_width, (k+1)*bin_width); each point
    is one song. Only occupied bins appear, labeled by their lower edge.
    ``stats``, the songs' ``lexical_stats`` already computed in corpus
    order, are used as given instead of being computed again (so
    ``stopwords`` is not read).
    """
    if len(corpus) == 0:
        raise AnalyticsError("cannot compute a density curve on an empty corpus")
    if bin_width < 1:
        raise AnalyticsError(f"bin_width must be >= 1, got {bin_width}")
    if stats is None:
        stats = [lexical_stats(rec, stopwords) for rec in corpus]
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for song in stats:
        bin_start = (song.unique_count // bin_width) * bin_width
        sums[bin_start] = sums.get(bin_start, 0.0) + song.lexical_density
        counts[bin_start] = counts.get(bin_start, 0) + 1
    return [(b, sums[b] / counts[b]) for b in sorted(sums)]


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def emit_plot(series: list[Series], path: str | Path, kind: str) -> Path:
    """Write an SVG chart plus a sidecar CSV of the raw points.

    ``series`` is a list of (name, points) pairs. For line and bar charts a
    point is (x, y); for a heatmap each series is one row and a point is
    (column, cell value). Deterministic bytes for identical input.

    Each of the two files is written atomically, but not both as one
    transaction: a failure while writing the sidecar leaves the new SVG
    beside the previous sidecar.
    """
    if kind not in _CHARTS:
        raise AnalyticsError(f"unknown plot kind {kind!r}, expected one of {tuple(_CHARTS)}")
    if not series or all(len(points) == 0 for _, points in series):
        raise AnalyticsError("cannot plot empty series")
    path = Path(path)
    title, body = _CHARTS[kind]
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f"<title>{title}</title>",
        *body(series),
        "</svg>",
    ]
    write_atomic(path, [("\n".join(parts) + "\n").encode("utf-8")])
    if len(series) > 1:
        rows = [["x", "y", "series"]] + [
            [repr(float(x)), repr(float(y)), name]
            for name, points in series
            for x, y in points
        ]
    else:
        rows = [["x", "y"]] + [[repr(float(x)), repr(float(y))] for x, y in series[0][1]]
    write_csv(path.with_suffix(".csv"), rows)
    return path


_WIDTH, _HEIGHT, _MARGIN = 640, 400, 60


def _color(series_index: int) -> str:
    return _PALETTE[series_index % len(_PALETTE)]


def _frame(
    series: list[Series],
) -> tuple[list[str], Callable[[float, float], tuple[float, float]]]:
    """The legend and axes of a line or bar chart, and the map from a data
    point to its pixel position; the y range always takes in 0."""
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(min(ys), 0.0), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)
        py = _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - 2 * _MARGIN)
        return px, py

    parts = []
    for i, (name, _) in enumerate(series):
        x = _MARGIN + 140 * i
        parts.append(f'<rect x="{x}" y="12" width="12" height="12" fill="{_color(i)}"/>')
        parts.append(
            f'<text x="{x + 16}" y="22" font-family="sans-serif" '
            f'font-size="12">{name}</text>'
        )
    left, right = _MARGIN, _WIDTH - _MARGIN
    top, bottom = _MARGIN, _HEIGHT - _MARGIN
    parts += [
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
    ] + [
        f'<text x="{x}" y="{y}" font-family="sans-serif" font-size="11">{_fmt(value)}</text>'
        for x, y, value in ((left, bottom + 16, x_lo), (right - 30, bottom + 16, x_hi),
                            (left - 50, bottom, y_lo), (left - 50, top + 10, y_hi))
    ]
    return parts, to_px


def _line_body(series: list[Series]) -> list[str]:
    parts, to_px = _frame(series)
    for i, (_, points) in enumerate(series):
        coords = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(x, y) for x, y in sorted(points))
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{_color(i)}" '
            'stroke-width="1.5"/>'
        )
    return parts


def _bar_body(series: list[Series]) -> list[str]:
    parts, to_px = _frame(series)
    all_points = [(x, y, i) for i, (_, pts) in enumerate(series) for x, y in pts]
    bar_width = (_WIDTH - 2 * _MARGIN) / len(all_points) * 0.6
    baseline = to_px(0.0, 0.0)[1]
    for x, y, series_index in all_points:
        px, py = to_px(x, y)
        parts.append(
            f'<rect x="{_fmt(px - bar_width / 2)}" y="{_fmt(min(py, baseline))}" '
            f'width="{_fmt(bar_width)}" height="{_fmt(abs(baseline - py))}" '
            f'fill="{_color(series_index)}"/>'
        )
    return parts


def _heatmap_body(series: list[Series]) -> list[str]:
    parts = []
    peak = max(y for _, pts in series for _, y in pts)
    cell_w = (_WIDTH - 2 * _MARGIN) / max(len(points) for _, points in series)
    cell_h = (_HEIGHT - 2 * _MARGIN) / len(series)
    for row, (name, points) in enumerate(series):
        ry = _MARGIN + row * cell_h
        parts.append(
            f'<text x="{_fmt(_MARGIN - 8)}" y="{_fmt(ry + cell_h / 2)}" '
            'font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{name}</text>'
        )
        for x, value in sorted(points):
            shade = 0.0 if peak == 0 else value / peak
            # white to steel blue
            r = int(255 - shade * (255 - 31))
            g = int(255 - shade * (255 - 119))
            b = int(255 - shade * (255 - 180))
            cx = _MARGIN + int(x) * cell_w
            parts.append(
                f'<rect x="{_fmt(cx)}" y="{_fmt(ry)}" width="{_fmt(cell_w)}" '
                f'height="{_fmt(cell_h)}" fill="rgb({r},{g},{b})" '
                'stroke="black" stroke-width="0.5"/>'
            )
            text_color = "black" if shade < 0.6 else "white"
            parts.append(
                f'<text x="{_fmt(cx + cell_w / 2)}" y="{_fmt(ry + cell_h / 2 + 4)}" '
                f'font-family="sans-serif" font-size="12" text-anchor="middle" '
                f'fill="{text_color}">{_fmt(value)}</text>'
            )
    return parts


# kind -> SVG title, body elements; unknown-kind errors list the keys in order
_CHARTS = {
    "line": ("line chart", _line_body),
    "bar": ("bar chart", _bar_body),
    "heatmap": ("heatmap", _heatmap_body),
}
