"""Evaluation metrics and reports: confusion matrix, per-class
precision/recall/F1 with macro and weighted averages, and the
train/validation accuracy curve plot.

Classes with zero support or zero predictions get metric 0 with a flagged
warning instead of a division failure. Class display order follows the
fixed mood encoding so reports are diffable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._atomic import write_csv
from .analytics import emit_plot
from .corpus import MoodLabel
from .errors import EvaluationError
from .trainer import TrainHistory

N_CLASSES = len(MoodLabel)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows are true moods, columns predicted, in encoding order."""

    cells: np.ndarray  # [4, 4] non-negative integers

    @property
    def total(self) -> int:
        return int(self.cells.sum())

    def support(self, label: MoodLabel) -> int:
        return int(self.cells[label].sum())


@dataclass(frozen=True)
class EvalReport:
    precision: np.ndarray  # [4]
    recall: np.ndarray  # [4]
    f1: np.ndarray  # [4]
    support: np.ndarray  # [4] integers
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    warnings: tuple[str, ...] = ()


def confusion(preds: list[MoodLabel], golds: list[MoodLabel]) -> ConfusionMatrix:
    """cell[t][p] = count of examples with true mood t predicted as p."""
    if len(preds) != len(golds):
        raise EvaluationError(
            f"prediction/gold length mismatch: {len(preds)} vs {len(golds)}"
        )
    if not preds:
        raise EvaluationError("cannot build a confusion matrix from zero examples")
    cells = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for pred, gold in zip(preds, golds):
        cells[int(gold), int(pred)] += 1
    return ConfusionMatrix(cells=cells)


def report(matrix: ConfusionMatrix) -> EvalReport:
    """Precision, recall, F1, support per class plus accuracy and averages."""
    cells = matrix.cells
    if cells.sum() == 0:
        raise EvaluationError("cannot report on an empty confusion matrix")
    diag = np.diag(cells).astype(np.float64)
    col_sums = cells.sum(axis=0).astype(np.float64)
    row_sums = cells.sum(axis=1).astype(np.float64)
    warnings: list[str] = []
    precision = np.zeros(N_CLASSES)
    recall = np.zeros(N_CLASSES)
    f1 = np.zeros(N_CLASSES)
    for label in MoodLabel:
        c = int(label)
        if col_sums[c] > 0:
            precision[c] = diag[c] / col_sums[c]
        else:
            warnings.append(f"no predictions for class {label.display}; precision set to 0")
        if row_sums[c] > 0:
            recall[c] = diag[c] / row_sums[c]
        else:
            warnings.append(f"zero support for class {label.display}; recall set to 0")
        if precision[c] + recall[c] > 0:
            f1[c] = 2 * precision[c] * recall[c] / (precision[c] + recall[c])
    total = cells.sum()
    support = row_sums.astype(np.int64)
    weights = row_sums / total
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        support=support,
        accuracy=float(diag.sum() / total),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        weighted_precision=float((precision * weights).sum()),
        weighted_recall=float((recall * weights).sum()),
        weighted_f1=float((f1 * weights).sum()),
        warnings=tuple(warnings),
    )


def format_report(rep: EvalReport) -> str:
    """Aligned plain-text classification-report layout."""
    lines = [f"{'':<12}{'precision':>10}{'recall':>10}{'f1':>10}{'support':>10}"]
    for label in MoodLabel:
        c = int(label)
        lines.append(
            f"{label.display:<12}{rep.precision[c]:>10.4f}{rep.recall[c]:>10.4f}"
            f"{rep.f1[c]:>10.4f}{rep.support[c]:>10d}"
        )
    total = int(rep.support.sum())
    lines.append("")
    lines.append(f"{'accuracy':<12}{'':>10}{'':>10}{rep.accuracy:>10.4f}{total:>10d}")
    lines.append(
        f"{'macro avg':<12}{rep.macro_precision:>10.4f}{rep.macro_recall:>10.4f}"
        f"{rep.macro_f1:>10.4f}{total:>10d}"
    )
    lines.append(
        f"{'weighted avg':<12}{rep.weighted_precision:>10.4f}{rep.weighted_recall:>10.4f}"
        f"{rep.weighted_f1:>10.4f}{total:>10d}"
    )
    for warning in rep.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def save_report_csv(rep: EvalReport, path: str | Path) -> Path:
    rows = [["class", "precision", "recall", "f1", "support"]]
    for label in MoodLabel:
        scores = (rep.precision[label], rep.recall[label], rep.f1[label])
        rows.append([label.display, *(repr(float(s)) for s in scores), int(rep.support[label])])
    rows += [
        ["accuracy", repr(rep.accuracy), "", "", int(rep.support.sum())],
        ["macro", repr(rep.macro_precision), repr(rep.macro_recall), repr(rep.macro_f1), ""],
        ["weighted", repr(rep.weighted_precision), repr(rep.weighted_recall),
         repr(rep.weighted_f1), ""],
    ]
    return write_csv(path, rows)


def save_confusion_csv(matrix: ConfusionMatrix, path: str | Path) -> Path:
    header = ["true\\pred"] + [label.display for label in MoodLabel]
    rows = [[label.display] + [int(v) for v in matrix.cells[label]] for label in MoodLabel]
    return write_csv(path, [header, *rows])


def confusion_heatmap(matrix: ConfusionMatrix, path: str | Path) -> Path:
    """Render the matrix as a heatmap SVG; rows are true moods."""
    series = [
        (label.display, [(float(col), float(matrix.cells[int(label), col]))
                         for col in range(N_CLASSES)])
        for label in MoodLabel
    ]
    return emit_plot(series, path, "heatmap")


def accuracy_curve(history: TrainHistory, path: str | Path) -> Path:
    """Two-series line plot of train and validation accuracy by epoch."""
    if len(history) == 0:
        raise EvaluationError("cannot plot an empty training history")
    epochs = range(1, len(history) + 1)
    series = [
        ("train", [(float(e), history.train_acc[e - 1]) for e in epochs]),
        ("validation", [(float(e), history.val_acc[e - 1]) for e in epochs]),
    ]
    return emit_plot(series, path, "line")
