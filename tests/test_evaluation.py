import numpy as np
import pytest

from moodlyrics.corpus import MoodLabel
from moodlyrics.errors import EvaluationError
from moodlyrics.evaluation import (
    ConfusionMatrix,
    accuracy_curve,
    confusion,
    confusion_heatmap,
    format_report,
    report,
    save_confusion_csv,
    save_report_csv,
)
from moodlyrics.trainer import TrainHistory

from helpers import read_plot_csv

H, S, R, X = MoodLabel.HAPPY, MoodLabel.SAD, MoodLabel.ROMANTIC, MoodLabel.RELAXED


def random_matrix(rng, max_cell=30):
    cells = rng.integers(0, max_cell, size=(4, 4)).astype(np.int64)
    if cells.sum() == 0:
        cells[0, 0] = 1
    return ConfusionMatrix(cells=cells)


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        golds = [H, S, R, X, S, S]
        matrix = confusion(golds, golds)
        assert np.trace(matrix.cells) == 6
        assert matrix.cells.sum() == 6

    def test_all_predicted_sad(self):
        golds = [H, S, R, X]
        matrix = confusion([S, S, S, S], golds)
        assert matrix.cells[:, int(S)].sum() == 4
        other_columns = [c for c in range(4) if c != int(S)]
        assert matrix.cells[:, other_columns].sum() == 0

    def test_swapped_pair(self):
        matrix = confusion([S, H], [H, S])
        assert np.trace(matrix.cells) == 0
        assert matrix.cells[int(H), int(S)] == 1
        assert matrix.cells[int(S), int(H)] == 1

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            confusion([H], [H, S])

    def test_empty(self):
        with pytest.raises(EvaluationError):
            confusion([], [])

    def test_total_and_support(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            preds = [MoodLabel(int(i)) for i in rng.integers(0, 4, n)]
            golds = [MoodLabel(int(i)) for i in rng.integers(0, 4, n)]
            matrix = confusion(preds, golds)
            assert matrix.total == n
            for label in MoodLabel:
                assert matrix.support(label) == sum(1 for g in golds if g is label)


class TestReport:
    def test_f1_harmonic_mean(self):
        # precision 1, recall 0.5 for Happy: diagonal 1, one Happy missed
        cells = np.zeros((4, 4), dtype=np.int64)
        cells[0, 0] = 1
        cells[0, 1] = 1  # a Happy predicted Sad
        cells[1, 1] = 3
        rep = report(ConfusionMatrix(cells))
        assert rep.precision[0] == 1.0
        assert rep.recall[0] == 0.5
        assert rep.f1[0] == pytest.approx(2 / 3)

    def test_diagonal_matrix_all_ones(self):
        rep = report(ConfusionMatrix(np.diag([5, 3, 2, 1]).astype(np.int64)))
        assert np.allclose(rep.precision, 1.0)
        assert np.allclose(rep.recall, 1.0)
        assert np.allclose(rep.f1, 1.0)
        assert rep.accuracy == 1.0

    def test_two_by_two_block_hand_case(self):
        cells = np.zeros((4, 4), dtype=np.int64)
        cells[0, 0], cells[0, 1] = 2, 1
        cells[1, 0], cells[1, 1] = 1, 2
        rep = report(ConfusionMatrix(cells))
        assert rep.precision[0] == pytest.approx(2 / 3)
        assert rep.recall[0] == pytest.approx(2 / 3)
        assert rep.f1[0] == pytest.approx(2 / 3)
        assert rep.warnings  # zero-support classes flagged

    def test_zero_prediction_class_gets_zero_precision(self):
        cells = np.zeros((4, 4), dtype=np.int64)
        cells[0, 1] = 4  # Happy always predicted Sad; nothing predicted Happy
        cells[1, 1] = 4
        rep = report(ConfusionMatrix(cells))
        assert rep.precision[0] == 0.0
        assert rep.f1[0] == 0.0
        assert any("no predictions" in w for w in rep.warnings)

    def test_weighted_recall_equals_accuracy(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            rep = report(random_matrix(rng))
            assert abs(rep.weighted_recall - rep.accuracy) <= 1e-12

    def test_invariant_under_uniform_scaling(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            matrix = random_matrix(rng)
            rep_a = report(matrix)
            rep_b = report(ConfusionMatrix(matrix.cells * 7))
            assert np.allclose(rep_a.precision, rep_b.precision, atol=1e-12)
            assert np.allclose(rep_a.recall, rep_b.recall, atol=1e-12)
            assert np.allclose(rep_a.f1, rep_b.f1, atol=1e-12)
            assert rep_a.accuracy == pytest.approx(rep_b.accuracy, abs=1e-12)


class TestOutputs:
    def test_format_report_layout(self):
        rep = report(ConfusionMatrix(np.diag([5, 3, 2, 1]).astype(np.int64)))
        text = format_report(rep)
        lines = text.splitlines()
        assert "precision" in lines[0] and "support" in lines[0]
        assert lines[1].startswith("Happy")
        assert any(line.startswith("weighted avg") for line in lines)

    def test_csv_outputs(self, tmp_path):
        matrix = ConfusionMatrix(np.diag([5, 3, 2, 1]).astype(np.int64))
        rep = report(matrix)
        report_path = save_report_csv(rep, tmp_path / "report.csv")
        confusion_path = save_confusion_csv(matrix, tmp_path / "confusion.csv")
        assert "Happy" in report_path.read_text(encoding="utf-8")
        rows = confusion_path.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 5

    def test_heatmap_has_16_cells(self, tmp_path):
        matrix = ConfusionMatrix(np.diag([5, 3, 2, 1]).astype(np.int64))
        path = confusion_heatmap(matrix, tmp_path / "cm.svg")
        assert path.read_text(encoding="utf-8").count("rgb(") == 16

    def test_accuracy_curve_round_trip(self, tmp_path):
        epochs = 100
        history = TrainHistory(
            train_loss=[1.0] * epochs,
            train_acc=[min(1.0, 0.01 * e) for e in range(1, epochs + 1)],
            val_loss=[1.0] * epochs,
            val_acc=[0.63] * epochs,
            best_epoch=1,
        )
        path = accuracy_curve(history, tmp_path / "acc.svg")
        series = dict(read_plot_csv(path.with_suffix(".csv")))
        assert len(series["train"]) == epochs
        assert [y for _, y in series["train"]] == history.train_acc
        assert [y for _, y in series["validation"]] == history.val_acc

    def test_empty_history_is_error(self, tmp_path):
        with pytest.raises(EvaluationError):
            accuracy_curve(TrainHistory(), tmp_path / "acc.svg")
