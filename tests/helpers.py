"""Readers and checks that only the tests need, kept out of the library.

Unlike ``oracles.py``, these use the library's own code: they read back
the CSVs it writes and compare its analytic gradients to finite
differences.
"""

import csv
from pathlib import Path

import numpy as np

from moodlyrics import trainer
from moodlyrics.errors import TrainerError
from moodlyrics.model import Parameters, backward, cross_entropy, forward
from moodlyrics.tokenizer import EncodedExample

Series = tuple[str, list[tuple[float, float]]]


def read_plot_csv(path: str | Path) -> list[Series]:
    """Reload a sidecar CSV into (name, points) pairs, exactly as plotted."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        grouped: dict[str, list[tuple[float, float]]] = {}
        for row in reader:
            name = row[2] if len(header) == 3 else ""
            grouped.setdefault(name, []).append((float(row[0]), float(row[1])))
    return [(name, points) for name, points in grouped.items()]


class TrainHistory(trainer.TrainHistory):
    """The library's training history, plus a reader for its CSV."""

    @classmethod
    def load_csv(cls, path: str | Path) -> "TrainHistory":
        history = cls()
        with Path(path).open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != trainer.HISTORY_HEADER:
                raise TrainerError(f"malformed history header: {header}")
            for row in reader:
                history.train_loss.append(float(row[1]))
                history.train_acc.append(float(row[2]))
                history.val_loss.append(float(row[3]))
                history.val_acc.append(float(row[4]))
        if history.val_acc:
            history.best_epoch = trainer.best_epoch_index(history.val_acc)
        return history


def gradient_check(
    params: Parameters,
    batch: list[EncodedExample],
    eps: float = 1e-4,
    max_entries_per_array: int | None = None,
    seed: int = 0,
    dropout_seed: int = 12345,
    class_weights=None,
) -> dict[str, float]:
    """Max relative error between analytic and central-difference gradients,
    per parameter array.

    Dropout masks are replayed identically on every probe by reseeding the
    generator, so the check is valid with dropout active. Use float64
    parameters; float32 noise swamps the 1e-3 tolerance.
    """
    labels = np.array([ex.label for ex in batch], dtype=np.int64)

    def loss_of() -> float:
        trace = forward(
            params, batch, mode="train", rng=np.random.default_rng(dropout_seed)
        )
        return cross_entropy(trace.logits, labels, class_weights)

    trace = forward(
        params, batch, mode="train", rng=np.random.default_rng(dropout_seed)
    )
    grads = backward(params, trace, labels, class_weights)

    entry_rng = np.random.default_rng(seed)
    errors: dict[str, float] = {}
    for name, arr in params.items():
        flat = arr.reshape(-1)
        grad_flat = grads[name].reshape(-1)
        if max_entries_per_array is None or flat.size <= max_entries_per_array:
            indices = np.arange(flat.size)
        else:
            indices = np.sort(
                entry_rng.choice(flat.size, size=max_entries_per_array, replace=False)
            )
        worst = 0.0
        for idx in indices:
            original = flat[idx]
            flat[idx] = original + eps
            loss_plus = loss_of()
            flat[idx] = original - eps
            loss_minus = loss_of()
            flat[idx] = original
            fd = (loss_plus - loss_minus) / (2.0 * eps)
            analytic = float(grad_flat[idx])
            denom = max(abs(fd), abs(analytic), 1e-6)
            worst = max(worst, abs(fd - analytic) / denom)
        errors[name] = worst
    return errors
