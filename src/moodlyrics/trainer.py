"""Fine-tuning loop: AdamW with decoupled weight decay, per-batch linear
learning-rate decay without warmup, global-norm gradient clipping, and one
checkpoint of the best-validation epoch, written after training.

Epoch metrics are computed over the whole split in eval mode, by the
same ``classify`` pass that ``eval`` scores with, so the accuracy curves
are well-defined. All randomness (shuffling, dropout)
derives from ``TrainConfig.seed``; two runs with identical seed, config,
and data produce identical histories and checkpoint bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from ._atomic import write_csv
from .corpus import Corpus
from .errors import MoodlyricsError
from .model import (
    Parameters,
    backward,
    classify,
    forward,
    save_checkpoint,
    softmax_cross_entropy,
)
from .tokenizer import EncodedExample, TokenizerConfig, Vocabulary, encode_corpus

HISTORY_HEADER = ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"]

# elements per block of the AdamW update: the six float32 blocks it touches
# (parameter, gradient, moments, scratch pair) take 768 KiB, so a block's
# passes stay in a 2 MiB L2 cache instead of streaming whole buffers
ADAM_BLOCK = 32768


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    learning_rate: float = 8e-5
    epochs: int = 100
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_grad_norm: float = 1.0
    seed: int = 42
    # optional per-class loss weights (Happy, Sad, Romantic, Relaxed);
    # None keeps the plain unweighted loss
    class_weights: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        for key in ("learning_rate", "weight_decay", "epsilon", "max_grad_norm"):
            if not math.isfinite(getattr(self, key)):
                raise MoodlyricsError(f"{key} must be finite, got {getattr(self, key)}")
        if self.class_weights is not None and not all(
            math.isfinite(w) for w in self.class_weights
        ):
            raise MoodlyricsError(f"class_weights must be finite, got {self.class_weights}")
        if self.batch_size < 1:
            raise MoodlyricsError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise MoodlyricsError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise MoodlyricsError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epsilon <= 0:
            raise MoodlyricsError(f"epsilon must be > 0, got {self.epsilon}")
        if self.weight_decay < 0:
            raise MoodlyricsError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise MoodlyricsError(f"betas must be in (0, 1), got {self.beta1}, {self.beta2}")
        if self.max_grad_norm <= 0:
            raise MoodlyricsError(f"max_grad_norm must be > 0, got {self.max_grad_norm}")
        if self.class_weights is not None:
            if len(self.class_weights) != 4 or any(w <= 0 for w in self.class_weights):
                raise MoodlyricsError(
                    f"class_weights needs 4 positive values, got {self.class_weights}"
                )


@dataclass
class ParamGroup:
    """Parameters that share a dtype and a decay rule, packed into one flat
    buffer, with gradient and moment buffers of the same size and the
    update's scratch pair of at most ADAM_BLOCK elements."""

    decayed: bool
    param: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]


@dataclass
class AdamState:
    """The packed parameter groups, each parameter's gradient (a view into
    its group's gradient buffer, in parameter order) and the shared step
    count."""

    groups: list[ParamGroup]
    grads: dict[str, np.ndarray]
    step: int = 0

    def zero_grads(self) -> dict[str, np.ndarray]:
        for group in self.groups:
            group.grad.fill(0)
        return self.grads


def init_adam_state(params: Parameters) -> AdamState:
    """Pack ``params`` into one flat buffer per (decayed, dtype) group and
    rebind ``params.arrays`` to views of those buffers, values unchanged.
    Layer-norm parameters and biases (all arrays of ndim <= 1) are the
    exempt group."""
    members: dict[tuple[bool, np.dtype], list[str]] = {}
    for name, arr in params.items():
        members.setdefault((arr.ndim > 1, arr.dtype), []).append(name)
    groups: list[ParamGroup] = []
    grad_views: dict[str, np.ndarray] = {}
    for (decayed, _), names in members.items():
        flat = np.concatenate([params[name].ravel() for name in names])
        block = min(flat.size, ADAM_BLOCK)
        group = ParamGroup(
            decayed, flat, np.zeros_like(flat), np.zeros_like(flat),
            np.zeros_like(flat), (np.empty(block, flat.dtype), np.empty(block, flat.dtype)),
        )
        offset = 0
        for name in names:
            shape = params[name].shape
            end = offset + params[name].size
            params.arrays[name] = flat[offset:end].reshape(shape)
            grad_views[name] = group.grad[offset:end].reshape(shape)
            offset = end
        groups.append(group)
    return AdamState(groups, {name: grad_views[name] for name in params.arrays})


def adamw_step(state: AdamState, lr: float, config: TrainConfig) -> None:
    """One AdamW update, in place, of every group in ``state`` from the
    gradients in ``state.grads``; it returns nothing. Weight decay is
    decoupled from the moments; layer-norm parameters and biases are exempt.
    A non-finite gradient raises, naming the first such array in parameter
    order, before any parameter changes."""
    state.step += 1
    bias_c1 = 1.0 - config.beta1**state.step
    bias_c2 = 1.0 - config.beta2**state.step
    if not all(np.isfinite(group.grad).all() for group in state.groups):
        bad = next(name for name, grad in state.grads.items() if not np.isfinite(grad).all())
        raise MoodlyricsError(f"non-finite gradient for {bad} at step {state.step}")
    for group in state.groups:
        _kernels.adamw_update(
            group.param, group.grad, group.m, group.v,
            lr, config.beta1, config.beta2, config.epsilon,
            config.weight_decay if group.decayed else 0.0,
            bias_c1, bias_c2, group.scratch,
        )


def linear_schedule(step: int, total_steps: int, base_lr: float) -> float:
    """Linear decay from base_lr at step 0 to 0 at total_steps; no warmup."""
    if total_steps < 1:
        raise MoodlyricsError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise MoodlyricsError(f"step {step} out of range [0, {total_steps}]")
    return base_lr * (1.0 - step / total_steps)


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all arrays by max_norm/norm when the global L2 norm exceeds
    max_norm; otherwise leave them untouched. In place. Returns the norm
    before clipping, summed in float64 array by array. Finite gradients whose
    squares overflow float64 are summed again scaled by the largest
    magnitude, so they are clipped rather than zeroed."""
    total = 0.0
    for grad in grads.values():
        total += float(np.sum(np.square(grad, dtype=np.float64)))
    norm = math.sqrt(total)
    if math.isinf(norm) and all(np.isfinite(grad).all() for grad in grads.values()):
        peak = max(float(np.abs(grad).max(initial=0.0)) for grad in grads.values())
        # every scaled entry is at most 1 in magnitude, so this sum is finite
        norm = peak * clip_grad_norm({k: g / peak for k, g in grads.items()}, math.inf)
    if norm > max_norm:
        scale = max_norm / norm
        for grad in grads.values():
            grad *= grad.dtype.type(scale)
    return norm


@dataclass
class TrainHistory:
    """Per-epoch metrics plus the 1-indexed best-validation epoch."""

    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = 0

    def __len__(self) -> int:
        return len(self.val_acc)

    def save_csv(self, path: str | Path) -> Path:
        columns = (self.train_loss, self.train_acc, self.val_loss, self.val_acc)
        rows = [[i + 1, *(repr(col[i]) for col in columns)] for i in range(len(self))]
        return write_csv(path, [HISTORY_HEADER, *rows])


def evaluate(params: Parameters, examples: list[EncodedExample]) -> tuple[float, float]:
    """Mean loss and accuracy over a split, from ``classify``'s eval-mode
    logits (EVAL_BATCH examples per forward, whatever the train batch)."""
    if not examples:
        raise MoodlyricsError("cannot evaluate an empty split")
    labels = np.array([ex.label for ex in examples], dtype=np.int64)
    logits = classify(params, examples)
    correct = int((logits.argmax(axis=1) == labels).sum())
    return softmax_cross_entropy(logits, labels)[0], correct / len(examples)


def train(
    params: Parameters,
    train_corpus: Corpus,
    val_corpus: Corpus,
    vocab: Vocabulary,
    tokenizer_config: TokenizerConfig,
    train_config: TrainConfig,
    checkpoint_path: str | Path | None = None,
    log=None,
) -> tuple[Parameters, TrainHistory]:
    """Run the full fine-tuning recipe and return the best parameters.

    Shuffles per epoch, steps the schedule once per batch and clips before
    every update. The best epoch is the first with the highest validation
    accuracy; its parameters are returned and, when ``checkpoint_path`` is
    given, written there once after the last epoch, so a run that raises
    writes no checkpoint. The steps and each epoch's evaluation run with
    numpy overflow, invalid and divide-by-zero raising, so a run that
    diverges stops with one ``MoodlyricsError`` naming the epoch, where it
    failed (the step, counted from 0, or the evaluation after the epoch's
    last step), that step's learning rate and the operation that failed;
    underflow is ignored. ``log`` is an optional callable taking one line.
    ``params`` is trained in place: its arrays are rebound to views of the
    optimizer's packed buffers (see ``init_adam_state``).
    """
    train_examples = encode_corpus(train_corpus, vocab, tokenizer_config)
    val_examples = encode_corpus(val_corpus, vocab, tokenizer_config)
    if not train_examples or not val_examples:
        raise MoodlyricsError("train and validation splits must be nonempty")
    n, batch_size = len(train_examples), train_config.batch_size
    total_steps = train_config.epochs * math.ceil(n / batch_size)
    seeds = np.random.SeedSequence(train_config.seed).spawn(2)
    shuffle_rng, dropout_rng = map(np.random.default_rng, seeds)

    state = init_adam_state(params)
    history = TrainHistory()
    step = 0
    for epoch in range(1, train_config.epochs + 1):
        perm = shuffle_rng.permutation(n)
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for start in range(0, n, batch_size):
                    where = f", step {step}"
                    lr = linear_schedule(step, total_steps, train_config.learning_rate)
                    batch = [train_examples[j] for j in perm[start : start + batch_size]]
                    labels = np.array([ex.label for ex in batch], dtype=np.int64)
                    trace = forward(params, batch, mode="train", rng=dropout_rng)
                    backward(params, trace, labels, train_config.class_weights,
                             out=state.zero_grads())
                    clip_grad_norm(state.grads, train_config.max_grad_norm)
                    adamw_step(state, lr, train_config)
                    step += 1
                where = f" in evaluation after step {step - 1}"
                train_loss, train_acc = evaluate(params, train_examples)
                val_loss, val_acc = evaluate(params, val_examples)
        except FloatingPointError as exc:
            raise MoodlyricsError(f"training diverged at epoch {epoch}{where} "
                                  f"(lr {lr:.3g}): {exc}") from None
        # strict, so the first epoch with the highest accuracy wins ties
        if val_acc > max(history.val_acc, default=-math.inf):
            history.best_epoch, best_params = epoch, params.copy()
        history.train_loss.append(train_loss)
        history.train_acc.append(train_acc)
        history.val_loss.append(val_loss)
        history.val_acc.append(val_acc)
        if log is not None:
            log(
                f"epoch {epoch}/{train_config.epochs} "
                f"train_loss={train_loss:.4f} train_acc={train_acc:.4f} "
                f"val_loss={val_loss:.4f} val_acc={val_acc:.4f}"
            )
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, best_params, vocab.sha256(), tokenizer_config)
    return best_params, history
