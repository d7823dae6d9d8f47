"""Fine-tuning loop: AdamW with decoupled weight decay, per-batch linear
learning-rate decay without warmup, global-norm gradient clipping, and
best-validation checkpointing.

Epoch metrics are computed over the whole split in eval mode, so the
accuracy curves are well-defined. All randomness (shuffling, dropout)
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
from .errors import TrainerError
from .model import (
    Parameters,
    backward,
    classify,
    cross_entropy,
    forward,
    save_checkpoint,
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
                raise TrainerError(f"{key} must be finite, got {getattr(self, key)}")
        if self.class_weights is not None and not all(
            math.isfinite(w) for w in self.class_weights
        ):
            raise TrainerError(f"class_weights must be finite, got {self.class_weights}")
        if self.batch_size < 1:
            raise TrainerError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise TrainerError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise TrainerError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epsilon <= 0:
            raise TrainerError(f"epsilon must be > 0, got {self.epsilon}")
        if self.weight_decay < 0:
            raise TrainerError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise TrainerError(f"betas must be in (0, 1), got {self.beta1}, {self.beta2}")
        if self.max_grad_norm <= 0:
            raise TrainerError(f"max_grad_norm must be > 0, got {self.max_grad_norm}")
        if self.class_weights is not None:
            if len(self.class_weights) != 4 or any(w <= 0 for w in self.class_weights):
                raise TrainerError(
                    f"class_weights needs 4 positive values, got {self.class_weights}"
                )


@dataclass
class ParamGroup:
    """Parameters that share a dtype and a decay rule, packed into one flat
    buffer, with gradient and moment buffers of the same size and the
    update's scratch pair of at most ADAM_BLOCK elements. ``names`` lists
    the packed arrays in parameter order."""

    names: list[str]
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
            names, decayed, flat, np.zeros_like(flat), np.zeros_like(flat),
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


def adamw_step(
    params: Parameters,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    config: TrainConfig,
) -> tuple[Parameters, AdamState]:
    """One AdamW update, in place, of every group ``state`` packed from
    ``params``. Weight decay is decoupled from the moments; layer-norm
    parameters and biases are exempt. Gradients that are not
    ``state.grads`` are copied into the group buffers first. A non-finite
    gradient raises before any parameter changes."""
    state.step += 1
    bias_c1 = 1.0 - config.beta1**state.step
    bias_c2 = 1.0 - config.beta2**state.step
    if grads is not state.grads:
        for group in state.groups:
            np.concatenate([grads[name].ravel() for name in group.names], out=group.grad)
    if not all(np.isfinite(group.grad).all() for group in state.groups):
        bad = next(name for name, grad in state.grads.items() if not np.isfinite(grad).all())
        raise TrainerError(f"non-finite gradient for {bad} at step {state.step}")
    for group in state.groups:
        _kernels.adamw_update(
            group.param, group.grad, group.m, group.v,
            lr, config.beta1, config.beta2, config.epsilon,
            config.weight_decay if group.decayed else 0.0,
            bias_c1, bias_c2, group.scratch,
        )
    return params, state


def linear_schedule(step: int, total_steps: int, base_lr: float) -> float:
    """Linear decay from base_lr at step 0 to 0 at total_steps; no warmup."""
    if total_steps < 1:
        raise TrainerError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise TrainerError(f"step {step} out of range [0, {total_steps}]")
    return base_lr * (1.0 - step / total_steps)


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all arrays by max_norm/norm when the global L2 norm exceeds
    max_norm; otherwise leave them untouched. In place. Returns the norm
    before clipping, summed in float64 array by array."""
    total = 0.0
    for grad in grads.values():
        total += float(np.sum(np.square(grad, dtype=np.float64)))
    norm = math.sqrt(total)
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


def best_epoch_index(val_accuracies: list[float]) -> int:
    """1-indexed epoch with the highest validation accuracy; first
    occurrence wins ties."""
    if not val_accuracies:
        raise TrainerError("no validation accuracies recorded")
    best = max(val_accuracies)
    return val_accuracies.index(best) + 1


def evaluate(
    params: Parameters, examples: list[EncodedExample], batch_size: int
) -> tuple[float, float]:
    """Mean loss and accuracy over a split, in eval mode."""
    if not examples:
        raise TrainerError("cannot evaluate an empty split")
    labels = np.array([ex.label for ex in examples], dtype=np.int64)
    logits = classify(params, examples, batch_size)
    correct = int((logits.argmax(axis=1) == labels).sum())
    return cross_entropy(logits, labels), correct / len(examples)


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

    Shuffles per epoch, steps the schedule once per batch, clips before
    every update, and writes a checkpoint whenever validation accuracy
    strictly improves. ``log`` is an optional callable taking one line.
    ``params`` is trained in place: its arrays are rebound to views of the
    optimizer's packed buffers (see ``init_adam_state``).
    """
    train_examples = encode_corpus(train_corpus, vocab, tokenizer_config)
    val_examples = encode_corpus(val_corpus, vocab, tokenizer_config)
    if not train_examples or not val_examples:
        raise TrainerError("train and validation splits must be nonempty")
    n = len(train_examples)
    batches_per_epoch = math.ceil(n / train_config.batch_size)
    total_steps = train_config.epochs * batches_per_epoch

    root = np.random.SeedSequence(train_config.seed)
    shuffle_seq, dropout_seq = root.spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    dropout_rng = np.random.default_rng(dropout_seq)

    state = init_adam_state(params)
    history = TrainHistory()
    best_acc = -1.0  # epochs >= 1, so the first epoch sets best_params
    step = 0
    for epoch in range(1, train_config.epochs + 1):
        perm = shuffle_rng.permutation(n)
        for start in range(0, n, train_config.batch_size):
            batch = [train_examples[j] for j in perm[start : start + train_config.batch_size]]
            labels = np.array([ex.label for ex in batch], dtype=np.int64)
            trace = forward(params, batch, mode="train", rng=dropout_rng)
            loss = cross_entropy(trace.logits, labels, train_config.class_weights)
            if not math.isfinite(loss):
                raise TrainerError(
                    f"non-finite loss {loss} at epoch {epoch}, step {step} "
                    f"(lr {linear_schedule(step, total_steps, train_config.learning_rate):.3g})"
                )
            grads = backward(params, trace, labels, train_config.class_weights,
                             out=state.zero_grads())
            clip_grad_norm(grads, train_config.max_grad_norm)
            lr = linear_schedule(step, total_steps, train_config.learning_rate)
            adamw_step(params, grads, state, lr, train_config)
            step += 1
        train_loss, train_acc = evaluate(params, train_examples, train_config.batch_size)
        val_loss, val_acc = evaluate(params, val_examples, train_config.batch_size)
        history.train_loss.append(train_loss)
        history.train_acc.append(train_acc)
        history.val_loss.append(val_loss)
        history.val_acc.append(val_acc)
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = params.copy()
            if checkpoint_path is not None:
                save_checkpoint(
                    checkpoint_path, best_params, vocab.sha256(), tokenizer_config
                )
        if log is not None:
            log(
                f"epoch {epoch}/{train_config.epochs} "
                f"train_loss={train_loss:.4f} train_acc={train_acc:.4f} "
                f"val_loss={val_loss:.4f} val_acc={val_acc:.4f}"
            )
    history.best_epoch = best_epoch_index(history.val_acc)
    return best_params, history
