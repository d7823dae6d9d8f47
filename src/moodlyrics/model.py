"""Small BERT-style transformer encoder classifier in numpy.

Post-norm encoder layers (multi-head self-attention, then a position-wise
feed-forward block with GELU), token plus learned position embeddings, and
a linear head over the first position's final hidden state, so the last
layer runs the query, attention output, add-norms and FFN for that [CLS]
row alone (its keys and values still cover every row). A train-mode
forward caches everything exact backpropagation needs; dropout runs only in
train mode from a caller-supplied generator, and the recorded masks are
replayed in backward. An eval-mode forward keeps no backward caches: each
bucket's intermediates are freed once its logits are written.

Examples keep their fixed encoded length, but each one runs through the
encoder at its own bucket length: its last unmasked position + 1, rounded
up to a multiple of ``BUCKET_MULTIPLE`` (8) and capped at the encoded
length. ``forward`` groups a batch by bucket and ``backward`` sums the
groups' gradients. Positions at or past the bucket are masked keys, which
get probability exactly 0 and feed nothing into the first position, so
the result equals the full-length computation up to float rounding. The
bucket depends on the example alone, so an example's logits do not depend
on its batch-mates.

Checkpoints are a versioned binary container: JSON header (model config,
tokenizer settings, vocab hash) followed by every parameter array as
little-endian float32, in the order and shapes the model config fixes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from ._atomic import read_input, write_atomic
from ._config import config_from_json
from .corpus import MoodLabel
from .errors import MoodlyricsError
from .tokenizer import EncodedExample, TokenizerConfig

LN_EPS = 1e-5

# bucket lengths are multiples of this (see _bucket_lengths)
BUCKET_MULTIPLE = 8

# examples per eval-mode forward in classify; logits do not depend on it
EVAL_BATCH = 32

CHECKPOINT_MAGIC = b"MLCP"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Transformer dimensions. Paper scale is 12 layers / hidden 768 /
    12 heads; the desk-scale defaults train in seconds."""

    vocab_size: int
    max_positions: int
    num_layers: int = 2
    hidden_size: int = 64
    num_heads: int = 2
    ffn_size: int = 0  # 0 means 4 * hidden_size
    num_classes: int = 4
    dropout_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.ffn_size == 0:
            object.__setattr__(self, "ffn_size", 4 * self.hidden_size)
        dims = (
            self.vocab_size,
            self.max_positions,
            self.num_layers,
            self.hidden_size,
            self.num_heads,
            self.ffn_size,
        )
        if any(d < 1 for d in dims):
            raise MoodlyricsError(f"all model dimensions must be >= 1, got {self}")
        if self.hidden_size % self.num_heads != 0:
            raise MoodlyricsError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if self.num_classes != 4:
            raise MoodlyricsError(f"num_classes must be 4, got {self.num_classes}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise MoodlyricsError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def head_size(self) -> int:
        return self.hidden_size // self.num_heads


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter array name and shape, in fixed order."""
    return dict(_param_shape_items(config))


def _param_shape_items(config: ModelConfig):
    h, f = config.hidden_size, config.ffn_size
    layer = [(f"attn.w{key}", (h, h)) for key in "qkvo"]
    layer += [(f"attn.b{key}", (h,)) for key in "qkvo"]
    layer += [("ln1.g", (h,)), ("ln1.b", (h,)), ("ffn.w1", (h, f)), ("ffn.b1", (f,)),
              ("ffn.w2", (f, h)), ("ffn.b2", (h,)), ("ln2.g", (h,)), ("ln2.b", (h,))]
    yield "tok_emb", (config.vocab_size, h)
    yield "pos_emb", (config.max_positions, h)
    for i in range(config.num_layers):
        for name, shape in layer:
            yield f"layers.{i}.{name}", shape
    yield "head.w", (h, config.num_classes)
    yield "head.b", (config.num_classes,)


@dataclass
class Parameters:
    """Model config plus every trainable array, keyed by name."""

    config: ModelConfig
    arrays: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def items(self):
        return self.arrays.items()

    @property
    def dtype(self) -> np.dtype:
        return self.arrays["tok_emb"].dtype

    def copy(self) -> "Parameters":
        return Parameters(self.config, {n: a.copy() for n, a in self.arrays.items()})


def init_model(config: ModelConfig, dtype=np.float32) -> Parameters:
    """Weights ~ N(0, 0.02), biases zero, layer-norm gains one.
    Deterministic per config.seed."""
    rng = np.random.default_rng(config.seed)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if len(shape) > 1:
            arrays[name] = rng.normal(0.0, 0.02, size=shape).astype(dtype)
        elif name.endswith(".g"):
            arrays[name] = np.ones(shape, dtype=dtype)
        else:
            arrays[name] = np.zeros(shape, dtype=dtype)
    return Parameters(config, arrays)


def softmax(v: np.ndarray) -> np.ndarray:
    """Stable float64 softmax over the last axis, as a copy; rejects non-finite input."""
    v = np.array(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise MoodlyricsError("non-finite input to softmax")
    return _kernels.softmax_inplace(v)


def _stack_batch(batch, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The batch's stacked ids and integer attention mask, checked."""
    if len(batch) == 0:
        raise MoodlyricsError("forward pass needs a nonempty batch")
    ids = np.stack([ex.ids for ex in batch])
    mask = np.stack([ex.mask for ex in batch])
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise MoodlyricsError(
            f"token id out of range [0, {config.vocab_size}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    if ids.shape[1] > config.max_positions:
        raise MoodlyricsError(
            f"sequence length {ids.shape[1]} exceeds max_positions "
            f"{config.max_positions}"
        )
    if (mask.sum(axis=1) == 0).any():
        raise MoodlyricsError("attention mask row with no unmasked positions")
    return ids, mask


def _bucket_lengths(mask: np.ndarray) -> np.ndarray:
    """Per-row bucket: last unmasked position + 1, rounded up to a multiple
    of BUCKET_MULTIPLE and capped at the encoded length."""
    length = mask.shape[1]
    ends = length - np.argmax(mask[:, ::-1] != 0, axis=1)
    rounded = -(-ends // BUCKET_MULTIPLE) * BUCKET_MULTIPLE
    return np.minimum(rounded, length)


@dataclass
class BucketTrace:
    """Backward cache of the examples that ran at one bucket length."""

    index: np.ndarray  # their positions in the batch
    ids: np.ndarray  # [count, bucket]
    emb_drop: np.ndarray | None
    layers: list[tuple]  # one _layer_forward cache per layer
    h_cls: np.ndarray


@dataclass
class ForwardTrace:
    """Logits plus, in train mode, every intermediate needed for exact
    backpropagation.

    ``ids`` is the batch trimmed to its longest bucket. In train mode
    ``buckets`` holds one cache per distinct bucket length, in ascending
    order; in eval mode it is empty.
    """

    logits: np.ndarray
    ids: np.ndarray
    buckets: list[BucketTrace]


def forward(
    params: Parameters,
    batch: list[EncodedExample],
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> ForwardTrace:
    """Run the encoder classifier over a batch.

    ``mode`` is "train" or "eval"; train mode applies inverted dropout at
    the embedding output and after each sublayer projection, drawing masks
    from ``rng`` bucket by bucket in ascending bucket order, and keeps each
    bucket's backward cache in the trace. Eval mode keeps none, so its
    trace cannot be passed to ``backward``.
    """
    if mode not in ("train", "eval"):
        raise MoodlyricsError(f"mode must be 'train' or 'eval', got {mode!r}")
    cfg = params.config
    ids, mask = _stack_batch(batch, cfg)
    use_dropout = mode == "train" and cfg.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise MoodlyricsError("train-mode forward with dropout needs an rng")

    lengths = _bucket_lengths(mask)
    logits = np.empty((len(batch), cfg.num_classes), dtype=params.dtype)
    buckets: list[BucketTrace] = []
    for length in np.unique(lengths):
        index = np.flatnonzero(lengths == length)
        bucket, bucket_logits = _bucket_forward(
            params, index, ids[index, :length], mask[index, :length],
            rng if use_dropout else None,
        )
        logits[index] = bucket_logits
        if mode == "train":
            buckets.append(bucket)
        del bucket  # an eval bucket's caches go before the next bucket runs
    if not np.all(np.isfinite(logits)):
        raise MoodlyricsError("forward pass produced non-finite logits")
    return ForwardTrace(logits=logits, ids=ids[:, : lengths.max()], buckets=buckets)


# Sublayer pairs. Each forward returns (out, cache); each backward takes the
# cache and the output gradient as [rows, features], adds its parameter
# gradients into ``grads`` and returns the input gradient as [rows, features].
# Forward arrays keep their (B, b, ...) shape, so every projection runs as a
# (B, b, H) @ (H, F) matmul: one GEMM per example at its own bucket length b
# (1 for the [CLS] row), which depends on that example's mask alone, so its
# logits are bit-identical whatever the rest of the batch contains. Backward
# reads [rows, ...] views.


def _linear(params: Parameters, prefix: str, key: str, x: np.ndarray) -> np.ndarray:
    """``x @ W + b`` with W = ``{prefix}.w{key}`` and b = ``{prefix}.b{key}``,
    the bias added into the matmul's output. Callers keep ``x`` in their own
    cache for ``_linear_backward``."""
    out = np.matmul(x, params[f"{prefix}.w{key}"])
    out += params[f"{prefix}.b{key}"]
    return out


def _linear_backward(
    params: Parameters, grads: dict, prefix: str, key: str, x: np.ndarray, dout: np.ndarray
) -> np.ndarray:
    w = f"{prefix}.w{key}"
    grads[w] += x.reshape(-1, x.shape[-1]).T @ dout
    grads[f"{prefix}.b{key}"] += dout.sum(axis=0)
    return dout @ params[w].T


def _dropout(x: np.ndarray, rate: float, rng, shape) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout; the cache is the scaled keep mask, or None when ``rng``
    is None (dropout off). The mask is drawn at [B, b, H] ``shape``, then cut
    to ``x``'s rows, so a [CLS]-only layer draws what a full layer draws."""
    if rng is None:
        return x, None
    keep = (rng.random(shape)[:, : x.shape[1]] >= rate).astype(x.dtype)
    mask = keep / x.dtype.type(1.0 - rate)
    return x * mask, mask


def _dropout_backward(mask: np.ndarray | None, dout: np.ndarray) -> np.ndarray:
    return dout if mask is None else dout * mask.reshape(dout.shape)


def _add_norm(
    params: Parameters, prefix: str, x: np.ndarray, sub: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Post-norm residual: LayerNorm(x + sub) with ``{prefix}.g``/``.b``.
    The residual is added into ``sub``, which no cache holds."""
    sub += x
    y, xhat, inv = _kernels.layer_norm(
        sub.reshape(-1, x.shape[-1]),
        params[f"{prefix}.g"], params[f"{prefix}.b"], LN_EPS,
    )
    return y.reshape(x.shape), (xhat, inv)


def _add_norm_backward(
    params: Parameters, grads: dict, prefix: str, cache: tuple, dout: np.ndarray
) -> np.ndarray:
    """The returned gradient reaches both the residual and the sublayer."""
    xhat, inv = cache
    dres, dgain, dbias = _kernels.layer_norm_grad(dout, xhat, inv, params[f"{prefix}.g"])
    grads[f"{prefix}.g"] += dgain
    grads[f"{prefix}.b"] += dbias
    return dres


def _attention(
    params: Parameters, prefix: str, xq: np.ndarray, x: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Multi-head attention of the [B, lq, H] query rows ``xq`` (leading rows
    of ``x``) over keys and values from all [B, b, H] rows, [B, b] key mask."""
    cfg = params.config
    q, k, v = (
        _linear(params, prefix, key, rows)
        .reshape(*rows.shape[:2], cfg.num_heads, cfg.head_size)
        .transpose(0, 2, 1, 3)
        for key, rows in (("q", xq), ("k", x), ("v", x))
    )
    scores = np.matmul(q, k.transpose(0, 1, 3, 2))
    scores *= params.dtype.type(1.0 / np.sqrt(cfg.head_size))
    probs = _kernels.masked_softmax(scores, mask)
    # each head's P.V lands in its columns of the [B, lq, heads, head] context
    ctx = np.empty((*xq.shape[:2], cfg.num_heads, cfg.head_size), dtype=probs.dtype)
    np.matmul(probs, v, out=ctx.transpose(0, 2, 1, 3))
    ctx = ctx.reshape(xq.shape)
    return _linear(params, prefix, "o", ctx), (xq, x, q, k, v, probs, ctx)


def _attention_backward(
    params: Parameters, grads: dict, prefix: str, cache: tuple, dout: np.ndarray, dx: np.ndarray
) -> np.ndarray:
    """Input gradient of every row of ``x``: ``dx``, the residual gradient of
    the query rows, then the q, k and v projections' gradients added in that
    order (the order fixes the float result)."""
    xq, x, q, k, v, probs, ctx = cache
    batch_size, num_heads, rows, head_size = q.shape
    dctx = _linear_backward(params, grads, prefix, "o", ctx, dout)
    dctx = dctx.reshape(batch_size, rows, num_heads, head_size).transpose(0, 2, 1, 3)
    dprobs = np.matmul(dctx, v.transpose(0, 1, 3, 2))
    dv = np.matmul(probs.transpose(0, 1, 3, 2), dctx)
    # softmax backward, in place: dprobs becomes the scores' gradient;
    # masked entries have probs exactly 0, so no gradient leaks through padding
    dprobs -= (dprobs * probs).sum(axis=-1, keepdims=True)
    dprobs *= probs
    dprobs *= params.dtype.type(1.0 / np.sqrt(head_size))
    dq = np.matmul(dprobs, k)
    dk = np.matmul(dprobs.transpose(0, 1, 3, 2), q)
    dx_in = np.zeros_like(x)
    dx_in[:, :rows] = dx.reshape(xq.shape)
    for key, inp, d in (("q", xq, dq), ("k", x, dk), ("v", x, dv)):
        d = np.ascontiguousarray(d.transpose(0, 2, 1, 3).reshape(-1, x.shape[-1]))
        d = _linear_backward(params, grads, prefix, key, inp, d)
        dx_in[:, : inp.shape[1]] += d.reshape(inp.shape)
    return dx_in.reshape(-1, x.shape[-1])


def _ffn(params: Parameters, prefix: str, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Position-wise feed-forward: GELU(x W1 + b1) W2 + b2."""
    h = _linear(params, prefix, "1", x)
    a = _kernels.gelu(h)
    return _linear(params, prefix, "2", a), (x, h, a)


def _ffn_backward(
    params: Parameters, grads: dict, prefix: str, cache: tuple, dout: np.ndarray
) -> np.ndarray:
    x, h, a = cache
    da = _linear_backward(params, grads, prefix, "2", a, dout)
    dh = _kernels.gelu_grad(h.reshape(da.shape), da)
    return _linear_backward(params, grads, prefix, "1", x, dh)


def _layer_forward(
    params: Parameters, prefix: str, xq: np.ndarray, x: np.ndarray, mask: np.ndarray, rng
) -> tuple[np.ndarray, tuple]:
    """One encoder layer over the query rows ``xq``, leading rows of ``x``:
    LayerNorm(xq + Dropout(Sublayer(xq))) for attention over all of ``x``,
    then for the feed-forward sublayer."""
    rate = params.config.dropout_rate
    attn_out, attn = _attention(params, f"{prefix}.attn", xq, x, mask)
    attn_out, drop1 = _dropout(attn_out, rate, rng, x.shape)
    y1, norm1 = _add_norm(params, f"{prefix}.ln1", xq, attn_out)
    ffn_out, ffn = _ffn(params, f"{prefix}.ffn", y1)
    ffn_out, drop2 = _dropout(ffn_out, rate, rng, x.shape)
    y2, norm2 = _add_norm(params, f"{prefix}.ln2", y1, ffn_out)
    return y2, (attn, drop1, norm1, ffn, drop2, norm2)


def _layer_backward(
    params: Parameters, grads: dict, prefix: str, cache: tuple, dout: np.ndarray
) -> np.ndarray:
    attn, drop1, norm1, ffn, drop2, norm2 = cache
    dres2 = _add_norm_backward(params, grads, f"{prefix}.ln2", norm2, dout)
    dy1 = dres2 + _ffn_backward(
        params, grads, f"{prefix}.ffn", ffn, _dropout_backward(drop2, dres2)
    )
    dres1 = _add_norm_backward(params, grads, f"{prefix}.ln1", norm1, dy1)
    return _attention_backward(
        params, grads, f"{prefix}.attn", attn, _dropout_backward(drop1, dres1), dres1
    )


def _bucket_forward(
    params: Parameters,
    index: np.ndarray,
    ids: np.ndarray,
    mask: np.ndarray,
    rng: np.random.Generator | None,
) -> tuple[BucketTrace, np.ndarray]:
    """Embedding, encoder layers and head over examples that share one
    bucket length; ``rng`` is None when dropout is off."""
    cfg = params.config
    x = params["tok_emb"][ids] + params["pos_emb"][: ids.shape[1]]
    x, emb_drop = _dropout(x, cfg.dropout_rate, rng, x.shape)
    x = np.ascontiguousarray(x)
    layers = []
    for i in range(cfg.num_layers):
        xq = x[:, :1] if i == cfg.num_layers - 1 else x  # the head reads only [CLS]
        x, cache = _layer_forward(params, f"layers.{i}", xq, x, mask, rng)
        layers.append(cache)
    h_cls = x[:, 0, :]
    logits = _linear(params, "head", "", h_cls[:, None, :])[:, 0, :]
    return BucketTrace(index, ids, emb_drop, layers, h_cls), logits


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, class_weights=None
) -> tuple[float, np.ndarray]:
    """(loss, d_logits): the mean negative log-softmax probability of the
    true class, from a float64 log-sum-exp that stays finite for any finite
    logits, and its float64 gradient. With ``class_weights`` (one positive
    weight per class) the mean is weighted by each example's class weight."""
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.arange(len(labels))
    shifted = logits.astype(np.float64)
    shifted -= shifted.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1, keepdims=True)
    losses = np.log(total[:, 0]) - shifted[rows, labels]
    d_logits = exp / total
    d_logits[rows, labels] -= 1
    if class_weights is None:
        d_logits /= len(labels)
        return float(np.mean(losses)), d_logits
    weights = np.asarray(class_weights, dtype=np.float64)[labels]
    weights /= weights.sum()
    d_logits *= weights[:, None]
    return float(losses @ weights), d_logits


def backward(
    params: Parameters,
    trace: ForwardTrace,
    labels: np.ndarray,
    class_weights=None,
    *,
    out: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Exact gradients of the (optionally class-weighted) mean
    cross-entropy loss for every parameter array, summed over the
    trace's buckets. They are added into ``out``, zeroed arrays shaped like
    the parameters, when it is given, and into new ones otherwise. The
    trace must come from a train-mode forward: an eval-mode trace holds no
    buckets and raises MoodlyricsError."""
    if trace.logits.shape[0] != len(labels):
        raise MoodlyricsError("trace and labels batch sizes differ")
    if not trace.buckets:
        raise MoodlyricsError("backward needs a train-mode trace; this one holds no buckets")

    d_logits = softmax_cross_entropy(trace.logits, labels, class_weights)[1].astype(params.dtype)

    grads = out if out is not None else {name: np.zeros_like(arr) for name, arr in params.items()}
    for bucket in trace.buckets:
        _bucket_backward(params, bucket, d_logits[bucket.index], grads)
    return grads


def _bucket_backward(
    params: Parameters,
    bucket: BucketTrace,
    d_logits: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Add one bucket's parameter gradients into ``grads``."""
    cfg = params.config
    batch_size, length = bucket.ids.shape
    dx = _linear_backward(params, grads, "head", "", bucket.h_cls, d_logits)
    for i in reversed(range(cfg.num_layers)):
        dx = _layer_backward(params, grads, f"layers.{i}", bucket.layers[i], dx)
    dx0 = _dropout_backward(bucket.emb_drop, dx)
    grads["pos_emb"][:length] += dx0.reshape(batch_size, length, -1).sum(axis=0)
    np.add.at(grads["tok_emb"], bucket.ids.reshape(-1), dx0)


def classify(params: Parameters, examples: list[EncodedExample]) -> np.ndarray:
    """Eval-mode logits [N, classes] of ``examples``, EVAL_BATCH at a time.
    An example's logits do not depend on its batch-mates, so they equal its
    own single-example forward's."""
    logits = np.empty((len(examples), params.config.num_classes), dtype=params.dtype)
    for start in range(0, len(examples), EVAL_BATCH):
        chunk = examples[start : start + EVAL_BATCH]
        logits[start : start + len(chunk)] = forward(params, chunk, mode="eval").logits
    return logits


def predict(
    params: Parameters, example: EncodedExample
) -> tuple[MoodLabel, np.ndarray]:
    """The mood of the largest logit, as ``eval`` labels it (ties break
    toward the lowest class index), and the softmax of the logits."""
    logits = classify(params, [example])[0]
    return MoodLabel(int(np.argmax(logits))), softmax(logits)


def save_checkpoint(
    path: str | Path,
    params: Parameters,
    vocab_sha256: str,
    tokenizer_config: TokenizerConfig,
) -> Path:
    """Write a versioned checkpoint atomically; arrays stored as
    little-endian float32.

    The tokenizer is referenced by vocabulary hash; its settings ride along
    in the header so evaluation can rebuild the encoding pipeline.
    """
    header = {
        "model": asdict(params.config),
        "vocab_sha256": vocab_sha256,
        "tokenizer": asdict(tokenizer_config),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def chunks():
        yield CHECKPOINT_MAGIC
        yield struct.pack("<II", CHECKPOINT_VERSION, len(blob))
        yield blob
        for name, _ in _param_shape_items(params.config):
            yield np.ascontiguousarray(params[name], dtype="<f4").tobytes()

    return write_atomic(path, chunks())


def load_checkpoint(
    path: str | Path, *, data: bytes | None = None
) -> tuple[Parameters, str, TokenizerConfig]:
    """Read a checkpoint (or ``data``, its bytes already read), validating
    magic, version and header, and that every value is finite. The arrays
    are read one by one in the stored config's order and shapes, stopping
    at the first one the data lacks; other header keys are ignored.

    Returns (parameters, vocab hash, tokenizer settings).
    """
    path = Path(path)
    if data is None:
        data = read_input(path, "checkpoint")
    if data[:4] != CHECKPOINT_MAGIC:
        raise MoodlyricsError(f"not a model checkpoint: {path}")
    if len(data) < 12:
        raise MoodlyricsError(f"truncated checkpoint: {path}")
    version, header_len = struct.unpack("<II", data[4:12])
    if version != CHECKPOINT_VERSION:
        raise MoodlyricsError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(data[12 : 12 + header_len].decode("utf-8"))
        config = config_from_json(ModelConfig, header["model"])
        vocab_hash = header["vocab_sha256"]
        if not isinstance(vocab_hash, str):
            raise TypeError(f"vocab_sha256 must be a string, got {vocab_hash!r}")
        tokenizer = config_from_json(TokenizerConfig, header["tokenizer"])
        if (length := tokenizer.max_sequence_length) > config.max_positions:
            raise ValueError(f"tokenizer length {length} exceeds max_positions")
    # a deeply nested header makes json raise RecursionError; the config
    # classes raise MoodlyricsError on out-of-range values
    except (ValueError, TypeError, KeyError, RecursionError, MoodlyricsError) as exc:
        raise MoodlyricsError(f"corrupt checkpoint header in {path}: {exc}") from None
    arrays: dict[str, np.ndarray] = {}
    offset = 12 + header_len
    for name, shape in _param_shape_items(config):
        count = int(np.prod(shape))
        raw = data[offset : offset + 4 * count]
        if len(raw) != 4 * count:
            raise MoodlyricsError(f"truncated checkpoint: {path}")
        arr = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise MoodlyricsError(f"non-finite value in checkpoint array {name}: {path}")
        arrays[name] = arr
        offset += 4 * count
    if offset != len(data):
        raise MoodlyricsError(f"trailing bytes in checkpoint: {path}")
    return Parameters(config, arrays), vocab_hash, tokenizer
