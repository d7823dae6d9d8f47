"""Small BERT-style transformer encoder classifier in numpy.

Post-norm encoder layers (multi-head self-attention, then a position-wise
feed-forward block with GELU), token plus learned position embeddings, and
a linear head over the first position's final hidden state. Forward caches
everything exact backpropagation needs; dropout runs only in train mode
from a caller-supplied generator, and the recorded masks are replayed in
backward.

Checkpoints are a versioned binary container: JSON header (config, vocab
hash, array index) followed by every parameter array as little-endian
float32, validated against the config on load.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .corpus import MoodLabel
from .errors import ModelError
from .tokenizer import EncodedExample

LN_EPS = 1e-5

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
            raise ModelError(f"all model dimensions must be >= 1, got {self}")
        if self.hidden_size % self.num_heads != 0:
            raise ModelError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if self.num_classes != 4:
            raise ModelError(f"num_classes must be 4, got {self.num_classes}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ModelError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def head_size(self) -> int:
        return self.hidden_size // self.num_heads


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter array name and shape, in fixed order."""
    h, f = config.hidden_size, config.ffn_size
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, h),
        "pos_emb": (config.max_positions, h),
    }
    for i in range(config.num_layers):
        prefix = f"layers.{i}"
        for name in ("wq", "wk", "wv", "wo"):
            shapes[f"{prefix}.attn.{name}"] = (h, h)
        for name in ("bq", "bk", "bv", "bo"):
            shapes[f"{prefix}.attn.{name}"] = (h,)
        shapes[f"{prefix}.ln1.g"] = (h,)
        shapes[f"{prefix}.ln1.b"] = (h,)
        shapes[f"{prefix}.ffn.w1"] = (h, f)
        shapes[f"{prefix}.ffn.b1"] = (f,)
        shapes[f"{prefix}.ffn.w2"] = (f, h)
        shapes[f"{prefix}.ffn.b2"] = (h,)
        shapes[f"{prefix}.ln2.g"] = (h,)
        shapes[f"{prefix}.ln2.b"] = (h,)
    shapes["head.w"] = (h, config.num_classes)
    shapes["head.b"] = (config.num_classes,)
    return shapes


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


def is_decay_exempt(name: str, array: np.ndarray) -> bool:
    """Layer-norm parameters and biases (all 1-D arrays) skip weight decay."""
    return array.ndim == 1


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
    """Stable softmax over the last axis; rejects non-finite input."""
    v = np.asarray(v)
    if v.dtype.kind != "f":
        v = v.astype(np.float64)
    if not np.all(np.isfinite(v)):
        raise ModelError("non-finite input to softmax")
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _stack_batch(
    batch, config: ModelConfig, dtype
) -> tuple[np.ndarray, np.ndarray]:
    if len(batch) == 0:
        raise ModelError("forward pass needs a nonempty batch")
    ids = np.stack([ex.ids for ex in batch])
    mask = np.stack([ex.mask for ex in batch])
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ModelError(
            f"token id out of range [0, {config.vocab_size}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    if ids.shape[1] > config.max_positions:
        raise ModelError(
            f"sequence length {ids.shape[1]} exceeds max_positions "
            f"{config.max_positions}"
        )
    if (mask.sum(axis=1) == 0).any():
        raise ModelError("attention mask row with no unmasked positions")
    return ids, mask.astype(dtype)


@dataclass
class ForwardTrace:
    """Logits plus every intermediate needed for exact backpropagation."""

    logits: np.ndarray
    mode: str
    ids: np.ndarray
    maskf: np.ndarray
    emb_drop: np.ndarray | None
    layers: list[dict]
    h_cls: np.ndarray


def _dropout_mask(shape, rate: float, rng, dtype) -> np.ndarray:
    keep = (rng.random(shape) >= rate).astype(dtype)
    return keep / dtype.type(1.0 - rate)


def forward(
    params: Parameters,
    batch: list[EncodedExample],
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> ForwardTrace:
    """Run the encoder classifier over a batch.

    ``mode`` is "train" or "eval"; train mode applies inverted dropout at
    the embedding output and after each sublayer projection, drawing masks
    from ``rng``.
    """
    if mode not in ("train", "eval"):
        raise ModelError(f"mode must be 'train' or 'eval', got {mode!r}")
    cfg = params.config
    dtype = params.dtype
    ids, maskf = _stack_batch(batch, cfg, dtype)
    use_dropout = mode == "train" and cfg.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ModelError("train-mode forward with dropout needs an rng")

    batch_size, length = ids.shape
    rows = batch_size * length
    x = params["tok_emb"][ids] + params["pos_emb"][:length]
    emb_drop = None
    if use_dropout:
        emb_drop = _dropout_mask(x.shape, cfg.dropout_rate, rng, np.dtype(dtype))
        x = x * emb_drop
    x3 = np.ascontiguousarray(x)

    # All projections run as (B, L, H) @ (H, F) matmuls: one GEMM per
    # example with a batch-independent shape, so a given example's logits
    # are bit-identical whatever the rest of the batch contains.
    scale = dtype.type(1.0 / np.sqrt(cfg.head_size))
    layer_traces: list[dict] = []
    for i in range(cfg.num_layers):
        p = f"layers.{i}"
        trace: dict = {"x2_in": x3.reshape(rows, cfg.hidden_size)}
        # attention sublayer
        heads = (batch_size, length, cfg.num_heads, cfg.head_size)
        q = (np.matmul(x3, params[f"{p}.attn.wq"]) + params[f"{p}.attn.bq"]).reshape(heads)
        k = (np.matmul(x3, params[f"{p}.attn.wk"]) + params[f"{p}.attn.bk"]).reshape(heads)
        v = (np.matmul(x3, params[f"{p}.attn.wv"]) + params[f"{p}.attn.bv"]).reshape(heads)
        q, k, v = (a.transpose(0, 2, 1, 3) for a in (q, k, v))
        scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * scale
        probs = _kernels.masked_softmax(scores, maskf)
        ctx = np.matmul(probs, v)
        ctx3 = np.ascontiguousarray(
            ctx.transpose(0, 2, 1, 3).reshape(batch_size, length, cfg.hidden_size)
        )
        attn_out = np.matmul(ctx3, params[f"{p}.attn.wo"]) + params[f"{p}.attn.bo"]
        drop1 = None
        if use_dropout:
            drop1 = _dropout_mask(attn_out.shape, cfg.dropout_rate, rng, np.dtype(dtype))
            attn_out = attn_out * drop1
        y1_2d, xhat1, inv1 = _kernels.layer_norm(
            (x3 + attn_out).reshape(rows, cfg.hidden_size),
            params[f"{p}.ln1.g"], params[f"{p}.ln1.b"], LN_EPS,
        )
        y1 = y1_2d.reshape(batch_size, length, cfg.hidden_size)
        # feed-forward sublayer
        h1 = np.matmul(y1, params[f"{p}.ffn.w1"]) + params[f"{p}.ffn.b1"]
        a1 = _kernels.gelu(h1)
        ffn_out = np.matmul(a1, params[f"{p}.ffn.w2"]) + params[f"{p}.ffn.b2"]
        drop2 = None
        if use_dropout:
            drop2 = _dropout_mask(ffn_out.shape, cfg.dropout_rate, rng, np.dtype(dtype))
            ffn_out = ffn_out * drop2
        y2_2d, xhat2, inv2 = _kernels.layer_norm(
            (y1 + ffn_out).reshape(rows, cfg.hidden_size),
            params[f"{p}.ln2.g"], params[f"{p}.ln2.b"], LN_EPS,
        )
        trace.update(
            q=q, k=k, v=v, probs=probs,
            ctx2=ctx3.reshape(rows, cfg.hidden_size),
            drop1=None if drop1 is None else drop1.reshape(rows, cfg.hidden_size),
            xhat1=xhat1, inv1=inv1, y1=y1_2d,
            h1=h1.reshape(rows, cfg.ffn_size), a1=a1.reshape(rows, cfg.ffn_size),
            drop2=None if drop2 is None else drop2.reshape(rows, cfg.hidden_size),
            xhat2=xhat2, inv2=inv2,
        )
        layer_traces.append(trace)
        x3 = y2_2d.reshape(batch_size, length, cfg.hidden_size)

    h_cls = x3[:, 0, :]
    logits = np.matmul(h_cls[:, None, :], params["head.w"])[:, 0, :] + params["head.b"]
    if not np.all(np.isfinite(logits)):
        raise ModelError("forward pass produced non-finite logits")
    return ForwardTrace(
        logits=logits, mode=mode, ids=ids, maskf=maskf, emb_drop=emb_drop,
        layers=layer_traces, h_cls=h_cls,
    )


def cross_entropy(
    logits: np.ndarray, labels: np.ndarray, class_weights=None
) -> float:
    """Mean negative log-softmax probability of the true class.

    With ``class_weights`` (one positive weight per class) the mean is
    weighted by each example's class weight; classes are unweighted by
    default.
    """
    labels = np.asarray(labels, dtype=np.int64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    picked = shifted[np.arange(len(labels)), labels]
    losses = log_z - picked
    if class_weights is None:
        return float(np.mean(losses))
    weights = np.asarray(class_weights, dtype=np.float64)[labels]
    return float((losses * weights).sum() / weights.sum())


def backward(
    params: Parameters,
    trace: ForwardTrace,
    labels: np.ndarray,
    class_weights=None,
) -> dict[str, np.ndarray]:
    """Exact gradients of the (optionally class-weighted) mean
    cross-entropy loss for every parameter array."""
    cfg = params.config
    dtype = params.dtype
    batch_size, length = trace.ids.shape
    rows = batch_size * length
    if trace.logits.shape[0] != len(labels):
        raise ModelError("trace and labels batch sizes differ")

    grads = {name: np.zeros_like(arr) for name, arr in params.items()}

    labels = np.asarray(labels, dtype=np.int64)
    d_logits = softmax(trace.logits.astype(np.float64))
    d_logits[np.arange(batch_size), labels] -= 1
    if class_weights is None:
        d_logits /= batch_size
    else:
        weights = np.asarray(class_weights, dtype=np.float64)[labels]
        d_logits *= (weights / weights.sum())[:, None]
    d_logits = d_logits.astype(dtype)

    grads["head.w"] = trace.h_cls.T @ d_logits
    grads["head.b"] = d_logits.sum(axis=0)
    dh_cls = d_logits @ params["head.w"].T

    dx = np.zeros((batch_size, length, cfg.hidden_size), dtype=dtype)
    dx[:, 0, :] = dh_cls
    dx2 = dx.reshape(rows, cfg.hidden_size)

    scale = dtype.type(1.0 / np.sqrt(cfg.head_size))
    for i in reversed(range(cfg.num_layers)):
        p = f"layers.{i}"
        t = trace.layers[i]
        dres2, dg2, db2 = _kernels.layer_norm_grad(
            dx2, t["xhat2"], t["inv2"], params[f"{p}.ln2.g"]
        )
        grads[f"{p}.ln2.g"] = dg2
        grads[f"{p}.ln2.b"] = db2
        dffn_out = dres2 if t["drop2"] is None else dres2 * t["drop2"]
        grads[f"{p}.ffn.w2"] = t["a1"].T @ dffn_out
        grads[f"{p}.ffn.b2"] = dffn_out.sum(axis=0)
        da1 = dffn_out @ params[f"{p}.ffn.w2"].T
        dh1 = _kernels.gelu_grad(t["h1"], da1)
        grads[f"{p}.ffn.w1"] = t["y1"].T @ dh1
        grads[f"{p}.ffn.b1"] = dh1.sum(axis=0)
        dy1 = dres2 + dh1 @ params[f"{p}.ffn.w1"].T

        dres1, dg1, db1 = _kernels.layer_norm_grad(
            dy1, t["xhat1"], t["inv1"], params[f"{p}.ln1.g"]
        )
        grads[f"{p}.ln1.g"] = dg1
        grads[f"{p}.ln1.b"] = db1
        dattn_out = dres1 if t["drop1"] is None else dres1 * t["drop1"]
        grads[f"{p}.attn.wo"] = t["ctx2"].T @ dattn_out
        grads[f"{p}.attn.bo"] = dattn_out.sum(axis=0)
        dctx2 = dattn_out @ params[f"{p}.attn.wo"].T

        head_shape = (batch_size, length, cfg.num_heads, cfg.head_size)
        dctx = dctx2.reshape(head_shape).transpose(0, 2, 1, 3)
        dprobs = np.matmul(dctx, t["v"].transpose(0, 1, 3, 2))
        dv = np.matmul(t["probs"].transpose(0, 1, 3, 2), dctx)
        # softmax backward; masked entries have probs exactly 0, so no
        # gradient leaks through padding
        inner = (dprobs * t["probs"]).sum(axis=-1, keepdims=True)
        dscores = t["probs"] * (dprobs - inner) * scale
        dq = np.matmul(dscores, t["k"])
        dk = np.matmul(dscores.transpose(0, 1, 3, 2), t["q"])

        def _flatten_heads(a):
            return np.ascontiguousarray(
                a.transpose(0, 2, 1, 3).reshape(rows, cfg.hidden_size)
            )

        dq2, dk2, dv2 = _flatten_heads(dq), _flatten_heads(dk), _flatten_heads(dv)
        x2_in = t["x2_in"]
        for name, d in (("q", dq2), ("k", dk2), ("v", dv2)):
            grads[f"{p}.attn.w{name}"] = x2_in.T @ d
            grads[f"{p}.attn.b{name}"] = d.sum(axis=0)
        dx2 = (
            dres1
            + dq2 @ params[f"{p}.attn.wq"].T
            + dk2 @ params[f"{p}.attn.wk"].T
            + dv2 @ params[f"{p}.attn.wv"].T
        )

    dx0 = dx2.reshape(batch_size, length, cfg.hidden_size)
    if trace.emb_drop is not None:
        dx0 = dx0 * trace.emb_drop
    grads["pos_emb"][:length] = dx0.sum(axis=0)
    np.add.at(
        grads["tok_emb"],
        trace.ids.reshape(-1),
        dx0.reshape(rows, cfg.hidden_size),
    )
    return grads


def predict(
    params: Parameters, example: EncodedExample
) -> tuple[MoodLabel, np.ndarray]:
    """Most probable mood and the full probability vector. Ties break
    toward the lowest class index."""
    trace = forward(params, [example], mode="eval")
    probs = softmax(trace.logits.astype(np.float64))[0]
    return MoodLabel(int(np.argmax(probs))), probs


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


def save_checkpoint(
    path: str | Path,
    params: Parameters,
    vocab_sha256: str,
    tokenizer_config=None,
) -> Path:
    """Write a versioned checkpoint; arrays stored as little-endian float32.

    The tokenizer is referenced by vocabulary hash; its settings ride along
    in the header so evaluation can rebuild the encoding pipeline.
    """
    header = {
        "format": "moodlyrics-checkpoint",
        "version": CHECKPOINT_VERSION,
        "model": asdict(params.config),
        "vocab_sha256": vocab_sha256,
        "tokenizer": None if tokenizer_config is None else asdict(tokenizer_config),
        "arrays": [
            {"name": name, "shape": list(arr.shape)} for name, arr in params.items()
        ],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for arr in params.arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return path


def load_checkpoint(path: str | Path) -> tuple[Parameters, str, dict | None]:
    """Read a checkpoint, validating magic, version, and array shapes
    against the stored config.

    Returns (parameters, vocab hash, tokenizer settings dict or None).
    """
    path = Path(path)
    if not path.is_file():
        raise ModelError(f"checkpoint not found: {path}")
    data = path.read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise ModelError(f"not a model checkpoint: {path}")
    if len(data) < 12:
        raise ModelError(f"truncated checkpoint: {path}")
    version, header_len = struct.unpack("<II", data[4:12])
    if version != CHECKPOINT_VERSION:
        raise ModelError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(data[12 : 12 + header_len].decode("utf-8"))
        config = ModelConfig(**header["model"])
        listed = {entry["name"]: tuple(entry["shape"]) for entry in header["arrays"]}
        vocab_hash = header["vocab_sha256"]
    except (ValueError, TypeError, KeyError) as exc:
        raise ModelError(f"corrupt checkpoint header in {path}: {exc}") from None
    expected = param_shapes(config)
    if listed != expected:
        raise ModelError("checkpoint arrays do not match the stored config")
    arrays: dict[str, np.ndarray] = {}
    offset = 12 + header_len
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape))
        raw = data[offset : offset + 4 * count]
        if len(raw) != 4 * count:
            raise ModelError(f"truncated checkpoint: {path}")
        arrays[entry["name"]] = (
            np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        )
        offset += 4 * count
    if offset != len(data):
        raise ModelError(f"trailing bytes in checkpoint: {path}")
    return Parameters(config, arrays), vocab_hash, header.get("tokenizer")
