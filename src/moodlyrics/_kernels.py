"""Hot numeric kernels: masked softmax, GELU, layer norm, AdamW update.

Each kernel is one numpy implementation; matrix multiplies stay in numpy
(BLAS). GELU uses the tanh approximation, so values differ from the erf
form in the last few ulps.
"""

from __future__ import annotations

import numpy as np

_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715

KERNEL_NAMES = (
    "masked_softmax",
    "gelu",
    "gelu_grad",
    "layer_norm",
    "layer_norm_grad",
    "adamw_update",
)

# the kernel path recorded in run environments; numpy is the only one
MODE = "numpy"


def selected_backends() -> dict[str, str]:
    """Which implementation each kernel is bound to."""
    return dict.fromkeys(KERNEL_NAMES, MODE)


def masked_softmax(scores: np.ndarray, key_mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax of [B, heads, Lq, Lk] scores over unmasked keys.

    ``key_mask`` is [B, Lk]; masked key positions get probability exactly 0.
    Every mask row must have at least one nonzero entry.
    """
    bias = np.where(key_mask[:, None, None, :] > 0, 0.0, -np.inf)
    shifted = scores + bias.astype(scores.dtype)
    shifted -= shifted.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def gelu(x: np.ndarray) -> np.ndarray:
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    return (0.5 * x * (1.0 + np.tanh(inner))).astype(x.dtype, copy=False)


def gelu_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    t = np.tanh(inner)
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (
        1.0 + 3.0 * _GELU_A * x * x
    )
    return (dy * local).astype(x.dtype, copy=False)


def layer_norm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize the last axis of [N, H]. Returns (y, xhat, inv_std)."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    y = xhat * gain + bias
    return (
        y.astype(x.dtype, copy=False),
        xhat.astype(x.dtype, copy=False),
        inv[..., 0].astype(x.dtype, copy=False),
    )


def layer_norm_grad(
    dy: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gain: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of layer_norm over [N, H]. Returns (dx, dgain, dbias)."""
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    dxhat = dy * gain
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std[:, None] * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    return dx.astype(dy.dtype, copy=False), dgain, dbias


def adamw_update(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    weight_decay: float,
    bias_c1: float,
    bias_c2: float,
) -> None:
    """In-place AdamW step on flat arrays; decay is decoupled."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / bias_c1
    v_hat = v / bias_c2
    param -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * param)
