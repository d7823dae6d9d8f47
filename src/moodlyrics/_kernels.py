"""Hot numeric kernels: softmax (plain and masked), GELU, layer norm, AdamW.

Each kernel is one numpy implementation; matrix multiplies stay in numpy
(BLAS). GELU uses the tanh approximation, so values differ from the erf
form in the last few ulps.

The kernels make no temporary per numpy operator. They run the operations
of their textbook expression in its order through ``out=`` and in-place
operators, only swapping the operands of a multiplication or addition
(which rounds the same either way), so every result keeps the bits of the
allocating expressions that ``tests/oracles.py`` holds. ``masked_softmax``
and ``softmax_inplace`` overwrite their scores and return them; ``gelu``,
``gelu_grad``, ``layer_norm`` and ``layer_norm_grad`` return new arrays and
leave their inputs as they are; ``adamw_update`` updates its parameter and
moment arrays in place.
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


def softmax_inplace(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a float array, in place; returns ``x``.
    Unchecked: every row needs a finite maximum."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def masked_softmax(scores: np.ndarray, key_mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax of [B, heads, Lq, Lk] scores over unmasked keys, in
    place: overwrites ``scores`` with the probabilities and returns it.

    ``key_mask`` is [B, Lk]; masked key positions get probability exactly 0.
    Every mask row must have at least one nonzero entry.
    """
    np.copyto(scores, scores.dtype.type(-np.inf), where=key_mask[:, None, None, :] <= 0)
    return softmax_inplace(scores)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """``tanh(C * (x + A * x * x * x))`` as a new array, with the products
    grouped from the left as written."""
    t = np.multiply(x, _GELU_A)
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu(x: np.ndarray) -> np.ndarray:
    """``0.5 * x * (1 + tanh(C * (x + A * x**3)))`` as a new array; ``x``
    is left as it is."""
    y = _gelu_tanh(x)
    y += 1.0
    y *= np.multiply(x, 0.5)
    return y


def gelu_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``dy`` times the derivative of ``gelu`` at ``x``, as a new array;
    ``x`` and ``dy`` are left as they are."""
    # the derivative is 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * C * (1 + 3A * x * x)
    # with t = tanh(C * (x + A * x**3)). ``dx`` builds the second term while
    # ``t`` is kept for the first, and ``s`` holds (1 - t * t), then
    # (1 + 3A * x * x): the two factors need one scratch beside ``t``
    t = _gelu_tanh(x)
    s = np.multiply(t, t)
    np.subtract(1.0, s, out=s)
    dx = np.multiply(x, 0.5)
    dx *= s
    dx *= _GELU_C
    np.multiply(x, 3.0 * _GELU_A, out=s)
    s *= x
    s += 1.0
    dx *= s
    t += 1.0
    t *= 0.5
    dx += t
    dx *= dy
    return dx


def layer_norm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize the last axis of [N, H]. Returns (y, xhat, inv_std), all new
    arrays; ``x`` is left as it is."""
    n = x.shape[-1]
    # ``sum`` then ``/= n`` gives ``mean``'s bits: for float32, mean divides
    # the same sum in float64 and rounds back, and float64 carries more than
    # 2 * 24 + 2 bits, so that double rounding equals one float32 division
    mean = x.sum(axis=-1, keepdims=True)
    mean /= n
    xhat = np.subtract(x, mean)
    y = np.multiply(xhat, xhat)
    inv = y.sum(axis=-1, keepdims=True)
    inv /= n
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain, out=y)
    y += bias
    return y, xhat, inv[..., 0]


def layer_norm_grad(
    dy: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gain: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of layer_norm over [N, H]. Returns (dx, dgain, dbias), all
    new arrays; the inputs are left as they are."""
    n = dy.shape[-1]  # each ``/= n`` rounds like ``mean``, as in layer_norm
    s = np.multiply(dy, xhat)
    dgain = s.sum(axis=0)
    dbias = dy.sum(axis=0)
    dx = np.multiply(dy, gain)  # dxhat until the subtractions below
    mean_dxhat = dx.sum(axis=-1, keepdims=True)
    mean_dxhat /= n
    np.multiply(dx, xhat, out=s)
    mean_dxhat_xhat = s.sum(axis=-1, keepdims=True)
    mean_dxhat_xhat /= n
    dx -= mean_dxhat
    np.multiply(xhat, mean_dxhat_xhat, out=s)
    dx -= s
    dx *= inv_std[:, None]
    return dx, dgain, dbias


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
    scratch: tuple[np.ndarray, np.ndarray],
) -> None:
    """In-place AdamW step on 1-D arrays; decay is decoupled.

    ``scratch`` is two 1-D arrays of one length that the step overwrites.
    The arrays are updated in blocks of that length, so each block's passes
    run in cache and the step allocates nothing. Every element goes through
    the operations of ``param -= lr * (m_hat / (sqrt(v_hat) + eps) +
    weight_decay * param)`` in that expression's order, so the result does
    not depend on the block length."""
    block = len(scratch[0])
    for start in range(0, len(param), block):
        stop = start + block
        p, g, mb, vb = param[start:stop], grad[start:stop], m[start:stop], v[start:stop]
        s1, s2 = scratch[0][: len(p)], scratch[1][: len(p)]
        mb *= beta1
        np.multiply(g, 1.0 - beta1, out=s1)
        mb += s1
        vb *= beta2
        np.multiply(g, 1.0 - beta2, out=s1)
        s1 *= g
        vb += s1
        np.divide(mb, bias_c1, out=s1)
        np.divide(vb, bias_c2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += eps
        s1 /= s2
        np.multiply(p, weight_decay, out=s2)
        s1 += s2
        s1 *= lr
        p -= s1
