import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from moodlyrics import _kernels as K
from moodlyrics.model import ModelConfig, Parameters, _linear, param_shapes

from oracles import (
    adamw_update_allocating,
    gelu_allocating,
    gelu_grad_allocating,
    layer_norm_allocating,
    layer_norm_grad_allocating,
    masked_softmax_allocating,
)

RNG = np.random.default_rng(123)


def random_scores(batch=3, heads=2, length=9, dtype=np.float64):
    scores = RNG.normal(size=(batch, heads, length, length)).astype(dtype)
    mask = np.ones((batch, length), dtype=dtype)
    for b in range(batch):
        pad_from = RNG.integers(2, length + 1)
        mask[b, pad_from:] = 0.0
    return scores, mask


class TestMaskedSoftmax:
    def test_rows_normalize_over_unmasked(self):
        scores, mask = random_scores()
        probs = K.masked_softmax(scores, mask)
        sums = probs.sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-9)

    def test_masked_keys_exactly_zero(self):
        scores, mask = random_scores()
        probs = K.masked_softmax(scores, mask)
        masked = np.broadcast_to(mask[:, None, None, :] == 0, probs.shape)
        assert (probs[masked] == 0.0).all()


class TestGelu:
    def test_known_values(self):
        # gelu(0) = 0; large positive ~ identity; large negative ~ 0
        x = np.array([0.0, 10.0, -10.0])
        y = K.gelu(x)
        assert y[0] == 0.0
        assert abs(y[1] - 10.0) < 1e-6
        assert abs(y[2]) < 1e-6

    def test_grad_matches_finite_differences(self):
        x = RNG.normal(size=64)
        dy = RNG.normal(size=64)
        eps = 1e-6
        fd = (K.gelu(x + eps) - K.gelu(x - eps)) / (2 * eps)
        assert np.allclose(K.gelu_grad(x, dy), dy * fd, atol=1e-7)


class TestLayerNorm:
    def test_normalizes_rows(self):
        x = RNG.normal(size=(11, 16)) * 3 + 2
        gain = np.ones(16)
        bias = np.zeros(16)
        y, xhat, inv = K.layer_norm(x, gain, bias, 1e-5)
        assert np.allclose(y.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(y.std(axis=1), 1.0, atol=1e-3)
        assert np.allclose(xhat, y)

    def test_grad_matches_finite_differences(self):
        n, h = 4, 8
        x = RNG.normal(size=(n, h))
        gain = RNG.normal(size=h) + 1.0
        bias = RNG.normal(size=h)
        dy = RNG.normal(size=(n, h))
        _, xhat, inv = K.layer_norm(x, gain, bias, 1e-5)
        dx, dgain, dbias = K.layer_norm_grad(dy, xhat, inv, gain)

        def loss(x_):
            y_, _, _ = K.layer_norm(x_, gain, bias, 1e-5)
            return float((y_ * dy).sum())

        eps = 1e-6
        for _ in range(20):
            i, j = RNG.integers(n), RNG.integers(h)
            probe = x.copy()
            probe[i, j] += eps
            up = loss(probe)
            probe[i, j] -= 2 * eps
            down = loss(probe)
            fd = (up - down) / (2 * eps)
            assert abs(fd - dx[i, j]) < 1e-6


class TestAdamWUpdate:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        size=st.integers(1, 300),
        block=st.integers(1, 320),
        weight_decay=st.sampled_from([0.0, 0.01, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_in_place_equals_allocating_oracle(
        self, dtype, size, block, weight_decay, seed
    ):
        """30 steps of the blocked kernel, any block length, give the oracle's
        bytes for the parameter and both moments."""
        rng = np.random.default_rng(seed)
        param = rng.normal(size=size).astype(dtype)
        m, v = np.zeros_like(param), np.zeros_like(param)
        ref_param, ref_m, ref_v = param.copy(), m.copy(), v.copy()
        block = min(block, size)
        scratch = (np.empty(block, dtype), np.empty(block, dtype))
        lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
        for step in range(1, 31):
            grad = (rng.normal(size=size) * 10.0 ** rng.integers(-6, 2)).astype(dtype)
            grad[rng.random(size) < 0.1] = 0.0
            bias_c1, bias_c2 = 1.0 - beta1**step, 1.0 - beta2**step
            args = (lr, beta1, beta2, eps, weight_decay, bias_c1, bias_c2)
            K.adamw_update(param, grad, m, v, *args, scratch)
            adamw_update_allocating(ref_param, grad, ref_m, ref_v, *args)
            for got, want in ((param, ref_param), (m, ref_m), (v, ref_v)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def spread_values(rng, shape, dtype):
    """Normal values at scales from 1e-4 to 1e2 per element, with a few
    zeros and values where tanh saturates."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 3, size=shape)
    flat = x.reshape(-1)
    flat[rng.random(flat.size) < 0.05] = 0.0
    flat[rng.random(flat.size) < 0.05] *= 1e3
    return x.astype(dtype)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_unchanged(arrays, copies):
    for arr, copy in zip(arrays, copies):
        assert arr.tobytes() == copy.tobytes()


EXACT = dict(max_examples=40, derandomize=True, database=None, deadline=None)
DTYPES = st.sampled_from([np.float32, np.float64])


class TestInPlaceKernelsRoundLikeTheOracles:
    """Each kernel writes into its outputs but rounds every element as the
    allocating textbook expression in ``oracles`` does, and leaves its
    inputs as they are (``masked_softmax`` overwrites ``scores`` alone)."""

    @settings(**EXACT)
    @given(
        dtype=DTYPES,
        shape=st.one_of(
            st.tuples(st.integers(1, 40), st.integers(1, 70)),  # [N, H]
            st.tuples(st.integers(1, 4), st.integers(1, 20), st.integers(1, 40)),  # [B, b, F]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gelu_and_grad(self, dtype, shape, seed):
        rng = np.random.default_rng(seed)
        x = spread_values(rng, shape, dtype)
        # where 2x overflows, (0.5 * x) * 2 is finite but 0.5 * (x * 2) is not
        x.reshape(-1)[rng.random(x.size) < 0.05] = np.finfo(dtype).max * 0.75
        dy = spread_values(rng, shape, dtype)
        inputs = (x, dy)
        copies = [a.copy() for a in inputs]
        with np.errstate(over="ignore", invalid="ignore"):  # x**3 overflows there
            assert_same_bytes(K.gelu(x), gelu_allocating(x))
            assert_same_bytes(K.gelu_grad(x, dy), gelu_grad_allocating(x, dy))
        assert_unchanged(inputs, copies)

    @settings(**EXACT)
    @given(
        dtype=DTYPES,
        rows=st.integers(1, 40),
        width=st.integers(1, 70),
        constant_row=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_layer_norm_and_grad(self, dtype, rows, width, constant_row, seed):
        rng = np.random.default_rng(seed)
        x = spread_values(rng, (rows, width), dtype) + dtype(rng.normal() * 10)
        if constant_row:
            x[0] = x[0, 0]  # zero variance: the row is eps alone
        gain = rng.normal(1.0, 0.5, size=width).astype(dtype)
        bias = rng.normal(size=width).astype(dtype)
        dy = spread_values(rng, (rows, width), dtype)

        inputs = (x, gain, bias)
        copies = [a.copy() for a in inputs]
        got = K.layer_norm(x, gain, bias, 1e-5)
        want = layer_norm_allocating(x, gain, bias, 1e-5)
        for g, w in zip(got, want):
            assert_same_bytes(g, w)
        assert_unchanged(inputs, copies)

        _, xhat, inv = want
        inputs = (dy, xhat, inv, gain)
        copies = [a.copy() for a in inputs]
        got = K.layer_norm_grad(dy, xhat, inv, gain)
        want = layer_norm_grad_allocating(dy, xhat, inv, gain)
        for g, w in zip(got, want):
            assert_same_bytes(g, w)
        assert_unchanged(inputs, copies)

    @settings(**EXACT)
    @given(
        dtype=DTYPES,
        batch=st.integers(1, 4),
        heads=st.sampled_from([1, 2, 4]),
        keys=st.integers(1, 40),
        cls_row=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_masked_softmax_overwrites_scores(self, dtype, batch, heads, keys, cls_row, seed):
        """[B, heads, b, b] scores, or the [B, heads, 1, b] [CLS] row, under
        masks with interior holes; every mask row keeps one key."""
        rng = np.random.default_rng(seed)
        rows = 1 if cls_row else keys
        scores = spread_values(rng, (batch, heads, rows, keys), dtype)
        mask = (rng.random((batch, keys)) < 0.6).astype(dtype)
        mask[np.arange(batch), rng.integers(0, keys, size=batch)] = 1.0
        mask_copy = mask.copy()
        want = masked_softmax_allocating(scores, mask)
        got = K.masked_softmax(scores, mask)
        assert got is scores
        assert_same_bytes(got, want)
        assert_unchanged((mask,), (mask_copy,))

    @settings(**EXACT)
    @given(dtype=DTYPES, batch=st.integers(1, 4), rows=st.integers(1, 20),
           seed=st.integers(0, 2**32 - 1))
    def test_linear_adds_bias_in_place(self, dtype, batch, rows, seed):
        """The model's projection, its bias added into the matmul output,
        equals ``x @ W + b``."""
        rng = np.random.default_rng(seed)
        config = ModelConfig(vocab_size=5, max_positions=20, num_layers=1,
                             hidden_size=8, num_heads=2, ffn_size=12)
        params = Parameters(config, {
            name: rng.normal(size=shape).astype(dtype)
            for name, shape in param_shapes(config).items()
        })
        x = spread_values(rng, (batch, rows, 8), dtype)
        w, b = params["layers.0.ffn.w1"], params["layers.0.ffn.b1"]
        assert_same_bytes(_linear(params, "layers.0.ffn", "1", x), x @ w + b)


class TestSelection:
    def test_selected_backends_cover_all_kernels(self):
        assert K.selected_backends() == dict.fromkeys(K.KERNEL_NAMES, "numpy")
        assert all(callable(getattr(K, name)) for name in K.KERNEL_NAMES)
