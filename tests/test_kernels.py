import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from moodlyrics import _kernels as K

from oracles import adamw_update_allocating

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


class TestSelection:
    def test_selected_backends_cover_all_kernels(self):
        assert K.selected_backends() == dict.fromkeys(K.KERNEL_NAMES, "numpy")
        assert all(callable(getattr(K, name)) for name in K.KERNEL_NAMES)
