import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moodlyrics import _kernels
from moodlyrics.corpus import MoodLabel
from moodlyrics.errors import ModelError
from moodlyrics.model import (
    ModelConfig,
    backward,
    cross_entropy,
    forward,
    init_model,
    load_checkpoint,
    predict,
    save_checkpoint,
    softmax,
    softmax_cross_entropy,
)
from moodlyrics.tokenizer import TokenizerConfig, encode
from moodlyrics.trainer import init_adam_state

from helpers import gradient_check
from oracles import full_encoder_logits


def attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Single-head scaled dot-product attention over [len, d_head] arrays.

    Masked (pad) key positions receive probability exactly zero; each row's
    weights over unmasked keys sum to 1.
    """
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    mask = np.asarray(mask)
    if mask.sum() == 0:
        raise ModelError("attention mask has no unmasked positions")
    d_head = q.shape[-1]
    scores = (q @ k.T) / np.sqrt(d_head)
    probs = _kernels.masked_softmax(
        scores[None, None], mask[None].astype(np.float64)
    )[0, 0]
    return probs @ v


def checkpoint_container(header: bytes) -> bytes:
    """Checkpoint magic, version 1 and the given raw header, no arrays."""
    return b"MLCP" + struct.pack("<II", 1, len(header)) + header


def batch_from(synth32, vocab32, tok_config, count):
    return [
        encode(rec.lyrics, vocab32, tok_config, label=rec.mood)
        for rec in synth32.records[:count]
    ]


def mixed_bucket_batch(synth32, vocab32, tok_config):
    """Five songs cut or joined to real lengths in the 8, 16 and 24-32
    buckets of a 32-position encoding."""
    recs = synth32.records
    texts = [
        " ".join(recs[0].lyrics.split()[:3]),
        recs[1].lyrics,
        recs[2].lyrics + " " + recs[3].lyrics,
        " ".join(recs[4].lyrics.split()[:2]),
        recs[5].lyrics,
    ]
    return [
        encode(text, vocab32, tok_config, label=rec.mood)
        for text, rec in zip(texts, recs)
    ]


def cached_array_digests(trace) -> list[str]:
    """SHA-256 of every array a forward trace holds, in a fixed order."""
    digests = []

    def visit(item):
        if isinstance(item, np.ndarray):
            digests.append(hashlib.sha256(item.tobytes()).hexdigest())
        elif isinstance(item, (tuple, list)):
            for part in item:
                visit(part)

    visit([trace.logits, trace.ids])
    for bucket in trace.buckets:
        visit([bucket.index, bucket.ids, bucket.emb_drop, bucket.layers, bucket.h_cls])
    return digests


def bucket_of(example) -> int:
    """Last unmasked position + 1, rounded up to 8, capped at the length."""
    end = int(np.flatnonzero(example.mask)[-1]) + 1
    return min(math.ceil(end / 8) * 8, len(example.mask))


class TestConfig:
    def test_indivisible_heads_rejected(self):
        with pytest.raises(ModelError, match="divisible"):
            ModelConfig(vocab_size=10, max_positions=8, hidden_size=64, num_heads=3)

    def test_num_classes_fixed(self):
        with pytest.raises(ModelError):
            ModelConfig(vocab_size=10, max_positions=8, num_classes=3)

    def test_ffn_default_is_4x(self):
        config = ModelConfig(vocab_size=10, max_positions=8, hidden_size=16)
        assert config.ffn_size == 64

    def test_full_scale_config_constructible(self):
        from moodlyrics.model import param_shapes

        config = ModelConfig(vocab_size=8000, max_positions=512, num_layers=12,
                             hidden_size=768, num_heads=12)
        shapes = param_shapes(config)
        assert shapes["layers.11.attn.wq"] == (768, 768)
        assert shapes["layers.0.ffn.w1"] == (768, 3072)
        assert shapes["pos_emb"] == (512, 768)
        assert shapes["head.w"] == (768, 4)


class TestInit:
    def test_deterministic(self):
        config = ModelConfig(vocab_size=12, max_positions=8, hidden_size=8, num_heads=2, seed=3)
        a = init_model(config)
        b = init_model(config)
        for name in a.arrays:
            assert np.array_equal(a[name], b[name])

    def test_layer_norm_gains_one_biases_zero(self):
        config = ModelConfig(vocab_size=12, max_positions=8, hidden_size=8, num_heads=2)
        params = init_model(config)
        assert (params["layers.0.ln1.g"] == 1.0).all()
        assert (params["layers.0.ln1.b"] == 0.0).all()
        assert (params["layers.1.ffn.b1"] == 0.0).all()
        assert (params["head.b"] == 0.0).all()

    def test_weight_scale(self):
        config = ModelConfig(vocab_size=400, max_positions=8, hidden_size=64, num_heads=2)
        params = init_model(config)
        assert abs(float(params["tok_emb"].std()) - 0.02) < 0.002


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax(np.zeros(4)), 0.25)

    def test_no_overflow(self):
        probs = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(probs).all()
        assert probs[0] > 0.999999

    def test_log_ratio(self):
        probs = softmax(np.log(np.array([1.0, 3.0])))
        assert np.allclose(probs, [0.25, 0.75], atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ModelError):
            softmax(np.array([np.nan, 0.0]))

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=4)
            assert np.allclose(softmax(v), softmax(v + 13.7), atol=1e-12)
            assert softmax(v).sum() == pytest.approx(1.0, abs=1e-9)


class TestAttention:
    def test_single_position_returns_value_row(self):
        rng = np.random.default_rng(1)
        q, k, v = rng.normal(size=(3, 1, 4))
        out = attention(q, k, v, np.array([1]))
        assert np.allclose(out, v)

    def test_equal_scores_average_unmasked_values(self):
        k = np.zeros((3, 2))
        q = np.ones((3, 2))  # q @ k.T == 0 everywhere
        v = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = attention(q, k, v, np.array([1, 1, 0]))
        expected = v[:2].mean(axis=0)
        assert np.allclose(out[0], expected)

    def test_two_token_hand_case(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        k = np.array([[1.0, 1.0], [0.0, 2.0]])
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = attention(q, k, v, np.array([1, 1]))
        # independent arithmetic: scores = q k^T / sqrt(2), explicit exp/sum
        scores = np.array(
            [
                [1.0 / math.sqrt(2), 0.0 / math.sqrt(2)],
                [1.0 / math.sqrt(2), 2.0 / math.sqrt(2)],
            ]
        )
        expected = np.empty((2, 2))
        for row in range(2):
            weights = np.exp(scores[row])
            weights = weights / weights.sum()
            expected[row] = weights[0] * v[0] + weights[1] * v[1]
        assert np.allclose(out, expected, atol=1e-12)

    def test_all_masked_is_error(self):
        q = k = v = np.ones((2, 2))
        with pytest.raises(ModelError):
            attention(q, k, v, np.array([0, 0]))

    def test_rows_sum_to_one_under_random_masks(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            length = rng.integers(2, 10)
            q, k, v = rng.normal(size=(3, length, 4))
            mask = np.zeros(length, dtype=int)
            mask[: rng.integers(1, length + 1)] = 1
            out = attention(q, k, v, mask)
            assert out.shape == (length, 4)


class TestCrossEntropy:
    def test_confident_correct_is_near_zero(self):
        logits = np.array([[30.0, 0.0, 0.0, 0.0]])
        assert cross_entropy(logits, np.array([0])) < 1e-9

    def test_uniform_is_ln4(self):
        logits = np.zeros((5, 4))
        labels = np.array([0, 1, 2, 3, 0])
        assert cross_entropy(logits, labels) == pytest.approx(math.log(4), abs=1e-12)

    def test_hand_case_ln10(self):
        logits = np.log(np.array([[1.0, 3.0, 3.0, 3.0]]))
        assert cross_entropy(logits, np.array([0])) == pytest.approx(
            math.log(10), abs=1e-12
        )

    def test_duplicated_batch_same_loss(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 4))
        labels = np.array([0, 1, 2, 3])
        single = cross_entropy(logits, labels)
        doubled = cross_entropy(np.vstack([logits, logits]), np.hstack([labels, labels]))
        assert doubled == pytest.approx(single, abs=1e-12)

    def test_uniform_class_weights_match_unweighted(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 4))
        labels = np.array([0, 1, 2, 3, 1, 1])
        plain = cross_entropy(logits, labels)
        weighted = cross_entropy(logits, labels, class_weights=(2.0,) * 4)
        assert weighted == pytest.approx(plain, abs=1e-12)

    def test_class_weights_emphasize_a_class(self):
        logits = np.zeros((2, 4))
        logits[0, 0] = 3.0  # example 0 (class 0) predicted well
        labels = np.array([0, 3])
        light = cross_entropy(logits, labels, class_weights=(1.0, 1.0, 1.0, 0.1))
        heavy = cross_entropy(logits, labels, class_weights=(1.0, 1.0, 1.0, 10.0))
        assert heavy > light  # class 3 is the badly predicted one

    def test_far_logits_stay_finite(self):
        # -log(softmax) would take log(exp(-1000)) = log(0) = -inf here
        loss, d_logits = softmax_cross_entropy(
            np.array([[0.0, -1000.0, -1000.0, -1000.0]]), np.array([1])
        )
        assert loss == 1000.0
        assert np.isfinite(d_logits).all()

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        data=st.data(),
        rows=st.integers(1, 6),
        class_weights=st.none() | st.tuples(*[st.floats(0.1, 10.0)] * 4),
    )
    def test_gradient_matches_central_differences(self, data, rows, class_weights):
        logits = np.array(
            data.draw(st.lists(st.floats(-30.0, 30.0), min_size=4 * rows, max_size=4 * rows))
        ).reshape(rows, 4)
        labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows)))
        _, d_logits = softmax_cross_entropy(logits, labels, class_weights)
        eps = 1e-6
        numeric = np.empty_like(logits)
        for index in np.ndindex(logits.shape):
            up, down = logits.copy(), logits.copy()
            up[index] += eps
            down[index] -= eps
            numeric[index] = (
                softmax_cross_entropy(up, labels, class_weights)[0]
                - softmax_cross_entropy(down, labels, class_weights)[0]
            ) / (2 * eps)
        np.testing.assert_allclose(d_logits, numeric, rtol=0, atol=1e-6)


class TestForward:
    def test_eval_deterministic(self, synth32, vocab32, tok_config, tiny_params):
        batch = batch_from(synth32, vocab32, tok_config, 4)
        a = forward(tiny_params, batch, mode="eval").logits
        b = forward(tiny_params, batch, mode="eval").logits
        assert np.array_equal(a, b)

    def test_identical_examples_identical_rows(self, synth32, vocab32, tok_config, tiny_params):
        example = batch_from(synth32, vocab32, tok_config, 1)[0]
        logits = forward(tiny_params, [example, example], mode="eval").logits
        assert np.array_equal(logits[0], logits[1])

    def test_batch_composition_does_not_change_logits(
        self, synth32, vocab32, tok_config, tiny_params
    ):
        batch = batch_from(synth32, vocab32, tok_config, 5)
        alone = forward(tiny_params, [batch[2]], mode="eval").logits[0]
        together = forward(tiny_params, batch, mode="eval").logits[2]
        assert np.array_equal(alone, together)

    def test_desk_config_length_512(self):
        config = ModelConfig(vocab_size=30, max_positions=512, num_layers=2,
                             hidden_size=64, num_heads=2, seed=0)
        params = init_model(config)
        vocab_stub = type("V", (), {})
        ids = np.full(512, 4, dtype=np.int32)
        ids[0], ids[511] = 2, 3
        mask = np.ones(512, dtype=np.int32)
        from moodlyrics.tokenizer import EncodedExample

        logits = forward(params, [EncodedExample(ids, mask)], mode="eval").logits
        assert logits.shape == (1, 4)

    def test_id_out_of_range(self, tiny_params):
        from moodlyrics.tokenizer import EncodedExample

        ids = np.array([2, 10_000, 3, 0], dtype=np.int32)
        mask = np.array([1, 1, 1, 0], dtype=np.int32)
        with pytest.raises(ModelError, match="out of range"):
            forward(tiny_params, [EncodedExample(ids, mask)], mode="eval")

    def test_train_mode_without_rng_is_error(self, synth32, vocab32, tok_config, tiny_params):
        batch = batch_from(synth32, vocab32, tok_config, 2)
        with pytest.raises(ModelError, match="rng"):
            forward(tiny_params, batch, mode="train")

    def test_padded_ids_never_change_logits(self, synth32, vocab32, tok_config, tiny_params):
        rng = np.random.default_rng(11)
        batch = batch_from(synth32, vocab32, tok_config, 6)
        reference = forward(tiny_params, batch, mode="eval").logits
        for _ in range(100):
            mutated = []
            for example in batch:
                ids = example.ids.copy()
                pad_positions = np.nonzero(example.mask == 0)[0]
                if len(pad_positions):
                    ids[pad_positions] = rng.integers(
                        0, tiny_params.config.vocab_size, size=len(pad_positions)
                    )
                mutated.append(type(example)(ids, example.mask, example.label))
            logits = forward(tiny_params, mutated, mode="eval").logits
            assert np.array_equal(logits, reference)


class TestBuckets:
    def test_mixed_buckets_match_each_example_alone(
        self, synth32, vocab32, tok_config, tiny_params
    ):
        batch = mixed_bucket_batch(synth32, vocab32, tok_config)
        assert len({bucket_of(ex) for ex in batch}) >= 2
        together = forward(tiny_params, batch, mode="eval").logits
        for i, example in enumerate(batch):
            alone = forward(tiny_params, [example], mode="eval").logits[0]
            assert np.array_equal(together[i], alone), i

    def test_trace_ids_trimmed_to_longest_bucket(
        self, synth32, vocab32, tok_config, tiny_params
    ):
        batch = mixed_bucket_batch(synth32, vocab32, tok_config)[:2]
        buckets = [bucket_of(ex) for ex in batch]
        assert len(set(buckets)) >= 2
        trace = forward(tiny_params, batch, mode="eval")
        assert trace.ids.shape == (2, max(buckets))
        assert max(buckets) < tok_config.max_sequence_length

    def test_full_mask_runs_at_full_length(
        self, synth32, vocab32, tok_config, tiny_params
    ):
        long_text = " ".join(rec.lyrics for rec in synth32.records[:4])
        full = encode(long_text, vocab32, tok_config, label=MoodLabel.SAD)
        assert full.mask.all()
        short = mixed_bucket_batch(synth32, vocab32, tok_config)[0]
        batch = [short, full]
        assert len({bucket_of(ex) for ex in batch}) >= 2
        trace = forward(tiny_params, batch, mode="eval")
        assert trace.ids.shape[1] == tok_config.max_sequence_length
        assert [b.ids.shape[1] for b in trace.buckets] == [
            bucket_of(short), tok_config.max_sequence_length
        ]

    def test_bucket_follows_last_unmasked_position(
        self, synth32, vocab32, tok_config, tiny_params
    ):
        from moodlyrics.tokenizer import EncodedExample

        short = mixed_bucket_batch(synth32, vocab32, tok_config)[0]
        mask = short.mask.copy()
        mask[20] = 1  # non-prefix mask: 6 unmasked positions, last at 20
        holed = EncodedExample(short.ids, mask, short.label)
        batch = [short, holed]
        assert len({bucket_of(ex) for ex in batch}) >= 2
        trace = forward(tiny_params, batch, mode="eval")
        assert trace.ids.shape[1] == 24

    @pytest.mark.parametrize(
        "class_weights", [None, (1.0, 2.0, 0.5, 1.5)], ids=["unweighted", "weighted"]
    )
    def test_gradcheck_mixed_buckets_with_dropout(
        self, synth32, vocab32, tok_config, tiny_params, class_weights
    ):
        batch = mixed_bucket_batch(synth32, vocab32, tok_config)[:4]
        assert len({bucket_of(ex) for ex in batch}) >= 2
        assert tiny_params.config.dropout_rate > 0.0
        errors = gradient_check(
            tiny_params, batch, max_entries_per_array=12, class_weights=class_weights
        )
        worst = max(errors.values())
        assert worst <= 1e-3, f"worst relative error {worst:.2e}"


class TestFullLengthOracle:
    @pytest.mark.parametrize("num_heads", [1, 2])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_eval_forward_matches_full_encoder(
        self, synth32, vocab32, tok_config, num_layers, num_heads
    ):
        config = ModelConfig(vocab_size=len(vocab32), max_positions=32,
                             num_layers=num_layers, hidden_size=8,
                             num_heads=num_heads, ffn_size=16, seed=num_layers)
        params = init_model(config, dtype=np.float64)
        for arr in params.arrays.values():
            if arr.ndim > 1:
                arr *= 25.0  # weights of std 0.5, so attention is far from uniform
        batch = mixed_bucket_batch(synth32, vocab32, tok_config)
        assert len({bucket_of(ex) for ex in batch}) >= 2
        logits = forward(params, batch, mode="eval").logits
        for i, example in enumerate(batch):
            expected = full_encoder_logits(params, example)
            assert np.allclose(logits[i], expected, rtol=0.0, atol=1e-12), i

    def test_train_forward_draws_full_dropout_masks(
        self, synth32, vocab32, tok_config, tiny_params
    ):
        """Every dropout site, the last layer's included, draws a [count, b, H]
        mask, so the generator ends where full-length masks leave it."""
        batch = mixed_bucket_batch(synth32, vocab32, tok_config)
        rng = np.random.default_rng(21)
        forward(tiny_params, batch, mode="train", rng=rng)
        expected = np.random.default_rng(21)
        cfg = tiny_params.config
        lengths = [bucket_of(ex) for ex in batch]
        for length in sorted(set(lengths)):
            for _ in range(1 + 2 * cfg.num_layers):
                expected.random((lengths.count(length), length, cfg.hidden_size))
        assert rng.bit_generator.state == expected.bit_generator.state


class TestBackward:
    def test_gradcheck_every_entry_tiny_model(self, synth32, vocab32, tok_config, tiny_params):
        batch = batch_from(synth32, vocab32, tok_config, 3)
        errors = gradient_check(tiny_params, batch)
        worst = max(errors.values())
        assert worst <= 1e-3, f"worst relative error {worst:.2e}"

    def test_gradcheck_without_dropout(self, synth32, vocab32, tok_config):
        config = ModelConfig(vocab_size=len(vocab32), max_positions=32, num_layers=1,
                             hidden_size=8, num_heads=2, ffn_size=16,
                             dropout_rate=0.0, seed=8)
        params = init_model(config, dtype=np.float64)
        batch = batch_from(synth32, vocab32, tok_config, 2)
        errors = gradient_check(params, batch)
        assert max(errors.values()) <= 1e-3

    def test_gradcheck_with_class_weights(self, synth32, vocab32, tok_config, tiny_params):
        batch = batch_from(synth32, vocab32, tok_config, 4)
        errors = gradient_check(
            tiny_params, batch, max_entries_per_array=6,
            class_weights=(1.0, 2.0, 0.5, 1.5),
        )
        assert max(errors.values()) <= 1e-3

    def test_unused_vocab_rows_have_zero_grad(self, synth32, vocab32, tok_config, tiny_params):
        batch = batch_from(synth32, vocab32, tok_config, 3)
        labels = np.array([int(ex.label) for ex in batch])
        trace = forward(tiny_params, batch, mode="eval")
        grads = backward(tiny_params, trace, labels)
        used = set(np.unique(trace.ids))
        unused = [i for i in range(tiny_params.config.vocab_size) if i not in used]
        assert unused, "test needs at least one unused vocabulary row"
        assert (grads["tok_emb"][unused] == 0.0).all()

    def test_duplicated_batch_same_gradients(self, synth32, vocab32, tok_config, tiny_params):
        batch = batch_from(synth32, vocab32, tok_config, 3)
        labels = np.array([int(ex.label) for ex in batch])
        trace = forward(tiny_params, batch, mode="eval")
        grads = backward(tiny_params, trace, labels)
        doubled = batch + batch
        labels2 = np.hstack([labels, labels])
        trace2 = forward(tiny_params, doubled, mode="eval")
        grads2 = backward(tiny_params, trace2, labels2)
        for name in grads:
            assert np.allclose(grads[name], grads2[name], atol=1e-12), name

    @pytest.mark.parametrize("class_weights", [None, (1.0, 2.0, 0.5, 1.5)],
                             ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_adds_into_zeroed_buffers_same_bytes(
        self, synth32, vocab32, tok_config, dtype, class_weights
    ):
        """Gradients added into the optimizer's zeroed packed buffers equal
        a fresh ``backward``'s, array by array."""
        config = ModelConfig(vocab_size=len(vocab32), max_positions=32, num_layers=2,
                             hidden_size=8, num_heads=2, ffn_size=16,
                             dropout_rate=0.1, seed=5)
        params = init_model(config, dtype=dtype)
        state = init_adam_state(params)
        for group in state.groups:
            group.grad.fill(1.0)  # zero_grads must clear what a step left
        batch = mixed_bucket_batch(synth32, vocab32, tok_config)
        labels = np.array([int(ex.label) for ex in batch])
        trace = forward(params, batch, mode="train", rng=np.random.default_rng(9))
        fresh = backward(params, trace, labels, class_weights)
        into = backward(params, trace, labels, class_weights, out=state.zero_grads())
        assert into is state.grads and list(into) == list(fresh)
        for name, grad in fresh.items():
            assert grad.dtype == dtype and np.array_equal(into[name], grad), name

    @pytest.mark.parametrize("dropout_rate", [0.0, 0.1], ids=["no-dropout", "dropout"])
    def test_backward_twice_leaves_trace_as_it_was(
        self, synth32, vocab32, tok_config, dropout_rate
    ):
        """The in-place kernels write into nothing a trace caches: a second
        backward over one trace gives the first's gradients, and every
        cached array keeps its bytes."""
        config = ModelConfig(vocab_size=len(vocab32), max_positions=32, num_layers=2,
                             hidden_size=8, num_heads=2, ffn_size=16,
                             dropout_rate=dropout_rate, seed=5)
        params = init_model(config, dtype=np.float32)
        batch = mixed_bucket_batch(synth32, vocab32, tok_config)
        labels = np.array([int(ex.label) for ex in batch])
        trace = forward(params, batch, mode="train", rng=np.random.default_rng(9))
        assert len(trace.buckets) >= 2
        before = cached_array_digests(trace)
        first = backward(params, trace, labels)
        second = backward(params, trace, labels)
        assert cached_array_digests(trace) == before
        for name, grad in first.items():
            assert np.array_equal(second[name], grad), name


class TestPredict:
    def test_dominant_logit(self, synth32, vocab32, tok_config, tiny_params):
        example = batch_from(synth32, vocab32, tok_config, 1)[0]
        params = tiny_params.copy()
        params.arrays["head.w"][:] = 0.0
        params.arrays["head.b"][:] = np.array([9.0, 0.0, 0.0, 0.0])
        label, probs = predict(params, example)
        assert label is MoodLabel.HAPPY
        assert probs[0] > 0.99

    def test_tie_breaks_to_lowest_index(self, synth32, vocab32, tok_config, tiny_params):
        example = batch_from(synth32, vocab32, tok_config, 1)[0]
        params = tiny_params.copy()
        params.arrays["head.w"][:] = 0.0
        params.arrays["head.b"][:] = 0.0
        label, probs = predict(params, example)
        assert label is MoodLabel.HAPPY
        assert np.allclose(probs, 0.25)

    def test_invariant_to_constant_logit_shift(
        self, synth32, vocab32, tok_config, tiny_params
    ):
        example = batch_from(synth32, vocab32, tok_config, 1)[0]
        label_a, probs_a = predict(tiny_params, example)
        shifted = tiny_params.copy()
        shifted.arrays["head.b"] += 5.0
        label_b, probs_b = predict(shifted, example)
        assert label_a is label_b
        assert np.allclose(probs_a, probs_b, atol=1e-9)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tiny_params, tmp_path):
        params32 = init_model(tiny_params.config, dtype=np.float32)
        path = save_checkpoint(tmp_path / "m.ckpt", params32, "abc123",
                               TokenizerConfig(max_sequence_length=32, vocab_size=500))
        loaded, vocab_hash, tok = load_checkpoint(path)
        assert vocab_hash == "abc123"
        assert tok.max_sequence_length == 32
        assert loaded.config == params32.config
        for name in params32.arrays:
            assert np.array_equal(loaded[name], params32[name])

    @pytest.mark.parametrize(
        "data",
        [
            b"not a checkpoint",
            b"MLCP\x01\x00",
            checkpoint_container(b"{not json"),
            checkpoint_container(
                b'{"model":{"vocab_size":8,"max_positions":8,"bogus":1}}'
            ),
        ],
        ids=["not-a-checkpoint", "shorter-than-12-bytes", "header-not-json",
             "unknown-model-key"],
    )
    def test_rejects_garbage(self, tmp_path, data):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(data)
        with pytest.raises(ModelError):
            load_checkpoint(path)

    def test_rejects_truncation(self, tiny_params, tok_config, tmp_path):
        params32 = init_model(tiny_params.config, dtype=np.float32)
        path = save_checkpoint(tmp_path / "m.ckpt", params32, "h", tok_config)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ModelError, match="truncated"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelError, match="not found"):
            load_checkpoint(tmp_path / "none.ckpt")
