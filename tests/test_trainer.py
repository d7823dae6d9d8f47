import math

import numpy as np
import pytest

import moodlyrics.trainer as trainer_module
from moodlyrics.corpus import synthesize_corpus
from moodlyrics.errors import TrainerError
from moodlyrics.model import ModelConfig, Parameters, init_model, load_checkpoint
from moodlyrics.tokenizer import TokenizerConfig, encode_corpus, train_wordpiece
from moodlyrics.trainer import (
    TrainConfig,
    adamw_step,
    best_epoch_index,
    clip_grad_norm,
    evaluate,
    init_adam_state,
    linear_schedule,
    train,
)

from helpers import TrainHistory

TINY_MODEL = ModelConfig(vocab_size=10, max_positions=8, num_layers=1,
                         hidden_size=8, num_heads=2, ffn_size=8)


def single_param(values, name="w"):
    params = Parameters(TINY_MODEL, {name: np.array(values, dtype=np.float64)})
    return params, init_adam_state(params)


class TestAdamW:
    def test_first_step_hand_example(self):
        # m-hat = v-hat = 1 after bias correction, so theta -> -lr
        params, state = single_param([0.0, 0.0, 0.0])
        grads = {"w": np.ones(3)}
        config = TrainConfig(learning_rate=0.1, weight_decay=0.0)
        adamw_step(params, grads, state, lr=0.1, config=config)
        assert np.allclose(params["w"], -0.1, atol=1e-6)

    def test_zero_gradient_is_fixed_point(self):
        params, state = single_param([1.5, -2.0])
        config = TrainConfig(weight_decay=0.0)
        adamw_step(params, {"w": np.zeros(2)}, state, lr=0.1, config=config)
        assert np.array_equal(params["w"], np.array([1.5, -2.0]))

    def test_decoupled_decay_shrinks_weights(self):
        # 2-D arrays are decayed; zero gradient isolates the decay term
        params = Parameters(TINY_MODEL, {"w": np.full((2, 2), 3.0)})
        state = init_adam_state(params)
        config = TrainConfig(weight_decay=0.1)
        adamw_step(params, {"w": np.zeros((2, 2))}, state, lr=0.5, config=config)
        assert (params["w"] < 3.0).all() and (params["w"] > 0.0).all()
        assert np.allclose(params["w"], 3.0 - 0.5 * 0.1 * 3.0)

    def test_exempt_arrays_identical_with_and_without_decay(self):
        # 1-D arrays (biases, layer-norm) are never decayed
        params_a, state_a = single_param([2.0, 2.0], name="b")
        params_b, state_b = single_param([2.0, 2.0], name="b")
        adamw_step(params_a, {"b": np.zeros(2)}, state_a, 0.1,
                   TrainConfig(weight_decay=0.0))
        adamw_step(params_b, {"b": np.zeros(2)}, state_b, 0.1,
                   TrainConfig(weight_decay=0.5))
        assert np.array_equal(params_a["b"], params_b["b"])

    def test_non_finite_gradient_rejected(self):
        params, state = single_param([0.0])
        with pytest.raises(TrainerError, match="non-finite"):
            adamw_step(params, {"w": np.array([np.nan])}, state, 0.1, TrainConfig())

    def test_matches_reference_adam_sequence(self):
        # independent step-by-step reference of the update equations
        params, state = single_param([0.5])
        config = TrainConfig(learning_rate=0.01, weight_decay=0.0)
        theta, m, v = 0.5, 0.0, 0.0
        rng = np.random.default_rng(0)
        for t in range(1, 6):
            g = float(rng.normal())
            adamw_step(params, {"w": np.array([g])}, state, 0.01, config)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            theta -= 0.01 * m_hat / (math.sqrt(v_hat) + 1e-8)
            assert params["w"][0] == pytest.approx(theta, abs=1e-12)


class TestLinearSchedule:
    def test_endpoints(self):
        assert linear_schedule(0, 100, 8e-5) == 8e-5
        assert linear_schedule(100, 100, 8e-5) == 0.0

    def test_midpoint(self):
        assert linear_schedule(50, 100, 8e-5) == pytest.approx(4e-5)

    def test_strictly_decreasing_zero_only_at_end(self):
        values = [linear_schedule(s, 40, 1e-3) for s in range(41)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0
        assert all(v > 0 for v in values[:-1])

    def test_out_of_range(self):
        with pytest.raises(TrainerError):
            linear_schedule(-1, 10, 1e-3)
        with pytest.raises(TrainerError):
            linear_schedule(11, 10, 1e-3)
        with pytest.raises(TrainerError):
            linear_schedule(0, 0, 1e-3)


class TestClipGradNorm:
    def test_scales_when_over(self):
        grads = {"a": np.array([2.0, 0.0]), "b": np.array([0.0, 0.0])}
        clip_grad_norm(grads, 1.0)
        assert np.allclose(grads["a"], [1.0, 0.0])

    def test_untouched_when_under(self):
        grads = {"a": np.array([0.3, 0.4])}
        clip_grad_norm(grads, 1.0)
        assert np.array_equal(grads["a"], np.array([0.3, 0.4]))

    def test_post_clip_norm_is_min(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            grads = {
                name: rng.normal(size=rng.integers(1, 20))
                for name in ("a", "b", "c")
            }
            before = math.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
            max_norm = float(rng.uniform(0.1, 3.0))
            clip_grad_norm(grads, max_norm)
            after = math.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
            assert abs(after - min(before, max_norm)) < 1e-9


class TestHistory:
    def test_best_epoch_first_max(self):
        assert best_epoch_index([0.50, 0.63, 0.61]) == 2

    def test_ties_take_first(self):
        assert best_epoch_index([0.5, 0.7, 0.7]) == 2

    def test_csv_round_trip(self, tmp_path):
        history = TrainHistory(
            train_loss=[1.0, 0.5], train_acc=[0.5, 1.0],
            val_loss=[1.2, 0.9], val_acc=[0.25, 0.75], best_epoch=2,
        )
        path = history.save_csv(tmp_path / "h.csv")
        loaded = TrainHistory.load_csv(path)
        assert loaded == history


def small_training_setup(per_class=6, epochs=3, **train_kw):
    corpus = synthesize_corpus(seed=5, per_class=per_class)
    tok_config = TokenizerConfig(max_sequence_length=24, vocab_size=400)
    vocab = train_wordpiece(corpus, tok_config)
    model_config = ModelConfig(
        vocab_size=len(vocab), max_positions=24, num_layers=1,
        hidden_size=16, num_heads=2, seed=3,
    )
    params = init_model(model_config)
    config = TrainConfig(
        batch_size=8, learning_rate=2e-3, epochs=epochs, seed=11, **train_kw
    )
    return corpus, tok_config, vocab, params, config


class TestTrain:
    def test_deterministic_history_and_checkpoint(self, tmp_path):
        results = []
        for run in ("a", "b"):
            corpus, tok_config, vocab, params, config = small_training_setup()
            ckpt = tmp_path / f"{run}.ckpt"
            _, history = train(params, corpus, corpus, vocab, tok_config, config,
                               checkpoint_path=ckpt)
            results.append((history, ckpt.read_bytes()))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]

    def test_history_lengths_and_best_epoch(self):
        corpus, tok_config, vocab, params, config = small_training_setup(epochs=4)
        _, history = train(params, corpus, corpus, vocab, tok_config, config)
        assert len(history) == 4
        assert len(history.train_loss) == 4
        best = history.best_epoch
        assert history.val_acc[best - 1] == max(history.val_acc)
        assert best == best_epoch_index(history.val_acc)

    def test_loss_decreases_on_frozen_batch(self):
        # full-batch descent with a small lr: eval loss after each of the
        # first epochs strictly decreases
        corpus = synthesize_corpus(seed=5, per_class=4)
        tok_config = TokenizerConfig(max_sequence_length=24, vocab_size=400)
        vocab = train_wordpiece(corpus, tok_config)
        model_config = ModelConfig(
            vocab_size=len(vocab), max_positions=24, num_layers=1,
            hidden_size=16, num_heads=2, dropout_rate=0.0, seed=3,
        )
        params = init_model(model_config)
        config = TrainConfig(batch_size=16, learning_rate=5e-4, epochs=5, seed=1)
        _, history = train(params, corpus, corpus, vocab, tok_config, config)
        losses = history.train_loss
        assert all(a > b for a, b in zip(losses, losses[1:])), losses

    def test_reloaded_checkpoint_reproduces_best_val_accuracy(self, tmp_path):
        corpus, tok_config, vocab, params, config = small_training_setup(epochs=3)
        ckpt = tmp_path / "best.ckpt"
        _, history = train(params, corpus, corpus, vocab, tok_config, config,
                           checkpoint_path=ckpt)
        reloaded, vocab_hash, _ = load_checkpoint(ckpt)
        assert vocab_hash == vocab.sha256()
        examples = encode_corpus(corpus, vocab, tok_config)
        _, accuracy = evaluate(reloaded, examples, config.batch_size)
        assert accuracy == max(history.val_acc)

    def test_scripted_validation_sequence_selects_epoch_two(self, monkeypatch, tmp_path):
        corpus, tok_config, vocab, params, config = small_training_setup(epochs=3)
        scripted = iter([0.10, 0.50, 0.20, 0.63, 0.30, 0.61])  # train, val pairs
        monkeypatch.setattr(
            trainer_module, "evaluate", lambda *a, **k: (1.0, next(scripted))
        )
        ckpt = tmp_path / "best.ckpt"
        _, history = train(params, corpus, corpus, vocab, tok_config, config,
                           checkpoint_path=ckpt)
        assert history.val_acc == [0.50, 0.63, 0.61]
        assert history.best_epoch == 2

    def test_non_finite_loss_aborts_with_diagnostic(self, monkeypatch):
        corpus, tok_config, vocab, params, config = small_training_setup(epochs=1)
        monkeypatch.setattr(
            trainer_module, "cross_entropy", lambda *args, **kwargs: float("nan")
        )
        with pytest.raises(TrainerError, match="non-finite loss"):
            train(params, corpus, corpus, vocab, tok_config, config)

    def test_config_validation(self):
        with pytest.raises(TrainerError):
            TrainConfig(batch_size=0)
        with pytest.raises(TrainerError):
            TrainConfig(epochs=0)
        with pytest.raises(TrainerError):
            TrainConfig(learning_rate=-1.0)
