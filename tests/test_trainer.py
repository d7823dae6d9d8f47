import dataclasses
import math
import re

import numpy as np
import pytest

import moodlyrics.trainer as trainer_module
from moodlyrics.corpus import synthesize_corpus
from moodlyrics.errors import MoodlyricsError
from moodlyrics.model import ModelConfig, Parameters, init_model, load_checkpoint
from moodlyrics.tokenizer import TokenizerConfig, encode_corpus, train_wordpiece
from moodlyrics.trainer import (
    TrainConfig,
    adamw_step,
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
        state.grads["w"][:] = 1.0
        config = TrainConfig(learning_rate=0.1, weight_decay=0.0)
        adamw_step(state, lr=0.1, config=config)
        assert np.allclose(params["w"], -0.1, atol=1e-6)

    def test_zero_gradient_is_fixed_point(self):
        params, state = single_param([1.5, -2.0])
        config = TrainConfig(weight_decay=0.0)
        adamw_step(state, lr=0.1, config=config)
        assert np.array_equal(params["w"], np.array([1.5, -2.0]))

    def test_decoupled_decay_shrinks_weights(self):
        # 2-D arrays are decayed; zero gradient isolates the decay term
        params = Parameters(TINY_MODEL, {"w": np.full((2, 2), 3.0)})
        state = init_adam_state(params)
        config = TrainConfig(weight_decay=0.1)
        adamw_step(state, lr=0.5, config=config)
        assert (params["w"] < 3.0).all() and (params["w"] > 0.0).all()
        assert np.allclose(params["w"], 3.0 - 0.5 * 0.1 * 3.0)

    def test_exempt_arrays_identical_with_and_without_decay(self):
        # 1-D arrays (biases, layer-norm) are never decayed
        params_a, state_a = single_param([2.0, 2.0], name="b")
        params_b, state_b = single_param([2.0, 2.0], name="b")
        adamw_step(state_a, 0.1, TrainConfig(weight_decay=0.0))
        adamw_step(state_b, 0.1, TrainConfig(weight_decay=0.5))
        assert np.array_equal(params_a["b"], params_b["b"])

    def test_non_finite_gradient_rejected(self):
        _, state = single_param([0.0])
        state.grads["w"][0] = np.nan
        with pytest.raises(MoodlyricsError, match="non-finite"):
            adamw_step(state, 0.1, TrainConfig())

    def test_non_finite_gradient_names_first_array_and_changes_nothing(self):
        # b (exempt) comes before w2 in parameter order, after it in group order
        arrays = {"w1": np.ones((2, 2)), "b": np.ones(2), "w2": np.ones((2, 2))}
        params = Parameters(TINY_MODEL, arrays)
        state = init_adam_state(params)
        before = params.copy()
        grads = state.grads
        grads["w1"][:] = 1.0
        grads["b"][1] = np.inf
        grads["w2"][0, 0] = np.nan
        with pytest.raises(MoodlyricsError, match="non-finite gradient for b at step 1$"):
            adamw_step(state, 0.1, TrainConfig())
        for name, arr in params.items():
            assert np.array_equal(arr, before[name])

    def test_matches_reference_adam_sequence(self):
        # independent step-by-step reference of the update equations
        params, state = single_param([0.5])
        config = TrainConfig(learning_rate=0.01, weight_decay=0.0)
        theta, m, v = 0.5, 0.0, 0.0
        rng = np.random.default_rng(0)
        for t in range(1, 6):
            g = float(rng.normal())
            state.grads["w"][0] = g
            adamw_step(state, 0.01, config)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            theta -= 0.01 * m_hat / (math.sqrt(v_hat) + 1e-8)
            assert params["w"][0] == pytest.approx(theta, abs=1e-12)


class TestInitAdamState:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_packing_keeps_every_value(self, dtype):
        params = init_model(TINY_MODEL, dtype=dtype)
        before = params.copy()
        state = init_adam_state(params)
        assert list(params.arrays) == list(before.arrays)
        assert list(state.grads) == list(before.arrays)
        for name, arr in params.items():
            assert arr.dtype == before[name].dtype and arr.shape == before[name].shape
            assert np.array_equal(arr, before[name])
            assert state.grads[name].shape == arr.shape and not state.grads[name].any()
        # one decayed and one exempt buffer, each holding its arrays' values
        assert [group.decayed for group in state.groups] == [True, False]
        for name, arr in params.items():
            [group] = [g for g in state.groups if np.shares_memory(arr, g.param)]
            assert group.decayed == (before[name].ndim > 1)
        assert sum(group.param.size for group in state.groups) == sum(
            arr.size for arr in before.arrays.values()
        )

    def test_mixed_dtypes_pack_apart(self):
        arrays = {"a": np.ones((2, 3), np.float32), "b": np.full((3, 2), 2.0),
                  "c": np.arange(3, dtype=np.float32)}
        params = Parameters(TINY_MODEL, {n: a.copy() for n, a in arrays.items()})
        state = init_adam_state(params)
        assert len(state.groups) == 3
        for name, arr in arrays.items():
            assert params[name].dtype == arr.dtype and np.array_equal(params[name], arr)


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
        with pytest.raises(MoodlyricsError, match="step -1 out of range"):
            linear_schedule(-1, 10, 1e-3)
        with pytest.raises(MoodlyricsError, match="step 11 out of range"):
            linear_schedule(11, 10, 1e-3)
        with pytest.raises(MoodlyricsError, match="total_steps must be >= 1"):
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

    def test_returns_pre_clip_norm(self):
        rng = np.random.default_rng(7)
        for scale in (1e-3, 1.0, 1e3):
            grads = {
                "a": (rng.normal(size=(5, 7)) * scale).astype(np.float32),
                "b": rng.normal(size=13) * scale,
            }
            brute = math.sqrt(math.fsum(
                float(x) ** 2 for g in grads.values() for x in g.ravel()
            ))
            norm = clip_grad_norm(grads, 1.0)
            assert isinstance(norm, float)
            assert norm == pytest.approx(brute, rel=1e-12)

    def test_finite_gradients_whose_squares_overflow_are_clipped(self):
        grads = {"w": np.array([1e200, 1.0]), "b": np.array([3.0])}
        with np.errstate(over="ignore"):
            norm = clip_grad_norm(grads, 1.0)
        assert norm == pytest.approx(1e200, rel=1e-12)
        assert grads["w"][0] == pytest.approx(1.0, rel=1e-12)
        assert grads["w"][1] == pytest.approx(1e-200, rel=1e-12)
        assert grads["b"][0] == pytest.approx(3e-200, rel=1e-12)


class TestHistory:
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
        assert best == history.val_acc.index(max(history.val_acc)) + 1

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
        _, accuracy = evaluate(reloaded, examples)
        assert accuracy == max(history.val_acc)

    @pytest.mark.parametrize(
        "val_acc, best",
        [([0.50, 0.63, 0.61], 2), ([0.5, 0.7, 0.7], 2), ([0.9, 0.5, 0.9], 1)],
        ids=["rise-then-fall", "tie", "first-max-repeats"],
    )
    def test_scripted_validation_selects_first_best_epoch(
        self, monkeypatch, tmp_path, val_acc, best
    ):
        """The best epoch is the first with the highest validation accuracy,
        and its parameters are the one checkpoint written."""
        corpus, tok_config, vocab, params, config = small_training_setup(epochs=3)
        scripted = iter(acc for val in val_acc for acc in (0.1, val))  # train, val
        evaluated = []  # the parameters each evaluation saw

        def scripted_evaluate(params, examples):
            evaluated.append(params.copy())
            return 1.0, next(scripted)

        saved = []
        save_checkpoint = trainer_module.save_checkpoint

        def counting_save(path, params, *args):
            saved.append(params)
            return save_checkpoint(path, params, *args)

        monkeypatch.setattr(trainer_module, "evaluate", scripted_evaluate)
        monkeypatch.setattr(trainer_module, "save_checkpoint", counting_save)
        ckpt = tmp_path / "best.ckpt"
        best_params, history = train(params, corpus, corpus, vocab, tok_config,
                                     config, checkpoint_path=ckpt)
        assert history.val_acc == val_acc
        assert history.best_epoch == best
        assert len(saved) == 1 and saved[0] is best_params
        reloaded, _, _ = load_checkpoint(ckpt)
        for name, arr in evaluated[2 * (best - 1)].items():
            assert np.array_equal(reloaded[name], arr), name

    @pytest.mark.parametrize(
        "per_class, expected",
        [
            # the first update (step 0) moves every weight by about 1e6, and
            # the second step overflows
            (6, r"epoch 1, step 1 \(lr 8\.33e\+05\)"),
            # 8 songs, one step an epoch: the evaluation after step 0 overflows
            (2, r"epoch 1 in evaluation after step 0 \(lr 1e\+06\)"),
        ],
        ids=["in-step", "in-evaluation"],
    )
    def test_divergence_aborts_with_diagnostic(self, tmp_path, per_class, expected):
        """A learning rate of 1e6 with clipping off. The run stops with one
        error naming the epoch, where it failed and the lr of the last step
        that ran, before any checkpoint is written."""
        corpus, tok_config, vocab, params, config = small_training_setup(
            per_class=per_class, epochs=2, max_grad_norm=1e30
        )
        config = dataclasses.replace(config, learning_rate=1e6)
        with pytest.raises(MoodlyricsError, match="^training diverged at ") as caught:
            train(params, corpus, corpus, vocab, tok_config, config,
                  checkpoint_path=tmp_path / "m.ckpt")
        message = str(caught.value)
        assert re.fullmatch(rf"training diverged at {expected}: "
                            r"\w+( \w+)* encountered in \w+", message), message
        assert not (tmp_path / "m.ckpt").exists()

    def test_config_validation(self):
        with pytest.raises(MoodlyricsError, match="batch_size must be >= 1"):
            TrainConfig(batch_size=0)
        with pytest.raises(MoodlyricsError, match="epochs must be >= 1"):
            TrainConfig(epochs=0)
        with pytest.raises(MoodlyricsError, match="learning_rate must be > 0"):
            TrainConfig(learning_rate=-1.0)
