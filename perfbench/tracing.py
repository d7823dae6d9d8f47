"""Span tracing around the package's public functions, from outside the package.

``Tracer.install`` replaces module attributes that the package looks up at
call time (``moodlyrics.trainer.forward``, ``moodlyrics._kernels.gelu``, ...)
with wrappers that record a span per call: name, start, end, parent and the
measured cycle it belongs to. Spans stay in memory; ``dump`` writes them out
once the run ends. Self time (a span's duration minus the time its child
spans cover) and counts are accumulated per metric key as spans close, so a
cycle's per-layer figures are ready when the cycle ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from moodlyrics import (
    _kernels,
    analytics,
    baseline,
    corpus,
    evaluation,
    model,
    tokenizer,
    trainer,
)


class Tracer:
    """Records spans and per-key self time, inclusive time and counts."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int, int]] = []
        self.cycle = -1
        self._next_id = 0
        # one frame per open span: [name, key, start, child seconds, id]
        self._stack: list[list] = []
        self._originals: list[tuple[object, str, object]] = []
        self._word_types: dict[tuple, int] = {}  # distinct words per corpus
        self.reset()

    # -- accumulation ------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh accumulation window (one cycle, or set-up)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.step_s: list[float] = []
        self._step_start: float | None = None
        self._window_start = len(self.spans)

    def _enter(self, name: str, key: str) -> None:
        self._stack.append([name, key, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        name, key, start, child, span_id = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][4] if self._stack else -1
        self.spans.append((name, start, end, span_id, parent, self.cycle))
        self.self_s[key] += duration - child
        self.incl_s[key] += duration
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][3] += duration

    def _wrap(self, module, attr: str, key_of, before=None, after=None) -> None:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            key = key_of(args, kwargs) if callable(key_of) else key_of
            self._enter(name, key)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        self._originals.append((module, attr, original))
        setattr(module, attr, wrapper)

    # -- counters computed at the boundaries -------------------------------

    def _count_encoded(self, args, kwargs, example) -> None:
        real = int(example.mask.sum())
        self.counts["tokenizer.real_tokens"] += real
        self.counts["tokenizer.padded_tokens"] += example.mask.size
        self.counts["tokenizer.unk_tokens"] += int(
            (example.ids[:real] == tokenizer.UNK_ID).sum()
        )

    def _count_vocab(self, args, kwargs, vocab) -> None:
        train_corpus, config = args[0], args[1]
        base = sum(
            1
            for tok in vocab.tokens[len(tokenizer.SPECIAL_TOKENS):]
            if len(tok.removeprefix(tokenizer.CONTINUATION)) == 1
        )
        self.counts["tokenizer.merges"] += (
            len(vocab) - len(tokenizer.SPECIAL_TOKENS) - base
        )
        songs = train_corpus.records
        if songs not in self._word_types:
            self._word_types[songs] = len(
                {w for rec in songs for w in tokenizer.normalize_words(rec.lyrics, config)}
            )
        self.counts["tokenizer.word_types"] += self._word_types[songs]

    def _count_forward(self, args, kwargs, trace) -> None:
        cfg = args[0].config
        batch, length = trace.ids.shape
        self.counts["model.forward_calls"] += 1
        self.counts["model.positions"] += batch * length
        # Q.K^T and P.V: 2 matmuls of 2*B*L*L*H flops per layer
        self.counts["model.attn_flops"] += 4.0 * batch * length**2 * cfg.hidden_size * cfg.num_layers

    def _count_backward(self, args, kwargs, grads) -> None:
        cfg = args[0].config
        batch, length = args[1].ids.shape
        # dP, dV, dQ and dK: 4 matmuls of 2*B*L*L*H flops per layer
        self.counts["model.attn_flops"] += 8.0 * batch * length**2 * cfg.hidden_size * cfg.num_layers

    def _count_softmax(self, args, kwargs, probs) -> None:
        scores, key_mask = args[0], args[1]
        self.counts["kernels.masked_softmax_bytes"] += 2 * scores.nbytes + key_mask.nbytes

    def _count_checkpoint(self, args, kwargs, path) -> None:
        self.counts["model.checkpoint_bytes"] += Path(path).stat().st_size

    def _count_clip(self, args, kwargs) -> None:
        start = time.perf_counter()
        grads, max_norm = args
        total = sum(float(np.sum(np.asarray(g, dtype=np.float64) ** 2)) for g in grads.values())
        if total**0.5 > max_norm:
            self.counts["trainer.clip_fired"] += 1
        # this second norm pass is the tracer's work: keep it out of the step
        if self._step_start is not None:
            self._step_start += time.perf_counter() - start

    def _train_forward_key(self, args, kwargs) -> str:
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
        if mode == "train":
            self._step_start = time.perf_counter()
            return "model.forward_train"
        return "model.forward_eval"

    def _step_done(self, args, kwargs, result) -> None:
        if self._step_start is not None:
            self.step_s.append(time.perf_counter() - self._step_start)
            self._step_start = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        forward_key = self._train_forward_key
        self._wrap(corpus, "load_corpus", "corpus.load")
        self._wrap(corpus, "stratified_split", "corpus.split")
        self._wrap(tokenizer, "train_wordpiece", "tokenizer.train_wordpiece",
                   after=self._count_vocab)
        self._wrap(tokenizer, "encode", "tokenizer.encode", after=self._count_encoded)
        self._wrap(tokenizer, "encode_corpus", "tokenizer.encode")
        self._wrap(trainer, "encode_corpus", "tokenizer.encode")
        self._wrap(trainer, "forward", forward_key, after=self._count_forward)
        self._wrap(model, "forward", forward_key, after=self._count_forward)
        self._wrap(trainer, "backward", "model.backward", after=self._count_backward)
        self._wrap(trainer, "save_checkpoint", "model.checkpoint_save",
                   after=self._count_checkpoint)
        self._wrap(model, "save_checkpoint", "model.checkpoint_save",
                   after=self._count_checkpoint)
        self._wrap(model, "load_checkpoint", "model.checkpoint_load")
        for name in _kernels.KERNEL_NAMES:
            after = self._count_softmax if name == "masked_softmax" else None
            self._wrap(_kernels, name, f"kernels.{name}", after=after)
        self._wrap(trainer, "adamw_step", "trainer.adamw_step", after=self._step_done)
        self._wrap(trainer, "evaluate", "trainer.evaluate")
        self._wrap(trainer, "train", "trainer.train")
        self._wrap(trainer, "clip_grad_norm", "trainer.clip", before=self._count_clip)
        self._wrap(baseline, "nb_train", "baseline.nb_train")
        self._wrap(baseline, "nb_predict", "baseline.nb_predict")
        for name in ("freq_dist", "lexical_stats", "density_curve", "emit_plot"):
            self._wrap(analytics, name, f"analytics.{name}")
        for name in ("confusion", "report", "accuracy_curve"):
            self._wrap(evaluation, name, f"evaluation.{name}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def dump(self, path: Path) -> Path:
        """Write every span as [name, start, end, id, parent id, cycle]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n", encoding="utf-8")
        return path

    # -- per-layer figures of one accumulation window ----------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the current window. ``_s`` figures are self
        times, except ``trainer.evaluate_s`` and ``trainer.step_s_p50``,
        which include their children."""
        own, incl, calls, counts = self.self_s, self.incl_s, self.calls, self.counts
        real, padded = counts["tokenizer.real_tokens"], counts["tokenizer.padded_tokens"]
        vocabs = max(calls["tokenizer.train_wordpiece"], 1)
        metrics = {
            "corpus.load_s": own["corpus.load"],
            "corpus.split_s": own["corpus.split"],
            "tokenizer.train_wordpiece_s": own["tokenizer.train_wordpiece"],
            "tokenizer.merges": counts["tokenizer.merges"] / vocabs,
            "tokenizer.word_types": counts["tokenizer.word_types"] / vocabs,
            "tokenizer.encode_s": own["tokenizer.encode"],
            "tokenizer.unk_rate": counts["tokenizer.unk_tokens"] / real if real else 0.0,
            "tokenizer.real_tokens": real,
            "tokenizer.padded_tokens": padded,
            "tokenizer.pad_efficiency": real / padded if padded else 0.0,
            "model.forward_train_s": own["model.forward_train"],
            "model.forward_eval_s": own["model.forward_eval"],
            "model.backward_s": own["model.backward"],
            "model.forward_calls": counts["model.forward_calls"],
            "model.positions": counts["model.positions"],
            "model.attn_flops_computed": counts["model.attn_flops"],
            "model.checkpoint_save_s": own["model.checkpoint_save"],
            "model.checkpoint_load_s": own["model.checkpoint_load"],
            "model.checkpoint_bytes": counts["model.checkpoint_bytes"],
            "kernels.masked_softmax_bytes_computed": counts["kernels.masked_softmax_bytes"],
            "trainer.adamw_step_s": own["trainer.adamw_step"],
            "trainer.clip_s": own["trainer.clip"],
            "trainer.clip_fired": counts["trainer.clip_fired"],
            "trainer.step_s_p50": float(np.median(self.step_s)) if self.step_s else 0.0,
            "trainer.steps": calls["trainer.adamw_step"],
            "trainer.evaluate_s": incl["trainer.evaluate"],
            "trainer.evaluate_share": (
                incl["trainer.evaluate"] / incl["trainer.train"] if incl["trainer.train"] else 0.0
            ),
            "baseline.nb_train_s": own["baseline.nb_train"],
            "baseline.nb_predict_s": own["baseline.nb_predict"],
            "trace.spans": len(self.spans) - self._window_start,
        }
        for name in _kernels.KERNEL_NAMES:
            metrics[f"kernels.{name}_s"] = own[f"kernels.{name}"]
            metrics[f"kernels.{name}_calls"] = calls[f"kernels.{name}"]
        for name in ("freq_dist", "lexical_stats", "density_curve", "emit_plot"):
            metrics[f"analytics.{name}_s"] = own[f"analytics.{name}"]
        for name in ("confusion", "report", "accuracy_curve"):
            metrics[f"evaluation.{name}_s"] = own[f"evaluation.{name}"]
        return metrics
