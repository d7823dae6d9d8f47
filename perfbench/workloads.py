"""The benchmark's workloads: corpus, settings, set-up and one measured cycle.

Every call into the package goes through a module attribute
(``tokenizer.train_wordpiece``, ``model.forward``, ...), so the tracer's
wrappers see the same calls the untraced run makes.

A cycle calls every pipeline stage a fixed number of times on the same
inputs as every other cycle, checks each output, and records the time of
each call. The calls of the stages are interleaved evenly over the cycle: on
a shared host the speed changes from second to second, and a stage whose
calls all ran in one burst would read fast or slow as a whole. Stages are
sized so that a call takes well under a second and a run holds many calls of
each. Fixed call counts keep the traced counts identical from run to run.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from moodlyrics import analytics, baseline, cli, corpus, evaluation, model, tokenizer, trainer
from moodlyrics.corpus import MoodLabel

from zipf import ZipfShape, describe, zipf_corpus

NB_ACCURACY_FLOOR = 0.9
DESK_PER_CLASS = 16
MODEL_DIMS = dict(num_layers=2, hidden_size=64, num_heads=2, dropout_rate=0.1)
TRAIN_SETTINGS = dict(batch_size=8, learning_rate=2e-3)


@dataclass(frozen=True)
class Workload:
    name: str
    zipf: bool
    max_len: int
    vocab_size: int
    epochs: int
    # songs each stage works on, from the head of its set; 0 means all of it
    vocab_songs: int  # train split, for train_wordpiece
    nb_songs: int  # train split, for nb_train
    train_songs: int  # train split, for the trainer
    val_songs: int  # val split, for the trainer
    sample_songs: int  # corpus, for analyze and encode
    # calls per cycle of each stage, spread evenly over the cycle
    calls: dict[str, int]
    expect_overfit: bool


STAGES = (
    "analyze", "vocab", "encode", "nb_train", "nb_predict",
    "train", "checkpoint", "eval", "predict",
)


def _calls(short: int, **other) -> dict[str, int]:
    """``short`` calls of every stage, except one train and one checkpoint
    round trip, overridden by ``other``."""
    return dict.fromkeys(STAGES, short) | dict(train=1, checkpoint=1) | other


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-train", zipf=False, max_len=48, vocab_size=500, epochs=20,
            vocab_songs=0, nb_songs=0, train_songs=0, val_songs=0, sample_songs=0,
            calls=_calls(100), expect_overfit=True,
        ),
        Workload(
            name="paper-len-train", zipf=False, max_len=512, vocab_size=8000, epochs=1,
            vocab_songs=0, nb_songs=0, train_songs=0, val_songs=0, sample_songs=0,
            calls=_calls(16, predict=35), expect_overfit=False,
        ),
        # inference-heavy: the short fine-tune is there so that every
        # end-to-end metric exists on every workload
        Workload(
            name="zipf-infer", zipf=True, max_len=512, vocab_size=300, epochs=1,
            vocab_songs=10, nb_songs=200, train_songs=8, val_songs=8, sample_songs=25,
            calls=_calls(8, vocab=4, encode=16, nb_train=6, nb_predict=4, eval=2, predict=35),
            expect_overfit=False,
        ),
    )
}


@dataclass
class Recorder:
    """The time of every call of each stage, plus operations attempted and
    failed."""

    durations: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    first_seen: dict[str, str] = field(default_factory=dict)

    def time(self, stage: str, fn):
        self.attempted += 1
        start = time.perf_counter()
        result = fn()
        self.durations.setdefault(stage, []).append(time.perf_counter() - start)
        return result

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def check_same(self, what: str, digest: str) -> None:
        """Check that ``digest`` equals the one first seen under ``what``."""
        self.check(f"{what} identical in every call", self.first_seen.setdefault(what, digest) == digest)


@dataclass
class State:
    workload: Workload
    seed: int
    workdir: Path
    songs: corpus.Corpus
    train: corpus.Corpus
    val: corpus.Corpus
    test: corpus.Corpus
    tok_config: tokenizer.TokenizerConfig
    train_config: trainer.TrainConfig
    shape: dict


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _model_config(vocab_size: int, max_len: int, seed: int) -> model.ModelConfig:
    return model.ModelConfig(vocab_size=vocab_size, max_positions=max_len, seed=seed, **MODEL_DIMS)


def _warm_up(max_len: int, seed: int) -> None:
    """One train step and one eval batch at the workload's shapes, so the
    first BLAS calls and first-touch allocations land in set-up."""
    params = model.init_model(_model_config(16, max_len, seed))
    rng = np.random.default_rng(seed)
    batch = []
    for i in range(TRAIN_SETTINGS["batch_size"]):
        ids = np.zeros(max_len, dtype=np.int32)
        real = 2 + i % (max_len - 2)
        ids[:real] = rng.integers(4, 16, size=real)
        mask = (np.arange(max_len) < real).astype(np.int32)
        batch.append(tokenizer.EncodedExample(ids, mask, MoodLabel(i % 4)))
    labels = np.array([int(ex.label) for ex in batch])
    trace = model.forward(params, batch, mode="train", rng=rng)
    model.backward(params, trace, labels)
    model.forward(params, batch, mode="eval")


def setup(workload: Workload, seed: int, workdir: Path) -> State:
    """Generate the corpus, round-trip it through CSV, split it, warm up."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload.zipf:
        shape = ZipfShape()
        generated = zipf_corpus(seed, shape)
        described = describe(generated, shape)
    else:
        generated = corpus.synthesize_corpus(seed, DESK_PER_CLASS)
        described = {"generator": "synthesize_corpus", "songs": len(generated),
                     "per_class": DESK_PER_CLASS}
    path = corpus.save_corpus(generated, workdir / "corpus.csv")
    loaded, _ = corpus.load_corpus(path)
    if loaded.records != generated.records:
        raise RuntimeError("corpus CSV round trip changed the records")
    train, val, test = corpus.stratified_split(loaded, cli.SPLIT_RATIOS, seed)
    _warm_up(workload.max_len, seed)
    return State(
        workload=workload,
        seed=seed,
        workdir=workdir,
        songs=loaded,
        train=train,
        val=val,
        test=test,
        tok_config=tokenizer.TokenizerConfig(
            max_sequence_length=workload.max_len, vocab_size=workload.vocab_size
        ),
        train_config=trainer.TrainConfig(epochs=workload.epochs, seed=seed + 2, **TRAIN_SETTINGS),
        shape=described | {"train": len(train), "val": len(val), "test": len(test)},
    )


def _head(split: corpus.Corpus, n: int) -> corpus.Corpus:
    return split if n == 0 else corpus.Corpus(split.records[:n], split.provenance)


def analyze(songs: corpus.Corpus, out_dir: Path):
    """The computations of ``moodlyrics analyze``: frequency table, per-song
    lexical statistics, density curve and its plot."""
    tokens = [
        tok for rec in songs for tok in tokenizer.word_tokenize(corpus.clean_text(rec.lyrics))
    ]
    table = analytics.freq_dist(tokens)
    for rec in songs:
        analytics.lexical_stats(rec)
    curve = analytics.density_curve(songs, bin_width=25)
    analytics.emit_plot(
        [("lexical_density", [(float(b), m) for b, m in curve])],
        out_dir / "density_curve.svg",
        "line",
    )
    return table


def score_split(params, songs, vocab, tok_config):
    """``moodlyrics eval`` on a split: encode, forward in chunks of the CLI
    eval batch, argmax, confusion matrix and report."""
    examples = tokenizer.encode_corpus(songs, vocab, tok_config)
    logits = np.concatenate(
        [
            model.forward(params, examples[start : start + cli.EVAL_BATCH], mode="eval").logits
            for start in range(0, len(examples), cli.EVAL_BATCH)
        ]
    )
    preds = [MoodLabel(int(i)) for i in logits.argmax(axis=1)]
    rep = evaluation.report(evaluation.confusion(preds, [rec.mood for rec in songs]))
    return logits, preds, rep


class Cycle:
    """One cycle's stages. Each call is checked and, except for the
    checkpoint round trip, timed. The first call of a stage in a cycle
    supplies the stages that need its output (the vocabulary, the NB model,
    the served checkpoint)."""

    def __init__(self, st: State, rec: Recorder):
        self.st, self.rec, self.wl = st, rec, st.workload
        self.sample = _head(st.songs, self.wl.sample_songs)
        self.chunk = _head(st.test, cli.EVAL_BATCH)
        self.vocabulary = self.nb_model = self.trained = self.served = None
        self.preds: list[MoodLabel] = []
        self.predicted = 0

    def analyze(self) -> None:
        table = self.rec.time("analyze", lambda: analyze(self.sample, self.st.workdir))
        self.rec.check_same("analyze token count", str(table.total))

    def vocab(self) -> None:
        songs = _head(self.st.train, self.wl.vocab_songs)
        vocab = self.rec.time(
            "vocab", lambda: tokenizer.train_wordpiece(songs, self.st.tok_config)
        )
        self.rec.check(
            "vocabulary starts with [PAD] [UNK] [CLS] [SEP]",
            vocab.tokens[:4] == tokenizer.SPECIAL_TOKENS,
        )
        self.rec.check_same("vocabulary", vocab.sha256())
        if self.vocabulary is None:
            self.vocabulary = vocab

    def encode(self) -> None:
        examples = self.rec.time(
            "encode", lambda: tokenizer.encode_corpus(self.sample, self.vocabulary, self.st.tok_config)
        )
        ids = np.stack([ex.ids for ex in examples])
        self.rec.check_same("encoded ids", hashlib.sha256(ids).hexdigest())

    def nb_train(self) -> None:
        songs = _head(self.st.train, self.wl.nb_songs)
        nb = self.rec.time("nb_train", lambda: baseline.nb_train(songs))
        if self.nb_model is None:
            self.nb_model = nb

    def nb_predict(self) -> None:
        test = self.st.test
        preds = self.rec.time(
            "nb_predict", lambda: [baseline.nb_predict(self.nb_model, song.lyrics)[0] for song in test]
        )
        accuracy = np.mean([p == song.mood for p, song in zip(preds, test)])
        self.rec.check(
            f"naive Bayes accuracy {accuracy:.3f} >= {NB_ACCURACY_FLOOR}",
            accuracy >= NB_ACCURACY_FLOOR,
        )

    def train(self) -> None:
        st, wl, out = self.st, self.wl, self.st.workdir
        params = model.init_model(_model_config(len(self.vocabulary), wl.max_len, st.seed + 1))
        ckpt = out / "train.ckpt"
        self.trained, history = self.rec.time(
            "train",
            lambda: trainer.train(
                params, _head(st.train, wl.train_songs), _head(st.val, wl.val_songs),
                self.vocabulary, st.tok_config, st.train_config, checkpoint_path=ckpt,
            ),
        )
        history_path = history.save_csv(out / "history.csv")
        evaluation.accuracy_curve(history, out / "accuracy_curve.svg")
        self.rec.check_same("history.csv and checkpoint", _sha256(history_path) + _sha256(ckpt))
        if wl.expect_overfit:
            self.rec.check("training accuracy reaches 1.0", max(history.train_acc) == 1.0)

    def checkpoint(self) -> None:
        """Untimed here; the traced run times save and load."""
        st, out = self.st, self.st.workdir
        if self.wl.zipf:
            # the inference-only workload serves a seeded, untrained model
            params = model.init_model(_model_config(len(self.vocabulary), self.wl.max_len, st.seed + 3))
            path = model.save_checkpoint(
                out / "infer.ckpt", params, self.vocabulary.sha256(), st.tok_config
            )
        else:
            params, path = self.trained, out / "train.ckpt"
        loaded, vocab_hash, _ = model.load_checkpoint(path)
        self.rec.check(
            "checkpoint round-trips array-equal",
            vocab_hash == self.vocabulary.sha256()
            and loaded.arrays.keys() == params.arrays.keys()
            and all(np.array_equal(loaded[name], arr) for name, arr in params.items()),
        )
        self.served = loaded

    def eval(self) -> None:
        logits, preds, _ = self.rec.time(
            "eval", lambda: score_split(self.served, self.chunk, self.vocabulary, self.st.tok_config)
        )
        self.rec.check("all eval logits finite", bool(np.isfinite(logits).all()))
        self.rec.check_same("eval predictions", str(preds))
        self.preds = preds

    def predict(self) -> None:
        index = self.predicted % len(self.chunk)
        self.predicted += 1
        lyrics = self.chunk[index].lyrics
        label, _ = self.rec.time(
            "predict",
            lambda: model.predict(self.served, tokenizer.encode(lyrics, self.vocabulary, self.st.tok_config)),
        )
        self.rec.check("single-song predict equals batch eval", label == self.preds[index])


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def run_cycle(st: State, rec: Recorder):
    """Run one cycle. Returns the vocabulary and checkpoint-loaded model that
    it served predictions with."""
    cycle = Cycle(st, rec)
    calls = st.workload.calls
    rounds = max(calls.values())
    for r in range(rounds):
        for stage in STAGES:
            # n calls spread evenly over the rounds, the first in round 0
            n = calls[stage]
            for _ in range(_ceil_div((r + 1) * n, rounds) - _ceil_div(r * n, rounds)):
                getattr(cycle, stage)()
    return cycle.vocabulary, cycle.served


def check_whole_split(st: State, rec: Recorder, vocab, params) -> None:
    """Untimed: batch-32 eval of the whole test split equals single-song
    predict for every song (an example's logits do not depend on its batch)."""
    logits, preds, _ = score_split(params, st.test, vocab, st.tok_config)
    rec.check("all eval logits finite on the test split", bool(np.isfinite(logits).all()))
    single = [
        model.predict(params, tokenizer.encode(song.lyrics, vocab, st.tok_config))[0]
        for song in st.test
    ]
    rec.check("batch-32 eval equals single-song predict for every test song", single == preds)
