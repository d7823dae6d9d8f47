"""Command-line pipeline: ingest, analyze, train, eval, predict.

Every command but ``predict`` writes artifacts and a ``RunManifest``:
config snapshot, seeds, input hashes, metrics and the environment it ran
in. ``main`` is the one commit point: it resolves the output directory,
runs the command against a hidden ``.partial-*`` staging directory inside
it, and only when the command succeeds renames every staged file into
place, records them as the manifest's outputs (sorted by name) and writes
``manifest.json`` last.
A failed command removes the staging directory and leaves the output
directory as it was. Exit codes: 0 success, 1 internal error, 2 user/input
error or out of memory. Each seed a command reads is derived from the one
``--seed`` where it is read, and only those are recorded. ``MOODLYRICS_OUT``
overrides the default output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, baseline, evaluation
from ._atomic import read_input, read_input_text, write_atomic, write_csv
from ._config import parse_setting
from .analytics import density_curve, emit_plot, freq_dist, lexical_stats
from .corpus import (
    SPLIT_NAMES,
    DropReport,
    MoodLabel,
    clean_text,
    load_corpus,
    mood_distribution,
    save_corpus,
    stratified_split,
    synthesize_corpus,
)
from .errors import MoodlyricsError
from .model import (
    EVAL_BATCH,  # unused here; perfbench sizes its eval stage by cli.EVAL_BATCH
    ModelConfig,
    classify,
    init_model,
    load_checkpoint,
    predict,
)
from .tokenizer import (
    TokenizerConfig,
    Vocabulary,
    encode,
    encode_corpus,
    train_wordpiece,
    word_tokenize,
)
from .trainer import TrainConfig, train

SPLIT_RATIOS = (0.8, 0.1, 0.1)


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    seed: int | None = None
    derived_seeds: dict[str, int] = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)
    duration_seconds: float = 0.0

    def save(self, out_dir: Path, started: float) -> Path:
        self.duration_seconds = time.perf_counter() - started
        self.environment = _environment()
        text = json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"
        return write_atomic(out_dir / "manifest.json", [text.encode("utf-8")])


def _environment() -> dict:
    """Python and numpy versions, the BLAS numpy was built with and the CPU
    count. numpy before 1.25 cannot report its BLAS, so those two are None."""
    blas = {}
    if np.lib.NumpyVersion(np.__version__) >= "1.25.0":
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
    }


def _read_hashed(path, what: str, run: RunManifest) -> bytes:
    """The bytes of input file ``path``; the run records their SHA-256."""
    data = read_input(path, what)
    run.inputs[str(path)] = hashlib.sha256(data).hexdigest()
    return data


def _read_corpus(path: str, run: RunManifest) -> tuple:
    """``load_corpus`` on ``path``, from the bytes the run hashed."""
    return load_corpus(path, data=_read_hashed(path, "corpus file", run))


def _derive_seed(args, name: str, run: RunManifest) -> int:
    """The ``name`` seed a command reads, recorded in the run with --seed (42
    when not given): child 0, 1 or 2 of ``SeedSequence(seed).spawn(3)`` for
    "split", "init" or "train"."""
    seed = 42 if args.seed is None else args.seed
    if seed < 0:
        raise MoodlyricsError(f"--seed must be a non-negative integer, got {seed}")
    child = np.random.SeedSequence(seed).spawn(3)[("split", "init", "train").index(name)]
    run.seed = seed
    run.derived_seeds[name] = int(child.generate_state(1)[0])
    return run.derived_seeds[name]


def _resolve_out(args) -> tuple[Path, tempfile.TemporaryDirectory]:
    """The output directory, made if missing, and a hidden staging directory
    inside it, on the same filesystem so that publishing is a rename. Only a
    missing --out falls back to ``MOODLYRICS_OUT`` or the default."""
    if args.out == "":  # Path("") would be the current directory
        raise MoodlyricsError("--out must name a directory, got ''")
    out = args.out or os.environ.get("MOODLYRICS_OUT") or "moodlyrics_out"
    out_dir = Path(out)
    verb = "create"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        verb = "write to"
        return out_dir, tempfile.TemporaryDirectory(prefix=".partial-", dir=out_dir)
    except OSError as exc:
        raise MoodlyricsError(f"cannot {verb} output directory {out}: {exc.strerror}") from None


# each key a config file or --set may give, with what takes it and its type;
# the run fixes the seeds (--seed), the model's vocabulary size and length
# (the tokenizer's) and its one output per mood. _READERS names the takers
# each --model reads, 17 keys for bert and alpha alone for nb; train refuses
# any other key
_SETTABLE = {
    f.name: (cls, f.type)
    for cls, fixed in ((TokenizerConfig, ()),
                       (ModelConfig, ("vocab_size", "max_positions", "num_classes", "seed")),
                       (TrainConfig, ("seed",)))
    for f in fields(cls) if f.name not in fixed
} | {"alpha": (baseline.nb_train, "float")}
_READERS = {"bert": (TokenizerConfig, ModelConfig, TrainConfig), "nb": (baseline.nb_train,)}


def _key_values(items) -> dict[str, str]:
    """The stripped ``key → value`` pairs of ``(where, text)`` items, the last
    of a key winning; an item with no ``=`` is an error naming ``where``."""
    pairs: dict[str, str] = {}
    for where, text in items:
        key, eq, value = text.partition("=")
        if not eq:
            raise MoodlyricsError(f"{where}: expected key=value, got {text!r}")
        pairs[key.strip()] = value.strip()
    return pairs


def _read_settings(args, *, data: bytes | None = None) -> dict:
    """The --config lines (from ``data``, the file's bytes already read, when
    given; blank and ``#`` lines skipped), then the --set items, as key=value
    pairs parsed into keyword arguments of what takes them. Every taker has
    an entry; those given a key come first, in the order of their first key."""
    lines = []
    if args.config:
        path = Path(args.config)
        text = read_input_text(path, "config file", data=data)
        lines = [(f"{path}:{lineno}", stripped)
                 for lineno, line in enumerate(text.splitlines(), 1)
                 if (stripped := line.strip()) and not stripped.startswith("#")]
    pairs = _key_values([*lines, *(("--set", item) for item in args.set or [])])
    routed: dict = {}
    for key, raw in pairs.items():
        if key == "seed":
            raise MoodlyricsError("set the seed with the --seed flag, not the config file")
        if key not in _SETTABLE:
            raise MoodlyricsError(f"unknown config key {key!r}")
        owner, annotation = _SETTABLE[key]
        routed.setdefault(owner, {})[key] = parse_setting(annotation, key, raw)
    return routed | {owner: {} for owner, _ in _SETTABLE.values() if owner not in routed}


def _parse_synthetic(spec: str) -> dict[str, int]:
    options = {"seed": 1, "per_class": 8}
    parts = _key_values(("--synthetic", part) for part in spec.split(",") if part.strip())
    for key, value in parts.items():
        if key not in options:
            raise MoodlyricsError(f"unknown --synthetic option {key!r}")
        options[key] = parse_setting("int", key, value)
    return options


def _mood_bar_series(dist) -> list:
    return [
        (label.display, [(float(int(label)), float(dist.counts[label]))])
        for label in MoodLabel
    ]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_ingest(args, run: RunManifest, out_dir: Path) -> None:
    if args.synthetic is not None:
        options = _parse_synthetic(args.synthetic)
        corpus = synthesize_corpus(options["seed"], options["per_class"])
        report = DropReport()
    else:
        corpus, report = _read_corpus(args.input, run)

    save_corpus(corpus, out_dir / "corpus.csv")
    drop_lines = report.lines()
    for line in drop_lines:
        print(line, file=sys.stderr)
    drops_text = "\n".join(drop_lines) + "\n"
    write_atomic(out_dir / "drops.log", [drops_text.encode("utf-8")])
    dist = mood_distribution(corpus)
    emit_plot(_mood_bar_series(dist), out_dir / "mood_distribution.svg", "bar")

    print(f"{len(corpus)} records from {corpus.provenance}")
    for label in MoodLabel:
        print(f"  {label.display}: {dist.counts[label]} ({dist.fractions[label]:.1%})")
    run.config = {"synthetic": args.synthetic}
    run.metrics = {
        "records": len(corpus),
        "dropped": report.dropped,
        "counts": {label.display: dist.counts[label] for label in MoodLabel},
    }


def cmd_analyze(args, run: RunManifest, out_dir: Path) -> None:
    corpus, _ = _read_corpus(args.input, run)
    tokens = [tok for rec in corpus for tok in word_tokenize(rec.cleaned)]
    table = freq_dist(tokens)
    song_stats = [lexical_stats(rec) for rec in corpus]

    ranked = sorted(table.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    write_csv(out_dir / "freq.csv", [["token", "count"], *ranked])
    stats_rows = [
        ["title", "token_count", "unique_count", "type_token_ratio", "lexical_density"]
    ]
    for rec, stats in zip(corpus, song_stats):
        stats_rows.append([rec.title, stats.token_count, stats.unique_count,
                           repr(stats.type_token_ratio), repr(stats.lexical_density)])
    write_csv(out_dir / "lexical_stats.csv", stats_rows)
    curve = density_curve(corpus, bin_width=args.bin_width, stats=song_stats)
    emit_plot(
        [("lexical_density", [(float(b), m) for b, m in curve])],
        out_dir / "density_curve.svg",
        "line",
    )

    unique_total = len(table.counts)
    print(
        f"{len(corpus)} songs, {table.total} tokens, {unique_total} unique "
        f"(type-token ratio {unique_total / max(table.total, 1):.4f})"
    )
    run.config = {"bin_width": args.bin_width}
    run.metrics = {"tokens": table.total, "unique_tokens": unique_total}


def _score(model, split) -> tuple:
    """The confusion matrix and report of a Naive Bayes model, or of a
    transformer's (parameters, vocabulary, tokenizer settings), on ``split``."""
    if isinstance(model, baseline.NaiveBayesModel):
        preds = [baseline.nb_predict(model, rec.lyrics, cleaned=rec.cleaned)[0]
                 for rec in split]
    else:
        params, vocab, tok_config = model
        logits = classify(params, encode_corpus(split, vocab, tok_config))
        preds = [MoodLabel(int(i)) for i in logits.argmax(axis=1)]
    matrix = evaluation.confusion(preds, [rec.mood for rec in split])
    return matrix, evaluation.report(matrix)


def _metrics_dict(rep: evaluation.EvalReport) -> dict:
    return {
        "accuracy": rep.accuracy,
        "macro_f1": rep.macro_f1,
        "weighted_f1": rep.weighted_f1,
        "per_class": {
            label.display: {
                "precision": float(rep.precision[int(label)]),
                "recall": float(rep.recall[int(label)]),
                "f1": float(rep.f1[int(label)]),
                "support": int(rep.support[int(label)]),
            }
            for label in MoodLabel
        },
    }


def cmd_train(args, run: RunManifest, out_dir: Path) -> None:
    """Split the corpus and train ``--model`` on it. A setting that the model
    does not read (``_READERS``) is refused before the split, naming every
    such key."""
    corpus, _ = _read_corpus(args.input, run)
    config = _read_hashed(args.config, "config file", run) if args.config else None
    settings = _read_settings(args, data=config)
    unread = [key for owner, given in settings.items()
              if owner not in _READERS[args.model] for key in given]
    if unread:
        raise MoodlyricsError(f"--model {args.model} does not read {', '.join(unread)}")
    train_split, val_split, test_split = stratified_split(
        corpus, SPLIT_RATIOS, _derive_seed(args, "split", run)
    )

    if args.model == "nb":
        model = baseline.nb_train(train_split, **settings[baseline.nb_train])
        baseline.save_nb(model, out_dir / "model.nb")
        run.config = {"model": "nb", "alpha": model.alpha}
        summary = "naive bayes:"
    else:
        tok_config = TokenizerConfig(**settings[TokenizerConfig])
        train_config = TrainConfig(seed=_derive_seed(args, "train", run), **settings[TrainConfig])
        vocab = train_wordpiece(train_split, tok_config)
        vocab.save(out_dir / "vocab.txt")
        model_config = ModelConfig(
            vocab_size=len(vocab),
            max_positions=tok_config.max_sequence_length,
            seed=_derive_seed(args, "init", run),
            **settings[ModelConfig],
        )
        best_params, history = train(
            init_model(model_config),
            train_split,
            val_split,
            vocab,
            tok_config,
            train_config,
            checkpoint_path=out_dir / "checkpoint.ckpt",
            log=lambda line: print(line, file=sys.stderr),
        )
        history.save_csv(out_dir / "history.csv")
        evaluation.accuracy_curve(history, out_dir / "accuracy_curve.svg")
        model = best_params, vocab, tok_config
        best_val = history.val_acc[history.best_epoch - 1]
        run.metrics["best_epoch"] = history.best_epoch
        run.metrics["best_val_accuracy"] = best_val
        run.config = {
            "model": "bert",
            "tokenizer": asdict(tok_config),
            "model_config": asdict(model_config),
            "train_config": asdict(train_config),
        }
        summary = (f"transformer: best epoch {history.best_epoch}, "
                   f"val accuracy {best_val:.4f},")

    _, rep = _score(model, test_split)
    run.metrics["test"] = _metrics_dict(rep)
    print(f"{summary} test accuracy {rep.accuracy:.4f}")


def _load_model(args, run: RunManifest):
    """The --checkpoint model, from one hashed read of the file: a Naive
    Bayes model, or a transformer's (parameters, vocabulary, tokenizer
    settings). Only a transformer reads --vocab, and it must match the hash
    its checkpoint header pins; a Naive Bayes file given --vocab is refused
    before the vocabulary is opened."""
    data = _read_hashed(args.checkpoint, "checkpoint", run)
    if data.startswith(baseline.NB_FORMAT.encode("utf-8")):
        if args.vocab is not None:
            raise MoodlyricsError(f"--vocab is for transformer checkpoints; "
                                  f"{Path(args.checkpoint)} is a Naive Bayes model")
        return baseline.load_nb(args.checkpoint, data=data)
    params, vocab_hash, tok_config = load_checkpoint(args.checkpoint, data=data)
    if not args.vocab:
        raise MoodlyricsError("transformer checkpoints need --vocab")
    vocab = Vocabulary.load(args.vocab)
    if vocab.sha256() != vocab_hash:
        raise MoodlyricsError(
            f"vocabulary hash mismatch: checkpoint expects {vocab_hash[:12]}..., "
            f"{args.vocab} has {vocab.sha256()[:12]}..."
        )
    return params, vocab, tok_config


def cmd_eval(args, run: RunManifest, out_dir: Path) -> None:
    corpus, _ = _read_corpus(args.input, run)
    if args.split == "all":
        if args.seed is not None:
            raise MoodlyricsError("--split all does not read --seed")
        chosen = corpus
    else:
        splits = stratified_split(corpus, SPLIT_RATIOS, _derive_seed(args, "split", run))
        chosen = splits[SPLIT_NAMES.index(args.split)]

    model = _load_model(args, run)
    matrix, rep = _score(model, chosen)
    report_text = evaluation.format_report(rep)
    write_atomic(out_dir / "report.txt", [report_text.encode("utf-8")])
    evaluation.save_report_csv(rep, out_dir / "report.csv")
    evaluation.save_confusion_csv(matrix, out_dir / "confusion.csv")
    evaluation.confusion_heatmap(matrix, out_dir / "confusion_heatmap.svg")
    print(report_text, end="")
    run.config = {"split": args.split, "checkpoint": str(args.checkpoint)}
    run.metrics = {args.split: _metrics_dict(rep)}


def cmd_predict(args, run: RunManifest) -> int:
    if args.lyrics is not None:
        lyrics = args.lyrics
    else:
        lyrics = read_input_text(args.file, "lyrics file")
    model = _load_model(args, run)
    cleaned = clean_text(lyrics)
    if not cleaned:
        print(
            "warning: lyrics are empty after cleaning; prediction uses no content",
            file=sys.stderr,
        )
    if isinstance(model, baseline.NaiveBayesModel):
        label, probs = baseline.nb_predict(model, lyrics, cleaned=cleaned)
    else:
        params, vocab, tok_config = model
        label, probs = predict(params, encode(lyrics, vocab, tok_config, cleaned=cleaned))
    print(f"mood={label.name.lower()} p=" + ",".join(f"{p:.6f}" for p in probs))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moodlyrics",
        description="Song-lyrics mood classification pipeline.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load, clean, and summarize a corpus")
    group = p_ingest.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="corpus CSV path")
    group.add_argument(
        "--synthetic",
        nargs="?",
        const="",
        help="generate a corpus instead, e.g. seed=1,per_class=8",
    )
    p_ingest.add_argument("--out", help="output directory")
    p_ingest.set_defaults(func=cmd_ingest)

    p_analyze = sub.add_parser("analyze", help="token statistics and density curve")
    p_analyze.add_argument("--input", required=True)
    p_analyze.add_argument("--out")
    p_analyze.add_argument("--bin-width", type=int, default=25)
    p_analyze.set_defaults(func=cmd_analyze)

    p_train = sub.add_parser("train", help="split, train, and checkpoint a model")
    p_train.add_argument("--input", required=True)
    p_train.add_argument("--model", choices=("bert", "nb"), required=True)
    p_train.add_argument("--config", help="flat key=value config file")
    p_train.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override one config key (repeatable)")
    p_train.add_argument("--out")
    p_train.add_argument("--seed", type=int, help="seeds the split, and for --model bert "
                         "the initialization, shuffling and dropout too (default 42)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="classification report and confusion matrix")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--input", required=True)
    p_eval.add_argument("--vocab", help="vocabulary file (transformer checkpoints only)")
    p_eval.add_argument("--split", choices=(*SPLIT_NAMES, "all"), default="test")
    p_eval.add_argument("--out")
    p_eval.add_argument("--seed", type=int, help="seeds the split (default 42); "
                        "--split all reads no seed and refuses it")
    p_eval.set_defaults(func=cmd_eval)

    p_predict = sub.add_parser("predict", help="predict the mood of one lyric")
    p_predict.add_argument("--checkpoint", required=True)
    p_predict.add_argument("--vocab", help="vocabulary file (transformer checkpoints only)")
    group = p_predict.add_mutually_exclusive_group(required=True)
    group.add_argument("--lyrics", help="lyrics text")
    group.add_argument("--file", help="read lyrics from a file")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        started = time.perf_counter()
        run = RunManifest(args.command, argv)
        if args.command == "predict":
            return cmd_predict(args, run)
        out_dir, staging = _resolve_out(args)
        # the commit point: the command writes into staging, which is renamed
        # into place only when it succeeds; a failure removes it unpublished
        with staging as staged:
            args.func(args, run, Path(staged))
            for name in sorted(os.listdir(staged)):
                os.replace(os.path.join(staged, name), out_dir / name)
                run.outputs.append(str(out_dir / name))
        run.save(out_dir, started)
        return 0
    except MoodlyricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1

if __name__ == "__main__":
    sys.exit(main())
