"""Command-line pipeline: ingest, analyze, train, eval, predict.

Every command but ``predict`` writes artifacts into an output directory and
fills in a ``RunManifest``: config snapshot, seeds, input hashes, output
paths and metrics. ``main`` resolves the directory, times the command and
writes ``manifest.json`` last, only when the command succeeds. Exit codes:
0 success, 1 internal error, 2 user/input error or out of memory. All
randomness fans out from a single ``--seed`` by a fixed derivation.
``MOODLYRICS_OUT`` overrides the default output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
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
    DropReport,
    MoodLabel,
    clean_text,
    load_corpus,
    mood_distribution,
    save_corpus,
    stratified_split,
    synthesize_corpus,
)
from .errors import CorpusError, MoodlyricsError, UsageError
from .model import (
    CHECKPOINT_MAGIC,
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
EVAL_BATCH = 32


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
    duration_seconds: float = 0.0

    def wrote(self, *paths: Path) -> None:
        self.outputs += map(str, paths)

    def plotted(self, chart: Path) -> None:
        """An SVG chart and its CSV sidecar."""
        self.wrote(chart, chart.with_suffix(".csv"))

    def save(self, out_dir: Path, started: float) -> Path:
        self.duration_seconds = time.perf_counter() - started
        text = json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"
        return write_atomic(out_dir / "manifest.json", [text.encode("utf-8")])


def _read_corpus(path: str, run: RunManifest) -> tuple:
    """``load_corpus`` on ``path``; the run records the SHA-256 of the bytes
    it parsed."""
    data = read_input(path, "corpus file", CorpusError)
    run.inputs[str(path)] = hashlib.sha256(data).hexdigest()
    return load_corpus(path, data=data)


def _fan_out_seeds(seed: int, run: RunManifest) -> dict[str, int]:
    """Fixed derivation of sub-seeds from the single --seed flag."""
    if seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {seed}")
    children = np.random.SeedSequence(seed).spawn(3)
    names = ("split", "init", "train")
    run.seed = seed
    run.derived_seeds = {
        name: int(child.generate_state(1)[0]) for name, child in zip(names, children)
    }
    return run.derived_seeds


def _resolve_out(args) -> Path:
    out = args.out or os.environ.get("MOODLYRICS_OUT") or "moodlyrics_out"
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out_dir


# each key a config file or --set may give, with what takes it and its type;
# the run fixes the seeds (--seed), the model's vocabulary size and length
# (the tokenizer's) and its one output per mood
_SETTABLE = {
    f.name: (cls, f.type)
    for cls, fixed in ((TokenizerConfig, ()),
                       (ModelConfig, ("vocab_size", "max_positions", "num_classes", "seed")),
                       (TrainConfig, ("seed",)))
    for f in fields(cls) if f.name not in fixed
} | {"alpha": (baseline.nb_train, "float")}


def _read_settings(args) -> dict:
    """The --config pairs, then the --set ones (the last of a key wins),
    parsed as keyword arguments of what takes them."""
    pairs: dict[str, str] = {}
    if args.config:
        path = Path(args.config)
        lines = read_input_text(path, "config file", UsageError).splitlines()
        for lineno, line in enumerate(lines, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = stripped.partition("=")
            pairs[key.strip()] = value.strip()
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        pairs[key.strip()] = value.strip()
    routed: dict = {owner: {} for owner, _ in _SETTABLE.values()}
    for key, raw in pairs.items():
        if key == "seed":
            raise UsageError("set the seed with the --seed flag, not the config file")
        if key not in _SETTABLE:
            raise UsageError(f"unknown config key {key!r}")
        owner, annotation = _SETTABLE[key]
        routed[owner][key] = parse_setting(annotation, key, raw)
    return routed


def _parse_synthetic(spec: str) -> dict[str, int]:
    options = {"seed": 1, "per_class": 8}
    for part in spec.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise UsageError(f"--synthetic expects k=v pairs, got {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in options:
            raise UsageError(f"unknown --synthetic option {key!r}")
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
    elif args.input:
        corpus, report = _read_corpus(args.input, run)
    else:
        raise UsageError("ingest needs --input or --synthetic")

    run.wrote(save_corpus(corpus, out_dir / "corpus.csv"))
    drop_lines = report.lines()
    for line in drop_lines:
        print(line, file=sys.stderr)
    drops_text = "\n".join(drop_lines) + "\n"
    run.wrote(write_atomic(out_dir / "drops.log", [drops_text.encode("utf-8")]))
    dist = mood_distribution(corpus)
    run.plotted(emit_plot(_mood_bar_series(dist), out_dir / "mood_distribution.svg", "bar"))

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
    # every check runs before the first write, so a bad input leaves no artifact
    curve = density_curve(corpus, bin_width=args.bin_width, stats=song_stats)

    ranked = sorted(table.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    run.wrote(write_csv(out_dir / "freq.csv", [["token", "count"], *ranked]))
    stats_rows = [
        ["title", "token_count", "unique_count", "type_token_ratio", "lexical_density"]
    ]
    for rec, stats in zip(corpus, song_stats):
        stats_rows.append([rec.title, stats.token_count, stats.unique_count,
                           repr(stats.type_token_ratio), repr(stats.lexical_density)])
    run.wrote(write_csv(out_dir / "lexical_stats.csv", stats_rows))
    run.plotted(emit_plot(
        [("lexical_density", [(float(b), m) for b, m in curve])],
        out_dir / "density_curve.svg",
        "line",
    ))

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
        logits = classify(params, encode_corpus(split, vocab, tok_config), EVAL_BATCH)
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
    corpus, _ = _read_corpus(args.input, run)
    seeds = _fan_out_seeds(args.seed, run)
    settings = _read_settings(args)
    train_split, val_split, test_split = stratified_split(
        corpus, SPLIT_RATIOS, seeds["split"]
    )

    if args.model == "nb":
        model = baseline.nb_train(train_split, **settings[baseline.nb_train])
        run.wrote(baseline.save_nb(model, out_dir / "model.nb"))
        run.config = {"model": "nb", "alpha": model.alpha}
        summary = "naive bayes:"
    else:
        tok_config = TokenizerConfig(**settings[TokenizerConfig])
        train_config = TrainConfig(seed=seeds["train"], **settings[TrainConfig])
        vocab = train_wordpiece(train_split, tok_config)
        model_config = ModelConfig(
            vocab_size=len(vocab),
            max_positions=tok_config.max_sequence_length,
            seed=seeds["init"],
            **settings[ModelConfig],
        )
        # the settings are all checked before the vocabulary replaces the
        # one an earlier run left in the directory
        initial = init_model(model_config)
        run.wrote(vocab.save(out_dir / "vocab.txt"))
        checkpoint_path = out_dir / "checkpoint.ckpt"
        best_params, history = train(
            initial,
            train_split,
            val_split,
            vocab,
            tok_config,
            train_config,
            checkpoint_path=checkpoint_path,
            log=lambda line: print(line, file=sys.stderr),
        )
        run.wrote(checkpoint_path, history.save_csv(out_dir / "history.csv"))
        run.plotted(evaluation.accuracy_curve(history, out_dir / "accuracy_curve.svg"))
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


def _load_model(args):
    """The --checkpoint model, from one read of the file: a Naive Bayes
    model, or a transformer's (parameters, vocabulary, tokenizer settings)."""
    data = read_input(args.checkpoint, "checkpoint", UsageError)
    if data.startswith(baseline.NB_FORMAT.encode("utf-8")):
        return baseline.load_nb(args.checkpoint, data=data)
    if not data.startswith(CHECKPOINT_MAGIC):
        raise UsageError(f"unrecognized checkpoint format: {Path(args.checkpoint)}")
    params, vocab_hash, tok_config = load_checkpoint(args.checkpoint, data=data)
    if not args.vocab:
        raise UsageError("transformer checkpoints need --vocab")
    vocab = Vocabulary.load(args.vocab)
    if vocab.sha256() != vocab_hash:
        raise UsageError(
            f"vocabulary hash mismatch: checkpoint expects {vocab_hash[:12]}..., "
            f"{args.vocab} has {vocab.sha256()[:12]}..."
        )
    return params, vocab, tok_config


def cmd_eval(args, run: RunManifest, out_dir: Path) -> None:
    corpus, _ = _read_corpus(args.input, run)
    seeds = _fan_out_seeds(args.seed, run)
    if args.split == "all":
        chosen = corpus
    else:
        splits = stratified_split(corpus, SPLIT_RATIOS, seeds["split"])
        chosen = splits[("train", "val", "test").index(args.split)]

    matrix, rep = _score(_load_model(args), chosen)
    report_text = evaluation.format_report(rep)
    run.wrote(
        write_atomic(out_dir / "report.txt", [report_text.encode("utf-8")]),
        evaluation.save_report_csv(rep, out_dir / "report.csv"),
        evaluation.save_confusion_csv(matrix, out_dir / "confusion.csv"),
    )
    run.plotted(evaluation.confusion_heatmap(matrix, out_dir / "confusion_heatmap.svg"))
    print(report_text, end="")
    run.config = {"split": args.split, "checkpoint": str(args.checkpoint)}
    run.metrics = {args.split: _metrics_dict(rep)}


def cmd_predict(args) -> int:
    if args.lyrics is not None:
        lyrics = args.lyrics
    else:
        lyrics = read_input_text(args.file, "lyrics file", UsageError)
    cleaned = clean_text(lyrics)
    if not cleaned:
        print(
            "warning: lyrics are empty after cleaning; prediction uses no content",
            file=sys.stderr,
        )
    model = _load_model(args)
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
    p_train.add_argument("--seed", type=int, default=42)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="classification report and confusion matrix")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--input", required=True)
    p_eval.add_argument("--vocab", help="vocabulary file (transformer checkpoints)")
    p_eval.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    p_eval.add_argument("--out")
    p_eval.add_argument("--seed", type=int, default=42)
    p_eval.set_defaults(func=cmd_eval)

    p_predict = sub.add_parser("predict", help="predict the mood of one lyric")
    p_predict.add_argument("--checkpoint", required=True)
    p_predict.add_argument("--vocab", help="vocabulary file (transformer checkpoints)")
    group = p_predict.add_mutually_exclusive_group(required=True)
    group.add_argument("--lyrics", help="lyrics text")
    group.add_argument("--file", help="read lyrics from a file")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "predict":
            return cmd_predict(args)
        started = time.perf_counter()
        out_dir = _resolve_out(args)
        run = RunManifest(args.command, argv)
        args.func(args, run, out_dir)
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
