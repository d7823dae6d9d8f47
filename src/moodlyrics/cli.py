"""Command-line pipeline: ingest, analyze, train, eval, predict.

Every command that writes artifacts also writes a ``manifest.json`` (last)
listing the config snapshot, seeds, input hashes, output paths, metrics,
and wall-clock duration. Exit codes: 0 success, 1 internal error, 2
user/input error. All randomness fans out from a single ``--seed`` by a
fixed derivation. ``MOODLYRICS_OUT`` overrides the default output
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, baseline, evaluation
from .analytics import density_curve, emit_plot, freq_dist, lexical_stats
from .corpus import (
    Corpus,
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
    ModelConfig,
    forward,
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


class UsageError(MoodlyricsError):
    """Bad flags or config keys."""


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    seed: int | None
    derived_seeds: dict[str, int]
    config: dict
    inputs: dict[str, str]
    outputs: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    duration_seconds: float = 0.0

    def save(self, out_dir: Path, started: float) -> Path:
        self.duration_seconds = time.perf_counter() - started
        path = out_dir / "manifest.json"
        path.write_text(
            json.dumps(asdict(self), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fan_out_seeds(seed: int) -> dict[str, int]:
    """Fixed derivation of sub-seeds from the single --seed flag."""
    children = np.random.SeedSequence(seed).spawn(3)
    names = ("split", "init", "train")
    return {
        name: int(child.generate_state(1)[0]) for name, child in zip(names, children)
    }


def _resolve_out(args) -> Path:
    out = args.out or os.environ.get("MOODLYRICS_OUT") or "moodlyrics_out"
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


_TOKENIZER_KEYS = {"max_sequence_length": int, "vocab_size": int, "lowercase": _parse_bool}
_MODEL_KEYS = {
    "num_layers": int,
    "hidden_size": int,
    "num_heads": int,
    "ffn_size": int,
    "dropout_rate": float,
}


def _parse_class_weights(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


_TRAIN_KEYS = {
    "batch_size": int,
    "learning_rate": float,
    "epochs": int,
    "weight_decay": float,
    "beta1": float,
    "beta2": float,
    "epsilon": float,
    "max_grad_norm": float,
    "class_weights": _parse_class_weights,
}
_BASELINE_KEYS = {"alpha": float}


def _read_config_pairs(args) -> dict[str, str]:
    pairs: dict[str, str] = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = stripped.partition("=")
            pairs[key.strip()] = value.strip()
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def _parse_value(key: str, raw: str, parse):
    try:
        return parse(raw)
    except ValueError:
        raise UsageError(f"cannot parse {key}={raw!r}") from None


def _route_config(pairs: dict[str, str]) -> tuple[dict, dict, dict, dict]:
    tok_kw: dict = {}
    model_kw: dict = {}
    train_kw: dict = {}
    base_kw: dict = {}
    for key, raw in pairs.items():
        if key in _TOKENIZER_KEYS:
            tok_kw[key] = _parse_value(key, raw, _TOKENIZER_KEYS[key])
        elif key in _MODEL_KEYS:
            model_kw[key] = _parse_value(key, raw, _MODEL_KEYS[key])
        elif key in _TRAIN_KEYS:
            train_kw[key] = _parse_value(key, raw, _TRAIN_KEYS[key])
        elif key in _BASELINE_KEYS:
            base_kw[key] = _parse_value(key, raw, _BASELINE_KEYS[key])
        elif key == "seed":
            raise UsageError("set the seed with the --seed flag, not the config file")
        else:
            raise UsageError(f"unknown config key {key!r}")
    return tok_kw, model_kw, train_kw, base_kw


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
        options[key] = _parse_value(key, value, int)
    return options


def _mood_bar_series(dist) -> list:
    return [
        (label.display, [(float(int(label)), float(dist.counts[label]))])
        for label in MoodLabel
    ]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    started = time.perf_counter()
    out_dir = _resolve_out(args)
    inputs: dict[str, str] = {}
    if args.synthetic is not None:
        options = _parse_synthetic(args.synthetic)
        corpus = synthesize_corpus(options["seed"], options["per_class"])
        report = DropReport()
    elif args.input:
        corpus, report = load_corpus(args.input)
        inputs[str(args.input)] = _sha256_file(args.input)
    else:
        raise UsageError("ingest needs --input or --synthetic")

    outputs: list[str] = []
    csv_path = save_corpus(corpus, out_dir / "corpus.csv")
    outputs.append(str(csv_path))

    drop_lines = report.lines()
    for line in drop_lines:
        print(line, file=sys.stderr)
    drops_path = out_dir / "drops.log"
    drops_path.write_text("\n".join(drop_lines) + "\n", encoding="utf-8")
    outputs.append(str(drops_path))

    dist = mood_distribution(corpus)
    chart = emit_plot(_mood_bar_series(dist), out_dir / "mood_distribution.svg", "bar")
    outputs += [str(chart), str(chart.with_suffix(".csv"))]

    print(f"{len(corpus)} records from {corpus.provenance}")
    for label in MoodLabel:
        print(f"  {label.display}: {dist.counts[label]} ({dist.fractions[label]:.1%})")

    manifest = RunManifest(
        command="ingest",
        argv=list(sys.argv[1:]),
        seed=None,
        derived_seeds={},
        config={"synthetic": args.synthetic},
        inputs=inputs,
        outputs=outputs,
        metrics={
            "records": len(corpus),
            "dropped": report.dropped,
            "counts": {label.display: dist.counts[label] for label in MoodLabel},
        },
    )
    manifest.save(out_dir, started)
    return 0


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    out_dir = _resolve_out(args)
    corpus, _ = load_corpus(args.input)
    outputs: list[str] = []

    tokens = [tok for rec in corpus for tok in word_tokenize(clean_text(rec.lyrics))]
    table = freq_dist(tokens)
    freq_path = out_dir / "freq.csv"
    with freq_path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("token,count\n")
        for token, count in sorted(table.counts.items(), key=lambda kv: (-kv[1], kv[0])):
            fh.write(f"{token},{count}\n")
    outputs.append(str(freq_path))

    stats_path = out_dir / "lexical_stats.csv"
    with stats_path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("title,token_count,unique_count,type_token_ratio,lexical_density\n")
        for rec in corpus:
            stats = lexical_stats(rec)
            fh.write(
                f"{rec.title},{stats.token_count},{stats.unique_count},"
                f"{stats.type_token_ratio!r},{stats.lexical_density!r}\n"
            )
    outputs.append(str(stats_path))

    curve = density_curve(corpus, bin_width=args.bin_width)
    chart = emit_plot(
        [("lexical_density", [(float(b), m) for b, m in curve])],
        out_dir / "density_curve.svg",
        "line",
    )
    outputs += [str(chart), str(chart.with_suffix(".csv"))]

    unique_total = len(table.counts)
    print(
        f"{len(corpus)} songs, {table.total} tokens, {unique_total} unique "
        f"(type-token ratio {unique_total / max(table.total, 1):.4f})"
    )

    manifest = RunManifest(
        command="analyze",
        argv=list(sys.argv[1:]),
        seed=None,
        derived_seeds={},
        config={"bin_width": args.bin_width},
        inputs={str(args.input): _sha256_file(args.input)},
        outputs=outputs,
        metrics={"tokens": table.total, "unique_tokens": unique_total},
    )
    manifest.save(out_dir, started)
    return 0


def _classify(predict_one, corpus: Corpus):
    preds = [predict_one(rec) for rec in corpus]
    golds = [rec.mood for rec in corpus]
    return preds, golds


def _transformer_predictions(params, examples) -> list[MoodLabel]:
    preds: list[MoodLabel] = []
    for start in range(0, len(examples), EVAL_BATCH):
        trace = forward(params, examples[start : start + EVAL_BATCH], mode="eval")
        preds += [MoodLabel(int(i)) for i in trace.logits.argmax(axis=1)]
    return preds


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


def cmd_train(args) -> int:
    started = time.perf_counter()
    out_dir = _resolve_out(args)
    corpus, _ = load_corpus(args.input)
    seeds = _fan_out_seeds(args.seed)
    tok_kw, model_kw, train_kw, base_kw = _route_config(_read_config_pairs(args))
    train_split, val_split, test_split = stratified_split(
        corpus, SPLIT_RATIOS, seeds["split"]
    )
    outputs: list[str] = []
    metrics: dict = {}
    config_snapshot: dict = {}

    if args.model == "nb":
        alpha = base_kw.get("alpha", 1.0)
        nb_model = baseline.nb_train(train_split, alpha=alpha)
        model_path = baseline.save_nb(nb_model, out_dir / "model.nb")
        outputs.append(str(model_path))
        preds, golds = _classify(
            lambda rec: baseline.nb_predict(nb_model, rec.lyrics)[0], test_split
        )
        rep = evaluation.report(evaluation.confusion(preds, golds))
        metrics["test"] = _metrics_dict(rep)
        config_snapshot = {"model": "nb", "alpha": alpha}
        print(f"naive bayes: test accuracy {rep.accuracy:.4f}")
    else:
        tok_config = TokenizerConfig(**tok_kw)
        vocab = train_wordpiece(train_split, tok_config)
        vocab_path = vocab.save(out_dir / "vocab.txt")
        outputs.append(str(vocab_path))
        model_config = ModelConfig(
            vocab_size=len(vocab),
            max_positions=tok_config.max_sequence_length,
            seed=seeds["init"],
            **model_kw,
        )
        train_config = TrainConfig(seed=seeds["train"], **train_kw)
        params = init_model(model_config)
        checkpoint_path = out_dir / "checkpoint.ckpt"
        best_params, history = train(
            params,
            train_split,
            val_split,
            vocab,
            tok_config,
            train_config,
            checkpoint_path=checkpoint_path,
            log=lambda line: print(line, file=sys.stderr),
        )
        outputs.append(str(checkpoint_path))
        history_path = history.save_csv(out_dir / "history.csv")
        outputs.append(str(history_path))
        curve = evaluation.accuracy_curve(history, out_dir / "accuracy_curve.svg")
        outputs += [str(curve), str(curve.with_suffix(".csv"))]

        test_examples = encode_corpus(test_split, vocab, tok_config)
        preds = _transformer_predictions(best_params, test_examples)
        rep = evaluation.report(
            evaluation.confusion(preds, [rec.mood for rec in test_split])
        )
        metrics["test"] = _metrics_dict(rep)
        metrics["best_epoch"] = history.best_epoch
        metrics["best_val_accuracy"] = history.val_acc[history.best_epoch - 1]
        config_snapshot = {
            "model": "bert",
            "tokenizer": asdict(tok_config),
            "model_config": asdict(model_config),
            "train_config": asdict(train_config),
        }
        print(
            f"transformer: best epoch {history.best_epoch}, "
            f"val accuracy {metrics['best_val_accuracy']:.4f}, "
            f"test accuracy {rep.accuracy:.4f}"
        )

    manifest = RunManifest(
        command="train",
        argv=list(sys.argv[1:]),
        seed=args.seed,
        derived_seeds=seeds,
        config=config_snapshot,
        inputs={str(args.input): _sha256_file(args.input)},
        outputs=outputs,
        metrics=metrics,
    )
    manifest.save(out_dir, started)
    return 0


def _sniff_checkpoint(path: str | Path) -> str:
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"checkpoint not found: {path}")
    with path.open("rb") as handle:
        head = handle.read(32)
    if head[:4] == b"MLCP":
        return "bert"
    if head.startswith(b"moodlyrics-nb"):
        return "nb"
    raise UsageError(f"unrecognized checkpoint format: {path}")


def _load_transformer(args):
    params, vocab_hash, tok_dict = load_checkpoint(args.checkpoint)
    if not args.vocab:
        raise UsageError("transformer checkpoints need --vocab")
    vocab = Vocabulary.load(args.vocab)
    if vocab.sha256() != vocab_hash:
        raise UsageError(
            f"vocabulary hash mismatch: checkpoint expects {vocab_hash[:12]}..., "
            f"{args.vocab} has {vocab.sha256()[:12]}..."
        )
    if tok_dict is not None:
        tok_config = TokenizerConfig(**tok_dict)
    else:
        tok_config = TokenizerConfig(
            max_sequence_length=params.config.max_positions,
            vocab_size=max(len(vocab), 8),
        )
    return params, vocab, tok_config


def cmd_eval(args) -> int:
    started = time.perf_counter()
    out_dir = _resolve_out(args)
    corpus, _ = load_corpus(args.input)
    seeds = _fan_out_seeds(args.seed)
    if args.split == "all":
        chosen = corpus
    else:
        splits = stratified_split(corpus, SPLIT_RATIOS, seeds["split"])
        chosen = splits[("train", "val", "test").index(args.split)]

    kind = _sniff_checkpoint(args.checkpoint)
    if kind == "bert":
        params, vocab, tok_config = _load_transformer(args)
        examples = encode_corpus(chosen, vocab, tok_config)
        preds = _transformer_predictions(params, examples)
    else:
        nb_model = baseline.load_nb(args.checkpoint)
        preds = [baseline.nb_predict(nb_model, rec.lyrics)[0] for rec in chosen]
    golds = [rec.mood for rec in chosen]

    matrix = evaluation.confusion(preds, golds)
    rep = evaluation.report(matrix)
    outputs: list[str] = []
    report_txt = out_dir / "report.txt"
    report_txt.write_text(evaluation.format_report(rep), encoding="utf-8")
    outputs.append(str(report_txt))
    outputs.append(str(evaluation.save_report_csv(rep, out_dir / "report.csv")))
    outputs.append(str(evaluation.save_confusion_csv(matrix, out_dir / "confusion.csv")))
    heatmap = evaluation.confusion_heatmap(matrix, out_dir / "confusion_heatmap.svg")
    outputs += [str(heatmap), str(heatmap.with_suffix(".csv"))]
    print(evaluation.format_report(rep), end="")

    manifest = RunManifest(
        command="eval",
        argv=list(sys.argv[1:]),
        seed=args.seed,
        derived_seeds=seeds,
        config={"split": args.split, "checkpoint": str(args.checkpoint)},
        inputs={str(args.input): _sha256_file(args.input)},
        outputs=outputs,
        metrics={args.split: _metrics_dict(rep)},
    )
    manifest.save(out_dir, started)
    return 0


def cmd_predict(args) -> int:
    if args.lyrics is not None:
        lyrics = args.lyrics
    else:
        path = Path(args.file)
        if not path.is_file():
            raise UsageError(f"lyrics file not found: {path}")
        lyrics = path.read_text(encoding="utf-8")
    if not clean_text(lyrics):
        print(
            "warning: lyrics are empty after cleaning; prediction uses no content",
            file=sys.stderr,
        )
    kind = _sniff_checkpoint(args.checkpoint)
    if kind == "bert":
        params, vocab, tok_config = _load_transformer(args)
        example = encode(lyrics, vocab, tok_config)
        label, probs = predict(params, example)
    else:
        nb_model = baseline.load_nb(args.checkpoint)
        label, probs = baseline.nb_predict(nb_model, lyrics)
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
    p_predict.set_defaults(func=cmd_predict)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MoodlyricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
