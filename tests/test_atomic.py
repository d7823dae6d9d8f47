import ast
import builtins
import errno
import time
from pathlib import Path

import numpy as np
import pytest

import moodlyrics
from moodlyrics import _atomic
from moodlyrics.analytics import emit_plot
from moodlyrics.baseline import nb_train, save_nb
from moodlyrics.cli import RunManifest
from moodlyrics.corpus import MoodLabel, save_corpus
from moodlyrics.evaluation import confusion, report, save_confusion_csv, save_report_csv
from moodlyrics.model import init_model, save_checkpoint
from moodlyrics.trainer import TrainHistory


class _FailingFile:
    """Writes half of the first chunk it is given, then fails like a full
    disk."""

    def __init__(self, path, mode):
        self._fh = builtins.open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


ARTIFACTS = ["checkpoint", "nb", "manifest", "vocab", "history", "corpus", "report",
             "confusion", "plot"]


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_failed_write_keeps_previous_file(
    tmp_path, monkeypatch, synth32, vocab32, tiny_params, artifact
):
    params = init_model(tiny_params.config, dtype=np.float32)
    manifest = RunManifest(command="train", argv=[], seed=1, derived_seeds={},
                           config={}, inputs={})
    history = TrainHistory([1.4, 1.2], [0.25, 0.5], [1.3, 1.1], [0.5, 0.75], 2)
    moods = list(MoodLabel)
    matrix = confusion(moods + moods[:2], moods + moods[1:3])
    save = {
        "checkpoint": lambda: save_checkpoint(tmp_path / "m.ckpt", params, "h"),
        "nb": lambda: save_nb(nb_train(synth32), tmp_path / "model.nb"),
        "manifest": lambda: manifest.save(tmp_path, time.perf_counter()),
        "vocab": lambda: vocab32.save(tmp_path / "vocab.txt"),
        "history": lambda: history.save_csv(tmp_path / "history.csv"),
        "corpus": lambda: save_corpus(synth32, tmp_path / "corpus.csv"),
        "report": lambda: save_report_csv(report(matrix), tmp_path / "report.csv"),
        "confusion": lambda: save_confusion_csv(matrix, tmp_path / "confusion.csv"),
        # the SVG and its sidecar CSV: a failure on the first write keeps both
        "plot": lambda: emit_plot([("s", [(0.0, 1.0), (1.0, 3.0)])],
                                  tmp_path / "plot.svg", "line"),
    }[artifact]
    path = save()
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert path.name in before
    monkeypatch.setattr(_atomic, "open", _FailingFile, raising=False)
    with pytest.raises(OSError, match="No space"):
        save()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


_WRITE_MODE_CHARS = set("wax")


def _file_writes(tree: ast.AST):
    """Line numbers of calls that open a file for writing or write one whole."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            yield node.lineno
            continue
        # builtin open(path, mode) takes the mode second; Path.open(mode) first
        if isinstance(func, ast.Name) and func.id == "open":
            position = 1
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            position = 0
        else:
            continue
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
        if len(node.args) > position:
            modes.append(node.args[position])
        for mode in modes:
            literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            if not literal or _WRITE_MODE_CHARS & set(mode.value):
                yield node.lineno


def test_every_file_write_goes_through_atomic_module():
    package = Path(moodlyrics.__file__).parent
    offenders = [
        f"{source.name}:{line}"
        for source in sorted(package.glob("*.py"))
        if source.name != "_atomic.py"
        for line in _file_writes(ast.parse(source.read_text(encoding="utf-8")))
    ]
    assert offenders == [], "write through _atomic.write_atomic or write_csv instead"


@pytest.mark.parametrize(
    "code, hits",
    [
        ("open(p, 'w')", 1),
        ("open(p, mode='ab')", 1),
        ("p.open('x', encoding='utf-8')", 1),
        ("p.write_text(s)", 1),
        ("p.write_bytes(b)", 1),
        ("open(p, m)", 1),
        ("open(p); open(p, 'rb'); p.open(); p.open(newline=''); p.read_text()", 0),
    ],
)
def test_write_guard_finds_writes(code, hits):
    assert len(list(_file_writes(ast.parse(code)))) == hits
