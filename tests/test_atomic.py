import ast
import builtins
import errno
import os
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
from moodlyrics.errors import MoodlyricsError
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
    tmp_path, monkeypatch, synth32, vocab32, tok_config, tiny_params, artifact
):
    params = init_model(tiny_params.config, dtype=np.float32)
    manifest = RunManifest(command="train", argv=[], seed=1, derived_seeds={},
                           config={}, inputs={})
    history = TrainHistory([1.4, 1.2], [0.25, 0.5], [1.3, 1.1], [0.5, 0.75], 2)
    moods = list(MoodLabel)
    matrix = confusion(moods + moods[:2], moods + moods[1:3])
    save = {
        "checkpoint": lambda: save_checkpoint(tmp_path / "m.ckpt", params, "h", tok_config),
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


_READ_METHODS = {"open", "read_text", "read_bytes", "is_file"}


def _file_reads(tree: ast.AST):
    """Line numbers of calls that open, read or stat a file."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr in _READ_METHODS
        ):
            yield node.lineno


def test_every_file_read_goes_through_atomic_module():
    package = Path(moodlyrics.__file__).parent
    offenders = [
        f"{source.name}:{line}"
        for source in sorted(package.glob("*.py"))
        if source.name != "_atomic.py"
        for line in _file_reads(ast.parse(source.read_text(encoding="utf-8")))
    ]
    assert offenders == [], "read through _atomic.read_input or read_input_text instead"


def _is_exception(name, bases):
    """Whether the class ``name`` derives from ``BaseException``, given each
    package class's base names."""
    builtin = getattr(builtins, name, None)
    if isinstance(builtin, type):
        return issubclass(builtin, BaseException)
    return any(_is_exception(base, bases) for base in bases.get(name, ()))


def test_one_exception_class_and_a_read_path_without_one():
    """Every refusal is a ``MoodlyricsError``: the package defines no other
    exception class, and its read path takes no exception class to raise."""
    package = Path(moodlyrics.__file__).parent
    trees = {source.name: ast.parse(source.read_text(encoding="utf-8"))
             for source in sorted(package.glob("*.py"))}
    classes = {node.name: (module, [ast.unparse(base) for base in node.bases])
               for module, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    bases = {name: names for name, (_, names) in classes.items()}
    exceptions = [f"{module}:{name}" for name, (module, _) in classes.items()
                  if _is_exception(name, bases)]
    assert exceptions == ["errors.py:MoodlyricsError"]

    readers = {node.name: node.args
               for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name in {"read_input", "read_input_text", "_read_hashed"}}
    assert sorted(readers) == ["_read_hashed", "read_input", "read_input_text"]
    for name, args in readers.items():
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            annotation = ast.unparse(arg.annotation) if arg.annotation else ""
            assert arg.arg != "error" and not any(
                word in annotation for word in ("Exception", "Error")
            ), f"{name} takes an exception class: {arg.arg}: {annotation}"


@pytest.mark.parametrize(
    "code, hits",
    [
        ("open(p)", 1),
        ("with p.open(newline='') as fh: fh.read()", 1),
        ("p.read_text(encoding='utf-8')", 1),
        ("p.read_bytes()", 1),
        ("p.is_file()", 1),
        ("open(p, 'wb'); p.open('rb')", 2),
        ("read_input(p, 'x', E); _svg_open(t); fh.read(); p.exists(); p.name", 0),
    ],
)
def test_read_guard_finds_reads(code, hits):
    assert len(list(_file_reads(ast.parse(code)))) == hits


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda d: d / "missing.txt", "thing not found: "),
        (lambda d: d, "thing not found: "),
        (lambda d: d / ("x" * 5000), "thing cannot be read (File name too long): "),
    ],
    ids=["missing", "directory", "name-too-long"],
)
def test_read_input_names_the_file(tmp_path, make, message):
    path = make(tmp_path)
    with pytest.raises(MoodlyricsError) as excinfo:
        _atomic.read_input(path, "thing")
    assert str(excinfo.value) == f"{message}{path}"


def test_read_input_refuses_a_fifo_without_blocking(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    with pytest.raises(MoodlyricsError, match="not found"):
        _atomic.read_input(fifo, "thing")


def test_read_input_text_is_strict_utf8_without_newline_translation(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes("a\r\nb\rগান\n".encode("utf-8"))
    assert _atomic.read_input_text(path, "thing") == "a\r\nb\rগান\n"
    path.write_bytes(b"ok\n\xe9\n")
    with pytest.raises(MoodlyricsError) as excinfo:
        _atomic.read_input_text(path, "thing")
    assert str(excinfo.value) == (
        f"thing is not UTF-8: {path} (invalid continuation byte at byte 3)"
    )
