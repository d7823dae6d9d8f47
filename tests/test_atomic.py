import builtins
import errno
import time

import numpy as np
import pytest

from moodlyrics import _atomic
from moodlyrics.baseline import nb_train, save_nb
from moodlyrics.cli import RunManifest
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


@pytest.mark.parametrize("artifact", ["checkpoint", "nb", "manifest", "vocab", "history"])
def test_failed_write_keeps_previous_file(
    tmp_path, monkeypatch, synth32, vocab32, tiny_params, artifact
):
    params = init_model(tiny_params.config, dtype=np.float32)
    manifest = RunManifest(command="train", argv=[], seed=1, derived_seeds={},
                           config={}, inputs={})
    history = TrainHistory([1.4, 1.2], [0.25, 0.5], [1.3, 1.1], [0.5, 0.75], 2)
    save = {
        "checkpoint": lambda: save_checkpoint(tmp_path / "m.ckpt", params, "h"),
        "nb": lambda: save_nb(nb_train(synth32), tmp_path / "model.nb"),
        "manifest": lambda: manifest.save(tmp_path, time.perf_counter()),
        "vocab": lambda: vocab32.save(tmp_path / "vocab.txt"),
        "history": lambda: history.save_csv(tmp_path / "history.csv"),
    }[artifact]
    path = save()
    before = path.read_bytes()
    monkeypatch.setattr(_atomic, "open", _FailingFile, raising=False)
    with pytest.raises(OSError, match="No space"):
        save()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
