import builtins
import errno
import time

import numpy as np
import pytest

from moodlyrics import _atomic
from moodlyrics.baseline import nb_train, save_nb
from moodlyrics.cli import RunManifest
from moodlyrics.model import init_model, save_checkpoint


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


@pytest.mark.parametrize("artifact", ["checkpoint", "nb", "manifest"])
def test_failed_write_keeps_previous_file(
    tmp_path, monkeypatch, synth32, tiny_params, artifact
):
    params = init_model(tiny_params.config, dtype=np.float32)
    manifest = RunManifest(command="train", argv=[], seed=1, derived_seeds={},
                           config={}, inputs={})
    save = {
        "checkpoint": lambda: save_checkpoint(tmp_path / "m.ckpt", params, "h"),
        "nb": lambda: save_nb(nb_train(synth32), tmp_path / "model.nb"),
        "manifest": lambda: manifest.save(tmp_path, time.perf_counter()),
    }[artifact]
    path = save()
    before = path.read_bytes()
    monkeypatch.setattr(_atomic, "open", _FailingFile, raising=False)
    with pytest.raises(OSError, match="No space"):
        save()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
