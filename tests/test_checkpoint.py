import json

import numpy as np
import pytest

from oriconv.checkpoint import load_checkpoint, save_checkpoint
from oriconv.cli import cli
from oriconv.errors import ConfigError


def _saved(tmp_path):
    path = tmp_path / "checkpoint.ckpt"
    tensors = {
        "param/w": np.arange(12, dtype=np.float32).reshape(2, 3, 2),
        "state/v": np.ones(4, dtype=np.float32),
    }
    save_checkpoint(str(path), tensors, step=7, config={"train": {}})
    return path


def _offsets(size):
    # inside the version, the count, a name length, a name, a shape, the
    # data of a tensor, and one byte short of the end
    return [6, 10, 13, 20, 40, size // 2, size - 3, size - 1]


def test_roundtrip(tmp_path):
    path = _saved(tmp_path)
    tensors, step, _ = load_checkpoint(str(path))
    assert step == 7
    assert np.array_equal(tensors["param/w"], np.arange(12).reshape(2, 3, 2))


def test_truncated_raises_config_error(tmp_path):
    path = _saved(tmp_path)
    full = path.read_bytes()
    for cut in _offsets(len(full)):
        path.write_bytes(full[:cut])
        with pytest.raises(ConfigError, match="truncated"):
            load_checkpoint(str(path))


def test_truncated_checkpoint_exits_2(tmp_path, capsys):
    path = _saved(tmp_path)
    full = path.read_bytes()
    (tmp_path / "config.json").write_text(json.dumps({"train": {}, "network": {}}))
    for cut in _offsets(len(full)):
        path.write_bytes(full[:cut])
        argv = ["eval", "--run", str(tmp_path), "--data", str(tmp_path), "--out", str(tmp_path / "out")]
        assert cli(argv) == 2
        assert "truncated" in capsys.readouterr().err
