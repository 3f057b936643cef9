import json
import math

import numpy as np
import pytest

from oriconv.checkpoint import load_checkpoint, network_tensors, restore_network, save_checkpoint
from oriconv.cli import cli
from oriconv.errors import ConfigError
from oriconv.networks import (
    ORIENT_BACKBONE,
    BaselineOrientationCNN,
    Detector,
    NetworkSpec,
    OrientationEstimator,
)
from oriconv.synthdata import SceneSpec, generate_orientation_patches
from oriconv.trainer import TrainConfig, build_network, save_training_checkpoint, train


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


# ---------------------------------------------------------------------------
# names and bytes of real networks: the checkpoint format is keyed by the
# layer tree's parameter and state names, so these pin them


def _orient_spec(**kw):
    return NetworkSpec(task="orientation", input_size=80, backbone=ORIENT_BACKBONE, **kw)


NETWORKS = {
    "detector_free": lambda seed=0: Detector(NetworkSpec(), rng=np.random.default_rng(seed)),
    "detector_steerable": lambda seed=0: Detector(
        NetworkSpec(parametrization="steerable"), rng=np.random.default_rng(seed)
    ),
    "estimator_free": lambda seed=0: OrientationEstimator(
        _orient_spec(), rng=np.random.default_rng(seed)
    ),
    "estimator_steerable": lambda seed=0: OrientationEstimator(
        _orient_spec(parametrization="steerable"), rng=np.random.default_rng(seed)
    ),
    "baseline": lambda seed=0: BaselineOrientationCNN(
        _orient_spec(), rng=np.random.default_rng(seed), widths=(5, 8, 8)
    ),
}

DETECTOR_STATE = [
    "attention0/norm_lipm.running_var", "attention0/norm_ssd.running_var",
    "attention1/norm_lipm.running_var", "attention1/norm_ssd.running_var",
    "fusion0/norm_cur.running_var", "fusion0/norm_prev.running_var",
]

PINNED = {
    "detector_free": (
        [
            "attention0/conv1.weights", "attention0/conv3.weights",
            "attention1/conv1.weights", "attention1/conv3.weights",
            "backbone0/0.weights", "backbone0/3.weights", "backbone1/0.weights",
            "fusion0/conv1.weights", "fusion0/conv3.weights",
            "fusion0/pre_cur.weights", "fusion0/pre_prev.weights",
            "head0/b", "head0/w", "head1/b", "head1/w",
            "lipm0/0.weights", "lipm0/2.weights", "lipm0/5.weights",
            "lipm1/0.weights", "lipm1/2.weights", "lipm1/5.weights",
            "rpn/b", "rpn/w",
        ],
        DETECTOR_STATE,
    ),
    "detector_steerable": (
        [
            "attention0/conv1.weights", "attention0/conv3.weights",
            "attention1/conv1.weights", "attention1/conv3.weights",
            "backbone0/0.mixing", "backbone0/3.mixing", "backbone1/0.mixing",
            "fusion0/conv1.weights", "fusion0/conv3.weights",
            "fusion0/pre_cur.weights", "fusion0/pre_prev.weights",
            "head0/b", "head0/w", "head1/b", "head1/w",
            "lipm0/0.mixing", "lipm0/2.mixing", "lipm0/5.mixing",
            "lipm1/0.mixing", "lipm1/2.mixing", "lipm1/5.mixing",
            "rpn/b", "rpn/w",
        ],
        DETECTOR_STATE,
    ),
    "estimator_free": (
        ["head/wi", "head/wr", "trunk/0.weights", "trunk/3.weights", "trunk/6.weights"],
        [],
    ),
    "estimator_steerable": (
        ["head/wi", "head/wr", "trunk/0.mixing", "trunk/3.mixing", "trunk/6.mixing"],
        [],
    ),
    "baseline": (
        [
            "dense/b", "dense/w", "trunk/0.b", "trunk/0.w",
            "trunk/3.b", "trunk/3.w", "trunk/6.b", "trunk/6.w",
        ],
        [],
    ),
}


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_checkpoint_names_pinned(name):
    tensors = network_tensors(NETWORKS[name]())
    params, state = PINNED[name]
    assert sorted(k[len("param/"):] for k in tensors if k.startswith("param/")) == params
    assert sorted(k[len("state/"):] for k in tensors if k.startswith("state/")) == state


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_grads_named_like_params(name):
    net = NETWORKS[name]()
    assert list(net.grads()) == list(net.params())
    assert all(net.grads()[k].shape == v.shape for k, v in net.params().items())


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_save_load_restore_save_byte_identical(name, tmp_path):
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    net = NETWORKS[name]()
    for i, v in enumerate(net.state().values()):
        v[...] = 0.5 + i
    save_checkpoint(str(first), network_tensors(net), step=3, config={"name": name})
    tensors, step, _ = load_checkpoint(str(first))
    fresh = NETWORKS[name](seed=1)  # restored over other weights
    restore_network(fresh, tensors)
    save_checkpoint(str(second), network_tensors(fresh), step=step, config={"name": name})
    assert first.read_bytes() == second.read_bytes()


def test_same_seed_same_log_and_checkpoint(tmp_path):
    spec = NetworkSpec(
        task="orientation", n_rotations=4, input_size=32, head_window=2,
        backbone=({"size": 5, "filters": 3, "pool": 2}, {"size": 3, "filters": 4, "pool": 2}),
    )
    config = TrainConfig(task="orientation", n_rotations=4, batch_size=4, max_steps=2, seed=5)
    data = generate_orientation_patches(SceneSpec(seed=5), 8, 32)
    runs = []
    for i in range(2):
        result = train(config, data, build_network(spec, config))
        path = tmp_path / f"run{i}.ckpt"
        save_training_checkpoint(str(path), result, config, spec)
        runs.append((result.log_rows, path.read_bytes()))
    assert len(runs[0][0]) == 2
    assert all(math.isfinite(row[2]) for row in runs[0][0])
    assert runs[0] == runs[1]
