import json
import math

import numpy as np
import pytest

from oriconv.checkpoint import load_checkpoint, network_tensors, restore_network, save_checkpoint
from oriconv.cli import cli
from oriconv.errors import ConfigError, NumericalError
from oriconv.networks import (
    ORIENT_BACKBONE,
    Detector,
    NetworkSpec,
    OrientationEstimator,
)
from oriconv.synthdata import SceneSpec, generate_orientation_patches, generate_scene
from oriconv.trainer import TrainConfig, build_network, save_training_checkpoint, train

from conftest import huge_checkpoint_header


def _saved(tmp_path):
    path = tmp_path / "checkpoint.ckpt"
    tensors = {
        "param/w": np.arange(12, dtype=np.float32).reshape(2, 3, 2),
        "state/v": np.ones(4, dtype=np.float32),
    }
    save_checkpoint(str(path), tensors, step=7, config={"train": {}})
    return path


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, -1e300])
def test_non_finite_float32_tensor_raises_before_writing(tmp_path, bad):
    # 1e39 and -1e300 are finite in float64 and overflow the float32 cast;
    # no numpy warning is emitted on the way (warnings are errors here)
    path = tmp_path / "checkpoint.ckpt"
    tensors = {"param/a": np.ones(3, dtype=np.float32),
               "param/w": np.array([0.5, bad, 2.0], dtype=np.float64)}
    with pytest.raises(NumericalError, match="param/w"):
        save_checkpoint(str(path), tensors, step=1, config={})
    assert not path.exists()


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


def test_header_larger_than_the_file_raises_config_error(tmp_path):
    path = tmp_path / "checkpoint.ckpt"
    path.write_bytes(huge_checkpoint_header())
    assert path.stat().st_size == 39
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


def _orient_spec(**kwargs):
    return NetworkSpec(task="orientation", input_size=80, backbone=ORIENT_BACKBONE, **kwargs)


# the names follow the layer tree alone: neither the rotation count nor the
# dtype a network computes in adds, drops or renames a tensor
NETWORKS = {
    "detector_free": lambda seed=0: Detector(NetworkSpec(), rng=np.random.default_rng(seed)),
    "detector_n12": lambda seed=0: Detector(
        NetworkSpec(n_rotations=12), rng=np.random.default_rng(seed)
    ),
    "detector_float64": lambda seed=0: Detector(
        NetworkSpec(), rng=np.random.default_rng(seed), dtype=np.float64
    ),
    "estimator_free": lambda seed=0: OrientationEstimator(
        _orient_spec(), rng=np.random.default_rng(seed)
    ),
    "estimator_n12": lambda seed=0: OrientationEstimator(
        _orient_spec(n_rotations=12), rng=np.random.default_rng(seed)
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
    "estimator_free": (
        ["head/wi", "head/wr", "trunk/0.weights", "trunk/3.weights", "trunk/6.weights"],
        [],
    ),
}
PINNED["detector_n12"] = PINNED["detector_float64"] = PINNED["detector_free"]
PINNED["estimator_n12"] = PINNED["estimator_free"]


# A switched-off block saves nothing: the default free detector's names less
# those of the blocks each ablation spec does not build.
_FREE_PARAMS, _ = PINNED["detector_free"]
ABLATED = {
    "use_lipm": (
        [k for k in _FREE_PARAMS if not k.startswith("lipm")],
        [k for k in DETECTOR_STATE if "norm_lipm" not in k],
    ),
    "use_ffm": (
        [k for k in _FREE_PARAMS if not k.startswith("fusion")],
        [k for k in DETECTOR_STATE if not k.startswith("fusion")],
    ),
    "use_rpn": ([k for k in _FREE_PARAMS if not k.startswith("rpn")], DETECTOR_STATE),
}


@pytest.mark.parametrize("switch", sorted(ABLATED))
def test_ablated_detector_names_pinned(switch):
    tensors = network_tensors(Detector(NetworkSpec(**{switch: False})))
    params, state = ABLATED[switch]
    assert sorted(k[len("param/"):] for k in tensors if k.startswith("param/")) == params
    assert sorted(k[len("state/"):] for k in tensors if k.startswith("state/")) == state


@pytest.mark.parametrize("switch", sorted(ABLATED))
def test_ablated_detector_save_load_restore_save_byte_identical(switch, tmp_path):
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    spec = NetworkSpec(**{switch: False})
    net = Detector(spec, rng=np.random.default_rng(0))
    for i, v in enumerate(net.state().values()):
        v[...] = 0.5 + i
    save_checkpoint(str(first), network_tensors(net), step=3, config={"switch": switch})
    tensors, step, _ = load_checkpoint(str(first))
    fresh = Detector(spec, rng=np.random.default_rng(1))
    restore_network(fresh, tensors)
    save_checkpoint(str(second), network_tensors(fresh), step=step, config={"switch": switch})
    assert first.read_bytes() == second.read_bytes()


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


def _detector_tensors():
    return {k: v.copy() for k, v in network_tensors(NETWORKS["detector_free"]()).items()}


def _without(tensors, name):
    return {k: v for k, v in tensors.items() if k != name}


def _with(tensors, name, shape):
    return {**tensors, name: np.ones(shape, np.float32)}


# each a checkpoint that does not fit the default free detector
MISFITS = {
    "missing_param": lambda t: _without(t, "param/head0/w"),
    "missing_state": lambda t: _without(t, "state/fusion0/norm_cur.running_var"),
    "unknown_param": lambda t: _with(t, "param/lipm2/0.weights", 3),
    "unknown_state": lambda t: _with(t, "state/attention0/norm_x.running_var", 8),
    # the attention conv3 of a detector built without its pyramid input
    "misshaped_param": lambda t: _with(t, "param/attention0/conv3.weights", (3, 3, 16, 8)),
    "misshaped_state": lambda t: _with(t, "state/fusion0/norm_cur.running_var", 9),
}


@pytest.mark.parametrize("case", sorted(MISFITS))
def test_restore_takes_exactly_the_network_tensors(case):
    tensors = MISFITS[case](_detector_tensors())
    net = NETWORKS["detector_free"](seed=1)
    before = {k: v.copy() for k, v in network_tensors(net).items()}
    with pytest.raises(ConfigError, match="shape" if "misshaped" in case else "does not fit"):
        restore_network(net, tensors)
    # nothing was written
    assert all(v.tobytes() == before[k].tobytes() for k, v in network_tensors(net).items())


def test_restore_loads_every_tensor_and_returns_the_momenta():
    tensors = _detector_tensors()
    tensors["momentum/head0/b"] = np.full(tensors["param/head0/b"].shape, 0.5, np.float32)
    net = NETWORKS["detector_free"](seed=1)
    momenta = restore_network(net, tensors)
    assert list(momenta) == ["head0/b"] and (momenta["head0/b"] == 0.5).all()
    assert all(v.tobytes() == tensors[k].tobytes() for k, v in network_tensors(net).items())


def test_same_seed_same_log_and_checkpoint(tmp_path):
    spec = NetworkSpec(
        task="orientation", n_rotations=4, input_size=32, head_window=2,
        backbone=({"size": 5, "filters": 3, "pool": 2}, {"size": 3, "filters": 4, "pool": 2}),
    )
    config = TrainConfig(batch_size=4, max_steps=2, seed=5)
    data = generate_orientation_patches(SceneSpec(seed=5), 8, 32)
    runs = []
    for i in range(2):
        result = train(config, data, build_network(spec, config.seed))
        path = tmp_path / f"run{i}.ckpt"
        save_training_checkpoint(str(path), result, config, spec)
        runs.append((result.log_rows, path.read_bytes()))
    assert len(runs[0][0]) == 2
    assert all(math.isfinite(row[2]) for row in runs[0][0])
    assert runs[0] == runs[1]


def test_default_config_trains_a_default_detector():
    # the network's spec sets the task: the default TrainConfig names none
    data = [generate_scene(SceneSpec(seed=0), i) for i in range(2)]
    result = train(TrainConfig(max_steps=1, batch_size=2), data, Detector(NetworkSpec()))
    assert result.log_header[3:] == ("rpn_cls", "rpn_reg", "head_cls", "head_hbb", "head_obb")
    assert len(result.log_rows) == 1 and math.isfinite(result.log_rows[0][2])


def test_hflip_augment_is_seeded_and_changes_the_batches():
    spec = NetworkSpec(n_rotations=4)
    data = [generate_scene(SceneSpec(seed=0), i) for i in range(4)]
    logs = {}
    for flip in (True, True, False):
        config = TrainConfig(batch_size=2, max_steps=2, hflip_augment=flip)
        rows = train(config, data, build_network(spec, config.seed)).log_rows
        assert all(math.isfinite(row[2]) for row in rows)
        assert logs.setdefault(flip, rows) == rows
    assert [row[2] for row in logs[True]] != [row[2] for row in logs[False]]


def test_hflip_augment_only_flips_the_batches_it_would_draw(monkeypatch):
    # Over three epochs the flag-on run sees the flag-off run's scenes in the
    # same batches, some of them mirrored: the coin flips do not move the
    # data order.
    spec = NetworkSpec(n_rotations=4)
    data = [generate_scene(SceneSpec(seed=0), i) for i in range(4)]
    seen = {}
    for flip in (False, True):
        config = TrainConfig(batch_size=2, max_steps=6, hflip_augment=flip)
        net = build_network(spec, config.seed)
        batches = seen.setdefault(flip, [])

        def record(images, gts, lambdas, batches=batches):
            batches.append(images.copy())
            return 1.0, dict.fromkeys(("rpn_cls", "rpn_reg", "head_cls", "head_hbb", "head_obb"), 0.0)

        monkeypatch.setattr(net, "loss_and_grads", record)
        train(config, data, net)
    assert len(seen[True]) == len(seen[False]) == 6
    flipped = []
    for on, off in zip(seen[True], seen[False]):
        for a, b in zip(on, off):
            mirrored = a.tobytes() == b[:, ::-1].tobytes()
            assert mirrored or a.tobytes() == b.tobytes()
            flipped.append(mirrored)
    assert any(flipped) and not all(flipped)
