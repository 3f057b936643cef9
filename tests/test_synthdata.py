import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

from oriconv.detect import OBox, iou_hbb
from oriconv.errors import ConfigError, ShapeError
from oriconv.synthdata import (
    CLASS_NAMES,
    SceneObject,
    SceneSpec,
    augment,
    generate_orientation_patches,
    generate_scene,
    load_dataset,
    object_from_record,
    object_record,
    read_image,
    write_dataset,
    write_image,
)


class TestGenerateScene:
    def test_deterministic_in_spec_and_index(self):
        spec = SceneSpec(seed=42)
        a = generate_scene(spec, 3)
        b = generate_scene(spec, 3)
        assert np.array_equal(a.image, b.image)
        assert len(a.objects) == len(b.objects)
        for oa, ob in zip(a.objects, b.objects):
            assert oa.class_name == ob.class_name
            assert oa.alpha == ob.alpha
            assert np.array_equal(oa.hbox.as_array(), ob.hbox.as_array())

    def test_single_object_spec(self):
        spec = SceneSpec(seed=7, min_objects=1, max_objects=1)
        s = generate_scene(spec, 0)
        assert len(s.objects) == 1

    def test_pinned_orientation(self):
        spec = SceneSpec(seed=1, angle_range=(0.0, 0.0))
        s = generate_scene(spec, 0)
        assert all(o.alpha == 0.0 for o in s.objects)

    def test_boxes_inside_image(self):
        spec = SceneSpec(seed=5, min_objects=2, max_objects=3)
        for i in range(5):
            s = generate_scene(spec, i)
            for o in s.objects:
                hb = o.hbox
                assert 0 <= hb.xmin < hb.xmax <= spec.image_size
                assert 0 <= hb.ymin < hb.ymax <= spec.image_size

    def test_overlap_bounded(self):
        spec = SceneSpec(seed=9, min_objects=3, max_objects=3)
        for i in range(5):
            s = generate_scene(spec, i)
            for a in range(len(s.objects)):
                for b in range(a + 1, len(s.objects)):
                    assert iou_hbb(s.objects[a].hbox, s.objects[b].hbox) <= spec.overlap_iou

    def test_rotated_rect_hull_side(self):
        # hull of a w x h rectangle at 45 degrees has side (w + h) / sqrt(2)
        spec = SceneSpec(seed=3, classes=("rect",), angle_range=(45.0, 45.0),
                         min_objects=1, max_objects=1)
        s = generate_scene(spec, 0)
        o = s.objects[0]
        want = (o.obox.w + o.obox.h) / math.sqrt(2)
        assert abs(o.hbox.width - want) < 1.0  # rasterization tolerance
        assert abs(o.hbox.height - want) < 1.0

    def test_hbox_is_hull_of_obox(self):
        spec = SceneSpec(seed=11, min_objects=2, max_objects=3)
        for i in range(4):
            for o in generate_scene(spec, i).objects:
                hull = o.obox.hull()
                # labels use the same quantized trig as the rasterizer
                assert np.abs(hull.as_array() - o.hbox.as_array()).max() < 2e-3

    def test_rendered_pixels_inside_dilated_boxes(self):
        spec = SceneSpec(seed=42)
        s = generate_scene(spec, 3)
        bg = generate_scene(SceneSpec(seed=42, min_objects=0, max_objects=0), 3)
        diff = np.abs(s.image[:, :, 0] - bg.image[:, :, 0]) > 1.0 / 255.0
        for y, x in np.argwhere(diff):
            assert any(
                o.hbox.xmin - 1 <= x + 0.5 <= o.hbox.xmax + 1
                and o.hbox.ymin - 1 <= y + 0.5 <= o.hbox.ymax + 1
                for o in s.objects
            )

    def test_canonicalization_roundtrip(self):
        spec = SceneSpec(seed=13, min_objects=2, max_objects=3)
        for i in range(4):
            for o in generate_scene(spec, i).objects:
                back = OBox(*o.obox.as_array())
                assert np.array_equal(back.as_array(), o.obox.as_array())

    def test_three_channel_mode(self):
        spec = SceneSpec(seed=2, channels=3)
        s = generate_scene(spec, 0)
        assert s.image.shape == (64, 64, 3)

    def test_bad_spec_rejected(self):
        with pytest.raises(ShapeError):
            SceneSpec(min_objects=3, max_objects=1)
        with pytest.raises(ShapeError):
            SceneSpec(classes=("blob",))

    @pytest.mark.parametrize("bad", [
        {"overlap_iou": math.nan}, {"overlap_iou": -1.0}, {"overlap_iou": 1.01},
        {"overlap_iou": math.inf}, {"background": (0.5, 3.0)}, {"background": (-0.1, 0.4)},
        {"foreground": (0.7, 1.2)}, {"min_size": 0.0}, {"min_size": -5.0},
        {"min_size": 0.2, "max_size": 0.24},
    ])
    def test_values_the_generator_cannot_honour_rejected(self, bad):
        key = next(iter(bad))
        with pytest.raises(ShapeError, match=key):
            SceneSpec(**bad)

    @pytest.mark.parametrize("edge", [
        {"overlap_iou": 0.0}, {"overlap_iou": 1.0}, {"background": (0.0, 1.0)},
        {"foreground": (1.0, 1.0)}, {"min_size": 0.25, "max_size": 0.25},
    ])
    def test_edge_values_generate(self, edge):
        spec = SceneSpec(seed=2, **edge)
        for i in range(3):
            s = generate_scene(spec, i)
            assert 0.0 <= s.image.min() and s.image.max() <= 1.0

    def test_scene_objects_hold_only_their_labels(self):
        names = [f.name for f in dataclasses.fields(SceneObject)]
        assert names == ["class_name", "hbox", "obox", "alpha"]

    def test_rendered_bytes_pinned(self):
        # the renderer reads its size from the OBox's long side, which
        # canonicalization swaps into h past 90 degrees; these scenes hold
        # both kinds
        spec = SceneSpec(seed=3)
        scenes = [generate_scene(spec, i) for i in range(6)]
        sides = [o.obox.w > o.obox.h for s in scenes for o in s.objects]
        assert any(sides) and not all(sides)
        h = hashlib.sha256()
        for s in scenes:
            h.update(s.image.tobytes())
        for img, _ in generate_orientation_patches(spec, 2):
            h.update(img.tobytes())
        assert h.hexdigest() == "f2d5483f435167f96ac1c3015f16d32b26226ac6e8ddcf0a4dced58a12dd1e54"

    def test_ground_truth_record(self):
        s = generate_scene(SceneSpec(seed=4, min_objects=3, max_objects=3), 0)
        ids, pairs = s.ground_truth()
        assert ids == [o.class_id for o in s.objects] and len(ids) == 3
        assert pairs == [(o.hbox, o.obox) for o in s.objects]
        assert generate_scene(SceneSpec(min_objects=0, max_objects=0), 0).ground_truth() == ([], [])


class TestOrientationPatches:
    def test_count_and_shape(self):
        pts = generate_orientation_patches(SceneSpec(seed=5), 4)
        assert len(pts) == 4
        assert pts[0][0].shape == (80, 80, 1)
        assert all(0 <= a < 360 for _, a in pts)

    def test_empty(self):
        assert generate_orientation_patches(SceneSpec(seed=5), 0) == []

    def test_label_transport_under_quarter_turn(self):
        from oriconv.tensor import rotate_grid

        pts = generate_orientation_patches(SceneSpec(seed=5, angle_range=(0.0, 0.0)), 1)
        img, alpha = pts[0]
        rot = rotate_grid(img.astype(np.float64), math.pi / 2)
        # the rotated patch is the alpha + 90 patch up to background texture:
        # verify via the rendered arrow mask rather than pixel equality
        pts90 = generate_orientation_patches(
            SceneSpec(seed=5, angle_range=(90.0, 90.0)), 1
        )
        img90, alpha90 = pts90[0]
        assert alpha90 == 90.0
        # objects occupy the same pixels: compare bright-pixel masks
        m1 = rot[:, :, 0] > 0.6
        m2 = img90[:, :, 0] > 0.6
        overlap = (m1 & m2).sum() / max((m1 | m2).sum(), 1)
        assert overlap > 0.8

    def test_mean_intensity_stable_across_seeds(self):
        means = []
        for seed in range(4):
            pts = generate_orientation_patches(SceneSpec(seed=seed), 8)
            means.append(np.mean([p.mean() for p, _ in pts]))
        center = np.mean(means)
        assert all(abs(m - center) / center < 0.05 for m in means)


class TestAugment:
    def scene(self):
        return generate_scene(SceneSpec(seed=42, min_objects=2, max_objects=3), 1)

    def test_flip_twice_is_identity(self):
        s = self.scene()
        back = augment(augment(s, {"hflip": True}), {"hflip": True})
        assert np.array_equal(back.image, s.image)
        for o, o2 in zip(s.objects, back.objects):
            assert np.abs(o.hbox.as_array() - o2.hbox.as_array()).max() < 1e-9
            assert abs((o.alpha - o2.alpha) % 360.0) < 1e-9

    def test_quarter_turn_box_mapping(self):
        s = self.scene()
        w_img = s.image.shape[1]
        r = augment(s, {"rotate_quarters": 1})
        assert np.array_equal(r.image, np.rot90(s.image))
        for o, o2 in zip(s.objects, r.objects):
            hb = o.hbox
            want = np.array([hb.ymin, w_img - hb.xmax, hb.ymax, w_img - hb.xmin])
            assert np.abs(o2.hbox.as_array() - want).max() < 1e-9
            assert o2.alpha == pytest.approx((o.alpha + 90.0) % 360.0)

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigError, match="rescale"):
            augment(self.scene(), {"hflip": True, "rescale": 0.5})

    def test_obb_theta_recanonicalized(self):
        s = self.scene()
        r = augment(s, {"rotate_quarters": 3})
        for o in r.objects:
            assert 0 <= o.obox.theta < 90.0


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        spec = SceneSpec(seed=9)
        write_dataset(str(tmp_path), spec, 3)
        back = load_dataset(str(tmp_path))
        assert len(back) == 3
        orig = generate_scene(spec, 0)
        assert np.allclose(back[0].image, orig.image, atol=1 / 510)
        assert [o.class_name for o in back[0].objects] == [
            o.class_name for o in orig.objects
        ]

    def test_labels_schema(self, tmp_path):
        write_dataset(str(tmp_path), SceneSpec(seed=1), 2)
        with open(tmp_path / "labels.jsonl") as fh:
            lines = [json.loads(l) for l in fh]
        assert len(lines) == 2
        for rec in lines:
            assert set(rec) >= {"file", "objects"}
            for obj in rec["objects"]:
                assert set(obj) == {"class", "hbb", "obb", "alpha"}
                assert len(obj["hbb"]) == 4
                assert len(obj["obb"]) == 5
                assert obj["class"] in CLASS_NAMES
                assert 0 <= obj["alpha"] < 360

    def test_regeneration_bit_identical(self, tmp_path):
        spec = SceneSpec(seed=77)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_dataset(str(d1), spec, 2)
        write_dataset(str(d2), spec, 2)
        for name in sorted(os.listdir(d1 / "images")):
            b1 = (d1 / "images" / name).read_bytes()
            b2 = (d2 / "images" / name).read_bytes()
            assert b1 == b2
        assert (d1 / "labels.jsonl").read_bytes() == (d2 / "labels.jsonl").read_bytes()

    def test_pgm_p5_magic(self, tmp_path):
        write_image(str(tmp_path / "x.pgm"), np.zeros((4, 4, 1), dtype=np.float32))
        assert (tmp_path / "x.pgm").read_bytes().startswith(b"P5\n4 4\n255\n")

    def test_ppm_p6_roundtrip(self, tmp_path, rng):
        img = rng.random(size=(5, 6, 3)).astype(np.float32)
        write_image(str(tmp_path / "x.ppm"), img)
        back = read_image(str(tmp_path / "x.ppm"))
        assert back.shape == (5, 6, 3)
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-6

    def test_loaded_objects_equal_the_generated_ones(self, tmp_path):
        spec = SceneSpec(seed=3)
        write_dataset(str(tmp_path), spec, 8)
        back = load_dataset(str(tmp_path))
        assert len(back) == 8
        for i, sample in enumerate(back):
            orig = generate_scene(spec, i)
            assert sample.objects == orig.objects, i
            assert sample.ground_truth() == orig.ground_truth()

    def test_augmented_objects_survive_their_records(self):
        s = generate_scene(SceneSpec(seed=42, min_objects=3, max_objects=3), 1)
        for ops in ({"hflip": True}, {"rotate_quarters": 1}, {"rotate_quarters": 3, "hflip": True}):
            for o in augment(s, ops).objects:
                assert object_from_record(json.loads(json.dumps(object_record(o)))) == o

    def test_object_record_roundtrip(self):
        s = generate_scene(SceneSpec(seed=42), 3)
        for o in s.objects:
            back = object_from_record(object_record(o))
            assert back.class_name == o.class_name
            assert np.array_equal(back.hbox.as_array(), o.hbox.as_array())
            assert back.alpha == o.alpha
