"""Feature-map ingestion, scene binding, and factorization layouts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies

from residuehd import scene
from residuehd.residue import make_residue_system
from residuehd.resonator import ResonatorConfig
from residuehd.scene import (
    FeatureMaps,
    SceneCodec,
    SceneVector,
    load_feature_maps,
    make_synthetic_objects,
    save_feature_maps,
    scene_experiment,
    translate_maps,
)


def small_codec(D=2048, seed=70, n_features=4):
    hsys = make_residue_system([3, 5, 7], D, seed=seed)
    vsys = make_residue_system([3, 5, 7], D, seed=seed + 1)
    return SceneCodec(hsys, vsys, n_features, seed=seed + 2)


class TestFeatureMaps:
    def test_coordinate_validation(self):
        with pytest.raises(ValueError, match="channel 0, coeff 1"):
            FeatureMaps(grid=(4, 4), channels={0: ((1, 1, 1.0), (4, 0, 1.0))})

    def test_non_finite_value(self):
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMaps(grid=(4, 4), channels={1: ((0, 0, math.nan),)})

    def test_round_trip_bit_exact(self, tmp_path):
        objects = make_synthetic_objects(10, 4, (16, 16), footprint=8, coeffs_per_object=6, seed=0)
        for i, obj in enumerate(objects):
            path = tmp_path / f"obj{i}.json"
            save_feature_maps(obj, path)
            loaded = load_feature_maps(path)
            assert loaded.grid == obj.grid
            assert loaded.channels == obj.channels

    @given(data=strategies.data(), H=strategies.integers(1, 40), W=strategies.integers(1, 40))
    def test_file_round_trip(self, tmp_path_factory, data, H, W):
        coeff = strategies.tuples(strategies.integers(0, W - 1), strategies.integers(0, H - 1),
                                  strategies.floats(allow_nan=False, allow_infinity=False))
        channels = data.draw(strategies.dictionaries(strategies.integers(0, 2**31 - 1),
                                                     strategies.lists(coeff, max_size=8).map(tuple), max_size=6))
        maps = FeatureMaps(grid=(H, W), channels=channels)
        path = tmp_path_factory.mktemp("maps") / "maps.json"
        save_feature_maps(maps, path)
        assert load_feature_maps(path) == maps

    def test_malformed_file_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": [4, 4], "channels": [{"id": 3, "coeffs": [[0, 0]]}]}))
        with pytest.raises(ValueError, match="channel 3, coeff 0"):
            load_feature_maps(path)

    def test_missing_grid(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"channels": []}))
        with pytest.raises(ValueError, match="grid"):
            load_feature_maps(path)

    def test_repeated_channel_id_rejected(self, tmp_path):
        # the second channel 0 once replaced the first
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": [4, 4], "channels": [{"id": 0, "coeffs": [[1, 1, 1.0]]},
                                                                 {"id": 0, "coeffs": [[2, 2, 1.0]]}]}))
        with pytest.raises(ValueError, match="repeats"):
            load_feature_maps(path)

    @pytest.mark.parametrize("grid, channels", [
        ([4, 4], [{"id": 0.5, "coeffs": []}]),  # truncated once, as were the next two
        ([4, 4], [{"id": 0, "coeffs": [[1.9, 1, 1.0]]}]),
        ([4.5, 4], []),
        ([4, 4], 5),  # a TypeError once, as were the rest
        ([4, 4], [{"id": 0, "coeffs": 5}]),
        ([4, 4], [{"id": 0, "coeffs": [[1, 1, "1.0"]]}]),
        ([4, 4], [{"id": None, "coeffs": []}]),
        (["4", 4], []),
        ([4, 4], [5]),
    ])
    def test_malformed_file_rejected(self, tmp_path, grid, channels):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": grid, "channels": channels}))
        with pytest.raises(ValueError):
            load_feature_maps(path)

    @pytest.mark.parametrize("grid, channels", [
        ((4.5, 4), {}),
        ((4, 4), {0.5: ()}),
        ((4, 4), {0: ((1.9, 1, 1.0),)}),
        ((4, 4), {0: ((1, 1, "1.0"),)}),
        ((4, 4), {0: ((1, 1, 10**400),)}),
    ])
    def test_constructor_rejects_non_integers(self, grid, channels):
        with pytest.raises(ValueError):
            FeatureMaps(grid=grid, channels=channels)

    @pytest.mark.parametrize("grid, channels", [
        ((True, 4), {}),
        ((4, 4), {True: ()}),
        ((4, 4), {0: ((True, 1, 1.0),)}),
        ((4, 4), {0: ((1, False, 1.0),)}),
    ], ids=["grid", "channel-id", "x", "y"])
    def test_bool_rejected(self, grid, channels):
        # a bool was once read as 1 or 0
        with pytest.raises(ValueError, match="must be integers"):
            FeatureMaps(grid=grid, channels=channels)

    @pytest.mark.parametrize("grid, channels", [
        ([True, 4], []),
        ([4, 4], [{"id": True, "coeffs": []}]),
        ([4, 4], [{"id": 0, "coeffs": [[True, 1, 1.0]]}]),
        ([4, 4], [{"id": 0, "coeffs": [[1, False, 1.0]]}]),
    ], ids=["grid", "channel-id", "x", "y"])
    def test_json_bool_rejected(self, tmp_path, grid, channels):
        # JSON true and false were once loaded as 1 and 0, except as a channel id
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": grid, "channels": channels}))
        with pytest.raises(ValueError):
            load_feature_maps(path)


class TestSceneEncoding:
    def test_empty_maps_zero_vector(self):
        codec = small_codec()
        s = codec.encode_scene(FeatureMaps(grid=(8, 8), channels={}))
        assert np.all(s.values == 0)

    def test_single_coefficient(self):
        codec = small_codec()
        maps = FeatureMaps(grid=(8, 8), channels={1: ((2, 3, 1.0),)})
        s = codec.encode_scene(maps)
        expected = (
            codec.hsys.encode(2).values * codec.vsys.encode(3).values * codec.feature_vectors[1]
        )
        assert np.allclose(s.values, expected, atol=1e-12)

    def test_translation_equivariance(self):
        codec = small_codec()
        obj = make_synthetic_objects(1, 4, (105, 105), footprint=10, coeffs_per_object=8, seed=1)[0]
        dx, dy = 40, 77
        s0 = codec.encode_scene(obj)
        s1 = codec.encode_scene(translate_maps(obj, dx, dy))
        bound = codec.hsys.encode(dx).values * codec.vsys.encode(dy).values * s0.values
        assert np.allclose(s1.values, bound, atol=1e-9)

    def test_superposition_linearity(self):
        codec = small_codec()
        a = FeatureMaps(grid=(8, 8), channels={0: ((1, 1, 0.7),)})
        b = FeatureMaps(grid=(8, 8), channels={2: ((5, 2, 1.3), (0, 4, 0.4))})
        combined = FeatureMaps(grid=(8, 8), channels={0: a.channels[0], 2: b.channels[2]})
        assert np.allclose(
            codec.encode_scene(combined).values,
            codec.encode_scene(a).values + codec.encode_scene(b).values,
            atol=1e-9,
        )

    def test_grid_exceeding_range_rejected(self):
        codec = small_codec()
        with pytest.raises(ValueError, match="exceeds"):
            codec.encode_scene(FeatureMaps(grid=(200, 200), channels={}))

    def test_scene_vector_finite_invariant(self):
        with pytest.raises(ValueError):
            SceneVector(values=np.array([np.nan + 0j]))


class TestObjectCodebook:
    def test_origin_object_equals_entry(self):
        codec = small_codec()
        # an empty object keeps a zero row; the others scale to norm sqrt(D)
        objects = make_synthetic_objects(3, 4, (105, 105), seed=2) + [FeatureMaps(grid=(105, 105), channels={})]
        cb = codec.build_object_codebook(objects)
        assert cb.n_entries == 4
        assert not np.any(cb.matrix[3])
        for i, obj in enumerate(objects[:3]):
            raw = codec.encode_scene(obj).values
            assert np.allclose(cb.matrix[i], raw * math.sqrt(codec.dim) / np.linalg.norm(raw), atol=1e-12)

    def test_ten_objects_decorrelated(self):
        codec = small_codec(D=10_000, seed=71, n_features=8)
        objects = make_synthetic_objects(10, 8, (105, 105), seed=3)
        cb = codec.build_object_codebook(objects)
        m = cb.matrix
        for i in range(10):
            for j in range(i + 1, 10):
                cos = abs(np.real(np.vdot(m[i], m[j]))) / (np.linalg.norm(m[i]) * np.linalg.norm(m[j]))
                assert cos <= 0.3


class TestFactorization:
    def test_codebook_vector_counts(self):
        codec = small_codec()
        objects = make_synthetic_objects(10, 4, (105, 105), seed=4)
        cb = codec.build_object_codebook(objects)
        s = codec.encode_scene(translate_maps(objects[0], 5, 9))
        cfg = ResonatorConfig(max_iters=20, max_restarts=2, seed=0)
        dec_std = codec.factorize_scene(s, cb, mode="standard", config=cfg)
        dec_res = codec.factorize_scene(s, cb, mode="residue", config=cfg)
        assert dec_std.total_codebook_vectors == 220
        assert dec_res.total_codebook_vectors == 40

    def test_both_modes_decode_correctly(self):
        codec = small_codec(D=4096, seed=72)
        objects = make_synthetic_objects(6, 4, (105, 105), seed=5)
        cb = codec.build_object_codebook(objects)
        rng = np.random.default_rng(6)
        for mode in ("standard", "residue"):
            hits = 0
            for t in range(8):
                i = int(rng.integers(6))
                dx, dy = int(rng.integers(105)), int(rng.integers(105))
                s = codec.encode_scene(translate_maps(objects[i], dx, dy))
                cfg = ResonatorConfig(max_iters=30, max_restarts=9, seed=1000 + t)
                dec = codec.factorize_scene(s, cb, mode=mode, config=cfg)
                hits += (dec.object_id, dec.x, dec.y) == (i, dx, dy)
            assert hits >= 7

    def test_residue_layout_built_once(self, monkeypatch):
        factorize, passed = scene.resonator_factorize, []

        def recording_factorize(v, books, cfg):
            passed.append(books)
            return factorize(v, books, cfg)

        monkeypatch.setattr(scene, "resonator_factorize", recording_factorize)
        codec = small_codec()
        objects = make_synthetic_objects(3, 4, (105, 105), seed=9)
        cb = codec.build_object_codebook(objects)
        cfg = ResonatorConfig(max_iters=5, seed=0)
        for dx in (4, 50):
            codec.factorize_scene(codec.encode_scene(translate_maps(objects[1], dx, 7)), cb, "residue", cfg)
        # the position books are the systems' own bases, not copies
        own = [*codec.hsys.bases, *codec.vsys.bases]
        assert len(passed) == 2
        for books in passed:
            assert books[0] is cb and len(books) == 1 + len(own)
            assert all(b is o for b, o in zip(books[1:], own))
        standard = codec.layouts["standard"]
        assert standard[0] is codec.hsys.composed_base and standard[1] is codec.vsys.composed_base

    def test_unknown_mode_rejected(self):
        codec = small_codec()
        objects = make_synthetic_objects(2, 4, (105, 105), seed=7)
        cb = codec.build_object_codebook(objects)
        s = codec.encode_scene(objects[0])
        with pytest.raises(ValueError):
            codec.factorize_scene(s, cb, mode="hybrid")


class TestExperiment:
    def test_small_run_schema(self):
        out = scene_experiment(
            n_scenes=4,
            D=2048,
            n_objects=5,
            n_features=4,
            seed=8,
            config=ResonatorConfig(max_iters=20, max_restarts=9),
        )
        assert set(out["modes"]) == {"residue", "standard"}
        res = out["modes"]["residue"]
        assert res["codebook_vectors"] == 5 + 15 + 15
        assert out["modes"]["standard"]["codebook_vectors"] == 5 + 210
        assert 0.0 <= res["accuracy"] <= 1.0
