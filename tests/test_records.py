"""Every JSON reader returns a valid object or raises ValueError; a failed save writes nothing."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from residuehd.phasor import base_from_dict, base_to_dict, sample_base, save_base
from residuehd.residue import make_residue_system, save_system, system_from_dict, system_to_dict
from residuehd.scene import load_feature_maps, make_synthetic_objects, save_feature_maps
from residuehd.subsetsum import SubsetSumInstance, load_instance, save_instance

json_values = strategies.recursive(
    strategies.none() | strategies.booleans() | strategies.integers() | strategies.just(2**70)
    | strategies.floats() | strategies.text(max_size=4),
    lambda inner: strategies.lists(inner, max_size=4) | strategies.dictionaries(strategies.text(max_size=8), inner,
                                                                                max_size=4),
    max_leaves=8,
)


@strategies.composite
def mutations(draw, doc):
    """A copy of `doc` with one dict value or list entry, at any depth, replaced or deleted."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = draw(strategies.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(strategies.booleans()):
            node = child
        elif draw(strategies.booleans()):
            del node[key]
            return doc
        else:
            node[key] = draw(json_values)
            return doc


def inputs(valid_doc):
    """Any JSON-shaped value, or a valid record with one entry changed."""
    return json_values | mutations(valid_doc)


def read_or_value_error(read, doc):
    """read(doc) after a JSON round trip, or None when it raises ValueError."""
    try:
        return read(json.loads(json.dumps(doc)))
    except ValueError:
        return None


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("records") / "doc.json"


def from_file(load, path):
    """A reader of JSON values that writes each to `path` and loads it with `load`."""
    def read(doc):
        path.write_text(json.dumps(doc))
        return load(path)
    return read


BASE = base_to_dict(sample_base(5, 4, seed=1))
SYSTEM = system_to_dict(make_residue_system([3, 5], 4, seed=2))
INSTANCE = {"items": [3, 4, 5], "target": 8, "ground_truth": [0, 2], "seed": 4}
MAPS = {"grid": [4, 5], "channels": [{"id": 0, "coeffs": [[1, 2, 0.5], [4, 3, -1.0]]}, {"id": 7, "coeffs": []}]}


@settings(max_examples=100)
@given(doc=inputs(BASE))
def test_base_reader(doc):
    base = read_or_value_error(base_from_dict, doc)
    if base is not None:
        again = base_from_dict(base_to_dict(base))
        assert again.modulus == base.modulus and np.array_equal(again.phase_indices, base.phase_indices)


@settings(max_examples=100)
@given(doc=inputs(SYSTEM))
def test_system_reader(doc):
    sys = read_or_value_error(system_from_dict, doc)
    if sys is not None:
        assert system_to_dict(system_from_dict(system_to_dict(sys))) == system_to_dict(sys)


@settings(max_examples=75)
@given(doc=inputs(INSTANCE))
def test_instance_reader(doc_path, doc):
    inst = read_or_value_error(from_file(load_instance, doc_path), doc)
    if inst is not None:
        save_instance(inst, doc_path)
        assert load_instance(doc_path) == inst


@settings(max_examples=75)
@given(doc=inputs(MAPS))
def test_feature_map_reader(doc_path, doc):
    maps = read_or_value_error(from_file(load_feature_maps, doc_path), doc)
    if maps is not None:
        save_feature_maps(maps, doc_path)
        assert load_feature_maps(doc_path) == maps


def unserializable(obj, **fields):
    """`obj` with fields set past its constructor to numpy integers, which json cannot write."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@pytest.mark.parametrize("save, record", [
    (save_base, unserializable(sample_base(5, 4, seed=1), modulus=np.int64(5))),
    (save_system, unserializable(make_residue_system([3], 4, seed=2),
                                 bases=(unserializable(sample_base(3, 4, seed=3), modulus=np.int64(3)),))),
    (save_instance, unserializable(SubsetSumInstance((3, 4), 3), target=np.int64(3))),
    (save_feature_maps, unserializable(make_synthetic_objects(1, 2, (8, 8), footprint=4, seed=5)[0],
                                       grid=(np.int64(8), 8))),
])
def test_failed_save_writes_nothing(tmp_path, save, record):
    # json.dump into an open file once left a truncated record behind
    path = tmp_path / "record.json"
    with pytest.raises(TypeError):
        save(record, path)
    assert not path.exists()
    path.write_text("old contents")
    with pytest.raises(TypeError):
        save(record, path)
    assert path.read_text() == "old contents"
