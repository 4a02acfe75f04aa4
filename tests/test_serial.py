"""Canonical JSON and hashing."""
import numpy as np
import pytest

from abelift import serial


def test_canonical_json_sorts_keys_and_strips_spaces():
    assert serial.canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_canonical_json_normalizes_numpy_scalars_and_arrays():
    payload = {
        "i": np.int64(3),
        "f": np.float64(0.5),
        "b": np.bool_(True),
        "arr": np.arange(3),
        "fs": frozenset([2, 0, 1]),
    }
    assert serial.canonical_json(payload) == \
        '{"arr":[0,1,2],"b":true,"f":0.5,"fs":[0,1,2],"i":3}'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        serial.canonical_json({"x": float("nan")})


def test_object_hash_is_stable_and_order_insensitive():
    a = serial.object_hash({"x": 1, "y": [1, 2, 3]})
    b = serial.object_hash({"y": [1, 2, 3], "x": 1})
    assert a == b
    assert len(a) == 64 and int(a, 16) >= 0


def test_dump_load_roundtrip(tmp_path):
    path = tmp_path / "art.json"
    serial.dump_json({"k": [1, {"m": 2}]}, path)
    text = path.read_text()
    assert text.endswith("\n") and "\n" not in text[:-1]
    assert serial.load_json(path) == {"k": [1, {"m": 2}]}
    assert serial.file_hash(path) == serial.file_hash(str(path))


def test_binary_matrix_hash_equals_the_json_hash():
    rng = np.random.default_rng(1)
    mats = [np.zeros(shape, dtype=np.uint8)
            for shape in ((0, 5), (3, 0), (0, 0), (1, 1), (2, 3))]
    mats += [np.ones((1, 1), np.uint8), np.ones((3, 2), np.uint8)]
    mats += [rng.integers(0, 2, size=tuple(rng.integers(1, 40, size=2)),
                          dtype=np.uint8) for _ in range(30)]
    # not 0/1 uint8: the JSON path, as tolist() spells them
    mats += [np.array([[0, 2], [1, 1]], np.uint8),
             np.array([[True, False]]), np.array([[1, 0]], np.int64)]
    for h in mats:
        assert serial.binary_matrix_hash(h) == serial.object_hash(h.tolist())
