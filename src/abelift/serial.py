"""Canonical JSON serialization and content hashing.

Every artifact this package writes goes through canonical_json so that
re-running a command with the same inputs produces byte-identical files.
Rules: str dict keys in sorted order, no whitespace, floats via repr
(shortest round-trip), no NaN/Inf.
"""
from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import numpy as np


def _encode(obj: Any) -> Any:
    """json.dumps hook for the numpy and set values payloads carry."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def is_integer(x: Any) -> bool:
    """Whether a JSON value is an integer (true and false are not)."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_number(x: Any) -> bool:
    """Whether a JSON value is a finite number (not NaN, inf or a bool)."""
    try:
        return not isinstance(x, bool) and math.isfinite(x)
    except (TypeError, OverflowError):  # not a number, or an int past float
        return False


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text for *obj* (sorted keys, stable floats)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, default=_encode)


def canonical_bytes(obj: Any) -> bytes:
    return canonical_json(obj).encode("utf-8")


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def object_hash(obj: Any) -> str:
    """sha256 of the canonical JSON encoding of *obj*."""
    return sha256_hex(canonical_bytes(obj))


def binary_matrix_hash(h: np.ndarray) -> str:
    """object_hash(h.tolist()) of a 2-d array, hashed from bytes when it is
    a nonempty 0/1 uint8 one.

    Row i of the canonical text is "[h_i0,h_i1,...,h_i(c-1)]" and rows are
    joined by ",", inside one outer "[" "]": an (r, 2c + 2) byte buffer of
    '[', digits, ',', ']' and the row separator holds it all but the outer
    brackets.  Any other array goes through object_hash.
    """
    r, c = h.shape
    if r == 0 or c == 0 or h.dtype != np.uint8 or h.max() > 1:
        return object_hash(h.tolist())
    buf = np.full((r, 2 * c + 2), ord(","), dtype=np.uint8)
    buf[:, 0] = ord("[")
    buf[:, 1:2 * c:2] = h + ord("0")
    buf[:, 2 * c] = ord("]")
    digest = hashlib.sha256(b"[")
    digest.update(buf.reshape(-1)[:-1].tobytes())
    digest.update(b"]")
    return digest.hexdigest()


def file_hash(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def dump_json(obj: Any, path: str) -> str:
    """Write canonical JSON to *path*, returning the text written."""
    text = canonical_json(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
    return text


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
