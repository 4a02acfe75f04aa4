"""Dense linear algebra over F2 on bit-packed rows.

Matrices live in two shapes: plain uint8 arrays with one entry per cell
(the interchange format) and packed uint64 arrays with 64 columns per
word (the compute format).  Elimination, rank, nullspace and row-space
tests all run on the packed form with whole-row XORs, in one elimination
(_eliminate) that takes the caller's column order and may resume at a row.
"""
from __future__ import annotations

import numpy as np


def as_f2(mat) -> np.ndarray:
    """Coerce to a 2-d uint8 array of 0/1 entries, each entry mod 2.

    Bool and integer arrays take their low bit directly (a & 1 is a mod 2
    in two's complement, negatives included); other dtypes go through
    int64.  The result is always a new array, never a view of *mat*.
    """
    a = np.asarray(mat)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError("expected a 2-d binary matrix")
    if a.dtype.kind in "biu":
        return (a & np.uint8(1)).astype(np.uint8, copy=False)
    return (a.astype(np.int64) % 2).astype(np.uint8)


def pack_rows(mat) -> np.ndarray:
    """Pack each row of a binary matrix into uint64 words, 64 columns per word."""
    a = as_f2(mat)
    n_rows, n_cols = a.shape
    n_words = max(1, -(-n_cols // 64))
    padded = np.zeros((n_rows, n_words * 64), dtype=np.uint8)
    padded[:, :n_cols] = a
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64).copy()


def unpack_rows(packed: np.ndarray, n_cols: int) -> np.ndarray:
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :n_cols].astype(np.uint8)


def popcount_rows(packed: np.ndarray) -> np.ndarray:
    """Hamming weight of each packed row."""
    return np.bitwise_count(packed).sum(axis=1).astype(np.int64)


def _eliminate(packed: np.ndarray, cols, r: int = 0) -> list[int]:
    """Reduce rows r.. of *packed* in place at *cols*, in the order given,
    clearing each pivot from every row, until every row holds a pivot.
    Returns the pivot columns in the order found."""
    n_rows = packed.shape[0]
    pivots = []
    for c in cols:
        if r == n_rows:
            break
        word, bit = divmod(int(c), 64)
        has_bit = (packed[:, word] & np.uint64(1 << bit)) != 0
        hits = has_bit[r:].nonzero()[0]
        if hits.size == 0:
            continue
        p = r + hits[0]
        if p != r:
            packed[[r, p]] = packed[[p, r]]
        # when p != r, row p now holds the old row r, which had no bit c
        has_bit[r] = has_bit[p] = False
        packed[has_bit] ^= packed[r]
        pivots.append(int(c))
        r += 1
    return pivots


def rref(mat) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form. Returns (full-size uint8 matrix, pivot columns)."""
    a = as_f2(mat)
    packed = pack_rows(a)
    pivots = _eliminate(packed, range(a.shape[1]))
    return unpack_rows(packed, a.shape[1]), pivots


def rank(mat) -> int:
    a = as_f2(mat)
    return len(_eliminate(pack_rows(a), range(a.shape[1])))


def nullspace(mat) -> np.ndarray:
    """Basis of the right kernel, one vector per row (may have zero rows)."""
    a = as_f2(mat)
    n_cols = a.shape[1]
    red, pivots = rref(a)
    pivot = np.zeros(n_cols, dtype=bool)
    pivot[pivots] = True
    free = np.flatnonzero(~pivot)
    basis = np.zeros((free.size, n_cols), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = red[: len(pivots)][:, free].T
    return basis


def matmul(a, b) -> np.ndarray:
    """Matrix product over F2."""
    aa = as_f2(a).astype(np.int64)
    bb = as_f2(b).astype(np.int64)
    return ((aa @ bb) % 2).astype(np.uint8)


def in_span(mat, vecs) -> np.ndarray:
    """For each row of *vecs*: is it an F2 combination of the rows of *mat*?"""
    a, v = as_f2(mat), as_f2(vecs)
    if a.shape[1] != v.shape[1]:
        raise ValueError("length mismatch")
    return span_test(a)(pack_rows(v))


def span_test(mat):
    """*mat* eliminated once, as a test of packed rows: test(packed) is,
    per row of the (k, words) uint64 array packed as pack_rows packs rows
    of *mat*'s length, whether it lies in the row span of *mat*.

    Every row is cleared at each pivot column in one packed XOR pass and
    lies in the span iff nothing is left; *packed* is not modified.
    """
    a = as_f2(mat)
    basis = pack_rows(a)
    steps = [(basis[r], *divmod(c, 64))
             for r, c in enumerate(_eliminate(basis, range(a.shape[1])))]

    def test(packed: np.ndarray) -> np.ndarray:
        rest = np.array(packed, dtype=np.uint64)
        for row, word, bit in steps:
            rest[(rest[:, word] >> np.uint64(bit)) & np.uint64(1) != 0] ^= row
        return ~rest.any(axis=1)

    return test


def row_space_equal(a, b) -> bool:
    aa, bb = as_f2(a), as_f2(b)
    if aa.shape[1] != bb.shape[1]:
        return False
    return bool(in_span(aa, bb).all() and in_span(bb, aa).all())


def nonzero_rref_rows(mat) -> np.ndarray:
    """Canonical full-rank generating set for the row space of *mat*."""
    red, pivots = rref(mat)
    return red[: len(pivots)].copy()
