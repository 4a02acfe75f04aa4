"""Bit-packed F2 linear algebra against a naive dense-mod-2 oracle."""
import numpy as np

from abelift import gf2


def naive_rank(m):
    a = np.array(m, dtype=np.int64) % 2
    r = 0
    for c in range(a.shape[1]):
        rows = np.nonzero(a[r:, c])[0]
        if rows.size == 0:
            continue
        p = r + rows[0]
        a[[r, p]] = a[[p, r]]
        for i in range(a.shape[0]):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        r += 1
        if r == a.shape[0]:
            break
    return r


def test_pack_unpack_roundtrip(rng):
    for cols in (1, 7, 63, 64, 65, 130):
        m = rng.integers(0, 2, size=(5, cols)).astype(np.uint8)
        assert np.array_equal(gf2.unpack_rows(gf2.pack_rows(m), cols), m)


def test_popcount_rows(rng):
    m = rng.integers(0, 2, size=(9, 100)).astype(np.uint8)
    assert np.array_equal(gf2.popcount_rows(gf2.pack_rows(m)),
                          m.sum(axis=1))


def test_rank_matches_naive_oracle(rng):
    for _ in range(40):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 90))
        m = rng.integers(0, 2, size=(rows, cols))
        assert gf2.rank(m) == naive_rank(m)


def test_rank_identity_and_zero():
    assert gf2.rank(np.eye(17, dtype=np.uint8)) == 17
    assert gf2.rank(np.zeros((4, 9), dtype=np.uint8)) == 0


def test_rref_rows_span_input_and_have_unit_pivots(rng):
    m = rng.integers(0, 2, size=(8, 20)).astype(np.uint8)
    red, pivots = gf2.rref(m)
    assert len(pivots) == gf2.rank(m)
    for i, p in enumerate(pivots):
        col = red[: len(pivots), p]
        expect = np.zeros(len(pivots), dtype=np.uint8)
        expect[i] = 1
        assert np.array_equal(col, expect)
    assert gf2.row_space_equal(m, red[: len(pivots)])


def test_eliminate_in_a_column_order_is_rref_of_the_permuted_matrix(rng):
    # the caller's own rows reduced in a column order equal rref of the
    # column-permuted matrix scattered back, and resuming at the row after
    # the pivots of the first part of the order is one pass over all of it
    for _ in range(80):
        rows, cols = int(rng.integers(1, 14)), int(rng.integers(1, 140))
        m = (rng.random((rows, cols)) < rng.uniform(0.05, 0.6)).astype(
            np.uint8)
        order = rng.permutation(cols)
        red, piv = gf2.rref(m[:, order])
        want = np.empty_like(red)
        want[:, order] = red
        packed = gf2.pack_rows(m)
        pivots = gf2._eliminate(packed, order)
        assert pivots == order[piv].tolist()
        assert np.array_equal(gf2.unpack_rows(packed, cols), want)
        cut = int(rng.integers(0, cols + 1))
        packed = gf2.pack_rows(m)
        first = gf2._eliminate(packed, order[:cut])
        assert first + gf2._eliminate(packed, order[cut:], len(first)) \
            == pivots
        assert np.array_equal(gf2.unpack_rows(packed, cols), want)


def test_eliminate_stops_once_every_row_holds_a_pivot():
    seen = []

    def cols():
        for c in range(200):
            seen.append(c)
            yield c

    packed = gf2.pack_rows(np.eye(3, 200, dtype=np.uint8))
    assert gf2._eliminate(packed, cols()) == [0, 1, 2]
    assert len(seen) <= 4
    before = packed.copy()
    assert gf2._eliminate(packed, range(200), 3) == []
    assert np.array_equal(packed, before)
    assert gf2._eliminate(gf2.pack_rows(np.zeros((0, 3))), range(3)) == []


def test_nullspace_is_orthogonal_and_maximal(rng):
    for _ in range(20):
        m = rng.integers(0, 2, size=(6, 15)).astype(np.uint8)
        ns = gf2.nullspace(m)
        assert ns.shape[0] == 15 - gf2.rank(m)
        assert not gf2.matmul(m, ns.T).any()
        assert gf2.rank(ns) == ns.shape[0]


def test_nullspace_basis_is_the_reduced_one_at_every_shape(rng):
    # row f of the basis is free column f's unit vector plus, at each
    # pivot column, that pivot row's entry in column f
    def reference(m):
        red, pivots = gf2.rref(m)
        free = [c for c in range(m.shape[1]) if c not in pivots]
        basis = np.zeros((len(free), m.shape[1]), dtype=np.uint8)
        for i, f in enumerate(free):
            basis[i, f] = 1
            for r, p in enumerate(pivots):
                basis[i, p] = red[r, f]
        return basis

    cases = [np.zeros((0, 5)), np.zeros((3, 0)), np.zeros((0, 0)),
             np.eye(6), np.zeros((4, 7)),
             np.hstack([np.eye(4), rng.integers(0, 2, size=(4, 9))])]
    cases += [rng.integers(0, 2, size=(6, 15)) for _ in range(10)]
    for m in cases:
        m = np.asarray(m, dtype=np.uint8)
        ns = gf2.nullspace(m)
        assert ns.dtype == np.uint8
        assert ns.shape == (m.shape[1] - gf2.rank(m), m.shape[1])
        assert np.array_equal(ns, reference(m))


def test_matmul_matches_dense_mod2(rng):
    a = rng.integers(0, 2, size=(5, 11))
    b = rng.integers(0, 2, size=(11, 7))
    assert np.array_equal(gf2.matmul(a, b), (a @ b) % 2)


def naive_in_span(mat, vec):
    """Rank definition: vec is in the row span iff appending it keeps rank."""
    mat = np.asarray(mat, dtype=np.uint8).reshape(-1, len(vec))
    return naive_rank(mat) == naive_rank(np.vstack([mat, vec]))


def test_in_span_and_equality(rng):
    basis = rng.integers(0, 2, size=(4, 30)).astype(np.uint8)
    combo = basis[0] ^ basis[2]
    assert gf2.in_span(basis, combo).tolist() == [True]
    out = combo.copy()
    out[0] ^= 1
    # flipping one bit leaves the span unless that bit is a free direction
    if not gf2.in_span(basis, out)[0]:
        assert not gf2.row_space_equal(basis, np.vstack([basis, out]))
    perm_rows = basis[::-1].copy()
    assert gf2.row_space_equal(basis, perm_rows)


def test_in_span_batches_match_the_rank_definition(rng):
    for cols in (1, 30, 64, 65, 150):
        basis = rng.integers(0, 2, size=(5, cols)).astype(np.uint8)
        coeffs = rng.integers(0, 2, size=(6, 5))
        vecs = np.vstack([(coeffs @ basis) % 2,  # in the span
                          rng.integers(0, 2, size=(6, cols)),
                          np.zeros((1, cols), dtype=np.uint8)])
        got = gf2.in_span(basis, vecs)
        assert got.shape == (13,) and got[:6].all() and got[-1]
        assert got.tolist() == [naive_in_span(basis, v) for v in vecs]
    wide = np.zeros((2, 130), dtype=np.uint8)
    wide[0, [3, 70]] = 1
    wide[1, [64, 129]] = 1
    probe = np.zeros((3, 130), dtype=np.uint8)
    probe[0, [3, 64, 70, 129]] = 1  # both rows
    probe[1, [3, 64]] = 1  # pivot of one row, half of the other
    probe[2, 129] = 1
    assert gf2.in_span(wide, probe).tolist() == [True, False, False]


def test_in_span_of_no_rows_is_the_zero_vector(rng):
    empty = np.zeros((0, 70), dtype=np.uint8)
    vecs = rng.integers(0, 2, size=(4, 70)).astype(np.uint8)
    vecs[2] = 0
    assert gf2.in_span(empty, vecs).tolist() == [False, False, True, False]
    assert gf2.in_span(empty, vecs).tolist() == [
        naive_in_span(empty, v) for v in vecs]
    assert gf2.in_span(vecs, empty).shape == (0,)
    assert gf2.row_space_equal(empty, np.zeros((3, 70), dtype=np.uint8))
    assert not gf2.row_space_equal(empty, vecs)


def test_nonzero_rref_rows_drops_dependents():
    m = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=np.uint8)
    red = gf2.nonzero_rref_rows(m)
    assert red.shape == (1, 3)
    assert np.array_equal(red[0], [1, 1, 0])


def test_as_f2_equals_the_int64_reduction_and_never_aliases():
    rng = np.random.default_rng(2)
    ints = rng.integers(-9, 9, size=(5, 7))
    inputs = [ints % 2 == 1, (ints % 2).astype(np.uint8), ints,
              ints.astype(np.int8), (ints % 2).astype(np.float64),
              (ints % 2).astype(np.uint64), ints[0], np.zeros((0, 3), bool)]
    for a in inputs:
        got = gf2.as_f2(a)
        ref = np.atleast_2d(np.asarray(a).astype(np.int64) % 2).astype(
            np.uint8)
        assert got.dtype == np.uint8
        assert np.array_equal(got, ref), a.dtype
        assert not np.shares_memory(got, a), a.dtype
