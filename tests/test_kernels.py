"""Each enumeration kernel against a brute-force oracle on tiny inputs."""
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from abelift import gf2, kernels
from abelift.graphs import (complete_graph, cycle_graph, petersen_graph,
                            random_regular)
from abelift.hikes import enumerate_hikes


@pytest.mark.parametrize("block_bytes", [kernels.BLOCK_BYTES, 1],
                         ids=["default-blocks", "one-start-blocks"])
def test_count_hikes_matches_walk_enumeration(monkeypatch, recursive_hikes,
                                              block_bytes):
    monkeypatch.setattr(kernels, "BLOCK_BYTES", block_bytes)
    for g in (complete_graph(4), cycle_graph(5), petersen_graph(),
              random_regular(10, 3, seed=1)):
        for k in (1, 2, 3):
            for sf in (True, False):
                got = kernels.count_hikes(g.adj, g.eid_table, g.m, k,
                                          singleton_free=sf)
                assert got == sum(1 for _ in recursive_hikes(g, k, sf))


def test_listed_hikes_do_not_depend_on_the_block_size(monkeypatch):
    # one origin and one row of pairs per block must give the same list in
    # the same order, so sorting each block alone gives the global order
    for g in (complete_graph(4), petersen_graph(),
              random_regular(10, 3, seed=1)):
        for k in (2, 3, 5):
            for sf in (True, False):
                whole = enumerate_hikes(g, k, singleton_free_only=sf,
                                        return_walks=True)
                with monkeypatch.context() as m:
                    m.setattr(kernels, "BLOCK_BYTES", 1)
                    assert enumerate_hikes(g, k, singleton_free_only=sf,
                                           return_walks=True) == whole


def test_hike_list_is_refused_by_its_size_before_it_is_built():
    # 2,411,030 hikes of 21 vertices take 669,977,552 bytes as a list of
    # tuples, about five times DENSE_BYTES; only the count's blocks are
    # allocated
    g = random_regular(40, 3, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match="669977552 bytes as a list of tuples"):
            enumerate_hikes(g, 10, singleton_free_only=False,
                            return_walks=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    free = enumerate_hikes(g, 10, return_walks=True)
    assert len(free) == enumerate_hikes(g, 10) == 88230


def test_hike_list_peak_stays_within_its_stated_bytes(monkeypatch):
    # the stated bytes bound the call's peak, and the cap is applied to
    # them: the 88,230 singleton-free hikes of 21 vertices hold 19.1 MB as
    # tuples; building them from one int64 table and its nested lists
    # peaked at 37.7 MB
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 1 << 20)
    g = random_regular(40, 3, seed=0)
    args = (g.adj, g.eid_table, g.m, 10)
    with pytest.raises(ValueError) as refused:
        kernels.list_hikes(*args, cap=0)
    need = int(re.search(r"need (\d+) bytes", str(refused.value)).group(1))
    with pytest.raises(ValueError, match=f"need {need} bytes"):
        kernels.list_hikes(*args, cap=need - 1)
    walks, peak = _value_and_peak(
        lambda: kernels.list_hikes(*args, cap=need))
    assert len(walks) == 88230
    assert peak <= need < 25 << 20


def test_count_hikes_edge_counts_do_not_wrap():
    # on C4 with k = 4 * 128 + 2 the two half-walks from a vertex meet at
    # the opposite one; each uses two edges 129 times and two 128 times, so
    # their sum is 257 on every edge: 1 in eight-bit arithmetic
    c4 = cycle_graph(4)
    for sf in (True, False):
        assert kernels.count_hikes(c4.adj, c4.eid_table, c4.m, 514,
                                   singleton_free=sf) == 16


def _value_and_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        value = fn(*args)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_hikes_memory_stays_within_one_block(monkeypatch):
    g = random_regular(40, 3, seed=3)
    # unblocked, the pair tests of these 61,440 half-walks peak near 160 MB
    count, peak = _value_and_peak(kernels.count_hikes, g.adj, g.eid_table,
                                  g.m, 10)
    assert peak <= kernels.BLOCK_BYTES + (4 << 20)
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 2 << 20)
    blocked, peak = _value_and_peak(kernels.count_hikes, g.adj, g.eid_table,
                                    g.m, 10)
    assert blocked == count
    assert peak <= kernels.BLOCK_BYTES + (2 << 20)


@pytest.mark.parametrize("n, k", [(40, 7), (30, 6), (40, 10)])
def test_count_hikes_matches_the_walk_count_oracle(nb_walk_counts, n, k):
    # every hike is one ordered pair of non-backtracking k-walks from its
    # start that meet at the midpoint, so sum_(o, v) N_k(o, v)^2 counts them
    g = random_regular(n, 3, seed=n + k)
    assert kernels.count_hikes(g.adj, g.eid_table, g.m, k,
                               singleton_free=False) == int(
        (nb_walk_counts(g, k) ** 2).sum())


def test_count_hikes_matches_the_walk_enumeration_at_k5(nb_walk_counts,
                                                       recursive_hikes):
    # from k = 5 on K4 and on this random graph, a half can use an edge
    # twice that the other half does not use, and Q can cover every edge
    # that P uses once while P misses an edge that Q uses once
    for g in (complete_graph(4), cycle_graph(5), petersen_graph(),
              random_regular(10, 3, seed=1)):
        for sf in (True, False):
            assert kernels.count_hikes(g.adj, g.eid_table, g.m, 5,
                                       singleton_free=sf) == sum(
                1 for _ in recursive_hikes(g, 5, sf))
        assert sum(1 for _ in recursive_hikes(g, 5, False)) == int(
            (nb_walk_counts(g, 5) ** 2).sum())


def _span_weights(base, basis):
    """Hamming weight of every vector of base + span(basis), as uint8: the
    spans of the two halves of basis, bytes packed by np.packbits, XORed
    together a block of the second half at a time."""
    def span(start, rows):
        out = start[None, :]
        for row in rows:
            out = np.concatenate([out, out ^ row])
        return out

    rows = np.packbits(np.vstack([base, basis]).astype(np.uint8), axis=1)
    half = len(basis) // 2
    low = span(np.zeros_like(rows[0]), rows[1:half + 1])
    high = span(rows[0], rows[half + 1:])
    step = max(1, (1 << 20) // low.size)
    return np.concatenate([
        np.bitwise_count(low[None] ^ high[lo:lo + step, None]).sum(
            axis=2, dtype=np.uint8).reshape(-1)
        for lo in range(0, len(high), step)])


def _check_min_weight_affine(base, basis):
    """min_weight_affine, with and without skip_zero, against _span_weights."""
    weights = _span_weights(base, basis)
    zp = gf2.pack_rows(base.reshape(1, -1))[0]
    bp = gf2.pack_rows(basis) if basis.shape[0] else np.zeros(
        (0, zp.size), dtype=np.uint64)
    assert kernels.min_weight_affine(zp, bp) == weights.min()
    nonzero = weights[weights > 0]
    if nonzero.size:
        assert kernels.min_weight_affine(zp, bp,
                                         skip_zero=True) == nonzero.min()
    else:
        with pytest.raises(ValueError, match="zero vector"):
            kernels.min_weight_affine(zp, bp, skip_zero=True)


def test_min_weight_affine_matches_brute_force(rng):
    # at most 8 basis vectors, of any rank, with and without base in span
    for i in range(25):
        n_basis, cols = int(rng.integers(0, 9)), int(rng.integers(1, 70))
        basis = rng.integers(0, 2, size=(n_basis, cols)).astype(np.uint8)
        base = rng.integers(0, 2, size=cols).astype(np.uint8)
        if i % 4 == 0:
            base[:] = 0
        if i % 8 == 0 and n_basis:
            basis[1:] = basis[0]  # rank one, so spans with few vectors
        _check_min_weight_affine(base, basis)


def test_min_weight_affine_paths_agree(rng):
    # the answer must not depend on the order of the basis vectors, so each
    # basis is also checked reversed and shuffled
    for n_basis, cols in ((17, 20), (18, 9), (17, 3)):
        basis = rng.integers(0, 2, size=(n_basis, cols)).astype(np.uint8)
        base = rng.integers(0, 2, size=cols).astype(np.uint8)
        for order in (np.arange(n_basis), np.arange(n_basis)[::-1],
                      rng.permutation(n_basis)):
            _check_min_weight_affine(base, basis[order])
    # only the sum of all 18 unit vectors cancels the all-ones base: base
    # in the span, where skip_zero asks for the least nonzero weight
    ones = gf2.pack_rows(np.ones((1, 18), dtype=np.uint8))[0]
    units = gf2.pack_rows(np.eye(18, dtype=np.uint8))
    assert kernels.min_weight_affine(ones, units) == 0
    assert kernels.min_weight_affine(ones, units, skip_zero=True) == 1


def test_min_weight_affine_matches_brute_force_at_20_to_24_vectors(rng):
    # bases in and off the span, and dependent bases
    for i, n_basis in enumerate((20, 21, 22, 23, 24, 24)):
        cols = int(rng.integers(20, 64))
        basis = rng.integers(0, 2, size=(n_basis, cols)).astype(np.uint8)
        base = rng.integers(0, 2, size=cols).astype(np.uint8)
        if i % 2:  # rank below n_basis
            basis[-3:] = basis[:3] ^ basis[3:6]
        if i % 3 == 0:  # base in the span
            base = basis[::2].sum(axis=0) % 2
        _check_min_weight_affine(base, basis)


def test_min_weight_affine_refuses_past_the_budget_before_enumerating(
        monkeypatch, rng):
    def refuse(*args):
        raise AssertionError("enumerated past the budget")

    monkeypatch.setattr(kernels, "min_weight_codewords", refuse)
    # base + span(47 vectors) of length 96: a [96, 48] code's coset, and
    # further than the budget reaches
    base, basis = (gf2.pack_rows(rng.integers(0, 2, size=(rows, 96)))
                   for rows in (1, 47))
    with pytest.raises(ValueError, match=r"^exact distance budget exceeded"):
        kernels.min_weight_affine(base[0], basis)


def test_least_weight_refuses_a_test_no_codeword_passes():
    gen = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.uint8)
    assert kernels.least_weight(gen, kernels.keep_all) == 2
    with pytest.raises(ValueError, match="no codeword passes the test"):
        kernels.least_weight(gen, lambda packed: np.zeros(len(packed),
                                                          dtype=bool))


def test_min_weight_affine_zero_only_space():
    zero = np.zeros(10, dtype=np.uint8)
    packed = gf2.pack_rows(zero.reshape(1, -1))
    with pytest.raises(ValueError, match="zero vector"):
        kernels.min_weight_affine(packed[0], np.zeros((0, packed.shape[1]),
                                                      dtype=np.uint64),
                                  skip_zero=True)


def _codewords(gen):
    """Every nonzero codeword of rowspan(gen) and its message, unpacked."""
    k = gen.shape[0]
    msgs = np.array(list(itertools.product((0, 1), repeat=k))[1:],
                    dtype=np.int64).reshape(-1, k)
    return msgs, (msgs @ gen.astype(np.int64)) % 2


@pytest.mark.parametrize("block_bytes", [kernels.BLOCK_BYTES, 1],
                         ids=["default-blocks", "one-rank-blocks"])
def test_min_weight_codewords_matches_brute_force(monkeypatch, rng,
                                                  block_bytes):
    monkeypatch.setattr(kernels, "BLOCK_BYTES", block_bytes)
    for i in range(30):
        k, n = int(rng.integers(1, 9)), int(rng.integers(9, 80))
        gen = gf2.nonzero_rref_rows(rng.integers(0, 2, size=(k, n)))
        gammas, ranks = kernels.information_sets(gen)
        _, words = _codewords(gen)
        weights = words.sum(axis=1)
        # keep every codeword, or only those with a 1 in column 0 (half
        # of them, when column 0 is not all zero)
        for keep, kept in ((lambda b: np.ones(len(b), dtype=bool), weights),
                           (lambda b: (b[:, 0] & np.uint64(1)) == 1,
                            weights[words[:, 0] == 1])):
            start = n + 1 if i % 2 else int(kept.max(initial=n + 1))
            got = kernels.min_weight_codewords(
                gf2.pack_rows(gammas.reshape(-1, n)).reshape(
                    len(ranks), gen.shape[0], -1), ranks, start, keep)
            assert got == int(kept.min(initial=start))


def _permuted_rref_information_sets(gen):
    """The chain as rref of each column-permuted generator, scattered back."""
    k, n = gen.shape
    covered = np.zeros(n, dtype=bool)
    gammas, ranks = [], []
    while not covered.all():
        free = np.flatnonzero(~covered)
        order = np.concatenate([free, np.flatnonzero(covered)])
        red, pivots = gf2.rref(gen[:, order])
        new = [p for p in pivots if p < free.size]
        if not new:
            break
        gamma = np.empty_like(red)
        gamma[:, order] = red
        gammas.append(gamma)
        ranks.append(len(new))
        covered[free[new]] = True
    return np.array(gammas, dtype=np.uint8).reshape(len(ranks), k, n), ranks


def test_information_sets_match_rref_of_each_permuted_generator():
    rng = np.random.default_rng(11)
    tested = partial = multiword = 0
    while tested < 200:
        n = int(rng.integers(2, 131))
        k = int(rng.integers(1, min(n, 40) + 1))
        gen = (rng.random((k, n)) < rng.uniform(0.05, 0.6)).astype(np.uint8)
        if tested % 3 == 0:  # zero columns leave the last set partial
            gen[:, rng.integers(0, n, size=n // 2)] = 0
        if gf2.rank(gen) < k:
            continue
        tested += 1
        gammas, ranks = kernels.information_sets(gen)
        want, want_ranks = _permuted_rref_information_sets(gen)
        assert ranks == want_ranks
        assert gammas.dtype == np.uint8 and np.array_equal(gammas, want)
        partial += ranks[-1] < k
        multiword += n > 64
    assert partial >= 20 and multiword >= 50


def test_the_chain_ends_after_one_pass_over_the_uncovered_columns(
        monkeypatch):
    # each set reduces the previous generator on its uncovered columns and
    # then on the covered ones from the new rows; after the last set one
    # call scans only the uncovered columns, and no rref runs at all
    calls = []
    eliminate = gf2._eliminate

    def spy(packed, cols, r=0):
        cols = [int(c) for c in cols]
        calls.append((cols, r, eliminate(packed, cols, r)))
        return calls[-1][2]

    def refuse(*args):
        raise AssertionError("information_sets ran a full rref")

    rng = np.random.default_rng(4)
    gen = rng.integers(0, 2, size=(6, 90), dtype=np.uint8)
    gen[:, ::5] = 0  # columns no set can cover
    assert gf2.rank(gen) == 6
    monkeypatch.setattr(gf2, "_eliminate", spy)
    monkeypatch.setattr(gf2, "rref", refuse)
    _, ranks = kernels.information_sets(gen)
    assert len(ranks) >= 3 and len(calls) == 2 * len(ranks) + 1
    covered = set()
    for j, rank in enumerate(ranks):
        (free, r0, new), (old, r1, _) = calls[2 * j: 2 * j + 2]
        assert r0 == 0 and sorted(free) == sorted(set(range(90)) - covered)
        assert len(new) == rank and r1 == rank
        assert sorted(old) == sorted(covered)
        covered |= set(new)
    free, r0, new = calls[-1]
    assert (r0, new) == (0, [])
    assert sorted(free) == sorted(set(range(90)) - covered)
    assert set(range(0, 90, 5)) <= set(free)


def test_min_weight_codewords_enumerates_the_partial_last_set():
    # the weight-2 word 0001100 sums two rows of the first generator but
    # is one row of the second, of rank 3; at level 1 the bound is 2 + 1,
    # so a scan that credited the second without enumerating it would stop
    # at the weight-3 rows of the first
    gen = np.array([[1, 0, 1, 0, 0, 1, 0], [0, 1, 1, 0, 0, 1, 1],
                    [0, 0, 0, 1, 0, 1, 1], [0, 0, 0, 0, 1, 1, 1]],
                   dtype=np.uint8)
    gammas, ranks = kernels.information_sets(gen)
    assert ranks == [4, 3]
    assert kernels.level_bound(ranks, 4, 1) == 3
    assert sorted(_codewords(gen)[1].sum(axis=1))[:2] == [2, 3]
    assert kernels.min_weight_codewords(
        gf2.pack_rows(gammas.reshape(-1, 7)).reshape(2, 4, 1), ranks, 8,
        lambda b: np.ones(len(b), dtype=bool)) == 2


def test_level_bound_holds_for_every_codeword_it_covers(rng):
    # a codeword whose message has weight above w on every generator has
    # at least level_bound(w) ones
    for _ in range(20):
        k, n = int(rng.integers(2, 9)), int(rng.integers(6, 30))
        gen = gf2.nonzero_rref_rows(rng.integers(0, 2, size=(k, n)))
        gammas, ranks = kernels.information_sets(gen)
        k = gen.shape[0]
        _, words = _codewords(gen)
        # the message of a codeword on a generator, by the generator's
        # identity columns and, below them, by elimination
        heights = []
        for gamma in gammas:
            msgs, mine = _codewords(gamma)
            order = np.lexsort(mine.T[::-1])
            back = np.lexsort(words.T[::-1])
            height = np.empty(len(words), dtype=np.int64)
            height[back] = msgs[order].sum(axis=1)
            heights.append(height)
        low = np.min(heights, axis=0)
        for w in range(k):
            beyond = words[low > w].sum(axis=1)
            assert beyond.min(initial=n) >= kernels.level_bound(ranks, k, w)


def _rayleigh_by_pairs(mat):
    """max |1_S^T M 1_T| / sqrt(|S| |T|) over all disjoint nonempty S, T."""
    n = mat.shape[0]
    best = 0.0
    for labels in itertools.product((0, 1, 2), repeat=n):
        s = [i for i in range(n) if labels[i] == 1]
        t = [i for i in range(n) if labels[i] == 2]
        if s and t:
            val = abs(mat[np.ix_(s, t)].sum()) / np.sqrt(len(s) * len(t))
            best = max(best, val)
    return best


@pytest.mark.parametrize("block_bytes", [kernels.BLOCK_BYTES, 1],
                         ids=["default-blocks", "one-mask-blocks"])
def test_rayleigh_matches_pair_enumeration(rng, monkeypatch, block_bytes):
    monkeypatch.setattr(kernels, "BLOCK_BYTES", block_bytes)
    for n in range(0, 7):
        for symmetric in (True, False):
            m = rng.standard_normal((n, n))
            if symmetric:
                m = m + m.T
            assert kernels.rayleigh_01_max(m) == pytest.approx(
                _rayleigh_by_pairs(m), rel=1e-12, abs=1e-12)


def test_rayleigh_memory_stays_within_one_block(rng, monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 4 << 20)
    m = rng.standard_normal((18, 18))
    value, peak = _value_and_peak(kernels.rayleigh_01_max, m + m.T)
    # one block of all 48620 nine-element supports would take about 22 MB
    assert peak <= kernels.BLOCK_BYTES + (2 << 20)
    monkeypatch.undo()
    assert kernels.rayleigh_01_max(m + m.T) == value


def test_rayleigh_guard():
    with pytest.raises(ValueError):
        kernels.rayleigh_01_max(np.zeros((21, 21)))


def _bias_by_character_sums(support, q):
    """max over chi != 0 of |mean_x exp(2 pi i <chi, x> / q)|, directly."""
    best = 0.0
    for chi in itertools.product(range(q), repeat=support.shape[1]):
        if any(chi):
            phases = 2j * np.pi * (support @ np.array(chi)) / q
            best = max(best, abs(np.exp(phases).mean()))
    return best


def test_bias_scan_matches_character_sums(rng):
    for q, m in ((2, 3), (3, 2), (4, 2), (5, 2), (6, 2), (7, 1)):
        for n_sup in (2, 5, 11):
            sup = rng.integers(0, q, size=(n_sup, m))
            assert kernels.bias_scan(sup, q) == pytest.approx(
                _bias_by_character_sums(sup, q), abs=1e-12)
    # residues are taken mod q, so negative and large entries are fine
    sup = rng.integers(-9, 9, size=(7, 2))
    assert kernels.bias_scan(sup, 5) == pytest.approx(
        _bias_by_character_sums(sup % 5, 5), abs=1e-12)


@pytest.mark.parametrize("block_bytes", [kernels.BLOCK_BYTES, 1],
                         ids=["default-blocks", "one-character-blocks"])
def test_bias_scan_exact_zero_and_one(monkeypatch, block_bytes):
    monkeypatch.setattr(kernels, "BLOCK_BYTES", block_bytes)
    for q, m in ((2, 3), (3, 2), (4, 2), (6, 2), (7, 1)):
        full = np.array(list(itertools.product(range(q), repeat=m)))
        # each nontrivial character is equidistributed on its image
        assert _bias_by_character_sums(full, q) < 1e-12
        assert kernels.bias_scan(full, q) == 0.0
        assert kernels.bias_scan(np.vstack([full, full]), q) == 0.0
        # one point: every character takes a single value
        assert kernels.bias_scan(np.tile(full[-1], (3, 1)), q) == 1.0
    # a subgroup sums to exactly one on the characters trivial on it; the
    # two subspaces of F_2^3 below are each annihilated by one character,
    # the first and the last of the scan, and balanced by all others
    assert kernels.bias_scan(np.array([[0, 0], [2, 0], [0, 2], [2, 2]]),
                             4) == 1.0
    plane = np.array(list(itertools.product((0, 1), repeat=3)))
    assert kernels.bias_scan(plane[plane[:, 0] == 0], 2) == 1.0
    assert kernels.bias_scan(plane[plane.sum(axis=1) % 2 == 0], 2) == 1.0


def test_bias_scan_memory_stays_within_one_block():
    # a singleton is decided in the first block; as one block, all 2**20
    # characters of (Z_1024)^2 would need gigabytes of residue counts
    point = np.array([[3, 5]])
    value, peak = _value_and_peak(kernels.bias_scan, point, 1024)
    assert value == 1.0
    assert peak <= kernels.BLOCK_BYTES + (4 << 20)
    # the three coordinate axes of (Z_64)^3 need every character: over
    # 500 MB as one block
    axes = np.zeros((3 * 64, 3), dtype=np.int64)
    axes[np.arange(3 * 64), np.repeat(np.arange(3), 64)] = np.tile(
        np.arange(64), 3)
    value, peak = _value_and_peak(kernels.bias_scan, axes, 64)
    assert 0.0 < value < 1.0
    assert peak <= kernels.BLOCK_BYTES + (4 << 20)


def test_bias_scan_guard():
    with pytest.raises(ValueError):
        kernels.bias_scan(np.zeros((1, 21), dtype=np.int64), 2)


def test_bias_scan_of_no_coordinates_is_zero_but_no_rows_is_refused():
    # (Z_3)^0 has only the trivial character, as (Z_1)^m does
    assert kernels.bias_scan(np.zeros((3, 0), dtype=np.int64), 3) == 0.0
    assert kernels.bias_scan(np.zeros((3, 2), dtype=np.int64), 1) == 0.0
    for rows in (np.zeros((0, 3), dtype=np.int64),
                 np.zeros((0, 0), dtype=np.int64)):
        with pytest.raises(ValueError, match="nonempty"):
            kernels.bias_scan(rows, 3)
