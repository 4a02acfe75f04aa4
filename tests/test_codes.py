"""Tanner codes, group-algebra lifted products, distances, free actions."""
from __future__ import annotations

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from abelift import gf2, kernels
from abelift.codes import (BudgetError, CSSCode, FreeActionReport,
                           GroupAlgebraMatrix, LinearCodeF2,
                           _logical_min_weight_exact,
                           _logical_upper_bound, circulant_structure_check,
                           code_dimension, css_valid, free_action_check,
                           group_algebra_from_blocks, lifted_product,
                           local_code_search, min_distance, tanner_code, tanner_from_certificate, toric_code,
                           write_alist)
from abelift.graphs import (RegularGraph, Signing, complete_graph,
                            petersen_graph, random_regular)
from abelift.groups import AbelianGroup
from abelift.search import derandomized_lift_search


HAMMING = np.array([[1, 0, 1, 0, 1, 0, 1],
                    [0, 1, 1, 0, 0, 1, 1],
                    [0, 0, 0, 1, 1, 1, 1]], dtype=np.uint8)


def _k4_z3_certificate():
    base = complete_graph(4)
    rows = np.array(list(itertools.product(range(3), repeat=6)),
                    dtype=np.int64)
    return derandomized_lift_search(base, AbelianGroup.cyclic(3),
                                    rows[:90]).certificate


def _reference_upper_bound(stab, kernel_basis, n_cols, trials, seed):
    """The information-set sampler with one rank test per candidate."""
    anchor = gf2.nonzero_rref_rows(stab) if stab.size else np.zeros(
        (0, n_cols), dtype=np.uint8)
    space = np.vstack([anchor, kernel_basis]) if anchor.size else kernel_basis
    space = gf2.nonzero_rref_rows(space)
    rng = np.random.default_rng(seed)
    r_anchor = anchor.shape[0]
    best = None
    for _ in range(trials):
        perm = rng.permutation(n_cols)
        red, piv = gf2.rref(space[:, perm])
        rows = red[: len(piv)]
        cands = np.empty_like(rows)
        cands[:, perm] = rows
        if rows.shape[0] <= 48:
            pair_idx = [(i, j) for i in range(rows.shape[0])
                        for j in range(i + 1, rows.shape[0])]
            if pair_idx:
                pairs = np.array([cands[i] ^ cands[j] for i, j in pair_idx])
                cands = np.vstack([cands, pairs])
        weights = cands.sum(axis=1)
        for idx in np.argsort(weights):
            w = int(weights[idx])
            if best is not None and w >= best:
                break
            if w == 0:
                continue
            if r_anchor and gf2.rank(anchor) == gf2.rank(
                    np.vstack([anchor, cands[idx]])):
                continue
            best = w
            break
    return best


def _reference_min_weight_exact(stab, kernel_basis, n_cols):
    """Exact logical distance by brute force: every vector of
    span(kernel_basis) as one packed word (n_cols <= 64), lightest first,
    until one lies outside rowspan(stab)."""
    assert n_cols <= 64
    words = np.zeros(1, dtype=np.uint64)
    for row in gf2.pack_rows(kernel_basis)[:, 0]:
        words = np.concatenate([words, words ^ row])
    weights = np.bitwise_count(words)
    in_stab = gf2.span_test(stab)
    for w in np.unique(weights[weights > 0]):
        if not in_stab(words[weights == w, None]).all():
            return int(w)
    raise AssertionError("no logical operator")


def _reference_tanner_from_certificate(cert, local):
    """Circulant Tanner layout written out per vertex, slot, check and fiber."""
    base = RegularGraph.from_json(cert["base"])
    ell = AbelianGroup.from_json(cert["group"]).fiber_size
    values = np.asarray(cert["signing"]).reshape(base.m, -1)
    lp = gf2.nonzero_rref_rows(local.parity)
    rc = lp.shape[0]
    H = np.zeros((base.n * rc * ell, base.m * ell), dtype=np.uint8)
    for v in range(base.n):
        for j in range(base.d):
            w = int(base.adj[v, j])
            e = base.edge_id(v, w)
            a_e = int(values[e, 0])
            for c in range(rc):
                if not lp[c, j]:
                    continue
                for i in range(ell):
                    fiber = i if v < w else (i - a_e) % ell
                    H[(v * rc + c) * ell + i, e * ell + fiber] ^= 1
    return H


def _reference_expand(ell, polys):
    """Circulant expansion written out per entry and distinct exponent."""
    out = np.zeros((len(polys) * ell, len(polys[0]) * ell), dtype=np.uint8)
    idx = np.arange(ell)
    for i, row in enumerate(polys):
        for j, cell in enumerate(row):
            for e in {x % ell for x in cell}:
                out[i * ell + idx, j * ell + (idx + e) % ell] ^= 1
    return out


def _random_polys(rng, rows, cols, ell):
    """Exponent lists with repeats and exponents up to 2 * ell."""
    return [[rng.integers(0, 2 * ell + 1, size=rng.integers(0, 5)).tolist()
             for _ in range(cols)] for _ in range(rows)]


def _lp_code(ell, seed):
    """x^s (1 + x^a) products over Z_ell for seeded shifts s and odd a."""
    rng = np.random.default_rng(seed)
    shifts = rng.integers(ell, size=2)
    steps = rng.choice(np.arange(1, ell, 2), size=2)
    A, B = (GroupAlgebraMatrix.from_polys(ell, [[[s, s + a]]])
            for s, a in zip(shifts, steps))
    return lifted_product(A, B)


def _hypergraph_product(h1, h2):
    """lifted_product over Z_1 of the parity matrices h1 and h2^T."""
    A, B = (GroupAlgebraMatrix(1, h[:, :, None]) for h in (h1, h2.T))
    return lifted_product(A, B)


def _surface_code(d):
    """Hypergraph product of two distance-d repetition codes: [[., 1, d]]
    with weight-3 boundary checks, lighter than its logicals for d > 3."""
    rep = LinearCodeF2.repetition(d).parity
    return _hypergraph_product(rep, rep)


def test_linear_code_basics():
    rep = LinearCodeF2.repetition(3)
    assert rep.dimension == 1
    assert rep.distance() == 3
    assert rep.contains([1, 1, 1]) and not rep.contains([1, 0, 1])
    ham = LinearCodeF2(HAMMING)
    assert ham.dimension == 4
    assert ham.distance() == 3
    assert ham.dual().distance() == 4  # simplex code
    gen = ham.generator_matrix()
    assert not gf2.matmul(ham.parity, gen.T).any()


def test_code_dimension_matches_rank():
    assert code_dimension(HAMMING) == 4
    assert code_dimension(np.zeros((2, 5), dtype=np.uint8)) == 5


def test_tanner_full_space_is_unconstrained():
    g = complete_graph(4)
    H = tanner_code(g, LinearCodeF2.full_space(3))
    assert H.shape == (0, 6)


def test_tanner_even_weight_on_k4_is_the_cycle_space():
    g = complete_graph(4)
    H = tanner_code(g, LinearCodeF2.even_weight(3))
    code = LinearCodeF2(H)
    assert code.length == 6
    assert code.dimension == 3  # |E| - |V| + 1
    # every triangle of K4 is a codeword
    for tri in itertools.combinations(range(4), 3):
        word = np.zeros(6, dtype=np.uint8)
        for u, v in itertools.combinations(tri, 2):
            word[g.edge_id(u, v)] = 1
        assert code.contains(word)


def test_tanner_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        tanner_code(complete_graph(4), LinearCodeF2.repetition(4))


def test_local_code_search_repetition_regime():
    code, info = local_code_search(3, 3, 1, budget=2000, seed=0)
    assert info["found"] and info["tried"] == 5
    assert info["distance"] >= 3 and info["dual_distance"] >= 1
    assert code.distance() == info["distance"]


def test_local_code_search_two_sided_targets():
    code, info = local_code_search(7, 3, 3, budget=20000, seed=0)
    assert info["tried"] == 901
    assert info["distance"] == 3 and info["dual_distance"] == 4
    assert code.dual().distance() == 4


def test_local_code_search_impossible_targets():
    with pytest.raises(BudgetError, match="no length-3"):
        local_code_search(3, 4, 1, budget=300, seed=0)
    with pytest.raises(ValueError, match="caps length"):
        local_code_search(17, 3)


def test_group_algebra_matmul_and_star():
    a = GroupAlgebraMatrix.from_polys(4, [[[0, 1]]])
    sq = a.matmul(a)
    assert sq.coeffs[0, 0].tolist() == [1, 0, 1, 0]  # (1+x)^2 = 1 + x^2
    assert a.star().coeffs[0, 0].tolist() == [1, 0, 0, 1]  # x -> x^-1
    full = a.expand()
    assert np.array_equal(gf2.matmul(full, full),
                          sq.expand())
    with pytest.raises(ValueError, match="read-only"):
        sq.coeffs[0, 0, 1] = 0


def test_group_algebra_ring_laws_against_expand():
    rng = np.random.default_rng(11)
    for _ in range(200):
        ell = int(rng.integers(1, 9))
        r, c, k = (int(x) for x in rng.integers(1, 4, size=3))
        pa, pb = _random_polys(rng, r, c, ell), _random_polys(rng, c, k, ell)
        A, B = (GroupAlgebraMatrix.from_polys(ell, p) for p in (pa, pb))
        assert np.array_equal(A.expand(), _reference_expand(ell, pa))
        assert np.array_equal(A.matmul(B).expand(),
                              gf2.matmul(A.expand(), B.expand()))
        assert np.array_equal(A.star().expand(), A.expand().T)
        back = group_algebra_from_blocks(A.expand(), ell)
        assert back.ell == ell and np.array_equal(back.coeffs, A.coeffs)


def test_oversized_expansions_are_refused_before_they_allocate():
    big = GroupAlgebraMatrix.from_polys(100000, [[[0, 1]]])
    tracemalloc.start()
    try:
        for build in (big.expand, lambda: big.matmul(big)):
            with pytest.raises(ValueError, match=(
                    r"^expanding a 1 x 1 matrix over F2\[Z_100000\] takes "
                    r"10000000000 bytes, above the cap of 134217728 bytes$")):
                build()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        # the two 10^6-byte expansions are built, the 2 TB product is not
        with pytest.raises(ValueError, match=(
                r"^the product's check matrices take up to 2000000000000 "
                r"bytes each, above the cap of 134217728 bytes$")):
            toric_code(1000)
        product_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert product_peak < 4 << 20


def test_group_algebra_expand_roundtrip():
    rng = np.random.default_rng(4)
    polys = [[frozenset(int(x) for x in rng.choice(5, size=2, replace=False))
              for _ in range(3)] for _ in range(2)]
    mat = GroupAlgebraMatrix.from_polys(5, polys)
    back = group_algebra_from_blocks(mat.expand(), 5)
    assert np.array_equal(back.coeffs, mat.coeffs)
    assert group_algebra_from_blocks(np.zeros((0, 10)), 5).shape == (0, 2)
    with pytest.raises(ValueError, match="not circulant"):
        bad = mat.expand().copy()
        bad[0, 0] ^= 1
        group_algebra_from_blocks(bad, 5)


def test_circulant_structure_check_cases():
    assert circulant_structure_check(np.eye(4, dtype=np.uint8), 2)
    single = np.zeros((2, 4), dtype=np.uint8)
    single[0, 0] = 1
    assert not circulant_structure_check(single, 2)


def test_css_valid_small_cases():
    assert css_valid([[1, 1]], [[1, 1]])
    assert not css_valid([[1, 0]], [[1, 0]])
    with pytest.raises(ValueError, match="CSS"):
        CSSCode(np.array([[1, 0]]), np.array([[1, 0]]))


def test_toric_family_parameters():
    for ell in range(2, 7):
        code = toric_code(ell)
        assert code.n == 2 * ell * ell
        assert code.k == 2
        rep = min_distance(code)
        assert rep.value == ell and rep.certified
        assert rep.dx == ell and rep.dz == ell
    # x^s (1 + x^a) with a coprime to ell: permuted toric codes
    for seed in (0, 1):
        rep = min_distance(_lp_code(5, seed))
        assert (rep.value, rep.dx, rep.dz, rep.certified) == (5, 5, 5, True)


def test_lifted_product_degenerate_ring():
    one = GroupAlgebraMatrix.from_polys(1, [[[0, 0]]])
    code = toric_code(1)
    assert code.n == 2 and code.k == 0
    assert np.array_equal(code.hx, np.array([[1, 1]], dtype=np.uint8))
    assert np.array_equal(code.hz, np.array([[1, 1]], dtype=np.uint8))
    assert lifted_product(one, one).n == 2


def test_lifted_product_modulus_mismatch():
    a = GroupAlgebraMatrix.from_polys(2, [[[0, 1]]])
    b = GroupAlgebraMatrix.from_polys(3, [[[0, 1]]])
    with pytest.raises(ValueError, match="ell"):
        lifted_product(a, b)


def test_lifted_product_rectangular_factors_are_css():
    a = GroupAlgebraMatrix.from_polys(3, [[[0], [0, 1]], [[1], [0, 2]]])
    b = GroupAlgebraMatrix.from_polys(3, [[[0, 2], [1]]])
    code = lifted_product(a, b)
    assert css_valid(code.hx, code.hz)


def test_dimension_invariant_under_row_mixing():
    code = toric_code(3)
    rng = np.random.default_rng(6)
    hx = code.hx.copy()
    hz = code.hz.copy()
    for _ in range(20):
        i, j = rng.integers(hx.shape[0], size=2)
        if i != j:
            hx[i] ^= hx[j]
        i, j = rng.integers(hz.shape[0], size=2)
        if i != j:
            hz[i] ^= hz[j]
    mixed = CSSCode(hx, hz)
    assert mixed.k == code.k


def test_min_distance_classical_modes():
    ham = LinearCodeF2(HAMMING)
    exact = min_distance(ham)
    assert exact.value == 3 and exact.certified
    ub = min_distance(ham, mode="information-set", trials=50, seed=1)
    assert not ub.certified
    assert ub.value >= exact.value


def test_min_distance_css_upper_bound_never_beats_exact():
    code = toric_code(3)
    exact = min_distance(code)
    for seed in range(5):
        ub = min_distance(code, mode="information-set", trials=60, seed=seed)
        assert ub.value >= exact.value
        assert not ub.certified


def _brute_force_distance(parity):
    """Least weight of a nonzero word with zero syndrome, over all 2^n
    words, or None for the zero code."""
    h = np.asarray(parity, dtype=np.int64).reshape(-1, np.shape(parity)[-1])
    n = h.shape[1]
    words = (np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1
    weights = words[~((words @ h.T) % 2).any(axis=1)].sum(axis=1)
    return int(weights.min()) if weights.size else None


def test_classical_distance_matches_the_brute_force():
    rng = np.random.default_rng(11)
    parities = [LinearCodeF2.repetition(n).parity for n in (2, 3, 7, 12)]
    parities += [np.zeros((0, n), dtype=np.uint8) for n in (1, 5, 14)]
    parities += [np.ones((1, 9), dtype=np.uint8), HAMMING]
    for i in range(220):
        n = int(rng.integers(2, 15))
        h = rng.integers(0, 2, size=(int(rng.integers(1, n + 1)), n))
        if i % 4 == 0:  # dependent rows: a sum of two rows, a repeat
            h = np.vstack([h, h[0] ^ h[-1], h[:1]])
        if i % 11 == 0:  # dimension one
            h = gf2.nullspace(rng.integers(0, 2, size=(1, n)))
        parities.append(h)
    dims = set()
    for h in parities:
        code = LinearCodeF2(h)
        want = _brute_force_distance(h)
        dims.add(code.dimension)
        if want is None:
            with pytest.raises(ValueError, match="zero code"):
                code.distance()
        else:
            assert code.distance() == want
            rep = min_distance(code)
            assert (rep.value, rep.certified) == (want, True)
    assert {0, 1, 14} <= dims


@pytest.mark.parametrize("factors, want", [
    ((np.ones((1, 6), dtype=np.uint8),) * 2, (36, 25, 4)),
    ((np.ones((1, 8), dtype=np.uint8), HAMMING), (56, 28, 6)),
], ids=["even-6-squared", "even-8-by-hamming"])
def test_product_codes_past_dimension_24_are_certified(factors, want):
    # the tensor product of two codes has the product of their distances,
    # even weight (d = 2) by itself and by Hamming [7, 4, 3]
    gen = np.kron(*(gf2.nullspace(h) for h in factors))
    code = LinearCodeF2(gf2.nullspace(gen))
    assert (code.length, code.dimension, code.distance()) == want


def test_random_code_past_dimension_24_is_certified():
    code = LinearCodeF2(np.random.default_rng(0).integers(0, 2, (34, 64)))
    rep = min_distance(code)
    assert code.dimension == 30 and rep.certified
    # no sampled information set finds anything lighter
    assert min_distance(code, "information-set", trials=50).value >= \
        rep.value


def test_min_distance_guards():
    # a random [96, 48] code needs more codewords than the budget
    big = LinearCodeF2(np.random.default_rng(0).integers(0, 2, (48, 96)))
    with pytest.raises(ValueError, match="^exact distance budget exceeded"):
        big.distance()
    with pytest.raises(ValueError, match="logical"):
        min_distance(toric_code(1))
    with pytest.raises(ValueError, match="mode"):
        min_distance(LinearCodeF2.repetition(3), mode="glass-box")


@pytest.mark.parametrize("trials", [0, -3])
def test_sampled_distance_refuses_nonpositive_trials_before_any_work(
        monkeypatch, trials):
    def refuse(*args):
        raise AssertionError("worked before checking trials")

    code, rep = toric_code(3), LinearCodeF2.repetition(4)
    monkeypatch.setattr(gf2, "nullspace", refuse)
    for obj in (code, rep):
        with pytest.raises(ValueError, match="^trials must be positive$"):
            min_distance(obj, "information-set", trials=trials)
    monkeypatch.undo()
    # the exact mode takes no trials
    assert min_distance(code, trials=trials).value == 3


def test_css_json_roundtrip():
    code = toric_code(2)
    payload = code.to_json(distance={"mode": "exact", "value": 2})
    back = CSSCode.from_json(payload)
    assert np.array_equal(back.hx, code.hx)
    assert np.array_equal(back.hz, code.hz)
    assert payload["n"] == 8 and payload["k"] == 2


def test_free_action_on_canonical_lift():
    base = complete_graph(4)
    sg = Signing.random(base, AbelianGroup.cyclic(3), seed=1)
    rep = free_action_check(base, sg)
    assert rep.vertices_free and rep.edges_free and rep.ok
    trivial = Signing.identity(base, AbelianGroup.cyclic(1))
    assert free_action_check(base, trivial).ok  # vacuous: no nontrivial g


def test_free_action_names_a_fixed_vertex():
    # Z2 swaps fiber points 0 and 1 and fixes 2
    group = AbelianGroup((2,), ((1, 0, 2),))
    assert group.fixed_point() == ((1,), 2) and not group.is_free()
    rep = free_action_check(complete_graph(4),
                            Signing.random(complete_graph(4), group, seed=1))
    assert not rep.vertices_free and not rep.ok
    assert rep.witness == ("vertex", (1,), 2)


def _edge_action_fixed_pair(edge_pairs, perm) -> tuple | None:
    """First unordered lifted edge fixed by the fiber permutation, if any."""
    for (u, i), (v, j) in edge_pairs:
        a = (u, int(perm[i]))
        b = (v, int(perm[j]))
        if {a, b} == {(u, i), (v, j)}:
            return ((u, i), (v, j))
    return None


def pairs_action_free(group: AbelianGroup, edge_pairs):
    """The pair oracle: is the fiber action free on an explicit unordered
    pair list?  Returns (free, witness) with witness = (group element,
    fixed pair).

    Accepts self-pairings ((u, i), (u, j)): an order-2 shift can fix such
    a pair by swapping its ends, which no lifted edge of a simple base is.
    """
    for g in group.elements()[1:]:
        hit = _edge_action_fixed_pair(edge_pairs, group.perm_of(g))
        if hit is not None:
            return False, (g, hit)
    return True, None


def _reference_free_action_report(base, signing):
    """The report from the explicitly listed lifted edges and the pair oracle."""
    group = signing.group
    pairs = [((u, i), (v, int(group.perm_of(signing.element(e))[i])))
             for e, (u, v) in enumerate(base.edges)
             for i in range(group.fiber_size)]
    fixed = group.fixed_point()
    witness = None if fixed is None else ("vertex",) + fixed
    edges_free, edge_witness = pairs_action_free(group, pairs)
    if not edges_free and witness is None:
        witness = ("edge",) + edge_witness
    return FreeActionReport(fixed is None, edges_free,
                            fixed is None and edges_free, witness)


def test_free_action_check_matches_the_lifted_edge_oracle():
    groups = [AbelianGroup.cyclic(1), AbelianGroup.cyclic(3),
              AbelianGroup.cyclic(8), AbelianGroup.product([2, 4]),
              AbelianGroup((2,), ((1, 0, 2),)),  # fixes point 2
              AbelianGroup([2], [np.array([1, 0, 3, 2])]),  # free, 2 orbits
              AbelianGroup([4], [np.array([1, 2, 3, 0, 4, 5])]),
              AbelianGroup([2, 2], [np.array([1, 0, 2, 3]),
                                    np.array([0, 1, 3, 2])]),
              AbelianGroup([4], [np.array([1, 0])])]  # (2,) acts trivially
    outcomes = set()
    for base in (complete_graph(4), random_regular(12, 3, seed=2)):
        for group in groups:
            for seed in range(3):
                sg = Signing.random(base, group, seed=seed)
                rep = free_action_check(base, sg)
                assert rep == _reference_free_action_report(base, sg)
                outcomes.add(rep.ok)
    assert outcomes == {True, False}


def test_pairs_action_catches_self_pairing_fixed_edge():
    z2 = AbelianGroup.cyclic(2)
    # an unordered pair whose ends swap under the half shift
    pairs = [((0, 0), (0, 1))]
    free, witness = pairs_action_free(z2, pairs)
    assert not free
    g, pair = witness
    assert g == (1,) and pair == ((0, 0), (0, 1))
    # ordinary cross-fiber pairs stay free
    assert pairs_action_free(z2, [((0, 0), (1, 0)), ((0, 1), (1, 1))])[0]


def test_tanner_from_certificate_is_circulant():
    cert = _k4_z3_certificate()
    local = LinearCodeF2.even_weight(3)
    H = tanner_from_certificate(cert, local)
    assert H.shape == (12, 18)  # n * checks * ell rows, m * ell cols
    assert circulant_structure_check(H, 3)
    code = LinearCodeF2(tanner_from_certificate(cert, local))
    assert code.dimension == 18 - gf2.rank(H)
    # fiber rotation maps codewords to codewords
    n_blocks = H.shape[1] // 3
    perm = np.concatenate([np.arange(3)[np.r_[1:3, 0]] + 3 * b
                           for b in range(n_blocks)])
    rotated = H[:, perm]
    assert gf2.rank(np.vstack([H, rotated])) == gf2.rank(H)


def _tanner_certificates():
    # l = 1 and 2, transitive and non-transitive (even shifts only) signings
    certs = [_k4_z3_certificate()]
    for ell in (1, 2, 4, 8):
        group = AbelianGroup.cyclic(ell)
        for base in (complete_graph(4), petersen_graph(),
                     random_regular(10, 5, seed=3)):
            rng = np.random.default_rng(ell)
            signings = [rng.integers(ell, size=(base.m, 1))]
            if ell > 2:
                signings.append(2 * rng.integers(ell // 2, size=(base.m, 1)))
                assert not group.is_transitive(
                    [tuple(r) for r in signings[-1]])
            certs += [{"base": base.to_json(), "group": group.to_json(),
                       "signing": vals.tolist()} for vals in signings]
    return certs


def _local_codes(d):
    return (LinearCodeF2.even_weight(d), LinearCodeF2.repetition(d),
            LinearCodeF2.full_space(d))


def test_tanner_from_certificate_matches_the_fiber_loop():
    for cert in _tanner_certificates():
        for local in _local_codes(cert["base"]["d"]):
            H = tanner_from_certificate(cert, local)
            assert np.array_equal(
                H, _reference_tanner_from_certificate(cert, local))


def _shift_columns(h, ell):
    c = np.arange(h.shape[1])
    return h[:, (c // ell) * ell + (c + 1) % ell]


def _spy_row_space_equal(monkeypatch):
    calls = []
    original = gf2.row_space_equal
    monkeypatch.setattr(gf2, "row_space_equal",
                        lambda a, b: calls.append(1) or original(a, b))
    return calls


def test_circulant_check_of_tanner_matrices_needs_no_elimination(
        monkeypatch):
    cases = [(tanner_from_certificate(cert, local),
              AbelianGroup.from_json(cert["group"]).fiber_size)
             for cert in _tanner_certificates()
             for local in _local_codes(cert["base"]["d"])]
    calls = _spy_row_space_equal(monkeypatch)
    for H, ell in cases:
        assert circulant_structure_check(H, ell)
    assert calls == []
    monkeypatch.undo()
    for H, ell in cases:
        assert gf2.row_space_equal(H, _shift_columns(H, ell))


def test_circulant_check_agrees_with_row_space_equal(monkeypatch):
    rng = np.random.default_rng(11)
    cases = []
    for k in range(100):
        ell = int(rng.integers(1, 6))
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        if k % 4 == 0:  # uniform, with any row count
            h = rng.integers(0, 2, size=(int(rng.integers(1, 10)),
                                         cols * ell))
        else:
            h = GroupAlgebraMatrix.from_polys(
                ell, _random_polys(rng, rows, cols, ell)).expand()
            if k % 4 == 2:  # the same row space, not block circulant
                h = gf2.matmul(rng.integers(0, 2, size=(h.shape[0],) * 2), h)
            elif k % 4 == 3:  # one flipped bit
                h = h.copy()
                h[rng.integers(h.shape[0]), rng.integers(h.shape[1])] ^= 1
        cases.append((gf2.as_f2(h), ell))
    want = [gf2.row_space_equal(h, _shift_columns(h, ell))
            for h, ell in cases]
    calls = _spy_row_space_equal(monkeypatch)
    got = [circulant_structure_check(h, ell) for h, ell in cases]
    assert got == want
    # both branches ran, and both verdicts occur
    assert 0 < len(calls) < len(cases)
    assert 0 < sum(want) < len(cases)


def test_distances_match_the_per_candidate_references():
    codes_ = [toric_code(ell) for ell in (2, 3, 4)]
    codes_ += [_surface_code(d) for d in (3, 4)]
    codes_ += [_lp_code(ell, seed)
               for ell, seed in ((3, 0), (3, 1), (4, 0), (4, 1), (6, 0))]
    for code in codes_:
        for stab, other in ((code.hx, code.hz), (code.hz, code.hx)):
            kernel = gf2.nullspace(other)
            if code.n <= 32:  # the brute force takes 2^k words
                assert _logical_min_weight_exact(stab, kernel) == \
                    _reference_min_weight_exact(stab, kernel, code.n)
            for seed in range(3):
                assert _logical_upper_bound(stab, kernel, code.n, 8, seed) \
                    == _reference_upper_bound(stab, kernel, code.n, 8, seed)
    # single trials of random [40, 16] codes stop short of the distance,
    # so the bound depends on every candidate pair
    rng = np.random.default_rng(0)
    empty = np.zeros((0, 40), dtype=np.uint8)
    for _ in range(4):
        gen = gf2.nullspace(rng.integers(0, 2, size=(24, 40)))
        for seed in range(12):
            assert _logical_upper_bound(empty, gen, 40, 1, seed) == \
                _reference_upper_bound(empty, gen, 40, 1, seed)


def _random_check_matrix(rng):
    """A 2..5 x 2..5 parity matrix with no zero row or column."""
    while True:
        h = rng.integers(0, 2, size=tuple(rng.integers(2, 6, size=2)),
                         dtype=np.uint8)
        if h.any(axis=0).all() and h.any(axis=1).all():
            return h


def test_exact_distance_matches_the_coset_oracle_on_random_products():
    rng = np.random.default_rng(5)
    lighter = partial = codes_ = 0
    while codes_ < 32:
        code = _hypergraph_product(_random_check_matrix(rng),
                                   _random_check_matrix(rng))
        if code.n > 32 or code.k == 0:
            continue
        codes_ += 1
        for stab, other in ((code.hx, code.hz), (code.hz, code.hx)):
            kernel = gf2.nullspace(other)
            got = _logical_min_weight_exact(stab, kernel)
            assert got == _reference_min_weight_exact(stab, kernel, code.n)
            lighter += int(stab.sum(axis=1).min()) < got
            partial += kernels.information_sets(kernel)[1][-1] < kernel.shape[0]
    # stabilizers that the search must skip, and chains that end partial
    assert lighter >= 5 and partial >= 5


def test_information_sets_are_disjoint_and_systematic():
    rng = np.random.default_rng(2)
    gens = [gf2.nullspace(code.hz) for code in (toric_code(3), toric_code(5),
                                                _surface_code(4))]
    gens += [gf2.nullspace(rng.integers(0, 2, size=(m, 24)))
             for m in (4, 12, 20)]
    for gen in gens:
        gammas, ranks = kernels.information_sets(gen)
        k, n = gen.shape
        assert gammas.shape == (len(ranks), k, n) and ranks[0] == k
        covered = np.zeros(n, dtype=bool)
        for gamma, r in zip(gammas, ranks):
            assert gf2.row_space_equal(gamma, gen)
            # r identity columns no earlier set covers; rows below vanish
            ident = [np.flatnonzero(row & ~covered)[0] for row in gamma[:r]]
            assert np.array_equal(gamma[:, ident], np.eye(k, r,
                                                          dtype=np.uint8))
            assert not gamma[r:][:, ~covered].any()
            covered[ident] = True
        # the chain ends when the uncovered columns carry no more rank
        assert gf2.rank(gen[:, ~covered]) == 0
    assert [kernels.information_sets(gf2.nullspace(h))[1] for h in
            (toric_code(5).hz, toric_code(5).hx)] == [[26, 18, 6],
                                                      [26, 21, 3]]
    # toric l = 5 stops at level 4, where the bound reaches the distance
    assert kernels.codewords_to_reach([26, 21, 3], 26, 5) == 3 * (
        26 + 325 + 2600 + 14950)


@pytest.mark.parametrize("code", [_lp_code(8, 0), toric_code(8)],
                         ids=["lp-8-0", "toric-8"])
def test_exact_distance_refuses_past_the_budget_before_enumerating(
        monkeypatch, code):
    def refuse(*args):
        raise AssertionError("enumerated past the budget")

    monkeypatch.setattr(kernels, "min_weight_codewords", refuse)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=r"^exact distance budget "
                           r"exceeded: \d+ codewords above 67108864; use "
                           "the information-set mode$"):
            min_distance(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak <= kernels.BLOCK_BYTES


def test_exact_distance_memory_stays_within_one_block(monkeypatch):
    code = toric_code(6)
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        rep = min_distance(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.value == 6
    assert peak <= 2 * kernels.BLOCK_BYTES


def test_certificate_to_css_chain():
    cert = _k4_z3_certificate()
    H = tanner_from_certificate(cert, LinearCodeF2.even_weight(3))
    A = group_algebra_from_blocks(H, 3)
    B = GroupAlgebraMatrix.from_polys(3, [[[0, 1]]])
    code = lifted_product(A, B)
    assert css_valid(code.hx, code.hz)
    assert code.n == 90
    assert code.k == 8


def test_alist_export(tmp_path):
    path = tmp_path / "h.alist"
    write_alist(HAMMING, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "7 3"
    n_cols, n_rows = 7, 3
    col_degrees = [int(x) for x in lines[2].split()]
    row_degrees = [int(x) for x in lines[3].split()]
    assert len(col_degrees) == n_cols and len(row_degrees) == n_rows
    assert sum(col_degrees) == sum(row_degrees) == int(HAMMING.sum())
    # adjacency lists are 1-based and match the matrix
    first_col = [int(x) for x in lines[4].split() if x != "0"]
    assert first_col == [i + 1 for i in np.nonzero(HAMMING[:, 0])[0]]


def _alist_per_row(parity, path):
    """write_alist as one list per row and per column, kept as the
    byte-for-byte reference of the index-array build."""
    h = gf2.as_f2(parity)
    m, n = h.shape
    cols = [list(np.nonzero(h[:, j])[0] + 1) for j in range(n)]
    rows = [list(np.nonzero(h[i, :])[0] + 1) for i in range(m)]
    max_c = max((len(c) for c in cols), default=0)
    max_r = max((len(r) for r in rows), default=0)
    lines = [f"{n} {m}", f"{max_c} {max_r}",
             " ".join(str(len(c)) for c in cols),
             " ".join(str(len(r)) for r in rows)]
    for c in cols:
        lines.append(" ".join(str(x) for x in c + [0] * (max_c - len(c))))
    for r in rows:
        lines.append(" ".join(str(x) for x in r + [0] * (max_r - len(r))))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_alist_equals_the_per_row_build(tmp_path):
    rng = np.random.default_rng(3)
    mats = [np.zeros((0, 5), np.uint8), np.zeros((4, 0), np.uint8),
            np.zeros((0, 0), np.uint8), np.zeros((3, 4), np.uint8),
            np.ones((1, 1), np.uint8), HAMMING]
    for _ in range(40):
        shape = tuple(rng.integers(1, 30, size=2))
        h = (rng.random(shape) < rng.uniform(0.05, 0.6)).astype(np.uint8)
        # empty rows and columns among full ones
        h[rng.random(shape[0]) < 0.2] = 0
        h[:, rng.random(shape[1]) < 0.2] = 0
        mats.append(h)
    for h in mats:
        new, ref = tmp_path / "new.alist", tmp_path / "ref.alist"
        write_alist(h, str(new))
        _alist_per_row(h, str(ref))
        assert new.read_bytes() == ref.read_bytes(), h.shape
