"""Eigenvalue certification: lift spectra, Ihara bound, transport, mixing."""
from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from abelift import graphs, kernels, spectral
from abelift.graphs import (RegularGraph, Signing, complete_graph, cycle_graph,
                            disjoint_union, lift, nonbacktracking,
                            petersen_graph, random_regular, signed_adjacency)
from abelift.groups import AbelianGroup
from abelift.spectral import (adjacency_spectrum, boolean_rayleigh_max,
                              character_spectra, ihara_bass_spectrum,
                              ihara_check, lambda2,
                              lambda2_signed,
                              lift_lambda, mixing_check, multiset_max_distance,
                              nb_eigenvector_transport, nb_radius_nontrivial,
                              spectral_radius, spectrum_union_check)


def _signed_triangle() -> Signing:
    base = cycle_graph(3)
    sg = Signing.identity(base, AbelianGroup.cyclic(2))
    sg.values[2] = [1]
    return sg


def test_lambda2_known_graphs():
    assert lambda2(complete_graph(4)) == pytest.approx(1.0, abs=1e-12)
    # bipartite hexagon: the -2 branch carries modulus d
    assert lambda2(cycle_graph(6)) == pytest.approx(2.0, abs=1e-12)
    assert lambda2_signed(cycle_graph(6)) == pytest.approx(1.0, abs=1e-12)
    two = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert lambda2(two) == pytest.approx(2.0, abs=1e-12)  # repeated Perron root


def test_multiset_max_distance():
    a = np.array([1.0, -2.0, 0.5])
    assert multiset_max_distance(a, a[::-1]) == 0.0
    assert multiset_max_distance(a, a + 1e-4) == pytest.approx(1e-4)
    z = np.array([1j, -1j, 2.0])
    assert multiset_max_distance(z, np.array([2.0, 1j, -1j])) == 0.0
    with pytest.raises(ValueError, match="size"):
        multiset_max_distance(a, a[:2])


def _brute_bottleneck(a, b) -> float:
    return min(float(np.abs(a - b[list(p)]).max())
               for p in itertools.permutations(range(a.size)))


def _small_multisets(rng):
    """(a, b) of one size n <= 6, not both real, drawn with exact
    duplicates, conjugate pairs, tight clusters or near-ties."""
    n = int(rng.integers(1, 7))
    kind = ("duplicates", "conjugates", "clusters", "near-ties")[
        int(rng.integers(4))]
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "duplicates":
        pool = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a, b = pool[rng.integers(3, size=n)], pool[rng.integers(3, size=n)]
    elif kind == "conjugates":
        a = np.concatenate([z[:(n + 1) // 2], z[:n // 2].conj()])
        b = rng.permutation(a.conj()) + 1e-15 * rng.standard_normal(n)
    elif kind == "clusters":
        centres = np.array([1j, 1 + 1j])
        a = centres[rng.integers(2, size=n)] + 1e-12 * z
        b = centres[rng.integers(2, size=n)] + 1e-12 * rng.permutation(z)
    else:  # points of a grid, and b half a step off it: many equal distances
        a = rng.integers(3, size=n) + 1j * rng.integers(1, 3, size=n)
        b = (rng.integers(3, size=n) + 0.5
             + 1j * rng.integers(1, 3, size=n)).astype(np.complex128)
    return a, b


def test_bottleneck_matching_against_brute_force():
    rng = np.random.default_rng(25)
    for _ in range(320):
        a, b = _small_multisets(rng)
        assert multiset_max_distance(a, b) == _brute_bottleneck(a, b)


def _brute_transport(supply, demand, edges) -> bool:
    """Whether some permutation matches the multiplicity-expanded sides
    along edges."""
    left = [u for u, c in enumerate(supply) for _ in range(c)]
    right = [v for v, c in enumerate(demand) for _ in range(c)]
    return any(all((u, right[p]) in edges for u, p in zip(left, perm))
               for perm in itertools.permutations(range(len(right))))


def test_transport_feasibility_against_brute_force():
    rng = np.random.default_rng(28)
    verdicts = set()
    for _ in range(400):
        total = int(rng.integers(1, 7))
        na, nb = (int(x) for x in rng.integers(1, total + 1, size=2))
        # counts summing to total: a random composition into na and nb parts
        supply, demand = (np.diff(np.concatenate(
            [[0], np.sort(rng.choice(np.arange(1, total), size=parts - 1,
                                     replace=False)), [total]])).tolist()
            for parts in (na, nb))
        pairs = [(u, v) for u in range(na) for v in range(nb)]
        keep = rng.random(len(pairs)) < rng.uniform(0.2, 0.9)
        edges = {pair for pair, k in zip(pairs, keep) if k}
        tails, heads = ([x for x, _ in sorted(edges)],
                        [y for _, y in sorted(edges)])
        got = spectral._transport_feasible(supply, demand, tails, heads)
        assert got == _brute_transport(supply, demand, edges)
        verdicts.add(got)
    assert verdicts == {True, False}


def _threshold_bottleneck(a, b) -> float:
    """The least pairwise distance t at which the threshold graph (a_i
    joined to b_j when |a_i - b_j| <= t) has a perfect matching, found by
    bisecting all pairwise distances with scipy's Hopcroft-Karp."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching
    cost = np.abs(a[:, None] - b[None, :])
    values = np.unique(cost)
    lo, hi = 0, values.size - 1  # the largest distance always matches
    while lo < hi:
        mid = (lo + hi) // 2
        match = maximum_bipartite_matching(csr_array(cost <= values[mid]))
        if (match >= 0).all():
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def test_a_forged_nb_spectrum_gets_the_exact_bottleneck_value():
    base = random_regular(12, 3, seed=4)
    sg = Signing.random(base, AbelianGroup.cyclic(4), seed=5)
    G = lift(base, sg, allow_disconnected=True)
    nb = ihara_bass_spectrum(adjacency_spectrum(G), 3, G.m - G.n)
    union = character_spectra(sg, np.arange(4), "nonbacktracking").ravel()
    honest = multiset_max_distance(union, nb)
    assert honest <= 1e-12
    assert honest == _threshold_bottleneck(union, nb)
    forged = nb + 0.5
    got = multiset_max_distance(union, forged)
    assert got == _threshold_bottleneck(union, forged)
    assert 0.5 <= got < 0.5 + 1e-12


def test_the_window_guard_refuses_before_building_pairs(monkeypatch):
    # one real part: every pair lies in the first window, 10^6 pairs
    a = 1.0 + 1j * np.random.default_rng(0).random(1000)
    monkeypatch.setattr(spectral, "_WINDOW_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1000000 window pairs, "
                           "48000000 bytes, above the cap of 1048576 bytes"):
            multiset_max_distance(a, a + 0.5j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 18  # the pairs would take 48 MB


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_a_non_finite_complex_multiset_is_refused(bad):
    a = np.array([1j, 2.0, 3.0 + 1j])
    b = a.copy()
    b[1] = bad
    with pytest.raises(ValueError, match="finite"):
        multiset_max_distance(a, b)
    with pytest.raises(ValueError, match="finite"):
        multiset_max_distance(b, a)


def test_nb_union_check_allocates_no_dense_complex_matrix():
    base = random_regular(80, 3, seed=1)  # 2M = 1920 at l = 8
    sg = Signing.random(base, AbelianGroup.cyclic(8), seed=2)
    tracemalloc.start()
    try:
        rep = spectrum_union_check(sg, include_nonbacktracking=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.nb_distance is not None
    # a 1920 x 1920 complex difference matrix alone is 56 MiB
    assert peak < 16 * 2 ** 20


def test_union_check_signed_triangle():
    sg = _signed_triangle()
    rep = spectrum_union_check(sg)
    assert rep.passed and rep.adjacency_distance <= 1e-8
    assert rep.nb_distance is not None and rep.nb_distance <= 1e-8
    # the two character spectra tile the hexagon spectrum
    trivial = np.linalg.eigvalsh(signed_adjacency(sg, (0,)).matrix)
    flipped = np.linalg.eigvalsh(signed_adjacency(sg, (1,)).matrix)
    union = np.sort(np.concatenate([trivial, flipped]))
    assert np.allclose(union, [-2, -1, -1, 1, 1, 2], atol=1e-12)


def test_union_check_identity_signing():
    base = complete_graph(4)
    sg = Signing.identity(base, AbelianGroup.cyclic(3))
    rep = spectrum_union_check(sg)
    assert rep.passed


def test_union_check_random_z3_signing():
    base = complete_graph(4)
    sg = Signing.random(base, AbelianGroup.cyclic(3), seed=42)
    rep = spectrum_union_check(sg, tol=1e-8)
    assert rep.passed


def test_union_check_product_group():
    base = petersen_graph()
    sg = Signing.random(base, AbelianGroup.product([2, 2]), seed=0)
    rep = spectrum_union_check(sg, include_nonbacktracking=False)
    assert rep.passed


def test_lift_lambda_matches_direct_computation():
    base = complete_graph(4)
    sg = Signing.random(base, AbelianGroup.cyclic(4), seed=8)
    lam, lam_base, rhos = lift_lambda(sg)
    lifted = lift(base, sg, allow_disconnected=True)
    assert lam == pytest.approx(lambda2(lifted), abs=1e-9)
    assert lam_base == pytest.approx(1.0, abs=1e-12)
    assert len(rhos) == 3  # one radius per nontrivial character


# Z2 x Z2 where both generators swap fiber points 0 and 1 and fix 2 and 3:
# not transitive, and characters (0, 1), (1, 0) have multiplicity zero
_NON_TRANSITIVE = AbelianGroup((2, 2), ((1, 0, 2, 3), (1, 0, 2, 3)))


def _reference_adjacency(signing, chi):
    """A(chi) edge by edge from char_value, independent of the builder."""
    base = signing.base
    mat = np.zeros((base.n, base.n), dtype=np.complex128)
    for e, (u, v) in enumerate(base.edges):
        val = signing.group.char_value(chi, signing.element(e))
        mat[u, v] = val
        mat[v, u] = np.conj(val)
    return mat


def _reference_nonbacktracking(signing, chi):
    """B(chi) directed edge by directed edge from char_value."""
    base = signing.base
    mat = np.zeros((2 * base.m, 2 * base.m), dtype=np.complex128)
    for x, y in base.directed_edges():
        val = signing.group.char_value(chi, signing.directed(x, y))
        for w in map(int, base.adj[x]):
            if w != y:
                mat[base.directed_index(w, x), base.directed_index(x, y)] = val
    return mat


def _reference_spectra(signing):
    """The per-character loops: eigvalsh rows of every A(chi), which the
    batched engine reproduces exactly, and eigvals rows of every B(chi)."""
    chars = signing.group.characters()
    return (np.array([np.linalg.eigvalsh(_reference_adjacency(signing, chi))
                      for chi in chars]),
            np.array([np.linalg.eigvals(_reference_nonbacktracking(signing, chi))
                      for chi in chars]))


def _assert_paired_nb_rows(signing, chars, got, nb_ref):
    """The contract of character_spectra's non-backtracking rows.

    A self-conjugate character's row is the real solve of B(chi) alone and
    a representative's (or lone character's) the complex solve, bit for
    bit; a requested -chi > chi gets the exact conjugate of chi's row.
    Every row is the reference loop's row as a multiset within 1e-12.
    """
    group = signing.group
    chars = [int(c) for c in chars]
    for i, c in enumerate(chars):
        chi = group.characters()[c]
        neg = group.element_indices([group.inverse(chi)])[0]
        mat = _reference_nonbacktracking(signing, chi)
        if neg == c:
            assert np.array_equal(got[i], np.linalg.eigvals(mat.real))
        elif neg < c and neg in chars:
            assert np.array_equal(got[i], got[chars.index(neg)].conj())
        else:
            assert np.array_equal(got[i], np.linalg.eigvals(mat))
        assert multiset_max_distance(got[i], nb_ref[c]) <= 1e-12


@pytest.mark.parametrize("group", [
    AbelianGroup.cyclic(2), AbelianGroup.cyclic(3), AbelianGroup.cyclic(16),
    AbelianGroup.product([2, 4]), _NON_TRANSITIVE],
    ids=["Z2", "Z3", "Z16", "Z2xZ4", "non-transitive"])
def test_batched_spectra_equal_the_per_character_loop(group):
    base = random_regular(12, 3, seed=4)
    sg = Signing.random(base, group, seed=5)
    ref, nb_ref = _reference_spectra(sg)
    every = np.arange(group.order)
    assert np.array_equal(character_spectra(sg, every, "adjacency"), ref)
    nb_rows = character_spectra(sg, every, "nonbacktracking")
    _assert_paired_nb_rows(sg, every, nb_rows, nb_ref)

    lam, lam_base, rhos = lift_lambda(sg)
    assert rhos == [float(np.abs(eigs).max()) for eigs in ref[1:]]
    assert lam_base == lambda2(base)
    assert lam == max([lam_base] + rhos)
    assert lift_lambda(sg, lam_base) == (lam, lam_base, rhos)

    mults = group.character_multiplicities()

    def union(spectra):
        return np.concatenate([np.tile(eigs, mults[chi]) for chi, eigs
                               in zip(group.characters(), spectra)
                               if mults[chi]])

    lifted = lift(base, sg, allow_disconnected=True)
    alpha = adjacency_spectrum(lifted)
    rep = spectrum_union_check(sg, include_nonbacktracking=True)
    assert rep.adjacency_distance == multiset_max_distance(alpha, union(ref))
    assert rep.nb_distance == multiset_max_distance(
        union(nb_rows),
        ihara_bass_spectrum(alpha, base.d, lifted.m - lifted.n))
    assert multiset_max_distance(union(nb_ref),
                                 np.linalg.eigvals(nonbacktracking(lifted))
                                 ) <= 1e-10
    assert rep.passed


def _dense_nb_spectrum(G):
    return np.linalg.eigvals(nonbacktracking(G))


@pytest.mark.parametrize("n, d, group, seed", [
    (12, 3, AbelianGroup.cyclic(4), 1),
    (10, 4, AbelianGroup.cyclic(3), 2),
    (8, 5, AbelianGroup.cyclic(5), 3),
    (12, 3, AbelianGroup.product([2, 4]), 4),
    (10, 4, AbelianGroup.product([2, 4]), 5),
], ids=["d3-Z4", "d4-Z3", "d5-Z5", "d3-Z2xZ4", "d4-Z2xZ4"])
def test_ihara_bass_spectrum_matches_the_dense_operator(n, d, group, seed):
    base = random_regular(n, d, seed=seed)
    for sg in (Signing.random(base, group, seed=seed),
               Signing.identity(base, group)):  # the second is disconnected
        G = lift(base, sg, allow_disconnected=True)
        nb = ihara_bass_spectrum(adjacency_spectrum(G), d, G.m - G.n)
        assert nb.shape == (2 * G.m,)
        assert multiset_max_distance(nb, _dense_nb_spectrum(G)) <= 1e-10


def test_ihara_bass_spectrum_of_a_bipartite_lift():
    # K_{3,3} with a Z_3 signing: the lift is bipartite, so -3 and -2 occur
    base = RegularGraph([[3, 4, 5]] * 3 + [[0, 1, 2]] * 3)
    sg = Signing.random(base, AbelianGroup.cyclic(3), seed=7)
    G = lift(base, sg)
    alpha = adjacency_spectrum(G)
    assert alpha[0] == pytest.approx(-3.0, abs=1e-12)
    nb = ihara_bass_spectrum(alpha, 3, G.m - G.n)
    assert np.abs(nb + 2).min() <= 1e-12
    assert multiset_max_distance(nb, _dense_nb_spectrum(G)) <= 1e-10


def _spy_dense_nb(monkeypatch):
    calls = []

    def spy(G):
        calls.append(G.n)
        return nonbacktracking(G)
    monkeypatch.setattr(spectral, "nonbacktracking", spy)
    return calls


def test_union_check_solves_the_lifted_nb_densely_only_at_the_double_root(
        monkeypatch):
    calls = _spy_dense_nb(monkeypatch)
    # every lift of a cycle has alpha = 2 = 2 sqrt(d - 1): the dense path
    rep = spectrum_union_check(_signed_triangle())
    assert calls == [6] and rep.passed
    # d = 1: a perfect matching has m < n, so no Ihara-Bass excess exists
    rep = spectrum_union_check(Signing.random(
        RegularGraph([[1], [0]]), AbelianGroup.cyclic(3), seed=1))
    assert calls == [6, 6] and rep.passed and rep.nb_distance == 0.0
    calls.clear()
    base = random_regular(12, 3, seed=4)
    rep = spectrum_union_check(Signing.random(base, AbelianGroup.cyclic(4),
                                              seed=5))
    assert calls == [] and rep.passed and rep.nb_distance <= 1e-10


def test_union_check_gates_the_nb_half_before_any_eigensolve(monkeypatch):
    base = random_regular(12, 3, seed=4)
    sg = Signing.random(base, AbelianGroup.cyclic(4), seed=5)  # 2M = 144
    solves = []
    for name in ("eigvals", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, _s=solve: solves.append(1) or _s(a))
    monkeypatch.setattr(graphs, "MAX_DENSE_DIM", 143)
    rep = spectrum_union_check(sg)
    assert rep.nb_distance is None and rep.passed
    solves.clear()
    with pytest.raises(ValueError, match="144 elements.*dense cap 143"):
        spectrum_union_check(sg, include_nonbacktracking=True)
    assert solves == []
    monkeypatch.setattr(graphs, "MAX_DENSE_DIM", 144)
    assert spectrum_union_check(sg).nb_distance is not None


def test_the_nb_union_check_runs_by_default_up_to_the_dense_cap():
    sg = Signing.random(random_regular(64, 3, seed=1), AbelianGroup.cyclic(16),
                        seed=2)
    assert 3000 < 2 * sg.base.m * 16 <= graphs.MAX_DENSE_DIM  # 2M = 3072
    rep = spectrum_union_check(sg)
    assert rep.passed and rep.nb_distance <= 1e-12


@pytest.mark.parametrize("base, ell", [(complete_graph(4), 8),
                                       (cycle_graph(12), 16)],
                         ids=["K4-Z8", "C12-Z16"])
def test_degenerate_identity_lifts_pass_the_nb_union_check(base, ell):
    # every character's spectrum is the base's: clusters of ell near-equal
    # values on both sides
    rep = spectrum_union_check(Signing.identity(base, AbelianGroup.cyclic(ell)))
    assert rep.passed and rep.nb_distance is not None


def test_non_transitive_group_has_zero_multiplicity_characters():
    mults = _NON_TRANSITIVE.character_multiplicities()
    assert mults == {(0, 0): 3, (0, 1): 0, (1, 0): 0, (1, 1): 1}


def test_chunked_stacks_equal_one_stack(monkeypatch):
    base = random_regular(12, 3, seed=4)
    sg = Signing.random(base, AbelianGroup.cyclic(16), seed=6)
    ref, nb_ref = _reference_spectra(sg)
    assert np.array_equal(character_spectra(sg, np.arange(16), "adjacency"),
                          ref)
    _assert_paired_nb_rows(
        sg, np.arange(16),
        character_spectra(sg, np.arange(16), "nonbacktracking"), nb_ref)
    for kind, dim in zip(["adjacency", "nonbacktracking"],
                         [base.n, 2 * base.m]):
        whole = character_spectra(sg, np.arange(16), kind)
        # three operators per stack: adjacency chunks of 3, 3, 3, 3, 3 and
        # 1; non-backtracking real chunk {0, 8}, complex 3, 3 and 1 of 1..7
        with monkeypatch.context() as mp:
            mp.setattr(spectral, "STACK_BYTES", 3 * 16 * dim ** 2 + 1)
            assert np.array_equal(character_spectra(sg, np.arange(16), kind),
                                  whole)


@pytest.mark.parametrize("group, real, complex_", [
    (AbelianGroup.cyclic(8), 2, 3),
    (AbelianGroup.product([2, 4]), 4, 2),
    (AbelianGroup.cyclic(2), 2, 0),
    ], ids=["Z8", "Z2xZ4", "Z2"])
def test_union_check_solves_one_b_per_conjugate_pair(monkeypatch, group,
                                                      real, complex_):
    base = random_regular(12, 3, seed=4)
    sg = Signing.random(base, group, seed=5)
    seen = {"f": 0, "c": 0}
    solve = np.linalg.eigvals

    def spy(a):
        if a.shape[-1] == 2 * base.m:  # B(chi) stacks, not a lifted operator
            seen[a.dtype.kind] += a.size // a.shape[-1] ** 2
        return solve(a)
    monkeypatch.setattr(np.linalg, "eigvals", spy)
    assert spectrum_union_check(sg, include_nonbacktracking=True).passed
    assert seen == {"f": real, "c": complex_}


def test_a_character_without_its_partner_is_solved_alone():
    sg = Signing.random(random_regular(12, 3, seed=4), AbelianGroup.cyclic(8),
                        seed=5)
    alone = np.linalg.eigvals(_reference_nonbacktracking(sg, (1,)))
    assert np.array_equal(character_spectra(sg, [1], "nonbacktracking"),
                          alone[None])
    # with its partner 7 the row is unchanged and 7 gets its conjugate
    both = character_spectra(sg, [7, 1], "nonbacktracking")
    assert np.array_equal(both, np.stack([alone.conj(), alone]))


def _hermitian_with_extreme(n, extreme, complex_, seed=0):
    """An n x n Hermitian matrix, real symmetric unless complex_, with one
    eigenvalue `extreme` and the others spread over [-0.5, 0.5]."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n))
    if complex_:
        z = z + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    eigs = np.linspace(-0.5, 0.5, n)
    eigs[0] = extreme
    mat = (q * eigs) @ q.conj().T
    return (mat + mat.conj().T) / 2


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("side", [1.0, -1.0], ids=["top", "bottom"])
@pytest.mark.parametrize("ratio, verdict", [
    (1 + 1e-6, False), (1 - 1e-6, True), (1 - 1e-15, None)],
    ids=["above", "below", "inside-the-margin"])
def test_radius_below_decides_outside_its_margin_only(complex_, side, ratio,
                                                      verdict):
    t = 1.7
    mat = _hermitian_with_extreme(8, side * t * ratio, complex_)
    kept = mat.copy()
    assert spectral.radius_margin(8) > 1e-14  # the margin holds 1e-15
    assert spectral.radius_below(mat, t) is verdict
    assert np.array_equal(mat, kept)


def test_large_group_peak_memory_stays_within_the_stack_cap():
    base = random_regular(24, 3, seed=1)
    group = AbelianGroup.cyclic(4096)
    sg = Signing.random(base, group, seed=2)
    # one stack of all characters would take 2.25 times the cap
    assert group.order * base.n ** 2 * 16 > 2 * spectral.STACK_BYTES
    rhos = lift_lambda(sg)[2]  # fills the table columns, untraced for speed
    tracemalloc.start()
    try:
        assert lift_lambda(sg)[2] == rhos
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # slack: the table columns in use, each chunk's edge values, the output
    assert peak <= spectral.STACK_BYTES + (8 << 20)
    assert len(rhos) == group.order - 1
    for c in (1, 2047, 4095):
        mat = _reference_adjacency(sg, group.characters()[c])
        assert rhos[c - 1] == float(np.abs(np.linalg.eigvalsh(mat)).max())


def _relabelled(group, seed):
    """The same group acting through a random relabelling of its fiber, so
    that fiber point order is not group element order."""
    sigma = np.random.default_rng(seed).permutation(group.fiber_size)
    inv = np.argsort(sigma)
    return AbelianGroup(group.factors, tuple(
        tuple(sigma[np.asarray(p)[inv]].tolist())
        for p in group.generator_perms))


_PROBE_GROUPS = {
    "Z2": AbelianGroup.cyclic(2),
    "Z3": AbelianGroup.cyclic(3),
    "Z16": AbelianGroup.cyclic(16),
    "Z2xZ4": AbelianGroup.product([2, 4]),
    "Z16-relabelled": _relabelled(AbelianGroup.cyclic(16), 1),
    "Z2xZ4-relabelled": _relabelled(AbelianGroup.product([2, 4]), 2),
}


@pytest.mark.parametrize("name", list(_PROBE_GROUPS))
def test_decomposition_probe_agrees_with_the_union_check(name):
    group = _PROBE_GROUPS[name]
    if name.endswith("relabelled"):
        elems = np.stack(np.unravel_index(np.arange(group.order),
                                          group.factors), axis=1)
        point = group.action(elems, [0])[:, 0]
        assert (point != np.arange(group.fiber_size)).any()
    base = random_regular(12, 3, seed=5)
    for seed in range(3):
        sg = Signing.random(base, group, seed=seed)
        assert spectrum_union_check(sg).passed
        assert spectral.decomposition_probe(sg, seed=seed) <= 1e-12


@pytest.mark.parametrize("ell", [16, 4096])
def test_decomposition_probe_fails_on_a_lift_with_one_shift_changed(ell):
    base = random_regular(16, 3, seed=1)
    group = AbelianGroup.cyclic(ell)
    sg = Signing.random(base, group, seed=2)
    assert spectral.decomposition_probe(sg, seed=5) <= 1e-12
    values = sg.values.copy()
    values[3] = (values[3] + 1) % ell
    wrong = lift(base, Signing(base, group, values), allow_disconnected=True)
    errs = [spectral.decomposition_probe(sg, wrong, seed=s)
            for s in (5, 5, 6)]
    assert min(errs) > 0.01 > spectral.PROBE_TOL
    assert errs[0] == errs[1] != errs[2]  # the seed alone fixes the probe


@pytest.mark.parametrize("group", [
    AbelianGroup((2,), ((1, 0, 3, 2),)),  # not transitive
    AbelianGroup((2, 2), ((1, 0), (1, 0))),  # not free
    ], ids=["Z2-on-four-points", "Z2xZ2-on-two-points"])
def test_decomposition_probe_refuses_a_non_regular_action(group):
    sg = Signing.random(cycle_graph(5), group, seed=0)
    with pytest.raises(ValueError, match="needs a regular action"):
        spectral.decomposition_probe(sg)


def test_nb_perron_root_is_degree_minus_one():
    for g in (complete_graph(4), petersen_graph()):
        assert spectral_radius(nonbacktracking(g)) == pytest.approx(
            g.d - 1, abs=1e-8)


def test_ihara_trivial_character():
    sg = Signing.identity(complete_graph(4), AbelianGroup.cyclic(2))
    rep = ihara_check(sg)
    assert rep.trivial and rep.passed
    assert rep.lhs == pytest.approx(1.0, abs=1e-9)
    assert rep.bound >= 2 * math.sqrt(2) - 1e-12


def test_ihara_sweep_random_z4_signing():
    base = random_regular(12, 3, seed=4)
    sg = Signing.random(base, AbelianGroup.cyclic(4), seed=4)
    for chi in sg.group.characters():
        rep = ihara_check(sg, chi)
        assert rep.passed, (chi, rep)
        if any(chi):
            # rho(B(chi)) as one complex solve of the operator alone
            rho = np.abs(np.linalg.eigvals(
                _reference_nonbacktracking(sg, chi))).max()
            assert rep.rho_b == pytest.approx(rho, abs=1e-12)


def test_transport_perron_large_root():
    sg = Signing.identity(complete_graph(4), AbelianGroup.cyclic(2))
    res = nb_eigenvector_transport(sg, (0,), np.ones(4), 3.0)
    assert res.beta == pytest.approx(2.0)
    assert res.residual <= 1e-9 and res.passed
    assert not res.double_root
    assert sorted(res.roots, key=abs) == [1.0, 2.0]


def test_transport_perron_small_root_vanishes():
    # beta = 1 makes g(u -> v) = f(u) - f(v) = 0 for the all-ones vector
    sg = Signing.identity(complete_graph(4), AbelianGroup.cyclic(2))
    with pytest.raises(ValueError, match="vanished"):
        nb_eigenvector_transport(sg, (0,), np.ones(4), 3.0, root="small")


def test_transport_double_root_vanishes():
    # alpha = -2 on the signed triangle hits the double root beta = -1
    sg = _signed_triangle()
    with pytest.raises(ValueError, match="vanished"):
        nb_eigenvector_transport(sg, (1,), np.array([-1.0, 1.0, 1.0]), -2.0)


def test_transport_signed_triangle_alpha_one():
    sg = _signed_triangle()
    A = signed_adjacency(sg, (1,)).matrix
    w, V = np.linalg.eigh(A)
    f = V[:, 2]  # eigenvalue 1
    res = nb_eigenvector_transport(sg, (1,), f, 1.0)
    assert res.residual <= 1e-9 and res.passed
    assert abs(res.beta) == pytest.approx(1.0)  # beta^2 - beta + 1 = 0


def test_transport_complex_pair_on_k4():
    sg = Signing.identity(complete_graph(4), AbelianGroup.cyclic(2))
    f = np.array([1.0, -1.0, 0.0, 0.0])
    res = nb_eigenvector_transport(sg, (0,), f, -1.0)
    assert res.residual <= 1e-9 and res.passed
    assert abs(res.beta) == pytest.approx(math.sqrt(2.0))


def test_transport_rejects_non_eigenvector():
    sg = Signing.identity(complete_graph(4), AbelianGroup.cyclic(2))
    with pytest.raises(ValueError, match="not an eigenvector"):
        nb_eigenvector_transport(sg, (0,), np.array([1.0, 2.0, 3.0, 4.0]), 3.0)


def test_rayleigh_zero_and_single_edge():
    assert boolean_rayleigh_max(np.zeros((3, 3))) == 0.0
    assert boolean_rayleigh_max(np.array([[0.0, 1.0], [1.0, 0.0]])) == 1.0


def test_rayleigh_c4_maximum_sits_on_the_bipartition():
    A = cycle_graph(4).adjacency_matrix()
    best = boolean_rayleigh_max(A)
    assert best == pytest.approx(2.0, abs=1e-12)
    # the singleton-vs-neighbors pair only reaches sqrt(2)
    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0, 1.0])
    q = abs(u @ A @ v) / math.sqrt(u.sum() * v.sum())
    assert q == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert q < best


def test_rayleigh_sampled_never_exceeds_exhaustive():
    rng = np.random.default_rng(3)
    for seed in range(4):
        m = rng.standard_normal((6, 6))
        m = m + m.T
        exact = boolean_rayleigh_max(m)
        low = boolean_rayleigh_max(m, mode="sampled", trials=200, seed=seed)
        assert low <= exact + 1e-12


def test_rayleigh_sampled_evaluates_through_the_exhaustive_kernel(
        monkeypatch):
    m = np.random.default_rng(5).standard_normal((5, 5))
    m = m + m.T
    value = boolean_rayleigh_max(m, mode="sampled", trials=400, seed=1)
    # 400 draws of 5 bits hit all 30 proper supports of S
    assert value == pytest.approx(boolean_rayleigh_max(m), rel=1e-12)
    calls, blocks = [], []

    def spy(mat, s, count, supports):
        def recorded(lo, hi):
            sel = supports(lo, hi)
            assert (sel.sum(axis=1) == s).all()
            blocks.append(hi - lo)
            return sel
        calls.append(s)
        return evaluate(mat, s, count, recorded)

    evaluate = kernels._rayleigh_max
    monkeypatch.setattr(kernels, "_rayleigh_max", spy)
    assert boolean_rayleigh_max(m, mode="sampled", trials=400,
                                seed=1) == value
    assert calls == [1, 2, 3, 4] and len(blocks) == 4  # one block a size
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 1)  # one support a block
    blocks.clear()
    assert boolean_rayleigh_max(m, mode="sampled", trials=400,
                                seed=1) == pytest.approx(value, rel=1e-12)
    assert set(blocks) == {1} and len(blocks) <= 400
    assert boolean_rayleigh_max(np.ones((1, 1)), mode="sampled") == 0.0


def test_rayleigh_guard():
    with pytest.raises(ValueError):
        boolean_rayleigh_max(np.zeros((21, 21)))


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (3,)])
@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_rayleigh_refuses_a_non_square_matrix_in_both_modes(shape, mode):
    with pytest.raises(ValueError, match="square matrix required"):
        boolean_rayleigh_max(np.ones(shape), mode=mode)


def test_signed_norm_bounded_by_parts():
    # ||A(chi)|| <= 2 max(||C||, ||D||) for A = C + iD
    base = petersen_graph()
    rng = np.random.default_rng(0)
    for _ in range(50):
        sg = Signing.random(base, AbelianGroup.cyclic(6),
                            seed=int(rng.integers(1 << 30)))
        A = signed_adjacency(sg, (1,)).matrix
        norm = spectral_radius(A)
        c_norm = np.linalg.norm(A.real, 2)
        d_norm = np.linalg.norm(A.imag, 2)
        assert norm <= 2 * max(c_norm, d_norm) + 1e-9


def test_mixing_whole_vertex_set():
    g = complete_graph(4)
    rep = mixing_check(g, range(4), range(4))
    assert rep.edge_count == 12.0  # ordered crossing pairs: n*d
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)
    assert rep.passed


def test_mixing_singletons_on_k4():
    rep = mixing_check(complete_graph(4), [0], [1])
    assert rep.edge_count == 1.0
    assert rep.lhs == pytest.approx(0.25, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-9)
    assert rep.passed


def test_mixing_random_sweep():
    g = random_regular(20, 3, seed=1)
    rng = np.random.default_rng(1)
    for _ in range(100):
        S = rng.choice(20, size=int(rng.integers(1, 10)), replace=False)
        T = rng.choice(20, size=int(rng.integers(1, 10)), replace=False)
        assert mixing_check(g, S, T).passed


def test_mixing_rejects_bad_sets():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="nonempty"):
        mixing_check(g, [], [1])
    with pytest.raises(ValueError, match="out of range"):
        mixing_check(g, [0], [7])
