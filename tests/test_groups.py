"""Abelian groups, characters, and permutation actions."""
import numpy as np
import pytest

from abelift.groups import AbelianGroup, _components, _orbits

Z6 = AbelianGroup.cyclic(6)
Z4 = AbelianGroup.cyclic(4)
Z2xZ2 = AbelianGroup.product([2, 2])


def test_compose_modular_addition():
    assert Z6.compose((2,), (5,)) == (1,)
    assert Z2xZ2.compose((1, 0), (1, 1)) == (0, 1)
    for g in Z6.elements():
        assert Z6.compose(g, Z6.identity) == g


def test_inverse():
    assert Z6.inverse((2,)) == (4,)
    assert Z2xZ2.inverse((1, 1)) == (1, 1)
    assert Z6.inverse(Z6.identity) == Z6.identity
    for g in Z4.elements():
        assert Z4.compose(g, Z4.inverse(g)) == Z4.identity


def test_char_value_examples():
    assert Z6.char_value((0,), (3,)) == pytest.approx(1.0)
    assert Z4.char_value((1,), (2,)) == pytest.approx(-1.0)
    assert Z2xZ2.char_value((1, 1), (1, 0)) == pytest.approx(-1.0)


def test_char_value_is_multiplicative(rng):
    for group in (Z6, Z4, Z2xZ2):
        els = group.elements()
        chars = group.characters()
        for _ in range(30):
            chi = chars[rng.integers(len(chars))]
            g = els[rng.integers(len(els))]
            h = els[rng.integers(len(els))]
            lhs = group.char_value(chi, group.compose(g, h))
            rhs = group.char_value(chi, g) * group.char_value(chi, h)
            assert abs(lhs - rhs) < 1e-10
            assert abs(abs(lhs) - 1.0) < 1e-12


def test_character_sums_vanish_off_trivial():
    for group in (Z6, Z4, Z2xZ2):
        for chi in group.characters():
            total = sum(group.char_value(chi, g) for g in group.elements())
            if all(c == 0 for c in chi):
                assert total == pytest.approx(group.order)
            else:
                assert abs(total) < 1e-8


def test_characters_enumeration():
    assert AbelianGroup.cyclic(2).characters() == [(0,), (1,)]
    assert len(Z2xZ2.characters()) == 4
    chars = Z6.characters()
    assert len(chars) == 6 and len(set(chars)) == 6
    assert chars[0] == (0,)


def test_transitivity():
    assert AbelianGroup.cyclic(5).is_transitive()
    # Z2 on [4] via (1 2)(3 4): two orbits
    split = AbelianGroup([2], [np.array([1, 0, 3, 2])])
    assert not split.is_transitive()
    trivial = AbelianGroup([1], [np.array([0, 1])])
    assert not trivial.is_transitive()


def test_generator_perms_commute_required():
    # 3-cycle and a transposition on [3] do not commute
    with pytest.raises(ValueError, match="commute"):
        AbelianGroup([3, 2], [np.array([1, 2, 0]), np.array([1, 0, 2])])


def test_perm_order_must_divide_factor():
    with pytest.raises(ValueError):
        AbelianGroup([2], [np.array([1, 2, 0])])  # order 3 generator


def test_perm_of_compose_is_product():
    g, h = (1,), (2,)
    lhs = Z4.perm_of(Z4.compose(g, h))
    rhs = Z4.perm_of(g)[Z4.perm_of(h)]
    assert np.array_equal(lhs, rhs)


def test_perm_of_matches_naive_composition():
    for group in (AbelianGroup.product([2, 4]), AbelianGroup.product([3, 3]),
                  AbelianGroup.cyclic(16)):
        for g in group.elements():
            naive = np.arange(group.fiber_size)
            for exp, p in zip(g, group.generator_perms):
                for _ in range(exp):
                    naive = np.asarray(p)[naive]
            assert np.array_equal(group.perm_of(g), naive)


def test_free_and_multiplicities():
    assert Z4.is_free() and Z4.fixed_point() is None
    mults = Z4.character_multiplicities()
    assert set(mults.values()) == {1}
    assert len(mults) == 4
    # a non-transitive action repeats characters
    split = AbelianGroup([2], [np.array([1, 0, 3, 2])])
    mults = split.character_multiplicities()
    assert mults[(0,)] == 2 and mults[(1,)] == 2


def test_char_table_and_element_indices_follow_elements_order():
    group = AbelianGroup.product([2, 3, 4])
    assert np.array_equal(group.element_indices(group.elements()),
                          np.arange(24))
    rng = np.random.default_rng(0)
    big = AbelianGroup.cyclic(65536)
    sampled = np.concatenate([[1, 65535], rng.integers(65536, size=298)])
    cases = [
        (group, np.arange(24), [5, 0, 23, 5]),
        (AbelianGroup.product([3, 3]), np.arange(9), np.arange(9)),
        # the phase is taken mod lcm(3, 5, 7) = 105 and mod lcm(3, 6) = 6
        (AbelianGroup.product([3, 5, 7]), np.arange(105), np.arange(105)),
        (AbelianGroup.product([3, 6]), np.arange(18), np.arange(18)),
        # non-regular: Z2 acting on four points with two orbits
        (AbelianGroup([2], [np.array([1, 0, 3, 2])]), [1, 0], [0, 1, 1]),
        (big, sampled, sampled[::-1]),
    ]
    for grp, chars, elems in cases:
        table = grp.char_table(chars, elems)
        assert table.shape == (len(chars), len(elems))
        chis, gs = grp.characters(), grp.elements()
        # every pair, or the big table's diagonal (char_value is a scalar
        # call of tens of microseconds)
        rows, cols = (np.diag_indices(len(chars)) if grp is big else
                      np.indices(table.shape).reshape(2, -1))
        values = np.array([grp.char_value(chis[chars[c]], gs[elems[j]])
                           for c, j in zip(rows, cols)])
        assert values.tobytes() == table[rows, cols].tobytes()  # bit for bit


@pytest.mark.parametrize("group", [
    AbelianGroup.cyclic(2), AbelianGroup.cyclic(3), AbelianGroup.cyclic(16),
    AbelianGroup.product([2, 4]), AbelianGroup.product([3, 6]),
    AbelianGroup.cyclic(4096)], ids=["Z2", "Z3", "Z16", "Z2xZ4", "Z3xZ6",
                                     "Z4096"])
def test_conjugate_characters_are_exact_conjugates(group):
    """chi(-g) and (-chi)(g) equal conj chi(g) exactly, and a
    self-conjugate character is exactly +-1."""
    every = np.arange(group.order)
    neg = group.inverse_indices(every)
    rows = every if group.order <= 64 else np.r_[0:8, 2045:2052, 4088:4096]
    table = group.char_table(rows, every)
    assert np.array_equal(table[:, neg], table.conj())
    assert np.array_equal(group.char_table(neg[rows], every), table.conj())
    real = table[neg[rows] == rows]
    assert real.size and not real.imag.any()
    assert set(real.real.ravel().tolist()) <= {-1.0, 1.0}


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                    reason="np.longdouble is float64 on this platform")
def test_char_table_entries_lie_within_two_eps_of_long_double():
    """At l = 65536 every entry of the table is character 1's entry at the
    integer phase R = c x mod l, so that row holds every entry; a sample of
    other characters confirms it."""
    ell = 65536
    group = AbelianGroup.cyclic(ell)
    x = np.arange(ell)
    row = group.char_table([1], x)[0]
    angle = x.astype(np.longdouble) * (
        np.longdouble("6.283185307179586476925286766559005768") / ell)
    eps = np.finfo(np.float64).eps
    assert np.abs(row.real - np.cos(angle)).max() <= 2 * eps
    assert np.abs(row.imag - np.sin(angle)).max() <= 2 * eps
    rng = np.random.default_rng(1)
    chars, elems = rng.integers(ell, size=(2, 64))
    table = group.char_table(chars, elems)
    assert np.array_equal(table, row[np.multiply.outer(chars, elems) % ell])


def test_factors_beyond_exact_int64_phases_are_refused():
    # 3^25 squared overflows int64, so c x mod m would come out wrong
    with pytest.raises(ValueError, match=r"factors \(847288609443,\) are "
                       "too large for char_table's int64 phases"):
        AbelianGroup((3 ** 25,), ((0,),))
    with pytest.raises(ValueError, match="too large"):
        AbelianGroup((2 ** 31, 2 ** 31 - 1, 2 ** 30 - 1), ((0,),) * 3)
    m = 3 ** 19  # one point, on which every element acts trivially
    big = AbelianGroup((m,), ((0,),))
    value = big.char_table([m - 2], [m - 2])[0, 0]
    assert abs(value - np.exp(2j * np.pi * ((m - 2) ** 2 % m) / m)) < 1e-12


def test_inverse_indices_follow_inverse():
    for group in (AbelianGroup.cyclic(8), AbelianGroup.product([2, 3, 4])):
        elems = group.elements()
        assert group.inverse_indices(np.arange(group.order)).tolist() == [
            elems.index(group.inverse(g)) for g in elems]


def test_json_roundtrip_is_one_based():
    payload = Z6.to_json()
    assert payload["factors"] == [6]
    assert payload["generators"] == [[2, 3, 4, 5, 6, 1]]
    back = AbelianGroup.from_json(payload)
    assert back.factors == Z6.factors
    assert np.array_equal(back.generator_perms[0], Z6.generator_perms[0])


# cyclic and product groups acting on themselves, plus actions that are not
# regular: free but not transitive, transitive but not faithful, with fixed
# points, and several orbits of different sizes
_ACTIONS = (
    [AbelianGroup.cyclic(ell) for ell in (1, 2, 3, 4, 5, 8, 12, 16, 64)]
    + [AbelianGroup.product(f) for f in ([2, 2], [2, 4], [4, 2], [3, 3],
                                         [2, 3, 4], [4, 4], [2, 2, 2],
                                         [3, 5])]
    + [AbelianGroup([2], [np.array([1, 0, 3, 2])]),
       AbelianGroup((2,), ((1, 0, 2),)),
       AbelianGroup([1], [np.array([0, 1])]),
       AbelianGroup([4], [np.array([1, 2, 3, 0, 4, 5])]),
       AbelianGroup([2, 2], [np.array([1, 0, 2, 3]), np.array([0, 1, 3, 2])]),
       AbelianGroup([6], [np.array([1, 0, 3, 4, 2])]),
       AbelianGroup([4], [np.array([1, 0])]),
       AbelianGroup([2, 3], [np.array([1, 0, 2, 3, 4]),
                             np.array([0, 1, 3, 4, 2])])])


def _reference_perm(group, g):
    out = np.arange(group.fiber_size)
    for exp, p in zip(g, group.generator_perms):
        for _ in range(exp):
            out = np.asarray(p)[out]
    return out


def _reference_is_transitive(group, elements=None):
    """Breadth-first orbit of point 0, one permutation per element."""
    if elements is None:
        perms = [np.asarray(p) for p in group.generator_perms]
    else:
        perms = [_reference_perm(group, g) for g in elements]
    perms += [np.argsort(p) for p in perms]
    seen, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = int(p[x])
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == group.fiber_size


def _reference_fixed_point(group):
    points = np.arange(group.fiber_size)
    for g in group.elements()[1:]:
        fixed = np.flatnonzero(_reference_perm(group, g) == points)
        if fixed.size:
            return g, int(fixed[0])
    return None


def _reference_multiplicities(group):
    """m_chi from one fix count per element."""
    points = np.arange(group.fiber_size)
    fixes = np.array([int(np.sum(_reference_perm(group, g) == points))
                      for g in group.elements()], dtype=np.int64)
    fixed = np.flatnonzero(fixes)
    accs = (np.conj(group.char_table(np.arange(group.order), fixed))
            @ fixes[fixed])
    out = {}
    for chi, acc in zip(group.characters(), accs):
        mult = acc / group.order
        assert abs(mult.imag) < 1e-9 and abs(mult.real - round(mult.real)) < 1e-9
        out[chi] = int(round(mult.real))
    return out


def _reference_product_perms(factors):
    """Generator permutations of the mixed-radix self-action, digit by digit."""
    order = int(np.prod(factors))
    weights = [order // int(np.prod(factors[:i + 1]))
               for i in range(len(factors))]
    perms = []
    for i, m in enumerate(factors):
        perm = []
        for label in range(order):
            digits = [label // w % mm for w, mm in zip(weights, factors)]
            digits[i] = (digits[i] + 1) % m
            perm.append(sum(d * w for d, w in zip(digits, weights)))
        perms.append(tuple(perm))
    return tuple(perms)


def test_fiber_action_matches_per_element_reference():
    rng = np.random.default_rng(9)
    for group in _ACTIONS:
        elements = group.elements()
        rows = group.action(elements)
        assert rows.shape == (group.order, group.fiber_size)
        for g, row in zip(elements, rows):
            assert np.array_equal(group.perm_of(g), _reference_perm(group, g))
            assert np.array_equal(row, _reference_perm(group, g))
        points = rng.integers(group.fiber_size, size=3)
        assert np.array_equal(group.action(elements, points), rows[:, points])
        got, want = group.fixed_point(), _reference_fixed_point(group)
        assert got == want
        if got is not None:
            assert all(type(x) is int for x in got[0] + (got[1],))
        assert group.is_free() is (want is None)
        transitive = group.is_transitive()
        assert type(transitive) is bool
        assert transitive == _reference_is_transitive(group)
        for size in (0, 1, 2):
            subset = [elements[i]
                      for i in rng.integers(group.order, size=size)]
            transitive = group.is_transitive(subset)
            assert type(transitive) is bool
            assert transitive == _reference_is_transitive(group, subset)
        mults = group.character_multiplicities()
        assert mults == _reference_multiplicities(group)
        assert all(type(v) is int for v in mults.values())


def test_product_perms_match_digit_reference():
    for factors in ([1], [5], [2, 2], [2, 4], [4, 2], [3, 3], [2, 3, 4],
                    [2, 2, 2], [3, 1, 5], [64, 64]):
        group = AbelianGroup.product(factors)
        want = _reference_product_perms(factors)
        assert group.generator_perms == want
        assert all(type(x) is int for p in group.generator_perms for x in p)


def test_action_rejects_malformed_rows():
    with pytest.raises(ValueError, match="length"):
        Z2xZ2.action([(1, 0, 1)])
    with pytest.raises(ValueError, match="non-negative"):
        Z4.action([(-1,)])
    with pytest.raises(ValueError, match="out of range"):
        Z4.is_transitive([(4,)])
    # exponents past the factor order are powers, as the order check uses
    assert np.array_equal(Z4.action([(5,)])[0], Z4.perm_of((1,)))


def test_orbit_questions_scale_to_a_large_fiber():
    big = AbelianGroup.cyclic(65536)
    assert big.fixed_point() is None and big.is_transitive()
    assert set(big.character_multiplicities().values()) == {1}


def _bfs_labels(n, u, v):
    """Component labels by breadth-first search from each unseen vertex in
    increasing order, so numbered by least vertex."""
    rows = [[] for _ in range(n)]
    for x, y in zip(u, v):
        rows[x].append(y)
        rows[y].append(x)
    labels = [-1] * n
    count = 0
    for s in range(n):
        if labels[s] < 0:
            labels[s], queue = count, [s]
            for x in queue:
                for y in rows[x]:
                    if labels[y] < 0:
                        labels[y] = count
                        queue.append(y)
            count += 1
    return count, labels


def _random_edge_lists(rng):
    """(n, u, v) with isolated vertices, loops, repeated edges, and lists
    with no edges at all."""
    yield 0, [], []
    yield 5, [], []
    for _ in range(200):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 2 * n))
        u, v = rng.integers(n, size=(2, m))
        loops = rng.integers(n, size=int(rng.integers(0, 4)))
        u = np.concatenate([u, loops, u[:m // 3]])
        v = np.concatenate([v, loops, v[:m // 3]])  # repeated edges
        yield n, u, v


def test_union_find_matches_breadth_first_search_and_csgraph(rng):
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components
    for n, u, v in _random_edge_lists(rng):
        count, labels = _components(n, u, v)
        assert (count, labels.tolist()) == _bfs_labels(n, u, v)
        if n:
            graph = coo_array((np.ones(len(u)), (u, v)), shape=(n, n))
            ref_count, ref = connected_components(graph, directed=False)
            assert count == ref_count
            assert np.array_equal(labels, ref)


def _csgraph_orbits(perms):
    """Orbits as computed by scipy's connected_components on the Schreier
    graph (the implementation the union-find replaced)."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components
    k, ell = perms.shape
    graph = csr_array((np.ones(k * ell), perms.T.ravel(),
                       k * np.arange(ell + 1)), shape=(ell, ell))
    return connected_components(graph, directed=False)


def test_orbits_match_csgraph_on_permutation_stacks(rng):
    stacks = [Z6.action(list(Z6.elements())), Z2xZ2.action([(1, 0)]),
              np.arange(7)[None], np.empty((0, 4), dtype=np.int64)]
    for _ in range(100):
        ell, k = int(rng.integers(1, 40)), int(rng.integers(1, 4))
        perms = np.array([rng.permutation(ell) for _ in range(k)])
        if rng.random() < 0.5:  # a product of short cycles: many orbits
            cut = np.sort(rng.choice(ell, size=min(ell, 5), replace=False))
            perms = np.array([np.concatenate(
                [np.roll(part, int(rng.integers(3)))
                 for part in np.split(np.arange(ell), cut)])
                for _ in range(k)])
        stacks.append(perms)
    for perms in stacks:
        count, labels = _orbits(perms)
        ref_count, ref = _csgraph_orbits(np.asarray(perms, dtype=np.int64))
        assert count == ref_count
        assert np.array_equal(labels, ref)
