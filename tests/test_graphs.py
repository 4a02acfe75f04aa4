"""Regular graphs, signings, lifts, signed operators, girth, bicycle-freeness."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from abelift.graphs import (MAX_DENSE_DIM, RegularGraph, Signing, _ball,
                            bicycle_free_radius, complete_graph,
                            component_count, cycle_graph,
                            girth, lift, nonbacktracking, petersen_graph,
                            random_regular, random_regular_dense,
                            signed_adjacency, signed_nonbacktracking)
from abelift.groups import AbelianGroup
from abelift.hikes import is_hike
from abelift.spectral import lambda2


def disjoint_union(g1: RegularGraph, g2: RegularGraph) -> RegularGraph:
    """The union of two graphs of one degree, g2's vertices after g1's."""
    assert g1.d == g2.d
    return RegularGraph(np.concatenate([g1.adj, g2.adj + g1.n]))


def test_complete_graph_k4():
    g = complete_graph(4)
    assert (g.n, g.d, g.m) == (4, 3, 6)
    assert g.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3],
                                [2, 3]]


def test_cycle_graph_c5():
    g = cycle_graph(5)
    assert (g.n, g.d, g.m) == (5, 2, 5)
    for u in range(5):
        for v in g.adj[u]:
            assert u in g.adj[int(v)]


def test_petersen_shape():
    g = petersen_graph()
    assert (g.n, g.d, g.m) == (10, 3, 15)
    assert girth(g) == 5


def test_constructor_rejects_bad_tables():
    with pytest.raises(ValueError, match="self-loop"):
        RegularGraph([[0, 1], [0, 2], [1, 0]])
    with pytest.raises(ValueError, match="multi-edge"):
        RegularGraph([[1, 1], [0, 0]])
    # v in u's list without u in v's list
    with pytest.raises(ValueError, match="not symmetric"):
        RegularGraph([[1, 2], [0, 2], [0, 3], [2, 0]])
    with pytest.raises(ValueError, match="out of range"):
        RegularGraph([[1, 7], [0, 2], [1, 0]])


def _reference_graph_tables(adj):
    """The per-vertex loops RegularGraph once ran: validation in row order
    (self-loop before multi-edge within a row), then symmetry, then the
    edge count; returns (edges, edge id dict, eid_table)."""
    a = np.asarray(adj, dtype=np.int64)
    n, d = a.shape
    pairs = set()
    for u in range(n):
        row = a[u]
        if np.any(row == u):
            raise ValueError("self-loop found")
        if len(set(row.tolist())) != d:
            raise ValueError("repeated neighbor (multi-edge)")
        for v in row:
            pairs.add((u, int(v)))
    for u, v in pairs:
        if (v, u) not in pairs:
            raise ValueError("adjacency is not symmetric")
    edges = sorted((min(u, v), max(u, v)) for u, v in pairs if u < v)
    if 2 * len(edges) != n * d:
        raise ValueError("edge count does not match degree")
    eid = {e: i for i, e in enumerate(edges)}
    table = np.empty((n, d), dtype=np.int64)
    for u in range(n):
        for j in range(d):
            v = int(a[u, j])
            table[u, j] = eid[(min(u, v), max(u, v))]
    return edges, eid, table


def _outcome(build, adj):
    try:
        return build(adj)
    except ValueError as exc:
        return str(exc)


def test_constructor_matches_the_loop_reference():
    def build(adj):
        g = RegularGraph(adj)
        return g, g.edges, g.eid_table

    rng = np.random.default_rng(0)
    tables = [cycle_graph(5).adj, complete_graph(6).adj, petersen_graph().adj,
              random_regular(16, 4, seed=1).adj,
              random_regular(2, 1, seed=0).adj,
              lift(random_regular(10, 3, seed=2), Signing.random(
                  random_regular(10, 3, seed=2), AbelianGroup.cyclic(4),
                  seed=3), allow_disconnected=True).adj]
    # the first bad row names the fault; within a row, self-loop first
    tables += [np.array(t) for t in ([[0, 0], [1, 1]], [[1, 1], [1, 0]],
                                     [[0, 1], [0, 0]], [[1, 2], [2, 2],
                                                        [0, 2]])]
    for _ in range(300):
        a = random_regular(2 * int(rng.integers(2, 7)), 3,
                           seed=int(rng.integers(1 << 30))).adj.copy()
        n = a.shape[0]
        for _ in range(int(rng.integers(0, 3))):
            u, j = rng.integers(n), rng.integers(3)
            a[u, j] = rng.choice([u, a[u, (j + 1) % 3], rng.integers(n)])
        tables.append(a)
    messages = set()
    for a in tables:
        got, want = _outcome(build, a), _outcome(_reference_graph_tables, a)
        if isinstance(want, str):
            assert got == want
            messages.add(want)
        else:
            g = got[0]
            assert got[1].tolist() == [list(e) for e in want[0]]
            assert got[1].dtype == np.int64
            for (u, v), e in want[1].items():
                assert g.edge_id(u, v) == g.edge_id(v, u) == e
            assert got[2].dtype == want[2].dtype
            assert np.array_equal(got[2], want[2])
    assert messages == {"self-loop found", "repeated neighbor (multi-edge)",
                        "adjacency is not symmetric"}


def test_edge_and_directed_indexing():
    g = complete_graph(4)
    for e, (u, v) in enumerate(g.edges):
        assert g.edge_id(u, v) == e
        assert g.edge_id(v, u) == e
        assert g.directed_index(u, v) == 2 * e
        assert g.directed_index(v, u) == 2 * e + 1
    assert g.directed_edges()[:2].tolist() == [[0, 1], [1, 0]]
    # eid_table mirrors adj positionwise
    for u in range(g.n):
        for j in range(g.d):
            assert g.eid_table[u, j] == g.edge_id(u, int(g.adj[u, j]))


def test_labels_outside_the_vertex_range_are_never_edges():
    # adj[-1] of this graph holds n - 2, so a wrapped lookup would find it
    g = random_regular(6, 3, seed=0)
    n = g.n
    assert n - 2 in g.adj[-1] and not g.has_edge(-1, n - 2)
    assert not g.has_edge(-1, n - 1) and not g.has_edge(0, n)
    for u, v in [(-1, n - 2), (-1, n - 1), (0, n), (n, 0)]:
        with pytest.raises(KeyError):
            g.edge_id(u, v)
    assert not is_hike(g, [0, -1, 0])


def test_graph_json_roundtrip_is_one_based():
    g = petersen_graph()
    payload = g.to_json()
    assert payload["n"] == 10 and payload["d"] == 3
    assert min(min(row) for row in payload["adj"]) == 1
    back = RegularGraph.from_json(payload)
    assert np.array_equal(back.adj, g.adj)
    assert back.content_hash() == g.content_hash()


def test_graph_json_rejects_non_integer_entries():
    for bad in (2.9, True, "3", 2 ** 70):
        payload = petersen_graph().to_json()
        payload["adj"][4][1] = bad
        with pytest.raises(ValueError) as exc:
            RegularGraph.from_json(payload)
        assert str(exc.value) == (f"adjacency label {bad!r} is not a 64-bit "
                                  "integer")
        payload = petersen_graph().to_json()
        payload["n"] = bad
        with pytest.raises(ValueError) as exc:
            RegularGraph.from_json(payload)
        assert str(exc.value) == f"graph size {bad!r} is not a 64-bit integer"


def _appended_rows(n, pairs):
    """The per-pair append loop the generators once ran."""
    nbrs = [[] for _ in range(n)]
    for a, b in pairs:
        nbrs[int(a)].append(int(b))
        nbrs[int(b)].append(int(a))
    return nbrs


def test_generators_match_the_append_loop_reference(monkeypatch):
    import abelift.graphs as graphs
    seen = []
    build = graphs._graph_from_pairs

    def spy(n, pairs):
        g = build(n, pairs)
        seen.append((g.adj.tolist(), _appended_rows(n, pairs)))
        return g
    monkeypatch.setattr(graphs, "_graph_from_pairs", spy)
    for seed in range(12):
        for n, d in [(2, 1), (4, 3), (10, 3), (12, 5), (20, 4), (50, 3)]:
            random_regular(n, d, seed=seed)
        for n, d in [(2, 1), (16, 14), (30, 14), (9, 4), (20, 6)]:
            random_regular_dense(n, d, seed=seed)
    assert len(seen) == 12 * 11
    for got, want in seen:
        assert got == want


def test_random_regular_on_four_vertices_is_k4():
    # K4 is the only simple 3-regular graph on 4 vertices
    for seed in range(5):
        g = random_regular(4, 3, seed=seed)
        assert np.array_equal(g.edges, complete_graph(4).edges)


def test_random_regular_rejects_odd_parity():
    with pytest.raises(ValueError, match="even"):
        random_regular(5, 3, seed=0)


def test_random_regular_is_simple_and_regular():
    g = random_regular(10, 3, seed=0)
    assert (g.n, g.d) == (10, 3)
    assert 2 * g.m == 30
    for u in range(10):
        row = [int(v) for v in g.adj[u]]
        assert u not in row and len(set(row)) == 3


def test_identity_signing_gives_disjoint_copies():
    base = cycle_graph(3)
    sg = Signing.identity(base, AbelianGroup.cyclic(2))
    with pytest.raises(ValueError, match="non-transitive"):
        lift(base, sg)
    doubled = lift(base, sg, allow_disconnected=True)
    assert doubled.n == 6 and doubled.d == 2
    assert component_count(doubled) == 2


def test_lift_refuses_exactly_the_lifts_with_more_components():
    # 1 on the three edges at vertex 0 of K4: the edge elements generate
    # Z_2, but every cycle voltage is 0, so the lift is two copies of K4
    base = complete_graph(4)
    at_zero = (base.edges == 0).any(axis=1).astype(np.int64)
    sg = Signing(base, AbelianGroup.cyclic(2), at_zero)
    assert sg.group.is_transitive(sg.values.tolist())
    with pytest.raises(ValueError, match="non-transitive"):
        lift(base, sg)
    assert component_count(lift(base, sg, allow_disconnected=True)) == 2
    # one flip on a cycle of K4 gives a connected double cover
    flip = np.zeros(base.m, dtype=np.int64)
    flip[0] = 1
    assert component_count(lift(base, Signing(base, sg.group, flip))) == 1
    # a disconnected base keeps its count: each K4 copy lifts connectedly
    two = disjoint_union(base, base)
    doubled = lift(two, Signing(two, sg.group, np.tile(flip, 2)))
    assert component_count(doubled) == 2
    with pytest.raises(ValueError, match="non-transitive"):
        lift(two, Signing(two, sg.group, np.tile(at_zero, 2)))


def test_single_flip_on_triangle_lifts_to_c6():
    base = cycle_graph(3)
    sg = Signing.identity(base, AbelianGroup.cyclic(2))
    sg.values[0] = [1]
    lifted = lift(base, sg)
    # connected 2-regular on 6 vertices: the hexagon
    assert (lifted.n, lifted.d) == (6, 2)
    assert component_count(lifted) == 1
    assert girth(lifted) == 6


def test_single_shift_on_square_lifts_to_c12():
    base = cycle_graph(4)
    sg = Signing.identity(base, AbelianGroup.cyclic(3))
    sg.values[0] = [1]
    lifted = lift(base, sg)
    assert (lifted.n, lifted.d) == (12, 2)
    assert component_count(lifted) == 1
    assert girth(lifted) == 12


def test_lift_vertex_layout_and_neighbor_order():
    base = complete_graph(4)
    group = AbelianGroup.cyclic(3)
    sg = Signing.random(base, group, seed=7)
    lifted = lift(base, sg, allow_disconnected=True)
    ell = group.fiber_size
    perms = {e: group.perm_of(sg.element(e)) for e in range(base.m)}
    for u in range(base.n):
        for i in range(ell):
            row = lifted.adj[u * ell + i]
            # neighbor j of (u, i) sits over neighbor j of u
            for j, v in enumerate(base.adj[u]):
                v = int(v)
                e = base.edge_id(u, v)
                fiber = perms[e][i] if u < v else int(np.argsort(perms[e])[i])
                assert row[j] == v * ell + fiber


def _reference_lift_table(base, signing):
    """The lifted neighbor table filled one base slot at a time."""
    group = signing.group
    ell = group.fiber_size
    perms = [group.perm_of(signing.element(e)) for e in range(base.m)]
    rows = np.empty((base.n * ell, base.d), dtype=np.int64)
    for u in range(base.n):
        for j in range(base.d):
            v = int(base.adj[u, j])
            e = base.edge_id(u, v)
            fiber_map = perms[e] if u < v else np.argsort(perms[e])
            rows[u * ell:(u + 1) * ell, j] = v * ell + fiber_map
    return rows


def test_lift_matches_the_per_slot_reference():
    split = AbelianGroup([2], [np.array([1, 0, 3, 2])])  # two orbits
    cases = [(complete_graph(4), AbelianGroup.cyclic(3)),
             (cycle_graph(5), AbelianGroup.cyclic(7)),
             (petersen_graph(), AbelianGroup.product([4, 2])),
             (random_regular(10, 4, seed=1), AbelianGroup.product([3, 3])),
             (random_regular(16, 3, seed=2), AbelianGroup.cyclic(16)),
             (random_regular(8, 3, seed=3), split)]
    for k, (base, group) in enumerate(cases):
        sg = Signing.random(base, group, seed=k)
        got = lift(base, sg, allow_disconnected=True).adj
        want = _reference_lift_table(base, sg)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    with pytest.raises(ValueError, match="non-transitive"):
        lift(base, sg)  # the last case acts by `split`


def test_lift_keeps_little_memory():
    # the lifted graph keeps adj, eid_table and edges: 3.4 MiB at l = 4096
    base = random_regular(16, 3, seed=0)
    sg = Signing.random(base, AbelianGroup.cyclic(4096), seed=0)
    tracemalloc.start()
    try:
        g = lift(base, sg)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.n == 16 * 4096
    assert kept <= 8 * 2 ** 20


def test_adjacency_matrix_refuses_above_the_dense_cap():
    with pytest.raises(ValueError, match="above the dense cap"):
        cycle_graph(MAX_DENSE_DIM + 1).adjacency_matrix()
    # lambda2 of a 65536-vertex graph would otherwise allocate 32 GiB
    g = cycle_graph(65536)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above the dense cap"):
            lambda2(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_lift_of_random_signing_is_regular_with_matching_spectrum_size():
    base = complete_graph(4)
    sg = Signing.random(base, AbelianGroup.cyclic(4), seed=3)
    lifted = lift(base, sg, allow_disconnected=True)
    assert (lifted.n, lifted.d) == (16, 3)


def test_signing_directed_values_invert():
    base = petersen_graph()
    group = AbelianGroup.product([4, 2])
    sg = Signing.random(base, group, seed=11)
    for u, v in base.edges:
        forward = sg.directed(u, v)
        assert sg.directed(v, u) == group.inverse(forward)


def test_signing_json_roundtrip():
    base = complete_graph(4)
    group = AbelianGroup.product([2, 3])
    sg = Signing.random(base, group, seed=5)
    payload = sg.to_json()
    assert all(len(item) == 3 for item in payload["edges"])
    assert min(item[0] for item in payload["edges"]) == 1
    back = Signing.from_json(base, payload)
    assert np.array_equal(back.values, sg.values)
    # triples in any order and orientation land on their own edges
    es = payload["edges"]
    payload["edges"] = [[v, u, exps] for u, v, exps in es[2:] + es[:2]]
    back = Signing.from_json(base, payload)
    assert np.array_equal(back.values, sg.values)


def test_signing_json_rejects_missing_edges():
    base = cycle_graph(4)
    sg = Signing.identity(base, AbelianGroup.cyclic(2))
    payload = sg.to_json()
    payload["edges"] = payload["edges"][:-1]
    with pytest.raises(ValueError, match="misses"):
        Signing.from_json(base, payload)


def _edit_signing(edit):
    """Z2 x Z4 signing of random_regular(6, 3, seed=0) whose triples,
    edge (1, 2) first, went through `edit`."""
    base = random_regular(6, 3, seed=0)
    payload = Signing.random(base, AbelianGroup.product([2, 4]),
                             seed=1).to_json()
    payload["edges"] = edit(payload["edges"])
    return base, payload


@pytest.mark.parametrize("edit, message", [
    (lambda es: [es[0][:2] + [[1]]] + es[1:],
     "signing edge (1, 2) has exponent row [1], but the group has 2 "
     "factors"),
    (lambda es: [es[0][:2] + [3]] + es[1:],
     "signing edge (1, 2) has exponent row 3"),
    (lambda es: es + [es[3]], "signing lists edge (2, 3) more than once"),
    (lambda es: es + [[es[3][1], es[3][0], [0, 0]]],
     "signing lists edge (2, 3) more than once"),
    (lambda es: [[1, 1, [0, 0]]] + es[1:],
     "signing pair (1, 1) is not a base edge"),
    (lambda es: [[1, 3, [0, 0]]] + es[1:],
     "signing pair (1, 3) is not a base edge"),
    # label 0 is vertex -1: a lookup wrapping to adj[-1] would find 5
    (lambda es: [[0, 5, [0, 0]]] + es[1:],
     "signing pair (0, 5) is not a base edge"),
    (lambda es: [[1, 7, [0, 0]]] + es[1:],
     "signing pair (1, 7) is not a base edge"),
    (lambda es: [[1, 2.9, [0, 0]]] + es[1:],
     "signing entry 2.9 is not a 64-bit integer"),
    (lambda es: [[1, 2, [0, 1.5]]] + es[1:],
     "signing entry 1.5 is not a 64-bit integer"),
    (lambda es: [[1, 2 ** 70, [0, 0]]] + es[1:],
     f"signing entry {2 ** 70} is not a 64-bit integer"),
    (lambda es: es[1:], "signing file misses some base edges"),
], ids=["short-row", "scalar-row", "repeated", "repeated-reversed",
        "loop-pair", "non-edge", "label-zero", "label-above-n",
        "float-label", "float-exponent", "huge-label", "missing"])
def test_signing_json_names_the_malformed_triple(edit, message):
    base, payload = _edit_signing(edit)
    with pytest.raises(ValueError) as exc:
        Signing.from_json(base, payload)
    assert str(exc.value).startswith(message)


def test_action_transitivity_detection():
    z4 = AbelianGroup.cyclic(4)
    assert z4.is_transitive([(1,)])
    assert z4.is_transitive([(2,), (3,)])
    assert not z4.is_transitive([(0,)])
    assert not z4.is_transitive([(2,)])


def test_trivial_character_reproduces_adjacency():
    base = petersen_graph()
    sg = Signing.random(base, AbelianGroup.cyclic(6), seed=1)
    op = signed_adjacency(sg, (0,))
    assert np.array_equal(op.real, base.adjacency_matrix())
    assert np.abs(op.imag).max() == 0.0


def test_one_signed_edge_on_triangle_has_eigenvalues_1_1_minus2():
    base = cycle_graph(3)
    sg = Signing.identity(base, AbelianGroup.cyclic(2))
    sg.values[2] = [1]
    op = signed_adjacency(sg, (1,))
    eigs = np.sort(np.linalg.eigvalsh(op))
    assert np.allclose(eigs, [-2.0, 1.0, 1.0], atol=1e-12)


def test_order_four_generator_gives_conjugate_pair():
    base = cycle_graph(3)
    sg = Signing.identity(base, AbelianGroup.cyclic(4))
    sg.values[0] = [1]  # edge (0, 1)
    op = signed_adjacency(sg, (1,))
    assert op[0, 1] == pytest.approx(1j)
    assert op[1, 0] == pytest.approx(-1j)


def test_signed_adjacency_is_hermitian():
    base = petersen_graph()
    sg = Signing.random(base, AbelianGroup.product([4, 3]), seed=9)
    for chi in [(1, 0), (3, 2), (2, 1)]:
        mat = signed_adjacency(sg, chi)
        assert np.array_equal(mat, mat.conj().T)


def test_nonbacktracking_structure():
    base = complete_graph(4)
    mat = nonbacktracking(base)
    assert mat.shape == (12, 12)
    # reversal pairs never connect
    for u, v in base.directed_edges():
        assert mat[base.directed_index(u, v), base.directed_index(v, u)] == 0
    # each row feeds the d-1 continuations of its head
    assert np.all(np.abs(mat).sum(axis=1) == base.d - 1)
    # a genuine two-step continuation
    assert mat[base.directed_index(0, 1), base.directed_index(1, 2)] == 1.0
    radius = np.abs(np.linalg.eigvals(mat)).max()
    assert radius == pytest.approx(base.d - 1, abs=1e-9)


def test_signed_nonbacktracking_matches_character_values():
    base = cycle_graph(4)
    group = AbelianGroup.cyclic(3)
    sg = Signing.random(base, group, seed=2)
    op = signed_nonbacktracking(sg, (1,))
    assert op.shape == (8, 8)
    for u, v in base.directed_edges():
        assert op[base.directed_index(u, v), base.directed_index(v, u)] == 0
    sums = np.abs(op).sum(axis=1)
    assert np.allclose(sums, base.d - 1)
    # entry ((u,v),(v,w)) carries chi of the signing on (v,w)
    f = base.directed_index(1, 2)
    g = base.directed_index(2, 3)
    expect = group.char_value((1,), sg.directed(2, 3))
    assert op[f, g] == pytest.approx(expect)


def test_nonbacktracking_is_the_trivial_character():
    base = petersen_graph()
    sg = Signing.random(base, AbelianGroup.product([2, 3]), seed=3)
    B = signed_nonbacktracking(sg, (0, 0))
    assert np.array_equal(nonbacktracking(base), B.real)
    assert not B.imag.any()


def test_girth_values():
    assert girth(complete_graph(4)) == 3
    assert girth(cycle_graph(5)) == 5
    assert girth([[1], [0, 2], [1]]) == math.inf  # path on three vertices


def test_bicycle_free_radius_values():
    assert bicycle_free_radius(complete_graph(4)) == 0
    assert bicycle_free_radius(petersen_graph()) == 1
    assert bicycle_free_radius(cycle_graph(8)) == math.inf


def _reference_bicycle_free_radius(rows):
    """One fresh BFS ball per (radius, root), as in the radius-major scan."""
    def excess(root, radius):
        ball = _ball(rows, root, radius)
        edges = sum(1 for x in ball for y in rows[x] if y in ball and y > x)
        return edges - len(ball)
    for r in range(len(rows) + 1):
        if any(excess(v, r) > 0 for v in range(len(rows))):
            return r - 1
    return math.inf


def _reference_component_count(rows):
    seen = [False] * len(rows)
    comps = 0
    for s in range(len(rows)):
        if seen[s]:
            continue
        comps += 1
        seen[s] = True
        frontier = [s]
        while frontier:
            for y in rows[frontier.pop()]:
                if not seen[y]:
                    seen[y] = True
                    frontier.append(y)
    return comps


def _graph_families():
    """Regular graphs, forests, unions and loose irregular neighbor lists."""
    fams = [cycle_graph(3), cycle_graph(8), cycle_graph(31), complete_graph(4),
            complete_graph(6), petersen_graph(),
            random_regular(12, 3, seed=1), random_regular(20, 4, seed=2),
            disjoint_union(cycle_graph(5), cycle_graph(9)),
            disjoint_union(petersen_graph(), complete_graph(4))]
    for ell, seed in ((2, 0), (4, 1), (8, 2), (32, 3)):
        base = random_regular(8, 3, seed=seed)
        fams.append(lift(base, Signing.random(base, AbelianGroup.cyclic(ell),
                                              seed=seed),
                         allow_disconnected=True))
    fams.append(lift(cycle_graph(5),
                     Signing.identity(cycle_graph(5), AbelianGroup.cyclic(3)),
                     allow_disconnected=True))  # three disjoint pentagons
    loose = [
        [],  # the empty graph
        [[]], [[], []],  # isolated vertices
        [[1], [0, 2], [1]],  # a path
        [[1, 2, 3], [0], [0, 4, 5], [0], [2], [2]],  # a tree
        [[1], [0], [3], [2, 4], [3]],  # a forest
        # bowtie: two triangles sharing vertex 0
        [[1, 2, 3, 4], [0, 2], [0, 1], [0, 4], [0, 3]],
        # two triangles joined by a path, plus a pendant path
        [[1, 2], [0, 2], [0, 1, 3], [2, 4], [3, 5, 6], [4, 6], [4, 5, 7],
         [6, 8], [7]],
        # a triangle whose vertex 0 also lists itself; loops add no edge
        [[0, 1, 2], [0, 2], [0, 1]],
        # theta graph: two vertices joined by three paths
        [[2, 3, 4], [5, 6, 4], [0, 5], [0, 6], [0, 1], [2, 1], [3, 1]],
        # a cycle with a chord far from most roots
        [[(i - 1) % 12, (i + 1) % 12] + ([6] if i == 0 else [0] if i == 6
                                         else []) for i in range(12)],
    ]
    rng = np.random.default_rng(5)
    for n, p in ((15, 0.12), (25, 0.08), (40, 0.05)):
        adj = np.triu(rng.random((n, n)) < p, 1)
        adj = adj | adj.T
        loose.append([np.flatnonzero(row).tolist() for row in adj])
    return fams + loose


def test_bicycle_free_radius_and_components_match_the_reference_loops():
    for graph in _graph_families():
        rows = ([list(map(int, r)) for r in graph.adj]
                if isinstance(graph, RegularGraph) else graph)
        assert bicycle_free_radius(graph) == \
            _reference_bicycle_free_radius(rows)
        count = component_count(graph)
        assert type(count) is int
        assert count == _reference_component_count(rows)


def test_bicycle_free_radius_of_a_long_cycle():
    # one BFS per root: the radius-major scan of fresh balls took about 30 s
    assert bicycle_free_radius(cycle_graph(400)) == math.inf
    rows = cycle_graph(60).neighbor_lists()
    rows[0].append(30)
    rows[30].append(0)
    assert bicycle_free_radius(rows) == _reference_bicycle_free_radius(rows)
