"""DFS traces, subgraph encodings, hike enumeration, and counting bounds."""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest

from abelift.graphs import (complete_graph, cycle_graph, petersen_graph,
                            random_regular)
from abelift.hikes import (DecodeError, EdgeSubgraph, GraphEncoding,
                           binary_entropy, count_bounds, decode_graph, dfs,
                           encode_graph, enumerate_hikes, hike_encoding,
                           hike_encoding_count, hike_graph, is_hike,
                           mop_excess_check, singleton_free)


def _connected_subgraphs(G, max_edges):
    """All connected EdgeSubgraphs of G with at most max_edges edges."""
    out = []
    for size in range(1, max_edges + 1):
        for combo in itertools.combinations(G.edges, size):
            sub = EdgeSubgraph.from_edges(combo)
            labels, rows = sub.neighbor_rows()
            seen = {0}
            frontier = [0]
            while frontier:
                x = frontier.pop()
                for y in rows[x]:
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
            if len(seen) == len(labels):
                out.append(sub)
    return out


def test_dfs_single_edge():
    g = complete_graph(4)
    sub = EdgeSubgraph.from_edges([(0, 1)])
    trav, sigma = dfs(g, 0, sub)
    assert trav == [(0, 1)]
    assert sigma == "RB"


def test_dfs_triangle():
    g = cycle_graph(3)
    trav, sigma = dfs(g, 0)
    assert sigma == "RRRBBB"
    # one closed walk around the triangle, direction set by neighbor order
    assert trav == [(0, 2), (2, 1), (1, 0)]


def test_dfs_star_from_center():
    g = complete_graph(4)
    sub = EdgeSubgraph.from_edges([(0, 1), (0, 2), (0, 3)])
    trav, sigma = dfs(g, 0, sub)
    assert sigma == "RBRBRB"
    assert trav == [(0, 1), (0, 2), (0, 3)]


def test_dfs_trace_shape_on_whole_graphs():
    for g in (complete_graph(4), petersen_graph()):
        for start in range(g.n):
            trav, sigma = dfs(g, start)
            assert len(trav) == g.m  # each edge once
            assert (sorted([min(u, v), max(u, v)] for u, v in trav)
                    == g.edges.tolist())
            assert len(sigma) == 2 * g.m
            assert sigma.count("R") == g.m and sigma.count("B") == g.m


def test_dfs_rejects_subgraph_vertices_outside_the_host():
    g = complete_graph(4)
    for v in (99, 4, -1):
        sub = EdgeSubgraph(frozenset({0, v}), frozenset())
        with pytest.raises(ValueError, match="missing from the host graph"):
            dfs(g, 0, sub)
    with pytest.raises(ValueError, match="missing from the host graph"):
        encode_graph(g, EdgeSubgraph.from_edges([(0, 99)]), 0)


def test_subgraph_edge_endpoints_must_be_among_its_vertices():
    for vertices, edges in (({0}, {(0, 1)}), (set(), {(2, 3)}),
                            ({0, 2}, {(0, 1), (0, 2)})):
        with pytest.raises(ValueError, match="edge endpoint missing"):
            EdgeSubgraph(frozenset(vertices), frozenset(edges))
    sub = EdgeSubgraph(frozenset({0, 1, 2}), frozenset({(0, 1)}))
    assert sub.excess() == -2


def test_dfs_rejects_disconnected():
    g = complete_graph(4)
    sub = EdgeSubgraph.from_edges([(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="disconnected"):
        dfs(g, 0, sub)


def test_encode_single_edge():
    g = complete_graph(4)
    sub = EdgeSubgraph.from_edges([(0, 1)])
    enc = encode_graph(g, sub, 0, mode=1)
    assert enc.sigma == "RB"
    assert len(enc.degree_indices) == 1
    assert decode_graph(g, enc) == sub


def test_roundtrip_small_subgraphs_of_k4():
    g = complete_graph(4)
    for sub in _connected_subgraphs(g, 6):
        for start in sorted(sub.vertices):
            for mode in (1, 2):
                enc = encode_graph(g, sub, start, mode=mode)
                assert decode_graph(g, enc) == sub


def test_roundtrip_spot_checks_on_petersen():
    g = petersen_graph()
    rng = np.random.default_rng(0)
    edges = list(g.edges)
    done = 0
    while done < 40:
        size = int(rng.integers(1, 7))
        pick = rng.choice(len(edges), size=size, replace=False)
        sub = EdgeSubgraph.from_edges([edges[i] for i in pick])
        labels, rows = sub.neighbor_rows()
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for y in rows[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        if len(seen) != len(labels):
            continue
        start = int(rng.choice(sorted(sub.vertices)))
        for mode in (1, 2):
            enc = encode_graph(g, sub, start, mode=mode)
            assert decode_graph(g, enc) == sub
        done += 1


def test_encodings_are_injective_per_start():
    g = complete_graph(4)
    for mode in (1, 2):
        by_start: dict[int, dict] = {}
        for sub in _connected_subgraphs(g, 5):
            for start in sorted(sub.vertices):
                enc = encode_graph(g, sub, start, mode=mode)
                key = (enc.start, enc.degree_indices, enc.sigma, enc.counts)
                assert key not in by_start.get(start, {}), "encoding collision"
                by_start.setdefault(start, {})[key] = sub


def test_encodings_match_the_recorded_hash():
    # SHA-256 of every encoding of the connected subgraphs of K4 with at
    # most 4 edges and of Petersen with at most 3, from every start in both
    # modes: any change to an encoding changes it
    records = []
    for g, max_edges in ((complete_graph(4), 4), (petersen_graph(), 3)):
        for sub in _connected_subgraphs(g, max_edges):
            for start in sorted(sub.vertices):
                for mode in (1, 2):
                    enc = encode_graph(g, sub, start, mode=mode)
                    records.append([
                        sorted([int(u), int(v)] for u, v in sub.edges),
                        int(start), int(enc.mode), int(enc.start),
                        [int(i) for i in enc.degree_indices], enc.sigma,
                        None if enc.counts is None
                        else [int(c) for c in enc.counts]])
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert len(records) == 1168
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5cef645b3474dd5631497317b9f09bd363d44a20b8074664b44a665f9a4f15db")


# one malformed encoding on K4 (rows 0: 1 2 3, 1: 0 2 3, 2: 0 1 3) per
# DecodeError message, in each mode the message belongs to
_MALFORMED = [
    (GraphEncoding(1, 4, (), sigma="RB"), "start vertex out of range"),
    (GraphEncoding(2, -1, (), counts=(0,)), "start vertex out of range"),
    (GraphEncoding(3, 0, (0,), sigma="RB"), "unknown encoding mode"),
    (GraphEncoding(1, 0, (), sigma="RB"), "degree index sequence exhausted"),
    (GraphEncoding(2, 0, (), counts=(1, 0)),
     "degree index sequence exhausted"),
    (GraphEncoding(1, 0, (3,), sigma="RB"),
     "degree index out of range at the start vertex"),
    (GraphEncoding(2, 0, (-1,), counts=(1, 0)),
     "degree index out of range at the start vertex"),
    (GraphEncoding(1, 0, (0, 2), sigma="RRBB"), "degree index out of range"),
    (GraphEncoding(2, 0, (0, 2), counts=(1, 1, 0)),
     "degree index out of range"),
    # 0 -> 1 -> 2 -> 0 closes the triangle, then 2 -> 0 again
    (GraphEncoding(1, 0, (0, 0, 0, 0), sigma="RRRBRB"),
     "edge repeated in trace"),
    (GraphEncoding(2, 0, (0, 0, 0, 0), counts=(1, 1, 2)),
     "edge repeated in trace"),
    (GraphEncoding(1, 0, (0, 0), sigma="RB"), "unused degree indices"),
    (GraphEncoding(2, 0, (0, 0), counts=(1, 0)), "unused degree indices"),
    (GraphEncoding(1, 0, (0,), sigma="BB"),
     "stack underflow (too many B symbols)"),
    (GraphEncoding(1, 0, (0, 0, 0), sigma="RRRR"),
     "missing forced backtrack after a revisit"),
    (GraphEncoding(1, 0, (), sigma="X"), "bad trace symbol 'X'"),
    (GraphEncoding(1, 0, (0,), sigma="R"), "trace ended mid-traversal"),
    (GraphEncoding(2, 0, ()), "empty count sequence"),
    (GraphEncoding(2, 0, (0,), counts=(1,)),
     "more vertices visited than counted"),
    (GraphEncoding(2, 0, (), counts=(0, 0)),
     "fewer vertices visited than counted"),
    (GraphEncoding(2, 0, (), counts=(-1,)), "unconsumed recursive calls"),
    # two faults at once: the message names the one checked first
    (GraphEncoding(3, 4, ()), "start vertex out of range"),
    (GraphEncoding(1, 0, (0, 0), sigma="R"), "trace ended mid-traversal"),
    (GraphEncoding(2, 0, (0,), counts=(0, 0)), "unused degree indices"),
    (GraphEncoding(2, 0, (0,), counts=(-1,)), "unused degree indices"),
    (GraphEncoding(2, 0, (), counts=(-1, 0)),
     "fewer vertices visited than counted"),
]


def test_malformed_table_covers_every_decode_error():
    assert len({message for _, message in _MALFORMED}) == 15


@pytest.mark.parametrize("enc, message", _MALFORMED,
                         ids=[f"mode{e.mode}-{m}" for e, m in _MALFORMED])
def test_decode_rejects_malformed_encoding(enc, message):
    with pytest.raises(DecodeError) as excinfo:
        decode_graph(complete_graph(4), enc)
    assert str(excinfo.value) == message


def test_decode_malformed_sigma_underflows():
    g = complete_graph(4)
    enc = GraphEncoding(1, 0, (0,), sigma="BB")
    with pytest.raises(DecodeError):
        decode_graph(g, enc)


def test_decode_degree_index_out_of_range():
    g = complete_graph(4)
    # second step may only index d - 1 = 2 positions
    enc = GraphEncoding(1, 0, (0, 2), sigma="RRBB")
    with pytest.raises(DecodeError, match="out of range"):
        decode_graph(g, enc)


def test_is_hike_and_singleton_free():
    g = cycle_graph(3)
    assert is_hike(g, [0, 1, 0])
    assert is_hike(g, [0, 1, 2, 1, 0])  # backtrack only at step k+1
    assert not is_hike(g, [0, 1, 0, 1, 0])  # backtrack at step 2
    assert not is_hike(g, [0, 1, 2])  # open
    assert not is_hike(g, [0, 1, 2, 0])  # even step count
    assert singleton_free([0, 1, 0])
    assert singleton_free([0, 1, 2, 1, 0])
    assert not singleton_free([0, 1, 2, 0])


def test_hike_counts_match_brute_force_values():
    assert enumerate_hikes(complete_graph(4), 1) == 12
    assert enumerate_hikes(cycle_graph(3), 1) == 6
    assert enumerate_hikes(cycle_graph(3), 2) == 6
    assert enumerate_hikes(complete_graph(4), 2) == 24
    assert enumerate_hikes(complete_graph(4), 2, singleton_free_only=False) == 48
    assert enumerate_hikes(complete_graph(4), 3) == 72


def test_enumerated_walks_agree_with_counts():
    g = complete_graph(4)
    walks = enumerate_hikes(g, 2, return_walks=True)
    assert len(walks) == 24
    for w in walks:
        assert is_hike(g, w) and singleton_free(w)
        sub = hike_graph(w)
        deg_one = sum(1 for v in sub.vertices if sub.degree(v) == 1)
        assert deg_one <= 2
        assert sub.n_edges <= 2  # 2k steps, every edge covered twice


def test_enumeration_guard():
    with pytest.raises(ValueError, match="budget"):
        enumerate_hikes(petersen_graph(), 12)


def test_enumeration_at_k10_is_quick_and_matches_the_oracle(nb_walk_counts):
    # 40 (3 * 2^9)^2 = 9.4e7 worst-case ordered pairs, inside the budget
    g = random_regular(40, 3, seed=0)
    t0 = time.perf_counter()
    every = enumerate_hikes(g, 10, singleton_free_only=False)
    free = enumerate_hikes(g, 10)
    assert time.perf_counter() - t0 < 1.0
    assert every == int((nb_walk_counts(g, 10) ** 2).sum())
    assert 0 < free < every


def test_enumerated_walks_come_in_depth_first_order(recursive_hikes):
    for g in (complete_graph(4), cycle_graph(5), petersen_graph(),
              random_regular(10, 3, seed=1)):
        for k in (1, 2, 3):
            for sf in (True, False):
                assert enumerate_hikes(g, k, singleton_free_only=sf,
                                       return_walks=True) == list(
                    recursive_hikes(g, k, sf))


def test_enumerated_walks_are_not_bounded_by_the_recursion_depth():
    # a recursion per step would exceed Python's default limit of 1000
    walks = enumerate_hikes(cycle_graph(4), 514, return_walks=True)
    assert len(walks) == 16 == enumerate_hikes(cycle_graph(4), 514)
    assert all(len(w) == 2 * 514 + 1 and w[0] == w[-1] for w in walks)


def test_hike_graph_shapes():
    edge = hike_graph([0, 1, 0])
    assert edge.edges == frozenset({(0, 1)})
    path = hike_graph([0, 1, 2, 1, 0])
    assert path.edges == frozenset({(0, 1), (1, 2)})
    assert sorted(path.degree(v) for v in path.vertices) == [1, 1, 2]
    twice_around = hike_graph([0, 1, 2, 0, 1, 2, 0])
    assert twice_around.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_excess_and_excess_set():
    star = EdgeSubgraph.from_edges([(0, 1), (0, 2), (0, 3)])
    assert star.excess() == -1
    assert star.excess_set() == frozenset({0})
    ring = hike_graph([0, 1, 2, 0, 1, 2, 0])
    assert ring.excess() == 0
    assert ring.excess_set() == frozenset()
    k4 = EdgeSubgraph.from_edges(complete_graph(4).edges)
    assert k4.excess() == 2
    assert k4.excess_set() == frozenset({0, 1, 2, 3})


def test_count_bounds_frozen_values():
    b = count_bounds(10, 3, 4, 2)
    assert b.gamma1 == pytest.approx(3.29024101186092, abs=1e-12)
    # independent evaluation of the same formula
    direct = 1 + math.log2(10 * 2 * 4) / 8 + math.log2(2 * 4) / 2
    assert b.gamma1 == pytest.approx(direct, abs=1e-12)
    assert b.bound1 == pytest.approx((2 ** direct * math.sqrt(2)) ** 8)
    assert b.r_used == 2 and not b.r_floored


def test_count_bounds_dominate_k4_enumeration():
    count = enumerate_hikes(complete_graph(4), 3)
    b = count_bounds(4, 3, 3, 0)  # bicycle-free radius 0 floors to 1
    assert b.r_floored and b.r_used == 1
    assert count <= b.bound1
    assert b.bound1 == pytest.approx(4478976.0, rel=1e-9)


def test_count_bounds_second_regime():
    b = count_bounds(20, 3, 3, 12, delta=0.1)
    assert b.gamma2 is not None and b.bound2 is not None
    direct = (math.log2(16 * 20 * 27 * 12 * 3) / 6 + math.log2(36) / 12
              + binary_entropy(0.5) / 2 + 0.1 * math.log2(3))
    assert b.gamma2 == pytest.approx(direct, abs=1e-12)


def test_count_bounds_guards():
    with pytest.raises(ValueError, match="degree"):
        count_bounds(10, 2, 3, 2)
    with pytest.raises(ValueError, match="exp"):
        count_bounds(10, 3, 100, 10, delta=0.1)
    with pytest.raises(ValueError, match="delta"):
        count_bounds(10, 3, 3, 10, delta=0.5)
    with pytest.raises(ValueError, match="k >= 3"):
        count_bounds(10, 3, 2, 10, delta=0.1)


def test_mop_excess_on_long_cycle():
    rep = mop_excess_check(cycle_graph(100), 50)
    assert rep.hypothesis_ok
    assert rep.excess == 0
    assert rep.bound == pytest.approx(11.210340371976182, abs=1e-12)
    assert rep.passed is True


def test_mop_excess_hypothesis_failure_is_reported():
    rep = mop_excess_check(complete_graph(4), 2)
    assert not rep.hypothesis_ok
    assert rep.passed is None


def test_mop_excess_rejects_r_below_one():
    for r in (0, -1):
        with pytest.raises(ValueError, match="r must be >= 1"):
            mop_excess_check(petersen_graph(), r)


def test_mop_excess_on_tree():
    star = EdgeSubgraph.from_edges([(0, 1), (0, 2), (0, 3)])
    rep = mop_excess_check(star, 14)  # 10 ln 4 = 13.86
    assert rep.hypothesis_ok and rep.passed is True
    assert rep.excess == -1


def test_mop_excess_sweep_on_girth_six_graph():
    g = petersen_graph()  # girth 5; close enough for small-k hike graphs
    for w in enumerate_hikes(g, 2, return_walks=True):
        sub = hike_graph(w)
        rep = mop_excess_check(sub, 30)
        if rep.hypothesis_ok:
            assert rep.passed is True


def test_hike_encoding_on_c8():
    g = cycle_graph(8)
    walk = [0, 1, 2, 3, 4, 5, 6, 7, 0]
    enc = hike_encoding(g, walk, 4)
    assert enc.endpoints == (4, 0)
    assert enc.winding == (1, 0)
    assert hike_encoding_count(4, 4, 8) == (4 * 8) ** 2


def test_hike_encoding_rejects_non_hikes():
    g = cycle_graph(8)
    with pytest.raises(ValueError, match="not a hike"):
        hike_encoding(g, [0, 1, 2, 3], 4)


def test_hike_encoding_on_the_triangle_at_radius_one():
    # every radius-1 ball is the whole triangle; the one-step segment 0 -> 1
    # crosses the reference edge once, within ceil(1 / 3) turns
    enc = hike_encoding(cycle_graph(3), (0, 1, 2, 1, 0), 1)
    assert enc.endpoints == (1, 2, 1, 0)
    assert enc.winding == (1, 0, 0, -1)


def test_hike_encoding_on_petersen_at_radius_one():
    # girth 5: every radius-1 ball is a star, a tree trimmed to an empty
    # 2-core, so each one-step segment winds zero times
    walk = (0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0)  # the outer pentagon, twice
    enc = hike_encoding(petersen_graph(), walk, 1)
    assert enc.endpoints == walk[1:]
    assert enc.winding == (0,) * 10
