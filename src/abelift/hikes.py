"""Closed walk enumeration, DFS shape encodings, and counting bounds.

A k-hike is a closed walk of 2k steps that is non-backtracking at every
step except step k + 1 (1-based), with no constraint across the closing
point.  Singleton-free means every undirected edge is used either zero
times or at least twice.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .graphs import (DENSE_BYTES, RegularGraph, _ball, _neighbor_rows,
                     bicycle_free_radius)


class DecodeError(ValueError):
    """Malformed encoding fed to a decoder."""


@dataclass(frozen=True)
class EdgeSubgraph:
    """A sub(multi)set of a host graph's vertices and undirected edges."""

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if any(u not in self.vertices or v not in self.vertices
               for u, v in self.edges):
            raise ValueError("subgraph edge endpoint missing from its "
                             "vertices")

    @staticmethod
    def from_edges(edges: Iterable[tuple[int, int]],
                   extra_vertices: Iterable[int] = ()) -> "EdgeSubgraph":
        es = frozenset((min(u, v), max(u, v)) for u, v in edges)
        if any(u == v for u, v in es):
            raise ValueError("self-loop in edge set")
        return EdgeSubgraph(frozenset(extra_vertices).union(*es), es)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def excess(self) -> int:
        return self.n_edges - self.n_vertices

    def excess_set(self) -> frozenset[int]:
        """Vertices of degree above two."""
        degree = Counter(v for edge in self.edges for v in edge)
        return frozenset(v for v, c in degree.items() if c > 2)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def neighbor_rows(self) -> tuple[list[int], list[list[int]]]:
        """(sorted vertex labels, neighbor lists over local indices)."""
        labels = sorted(self.vertices)
        index = {v: i for i, v in enumerate(labels)}
        rows: list[list[int]] = [[] for _ in labels]
        for u, v in sorted(self.edges):
            rows[index[u]].append(index[v])
            rows[index[v]].append(index[u])
        return labels, rows


# ---------------------------------------------------------------------------
# DFS traversal with the three-state coloring and its string trace
# ---------------------------------------------------------------------------

def _subgraph_neighbor_sets(G: RegularGraph,
                            sub: EdgeSubgraph | None) -> dict[int, set[int]]:
    """Each traversed vertex's neighbors, restricted to the subgraph."""
    if sub is None:
        return {v: set(row) for v, row in enumerate(G.adj.tolist())}
    ends = np.array(list(sub.edges), dtype=np.int64).reshape(-1, 2)
    if (any(not 0 <= v < G.n for v in sub.vertices)
            or not G._lookup(ends[:, 0], ends[:, 1])[1].all()):
        raise ValueError("subgraph vertex or edge missing from the host graph")
    return {v: {u for u in G.adj[v].tolist() if sub.has_edge(v, u)}
            for v in sub.vertices}

_GREEN, _YELLOW, _RED = 0, 1, 2


def dfs(G: RegularGraph, start: int,
        subgraph: EdgeSubgraph | None = None) -> tuple[list[tuple[int, int]], str]:
    """Depth-first traversal emitting one R per edge step and one B per return.

    Fresh vertices turn yellow while on the stack and red once exhausted;
    stepping onto a yellow vertex bounces straight back.  Returns the
    directed edge sequence and the R/B trace with the final root B dropped,
    so the trace has exactly 2 * n_edges symbols.
    """
    trav, sigma, _, _ = _dfs_run(G, start, subgraph)
    return trav, sigma


def _dfs_run(G, start, subgraph):
    """The traversal plus, per forward step, its degree index (the slot in
    the host row with the parent's slot removed) and, per vertex in visit
    order, its recursive call count."""
    nbrs = _subgraph_neighbor_sets(G, subgraph)
    if start not in nbrs:
        raise ValueError("start vertex not in the traversed vertex set")
    rows = G.adj.tolist()
    color = {v: _GREEN for v in nbrs}
    trav: list[tuple[int, int]] = []
    sigma: list[str] = []
    indices: list[int] = []
    rec_counts = {start: 0}  # insertion order is visit order

    color[start] = _YELLOW
    # frame: vertex, its host row without the parent, next slot to try
    stack: list[list] = [[start, rows[start], 0]]
    while stack:
        frame = stack[-1]
        v, row, pos = frame
        for j in range(pos, len(row)):
            u = row[j]
            if u in nbrs[v] and color[u] != _RED:
                break
        else:
            color[v] = _RED
            sigma.append("B")
            stack.pop()
            continue
        frame[2] = j + 1
        sigma.append("R")
        rec_counts[v] += 1
        trav.append((v, u))
        indices.append(j)
        if color[u] == _GREEN:
            color[u] = _YELLOW
            rec_counts[u] = 0
            stack.append([u, [x for x in rows[u] if x != v], 0])
        else:
            sigma.append("B")
    if any(c != _RED for c in color.values()):
        raise ValueError("traversal did not reach every vertex (disconnected)")
    return trav, "".join(sigma[:-1]), indices, tuple(rec_counts.values())


@dataclass(frozen=True)
class GraphEncoding:
    """DFS shape encoding of a connected subgraph.

    One DFS records the R/B trace, the per-vertex recursive call counts in
    visitation order and the degree index of every forward step (its slot
    in the host row with the parent's slot removed).  mode 1 keeps the
    trace, mode 2 the counts; both keep the degree indices.
    """

    mode: int
    start: int
    degree_indices: tuple[int, ...]
    sigma: str | None = None
    counts: tuple[int, ...] | None = None


def encode_graph(G: RegularGraph, sub: EdgeSubgraph | None, start: int,
                 mode: int = 1) -> GraphEncoding:
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    _, sigma, indices, counts = _dfs_run(G, start, sub)
    if mode == 1:
        return GraphEncoding(1, start, tuple(indices), sigma=sigma)
    return GraphEncoding(2, start, tuple(indices), counts=counts)


def _neighbor_from_index(G: RegularGraph, v: int, parent: int | None,
                         idx: int) -> int:
    row = G.adj[v].tolist()
    if parent is None:
        if not 0 <= idx < len(row):
            raise DecodeError("degree index out of range at the start vertex")
        return row[idx]
    if not 0 <= idx < len(row) - 1:
        raise DecodeError("degree index out of range")
    pj = row.index(parent)
    return row[idx] if idx < pj else row[idx + 1]


def decode_graph(G: RegularGraph, enc: GraphEncoding) -> EdgeSubgraph:
    """Rebuild the subgraph a GraphEncoding describes; inverse of encode_graph.

    One replay serves both modes: the top vertex of the stack steps along
    its next degree index or returns.  Mode 1 reads that choice from the
    trace (R or B) and must bounce back after a revisit; mode 2 steps while
    the vertex has recursive calls left.
    """
    if not 0 <= enc.start < G.n:
        raise DecodeError("start vertex out of range")
    if enc.mode not in (1, 2):
        raise DecodeError("unknown encoding mode")
    sigma = enc.sigma or ""
    remaining = list(enc.counts or ())
    if enc.mode == 2 and not remaining:
        raise DecodeError("empty count sequence")
    stack = [(enc.start, None, 0)]  # vertex, its parent, its visit index
    seen = {enc.start}
    edges: set[tuple[int, int]] = set()  # one per degree index used
    pos = 0
    while (pos < len(sigma)) if enc.mode == 1 else stack:
        if not stack:
            raise DecodeError("stack underflow (too many B symbols)")
        v, p, j = stack[-1]
        if enc.mode == 1:
            c = sigma[pos]
            pos += 1
            if c not in ("R", "B"):
                raise DecodeError(f"bad trace symbol {c!r}")
            steps = c == "R"
        else:
            steps = remaining[j] > 0
            if steps:
                remaining[j] -= 1
        if not steps:
            stack.pop()
            continue
        if len(edges) >= len(enc.degree_indices):
            raise DecodeError("degree index sequence exhausted")
        u = _neighbor_from_index(G, v, p, enc.degree_indices[len(edges)])
        e = (min(u, v), max(u, v))
        if e in edges:
            raise DecodeError("edge repeated in trace")
        edges.add(e)
        if u not in seen:
            if enc.mode == 2 and len(seen) >= len(remaining):
                raise DecodeError("more vertices visited than counted")
            stack.append((u, v, len(seen)))
            seen.add(u)
        elif enc.mode == 1:
            # stepping onto an open vertex bounces straight back
            if sigma[pos:pos + 1] != "B":
                raise DecodeError("missing forced backtrack after a revisit")
            pos += 1
    if enc.mode == 1 and len(stack) != 1:
        raise DecodeError("trace ended mid-traversal")
    if len(edges) != len(enc.degree_indices):
        raise DecodeError("unused degree indices")
    if enc.mode == 2 and len(seen) != len(remaining):
        raise DecodeError("fewer vertices visited than counted")
    if enc.mode == 2 and any(remaining):
        raise DecodeError("unconsumed recursive calls")
    return EdgeSubgraph.from_edges(edges, extra_vertices=[enc.start])


# ---------------------------------------------------------------------------
# hikes
# ---------------------------------------------------------------------------

def is_hike(G: RegularGraph, walk: Sequence[int]) -> bool:
    """Closed 2k-step walk, non-backtracking except at step k + 1."""
    w = [int(x) for x in walk]
    if len(w) < 3 or len(w) % 2 == 0:
        return False
    if w[0] != w[-1]:
        return False
    k = (len(w) - 1) // 2
    for i in range(1, len(w)):
        if not G.has_edge(w[i - 1], w[i]):
            return False
        if i >= 2 and i != k + 1 and w[i] == w[i - 2]:
            return False
    return True


def hike_graph(walk: Sequence[int]) -> EdgeSubgraph:
    w = [int(x) for x in walk]
    return EdgeSubgraph.from_edges(
        [(w[i - 1], w[i]) for i in range(1, len(w))])


def singleton_free(walk: Sequence[int]) -> bool:
    w = [int(x) for x in walk]
    counts: dict[tuple[int, int], int] = {}
    for i in range(1, len(w)):
        e = (min(w[i - 1], w[i]), max(w[i - 1], w[i]))
        counts[e] = counts.get(e, 0) + 1
    return all(c != 1 for c in counts.values())


def enumerate_hikes(G: RegularGraph, k: int, singleton_free_only: bool = True,
                    return_walks: bool = False):
    """Count (or list) the k-hikes of G, every start vertex counted separately.

    The list holds each hike as a tuple of its 2k + 1 vertices, in the
    order of a depth-first search from each start vertex in turn that
    tries each vertex's host slots in order.  It is refused, before any
    hike is built, when the call would peak above DENSE_BYTES
    (kernels._hike_list_bytes).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # a bound on the count's work, checked before anything is allocated:
    # it enumerates n h non-backtracking k-walks, h per origin, and tests
    # at most n h^2 ordered pairs of them; its blocks keep memory near
    # kernels.BLOCK_BYTES whatever these numbers are
    h = G.d * (G.d - 1) ** (k - 1)
    if G.n * h > 2 * 10 ** 7 or G.n * h * h > 2 * 10 ** 8:
        raise ValueError("hike enumeration budget exceeded for these n, d, k")
    if return_walks:
        return kernels.list_hikes(G.adj, G.eid_table, G.m, k,
                                  singleton_free=singleton_free_only,
                                  cap=DENSE_BYTES)
    return kernels.count_hikes(G.adj, G.eid_table, G.m, k,
                               singleton_free=singleton_free_only)


# ---------------------------------------------------------------------------
# segment encoding of a hike against a bicycle-free host
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HikeEncoding:
    """Segment endpoints plus winding counts around each segment ball's cycle."""

    r: int
    endpoints: tuple[int, ...]
    winding: tuple[int, ...]


def _ball_cycle(rows: list[list[int]], root: int, radius: int):
    """Vertex set and the unique cycle (if any) of the radius-r ball."""
    inside = set(_ball(rows, root, radius))
    n_edges = sum(y in inside for v in inside for y in rows[v]) // 2
    if n_edges - len(inside) > 0:
        raise ValueError("ball carries more than one independent cycle")
    core = set(inside)  # the 2-core: strip vertices of degree <= 1
    while leaves := {v for v in core if sum(y in core for y in rows[v]) < 2}:
        core -= leaves
    return inside, core


def hike_encoding(G: RegularGraph, walk: Sequence[int], r: int) -> HikeEncoding:
    """Encode a hike by r-step segment endpoints and cycle winding numbers.

    Needs every radius-r ball of G to carry at most one cycle; each
    segment's net signed crossings of that cycle's reference edge (lowest
    vertex toward its smaller cycle neighbor) pins the segment's homotopy.
    """
    w = [int(x) for x in walk]
    if not is_hike(G, w):
        raise ValueError("walk is not a hike on this graph")
    if r < 1:
        raise ValueError("r must be >= 1")
    two_k = len(w) - 1
    rows = G.neighbor_lists()
    n_segments = -(-two_k // r)
    endpoints = []
    winding = []
    for i in range(n_segments):
        a = i * r
        b = min((i + 1) * r, two_k)
        seg = w[a:b + 1]
        endpoints.append(seg[-1])
        _, core = _ball_cycle(rows, seg[0], r)
        if not core:
            winding.append(0)
            continue
        v_min = min(core)
        succ = min(y for y in rows[v_min] if y in core)
        c = 0
        for x, y in zip(seg, seg[1:]):
            if (x, y) == (v_min, succ):
                c += 1
            elif (y, x) == (v_min, succ):
                c -= 1
        # r steps wind at most ceil(r / L) times around a cycle of length L
        if abs(c) > -(-r // len(core)):
            raise AssertionError("winding count exceeded ceil(r / cycle length)")
        winding.append(c)
    return HikeEncoding(r=r, endpoints=tuple(endpoints), winding=tuple(winding))


def hike_encoding_count(k: int, r: int, n_host_vertices: int) -> int:
    """Size bound (r * |V|)^ceil(2k / r) on distinct hike encodings."""
    if k < 1 or r < 1 or n_host_vertices < 1:
        raise ValueError("k, r and the vertex count must be positive")
    return (r * n_host_vertices) ** (-(-2 * k // r))


# ---------------------------------------------------------------------------
# counting bounds
# ---------------------------------------------------------------------------

def binary_entropy(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError("entropy argument must lie in [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class HikeBounds:
    gamma1: float
    bound1: float
    gamma2: float | None
    bound2: float | None
    r_used: int
    r_floored: bool


def count_bounds(n: int, d: int, k: int, r: int,
                 delta: float | None = None) -> HikeBounds:
    """Exponential-rate bounds on singleton-free hike counts.

    The first rate needs only n, d, k, r; the second also takes the
    fraction delta of steps allowed off the typical profile and is only
    valid for 3 <= k <= exp(delta * r).
    """
    if d < 3:
        raise ValueError("bounds require degree >= 3")
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    r_floored = r < 1
    r_used = max(1, r)
    two_k = 2 * k
    gamma1 = (1.0 + math.log2(n * r_used * k) / two_k
              + math.log2(r_used * k) / r_used)
    bound1 = (2.0 ** gamma1 * math.sqrt(d - 1)) ** two_k
    gamma2 = bound2 = None
    if delta is not None:
        if not 0.0 < delta <= 0.2:
            raise ValueError("delta must lie in (0, 0.2] so 5*delta stays in [0, 1]")
        if k < 3:
            raise ValueError("second bound needs k >= 3")
        if k > math.exp(delta * r_used):
            raise ValueError("second bound needs k <= exp(delta * r)")
        gamma2 = (math.log2(16.0 * n * k ** 3 * r_used * d) / two_k
                  + math.log2(r_used * k) / r_used
                  + binary_entropy(5.0 * delta) / 2.0
                  + delta * math.log2(d))
        bound2 = (2.0 ** gamma2 * math.sqrt(d - 1)) ** two_k
    return HikeBounds(gamma1, bound1, gamma2, bound2, r_used, r_floored)


# ---------------------------------------------------------------------------
# excess bound for mostly-path subgraphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MopReport:
    n_vertices: int
    excess: int
    bound: float
    radius: int
    bfr: int | float
    r_min: float
    hypothesis_ok: bool
    passed: bool | None


def mop_excess_check(subject, r: int) -> MopReport:
    """Check excess <= ln(e |V|) / r * |V| for bicycle-free-at-r subgraphs.

    The hypothesis needs the bicycle-free radius to reach r and
    r >= 10 ln |V|; when it fails the report says so instead of judging.
    Accepts an EdgeSubgraph, a RegularGraph, or loose neighbor lists.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if isinstance(subject, EdgeSubgraph):
        _, rows = subject.neighbor_rows()
    else:
        rows = _neighbor_rows(subject)
    n_v = len(rows)
    if n_v == 0:
        raise ValueError("empty subgraph")
    n_e = sum(len(row) for row in rows) // 2
    exc = n_e - n_v
    bfr = bicycle_free_radius(rows)
    r_min = 10.0 * math.log(n_v)
    hypothesis_ok = (bfr >= r) and (r >= r_min)
    bound = math.log(math.e * n_v) / r * n_v
    passed = (exc <= bound) if hypothesis_ok else None
    return MopReport(n_vertices=n_v, excess=exc, bound=bound, radius=r,
                     bfr=bfr, r_min=r_min, hypothesis_ok=hypothesis_ok,
                     passed=passed)
