"""Regular base graphs, signings, abelian lifts, walk operators.

Vertices are 0-based ints internally; JSON payloads use 1-based labels.
Edges are an (m, 2) int64 array of rows (u, v), u < v, sorted
lexicographically; directed edge ids are 2e (u -> v) and 2e + 1 (v -> u).
A lifted vertex (v, i) gets index v * fiber + i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import serial
from .groups import AbelianGroup, _components, _orbits, _validate_element

MAX_DENSE_DIM = 4096
DENSE_BYTES = 8 * MAX_DENSE_DIM ** 2  # one float64 matrix at the dense cap
PAIRING_TRIES = 20000  # configuration-model pairings per draw
MATCHING_RESTARTS = 200  # suitable-pair matchings per draw


class RegularGraph:
    """Simple d-regular graph: (n, d) neighbor table adj and eid_table."""

    def __init__(self, adj: Sequence[Sequence[int]]):
        a = np.asarray(adj, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("adjacency rows must form a rectangular table")
        n, d = a.shape
        if n < 2 or d < 1:
            raise ValueError("need at least two vertices and degree one")
        if a.min() < 0 or a.max() >= n:
            raise ValueError("neighbor label out of range")
        u = np.repeat(np.arange(n), d)
        loop = (a == u.reshape(n, d)).any(axis=1)
        srt = np.sort(a, axis=1)
        bad = loop | (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        if bad.any():  # the first offending row names the fault
            raise ValueError("self-loop found" if loop[np.argmax(bad)]
                             else "repeated neighbor (multi-edge)")
        v = a.ravel()
        # with no loop and no repeated neighbor each slot's edge key shows
        # up at most twice, and exactly twice, from both ends, when symmetric
        ekeys, eid, count = np.unique(np.minimum(u, v) * n + np.maximum(u, v),
                                      return_inverse=True, return_counts=True)
        if (count != 2).any():
            raise ValueError("adjacency is not symmetric")
        self.adj = a
        self.n = n
        self.d = d
        self.edges = np.stack([ekeys // n, ekeys % n], axis=1)
        self.m = len(self.edges)
        self.eid_table = eid.reshape(n, d)

    def _lookup(self, u, v) -> tuple[np.ndarray, np.ndarray]:
        """Edge ids and is-edge mask of the pairs (u, v), elementwise: v in
        slot j of adj[u] has id eid_table[u, j]; u outside [0, n) has none."""
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        row = np.where((u >= 0) & (u < self.n), u, 0)
        hit = (self.adj[row] == v[..., None]) & (row == u)[..., None]
        return self.eid_table[row, hit.argmax(axis=-1)], hit.any(axis=-1)

    def edge_id(self, u: int, v: int) -> int:
        e, found = self._lookup(u, v)
        if not found:
            raise KeyError((u, v))
        return int(e)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._lookup(u, v)[1])

    def directed_index(self, u: int, v: int) -> int:
        """Index of the directed edge u -> v in the 2m ordering."""
        e = self.edge_id(u, v)
        return 2 * e if u < v else 2 * e + 1

    def directed_edges(self) -> np.ndarray:
        """(2m, 2) array: row 2e is edge e as (u, v), row 2e + 1 as (v, u)."""
        return np.stack([self.edges, self.edges[:, ::-1]],
                        axis=1).reshape(-1, 2)

    def adjacency_matrix(self) -> np.ndarray:
        if 8 * self.n * self.n > DENSE_BYTES:
            raise ValueError(f"dense adjacency matrix of n = {self.n} takes "
                             f"{8 * self.n * self.n} bytes, above the dense "
                             f"cap of {DENSE_BYTES}")
        mat = np.zeros((self.n, self.n), dtype=np.float64)
        mat[np.arange(self.n)[:, None], self.adj] = 1.0
        return mat

    def neighbor_lists(self) -> list[list[int]]:
        return self.adj.tolist()

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "adj": (self.adj + 1).tolist(),
        }

    @staticmethod
    def from_json(payload: dict) -> "RegularGraph":
        n, d = _integer_rows([[payload["n"], payload["d"]]], "graph size")[0]
        adj = payload["adj"]
        if not (isinstance(adj, list)
                and all(isinstance(r, list) for r in adj)):
            raise ValueError(f"graph adj must be a list of neighbor rows, "
                             f"found {adj!r:.40}")
        if len(adj) != n or any(len(r) != d for r in adj):
            raise ValueError("adjacency table shape does not match n, d")
        return RegularGraph(_integer_rows(adj, "adjacency label") - 1)

    def content_hash(self) -> str:
        return serial.object_hash(self.to_json())

    def __repr__(self):
        return f"RegularGraph(n={self.n}, d={self.d})"


def cycle_graph(n: int) -> RegularGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return RegularGraph([[(i - 1) % n, (i + 1) % n] for i in range(n)])


def complete_graph(n: int) -> RegularGraph:
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return RegularGraph([[v for v in range(n) if v != u] for u in range(n)])


def petersen_graph() -> RegularGraph:
    rows = []
    for i in range(5):
        rows.append([(i - 1) % 5, (i + 1) % 5, i + 5])
    for i in range(5):
        rows.append([5 + (i - 2) % 5, 5 + (i + 2) % 5, i])
    return RegularGraph(rows)


def random_regular(n: int, d: int, seed: int) -> RegularGraph:
    """Uniform d-regular graph by configuration-model pairing with rejection.

    Draws a random perfect matching on the n*d half-edge stubs and rejects
    any outcome with loops or repeated edges, so accepted graphs are uniform
    over simple d-regular graphs.
    """
    if n * d % 2:
        raise ValueError("n * d must be even")
    if d >= n:
        raise ValueError("degree must be below n for a simple graph")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(PAIRING_TRIES):
        pairs = rng.permutation(stubs).reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        key = np.sort(pairs, axis=1)
        uniq = np.unique(key, axis=0)
        if uniq.shape[0] != key.shape[0]:
            continue
        return _graph_from_pairs(n, pairs)
    raise RuntimeError(
        f"no simple pairing found in {PAIRING_TRIES} tries (n={n}, d={d})")


def random_regular_dense(n: int, d: int, seed: int) -> RegularGraph:
    """d-regular graph by suitable-pair stub matching (Steger-Wormald style).

    Unlike plain configuration-model rejection this stays practical when d
    is a sizable fraction of n, at the price of an asymptotically-uniform
    rather than exactly-uniform distribution.  Used for auxiliary expanders.
    """
    if n * d % 2:
        raise ValueError("n * d must be even")
    if d >= n:
        raise ValueError("degree must be below n for a simple graph")
    rng = np.random.default_rng(seed)
    for _ in range(MATCHING_RESTARTS):
        edges = _try_suitable_pairing(n, d, rng)
        if edges is None:
            continue
        return _graph_from_pairs(n, sorted(edges))
    raise RuntimeError(
        f"stub matching failed after {MATCHING_RESTARTS} restarts")


def _graph_from_pairs(n: int, pairs) -> RegularGraph:
    """Row v lists the other end of each pair at v, in pair order."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    ends = np.stack([pairs, pairs[:, ::-1]], axis=1).reshape(-1, 2)
    order = np.argsort(ends[:, 0], kind="stable")
    return RegularGraph(ends[order, 1].reshape(n, -1))


def _try_suitable_pairing(n, d, rng):
    edges: set[tuple[int, int]] = set()
    stubs = list(np.repeat(np.arange(n), d))
    while stubs:
        potential: dict[int, int] = {}
        arr = np.array(stubs)
        rng.shuffle(arr)
        it = iter(arr.tolist())
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                potential[s1] = potential.get(s1, 0) + 1
                potential[s2] = potential.get(s2, 0) + 1
        if not potential:
            return edges
        # any feasible pair left among the leftover stubs?
        nodes = sorted(potential)
        feasible = any(
            u != v and (min(u, v), max(u, v)) not in edges
            for i, u in enumerate(nodes) for v in nodes[i:])
        if not feasible:
            return None
        stubs = [node for node, cnt in sorted(potential.items())
                 for _ in range(cnt)]
    return edges


def component_count(adj_lists: Iterable[Sequence[int]] | RegularGraph) -> int:
    """Connected components of a RegularGraph or loose neighbor lists: the
    orbits of the neighbor table's columns, short rows padded by loops."""
    rows = _neighbor_rows(adj_lists)
    width = max(map(len, rows), default=0)
    table = np.array([row + [v] * (width - len(row))
                      for v, row in enumerate(rows)], dtype=np.int64)
    return _orbits(table.reshape(len(rows), width).T)[0]


def _integer_rows(rows, what: str) -> np.ndarray:
    """Rectangular JSON rows as an int64 array; a ValueError names the
    first entry that is not a 64-bit integer (such as 2.9, true or 2**70)."""
    for x in (y for row in rows for y in row):
        if (isinstance(x, bool) or not isinstance(x, (int, np.integer))
                or not -2 ** 63 <= x < 2 ** 63):
            raise ValueError(f"{what} {x!r} is not a 64-bit integer")
    return np.array(rows, dtype=np.int64)


def _neighbor_rows(obj) -> list[list[int]]:
    """Accept a RegularGraph or loose neighbor lists (possibly irregular)."""
    if isinstance(obj, RegularGraph):
        return obj.neighbor_lists()
    return [list(map(int, row)) for row in obj]


# ---------------------------------------------------------------------------
# signings and lifts
# ---------------------------------------------------------------------------

@dataclass
class Signing:
    """Assignment of a group element to each canonical (u < v) edge."""

    base: RegularGraph
    group: AbelianGroup
    values: np.ndarray  # (m, num_factors) exponent rows

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int64)
        if vals.ndim == 1:
            vals = vals.reshape(-1, 1)
        want = (self.base.m, len(self.group.factors))
        if vals.shape != want:
            raise ValueError(f"exponent rows of shape {vals.shape}, but one "
                             f"row per canonical edge needs {want}")
        mods = np.array(self.group.factors, dtype=np.int64)
        self.values = vals % mods
    @staticmethod
    def identity(base: RegularGraph, group: AbelianGroup) -> "Signing":
        return Signing(base, group,
                       np.zeros((base.m, len(group.factors)), dtype=np.int64))

    @staticmethod
    def random(base: RegularGraph, group: AbelianGroup, seed: int) -> "Signing":
        rng = np.random.default_rng(seed)
        mods = np.array(group.factors, dtype=np.int64)
        vals = rng.integers(0, mods, size=(base.m, mods.size))
        return Signing(base, group, vals)

    def element(self, e: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.values[e])

    def directed(self, u: int, v: int) -> tuple[int, ...]:
        """Group element on the directed edge u -> v (inverse against canon)."""
        e = self.base.edge_id(u, v)
        g = self.element(e)
        return g if u < v else self.group.inverse(g)

    def to_json(self) -> dict:
        """Serialize as 1-based [u, v, exponents] triples in canonical order."""
        return {
            "group": self.group.to_json(),
            "edges": [[u + 1, v + 1, exps] for (u, v), exps in
                      zip(self.base.edges.tolist(), self.values.tolist())],
        }

    @staticmethod
    def from_json(base: RegularGraph, payload: dict) -> "Signing":
        """Read 1-based [u, v, exponents] triples, one per base edge; a
        ValueError names the first malformed one."""
        group = AbelianGroup.from_json(payload["group"])
        k = len(group.factors)
        edges = payload["edges"]
        if not (isinstance(edges, list) and all(
                isinstance(t, list) and len(t) == 3 for t in edges)):
            raise ValueError(f"signing edges must be a list of [u, v, "
                             f"exponents] triples, found {edges!r:.40}")
        for u, v, exps in edges:
            if np.shape(exps) != (k,):
                raise ValueError(f"signing edge ({u}, {v}) has exponent row "
                                 f"{exps!r}, but the group has {k} factors")
        rows = _integer_rows([[u, v, *exps] for u, v, exps in edges],
                             "signing entry").reshape(-1, 2 + k)
        eids, found = base._lookup(rows[:, 0] - 1, rows[:, 1] - 1)
        if not found.all():
            u, v = rows[np.argmin(found), :2].tolist()
            raise ValueError(f"signing pair ({u}, {v}) is not a base edge")
        count = np.bincount(eids, minlength=base.m)
        if count.max() > 1:
            u, v = (base.edges[np.argmax(count)] + 1).tolist()
            raise ValueError(f"signing lists edge ({u}, {v}) more than once")
        if count.min() == 0:
            raise ValueError("signing file misses some base edges")
        return Signing(base, group, rows[np.argsort(eids), 2:])


def lift(base: RegularGraph, signing: Signing,
         allow_disconnected: bool = False) -> RegularGraph:
    """Build the fiber-product graph of a signing.

    Canonical edge (u, v) with element s yields edges (u, i) ~ (v, s.i)
    for every fiber point i.  Vertex (v, i) sits at index v * fiber + i,
    and lifted neighbor order follows the base neighbor order.
    A lift with more components than the base is refused unless
    allow_disconnected is set.
    """
    ell = signing.group.fiber_size
    perms = signing.group.action(signing.values)  # (m, ell) fiber maps
    # slot j of u maps fiber i to perms[e][i] when u < v, else the inverse
    maps = np.stack([perms, np.argsort(perms, axis=1)])
    backward = base.adj < np.arange(base.n)[:, None]
    fiber = maps[backward.astype(np.int64), base.eid_table]  # (n, d, ell)
    rows = base.adj[:, :, None] * ell + fiber
    table = rows.transpose(0, 2, 1).reshape(base.n * ell, base.d)
    # each lifted edge once: the ell copies of base edge (u, v), u < v, from
    # the points u * ell + i of its lower end
    tails = np.nonzero(~backward)[0][:, None] * ell + np.arange(ell)
    if not allow_disconnected and (
            _components(base.n * ell, tails, rows[~backward])[0]
            > _components(base.n, *base.edges.T)[0]):
        raise ValueError(
            "signing's cycle voltages generate a non-transitive action; the "
            "lift would be disconnected (pass allow_disconnected=True to "
            "override)")
    return RegularGraph(table)


# ---------------------------------------------------------------------------
# signed walk operators
# ---------------------------------------------------------------------------

def signed_operators(signing: Signing, chars, kind: str) -> np.ndarray:
    """(C, N, N) stack of A(chi) ("adjacency", N = n) or B(chi)
    ("nonbacktracking", N = 2m) for the indices `chars` into characters().

    A[u, v] = chi(s_e) and A[v, u] its conjugate for each canonical edge
    e = (u, v); B[f, g] = chi(element on g) for each step f = (w -> x),
    g = (x -> y) with y != w, where directed edge 2e + 1 carries the
    inverse of s_e.  Entries come from group.char_table, so they equal
    group.char_value bit for bit.
    """
    base, group = signing.base, signing.group
    chars = np.asarray(chars, dtype=np.int64)
    if kind == "adjacency":
        dim, elems = base.n, signing.values
    elif kind == "nonbacktracking":
        dim = 2 * base.m
        if dim > MAX_DENSE_DIM:
            raise ValueError(f"non-backtracking operator is {dim}-"
                             "dimensional, above the dense cap "
                             f"{MAX_DENSE_DIM}")
        inverse = -signing.values % np.asarray(group.factors)
        elems = np.stack([signing.values, inverse], axis=1).reshape(dim, -1)
    else:
        raise ValueError("kind must be 'adjacency' or 'nonbacktracking'")
    vals = group.char_table(chars, group.element_indices(elems))
    stack = np.zeros((chars.size, dim, dim), dtype=np.complex128)
    if kind == "adjacency":
        u, v = base.edges.T
        stack[:, u, v] = vals
        stack[:, v, u] = vals.conj()
    else:
        # slot i of x feeds slot j != i: (adj[x, i] -> x) then (x -> adj[x, j])
        x = np.arange(base.n)[:, None]
        into = 2 * base.eid_table + (base.adj > x)
        out = 2 * base.eid_table + (x > base.adj)
        i, j = np.nonzero(~np.eye(base.d, dtype=bool))
        g = out[:, j].ravel()
        stack[:, into[:, i].ravel(), g] = vals[:, g]
    return stack


def signed_adjacency(signing: Signing, chi) -> np.ndarray:
    """A(chi) of signed_operators, chi an exponent tuple."""
    return signed_operators(signing, signing.group.element_indices(
        [_validate_element(signing.group.factors, chi)]), "adjacency")[0]


def signed_nonbacktracking(signing: Signing, chi) -> np.ndarray:
    """B(chi) of signed_operators, chi an exponent tuple."""
    return signed_operators(signing, signing.group.element_indices(
        [_validate_element(signing.group.factors, chi)]), "nonbacktracking")[0]


def nonbacktracking(base: RegularGraph) -> np.ndarray:
    """Unsigned non-backtracking operator on directed edges (real 0/1)."""
    trivial = Signing.identity(base, AbelianGroup.cyclic(1))
    return signed_operators(trivial, [0], "nonbacktracking")[0].real


# ---------------------------------------------------------------------------
# girth and bicycle-freeness
# ---------------------------------------------------------------------------

def girth(graph_or_adj) -> int | float:
    """Length of a shortest cycle; math.inf for forests.

    Accepts a RegularGraph or loose neighbor lists, so it also applies to
    irregular subgraphs.
    """
    rows = _neighbor_rows(graph_or_adj)
    n = len(rows)
    best = math.inf
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        queue = [root]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            if 2 * dist[x] >= best:
                break
            for y in rows[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif y != parent[x] and dist[y] >= dist[x]:
                    # non-tree edge closes a cycle through the BFS tree
                    best = min(best, dist[x] + dist[y] + 1)
    return best


def _ball(rows: list[list[int]], root: int, radius: int) -> dict[int, int]:
    """Distance from root of every vertex within radius, by BFS."""
    dist = {root: 0}
    queue = [root]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        if dist[x] == radius:
            continue
        for y in rows[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def bicycle_free_radius(graph_or_adj) -> int | float:
    """Largest r such that every radius-r ball has at most one cycle.

    A ball has at most one cycle exactly when its edge count minus vertex
    count (the excess) is at most 0.  Returns math.inf when even whole
    components never exceed one cycle.  One BFS per root grows its ball a
    layer at a time and stops at the first radius with positive excess, or
    at the least such radius an earlier root found.
    """
    rows = _neighbor_rows(graph_or_adj)
    first_bad = math.inf  # least radius whose ball has positive excess
    for root in range(len(rows)):
        dist, layer, excess, r = {root: 0}, [root], -1, 0  # one vertex
        while layer and r + 1 < first_bad:
            r += 1
            new = []
            for x in layer:
                for y in rows[x]:
                    if y not in dist:
                        dist[y] = r
                        new.append(y)
            # an entry y of x's list (x < y) enters with its later end
            excess -= len(new)
            excess += sum(y > x and y in dist for x in new for y in rows[x])
            excess += sum(y > x and dist[y] == r
                          for x in layer for y in rows[x])
            if excess > 0:
                first_bad = r
            layer = new
    return first_bad - 1
