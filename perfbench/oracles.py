"""Reference values computed without the library, to check its outputs.

Each function restates a definition directly in numpy, so the benchmark
can check any seed's outputs, not only the seeds recorded in
references.json.  They run after the timed passes.
"""
from __future__ import annotations

import itertools
import math

import numpy as np


def _lambda_base(n: int, edges: np.ndarray) -> float:
    adj = np.zeros((n, n))
    adj[edges[:, 0], edges[:, 1]] = adj[edges[:, 1], edges[:, 0]] = 1.0
    eigs = np.linalg.eigvalsh(adj)
    return float(np.abs(eigs[:-1]).max())


def best_lambda(n: int, edges: np.ndarray, ell: int, rows: np.ndarray,
                chunk: int = 20) -> float:
    """min over rows of max(lambda(base), rho of A(chi) for chi != 0) in Z_ell.

    A(chi)[u, v] = exp(2 pi i chi s_e / ell) on canonical edge e = (u, v),
    conjugated on (v, u); all characters of a chunk of rows are solved as
    one stacked eigvalsh.
    """
    lam_base = _lambda_base(n, edges)
    chars = np.arange(1, ell)
    best = math.inf
    for lo in range(0, rows.shape[0], chunk):
        block = rows[lo:lo + chunk]
        phase = (chars[:, None, None] * block[None, :, :]) % ell
        vals = np.exp(2j * np.pi * phase / ell)
        mats = np.zeros(vals.shape[:2] + (n, n), dtype=np.complex128)
        mats[:, :, edges[:, 0], edges[:, 1]] = vals
        mats[:, :, edges[:, 1], edges[:, 0]] = vals.conj()
        rho = np.abs(np.linalg.eigvalsh(mats)).max(axis=-1).max(axis=0)
        best = min(best, float(np.maximum(rho, lam_base).min()))
    return best


def hike_count(adj: np.ndarray, eid: np.ndarray, k: int) -> int:
    """Closed 2k-step walks, non-backtracking except at step k + 1, whose
    undirected edges are each used at least twice (every start counted)."""
    n, d = adj.shape
    cur = np.arange(n)
    origin = cur.copy()
    prev = np.full(n, -1)
    path = np.zeros((n, 0), dtype=np.int16)
    for p in range(1, 2 * k + 1):
        nxt, eids = adj[cur], eid[cur]
        keep = np.ones(nxt.shape, dtype=bool)
        if p >= 2 and p != k + 1:
            keep = nxt != prev[:, None]
        s, j = np.nonzero(keep)
        path = np.hstack([path[s], eids[s, j][:, None].astype(np.int16)])
        prev, cur, origin = cur[s], nxt[s, j], origin[s]
    path = np.sort(path[cur == origin], axis=1)
    same = path[:, 1:] == path[:, :-1]
    edge = np.zeros((path.shape[0], 1), dtype=bool)
    repeated = np.hstack([edge, same]) | np.hstack([same, edge])
    return int(repeated.all(axis=1).sum())


def max_bias(support: np.ndarray, q: int) -> float:
    """max over chi != 0 in (Z_q)^m of |mean_x exp(2 pi i <chi, x> / q)|."""
    m = support.shape[1]
    chars = np.array(list(itertools.product(range(q), repeat=m)))[1:]
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    sums = roots[(chars @ support.T) % q].sum(axis=1)
    return float(np.abs(sums).max() / support.shape[0])


def rayleigh_max(mat: np.ndarray) -> float:
    """max |1_S^T M 1_T| / sqrt(|S| |T|) over disjoint nonempty S, T.

    For fixed S the best T is a prefix of the sorted column sums of S
    outside S (from either end); masks are grouped by |S| to vectorize.
    """
    n = mat.shape[0]
    masks = np.arange(1, 2 ** n - 1)
    sel = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    sizes = sel.sum(axis=1)
    best = 0.0
    for size in range(1, n):
        s = sel[sizes == size]
        w = s.astype(np.float64) @ mat
        comp = np.sort(w[~s].reshape(s.shape[0], n - size), axis=1)
        roots = np.sqrt(np.arange(1, n - size + 1))
        lo = np.abs(np.cumsum(comp, axis=1)) / roots
        hi = np.abs(np.cumsum(comp[:, ::-1], axis=1)) / roots
        best = max(best, float(max(lo.max(), hi.max()) / math.sqrt(size)))
    return best


def min_weight_affine(base: np.ndarray, basis: np.ndarray) -> int:
    """min popcount of base + span(basis) over packed uint64 rows."""
    def span(vectors):
        out = np.zeros((1, base.size), dtype=np.uint64)
        for v in vectors:
            out = np.vstack([out, out ^ v])
        return out

    half = basis.shape[0] // 2
    low, high = span(basis[:half]), span(basis[half:]) ^ base
    words = low[:, None, :] ^ high[None, :, :]
    return int(np.bitwise_count(words).sum(axis=-1).min())
