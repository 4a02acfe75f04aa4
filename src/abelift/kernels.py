"""Exhaustive enumeration kernels behind the certificates.

Four exact scans, one numpy implementation each: closed hike counts for
the trace-method bound, the minimum weight of an affine F2 space for code
distance, the boolean Rayleigh quotient for expander mixing, and the
maximum nontrivial character bias of a signing support.  The hike, mask
and character scans run in blocks whose live arrays take about
BLOCK_BYTES, so their memory does not grow with the scan.
"""
from __future__ import annotations

import numpy as np

IMPL = "python"  # implementation name, recorded in benchmark environment blocks

BLOCK_BYTES = 32 << 20
# Peak bytes of the hike frontier per base edge and per walk state, with
# d (d-1)^(2k-1) states per start vertex: an int16 edge-count row per walk
# prefix, held in three generations at the last step, plus index vectors.
# Measured with tracemalloc at 10.6 on cubic graphs.
_HIKE_STATE_EDGE_BYTES = 11


# ---------------------------------------------------------------------------
# closed non-backtracking walk counting
# ---------------------------------------------------------------------------

def _count_hikes_block(adj, eid, n_edges, two_k, exempt, singleton_free,
                       start_lo, start_hi):
    """Vectorized frontier expansion over the walk prefixes of some starts."""
    d = adj.shape[1]
    start = np.arange(start_lo, start_hi, dtype=np.int64)
    cur = start.copy()
    prev = np.full(cur.shape, -1, dtype=np.int64)
    origin = start.copy()
    counts = np.zeros((cur.size, n_edges), dtype=np.int16)
    for p in range(1, two_k + 1):
        nxt = adj[cur].reshape(-1)
        eids = eid[cur].reshape(-1)
        cur_r = np.repeat(cur, d)
        prev_r = np.repeat(prev, d)
        origin_r = np.repeat(origin, d)
        counts_r = np.repeat(counts, d, axis=0)
        if p >= 2 and p != exempt:
            keep = nxt != prev_r
            nxt, eids = nxt[keep], eids[keep]
            cur_r, origin_r = cur_r[keep], origin_r[keep]
            counts_r = counts_r[keep]
        counts_r[np.arange(nxt.size), eids] += 1
        prev, cur, origin, counts = cur_r, nxt, origin_r, counts_r
    ok = cur == origin
    if singleton_free:
        ok &= ~(counts == 1).any(axis=1)
    return int(ok.sum())


def count_hikes(adj, eid_table, n_edges: int, k: int,
                singleton_free: bool = True) -> int:
    """Count closed 2k-step walks that are non-backtracking except at step k+1.

    With singleton_free=True only walks whose undirected edge multiset has
    no multiplicity-1 edge are counted.  Start vertices are expanded in
    blocks of about BLOCK_BYTES of frontier, at least one start per block.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    adj = np.ascontiguousarray(adj, dtype=np.int64)
    eid = np.ascontiguousarray(eid_table, dtype=np.int64)
    n, d = adj.shape
    start_bytes = (_HIKE_STATE_EDGE_BYTES * n_edges
                   * d * max(1, d - 1) ** (2 * k - 1))
    block = max(1, BLOCK_BYTES // start_bytes)
    return sum(_count_hikes_block(adj, eid, n_edges, 2 * k, k + 1,
                                  singleton_free, lo, min(lo + block, n))
               for lo in range(0, n, block))


# ---------------------------------------------------------------------------
# minimum weight over an affine F2 space (packed rows)
# ---------------------------------------------------------------------------

def min_weight_affine(base_packed, basis_packed, skip_zero: bool = False) -> int:
    """Minimum Hamming weight of base + span(basis), Gray-code enumeration.

    The first 16 basis vectors span a table of offsets; the rest are walked
    in Gray-code order, one table scan per step.  skip_zero ignores the
    all-zero vector when it appears in the space.
    """
    base = np.ascontiguousarray(base_packed, dtype=np.uint64).reshape(-1)
    basis = np.ascontiguousarray(basis_packed, dtype=np.uint64)
    if basis.ndim == 1:
        basis = basis.reshape(1, -1)
    n_basis = basis.shape[0]
    if n_basis > 30:
        raise ValueError("basis too large for exhaustive enumeration")
    table_bits = min(n_basis, 16)
    table = base[None, :].copy()
    for i in range(table_bits):
        table = np.vstack([table, table ^ basis[i][None, :]])
    best = 1 << 62
    cur = np.zeros_like(base)
    for g_idx in range(1 << (n_basis - table_bits)):
        if g_idx > 0:
            changed = (g_idx ^ (g_idx >> 1)) ^ ((g_idx - 1) ^ ((g_idx - 1) >> 1))
            cur = cur ^ basis[table_bits + changed.bit_length() - 1]
        weights = np.bitwise_count(table ^ cur[None, :]).sum(axis=1)
        if skip_zero:
            weights = weights[weights > 0]
        if weights.size:
            best = min(best, int(weights.min()))
    if best >= (1 << 62):
        raise ValueError("space holds only the zero vector")
    return best


# ---------------------------------------------------------------------------
# boolean Rayleigh quotient over disjoint 0/1 vector pairs
# ---------------------------------------------------------------------------

def rayleigh_01_max(mat) -> float:
    """max |u^T M v| / (|u| |v|)^(1/2 each) over disjoint-support 0/1 vectors.

    For each support of u the optimal v is a prefix of the sorted column
    sums on the complement, so the scan is exact.  Supports of one size are
    handled together: one matmul gives their column sums, and the prefixes
    are cumulative sums from both ends of each sorted row.
    """
    m = np.ascontiguousarray(mat, dtype=np.float64)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    if n > 20:
        raise ValueError("exhaustive scan capped at n=20")
    if n == 0:
        return 0.0
    masks = np.arange(1, 1 << n, dtype=np.int32)
    sizes = np.bitwise_count(masks)
    bits = np.arange(n, dtype=np.int32)
    root = np.sqrt(np.arange(1, n + 1, dtype=np.float64))
    # at most four float64 columns per mask of a block live at once: the
    # 0/1 rows and their column sums, or the complement and two prefix sums
    rows = max(1, BLOCK_BYTES // (8 * 4 * n))
    best = 0.0
    for s in range(1, n):
        group = masks[sizes == s]
        for lo in range(0, group.size, rows):
            sel = (group[lo:lo + rows, None] >> bits) & 1 == 1
            w = sel.astype(np.float64) @ m
            comp = w[~sel].reshape(sel.shape[0], n - s)
            del sel, w
            comp.sort(axis=1)
            for prefix in (np.cumsum(comp, axis=1),
                           np.cumsum(comp[:, ::-1], axis=1)):
                np.abs(prefix, out=prefix)
                prefix /= root[:n - s]
                best = max(best, float(prefix.max() / np.sqrt(s)))
    return best


# ---------------------------------------------------------------------------
# maximum nontrivial character bias of a subset of (Z_l')^m
# ---------------------------------------------------------------------------

def bias_scan(support, ellp: int) -> float:
    """Exact maximum bias over all nontrivial characters of (Z_ellp)^m.

    Character sums whose residue counts are constant on a full subgroup
    coset are reported as exact 0, a single occupied residue as exact 1,
    so full product sets and singletons carry no float dust.  Characters
    are taken in blocks: one integer matmul gives the residues of a block,
    a bincount their counts per residue.
    """
    sup = np.ascontiguousarray(support, dtype=np.int64)
    if sup.ndim != 2 or sup.size == 0:
        raise ValueError("support must be a nonempty (N, m) array")
    n_sup, m = sup.shape
    n_chars = ellp ** m
    if n_chars > 1 << 20:
        raise ValueError("character space too large for the exact scan")
    sup = sup % ellp
    angles = 2.0 * np.pi * np.arange(ellp) / ellp
    cos_t, sin_t = np.cos(angles), np.sin(angles)
    place = ellp ** np.arange(m, dtype=np.int64)
    residues = np.arange(ellp)
    # live int64/float64 columns per character of a block: digits and
    # residues, then counts, their shift and one product of width ellp
    rows = max(1, BLOCK_BYTES // (8 * (m + n_sup + 3 * ellp)))
    best = 0.0
    for lo in range(1, n_chars, rows):
        chars = np.arange(lo, min(lo + rows, n_chars), dtype=np.int64)
        digits = chars[:, None] // place
        digits %= ellp
        res = digits @ sup.T
        del digits
        res %= ellp
        res += ellp * np.arange(chars.size)[:, None]
        counts = np.bincount(res.reshape(-1), minlength=chars.size * ellp
                             ).reshape(chars.size, ellp)
        del res
        occupied = (counts > 0).sum(axis=1)
        if np.any(occupied == 1):
            return 1.0
        # counts periodic with period s = ellp // occupied are periodic with
        # g = gcd(s, ellp), so they fill whole cosets of the subgroup g Z
        # with ellp / g >= occupied points each: one coset, s = g, equal
        # counts on it, and the character sum is exactly zero
        period = ellp // occupied
        shifted = np.take_along_axis(
            counts, (residues + period[:, None]) % ellp, axis=1)
        zero = (counts == shifted).all(axis=1)
        del shifted
        re = (counts * cos_t).sum(axis=1)
        im = (counts * sin_t).sum(axis=1)
        vals = np.hypot(re[~zero], im[~zero]) / n_sup
        if vals.size:
            best = max(best, float(vals.max()))
    return best
