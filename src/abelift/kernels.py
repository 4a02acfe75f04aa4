"""Exhaustive enumeration kernels behind the certificates.

Four exact scans, one numpy implementation each: hike counts and lists
for the trace-method bound, the least weight of a code's codewords that
pass a test by Brouwer-Zimmermann levels (least_weight: every exact
distance, classical or CSS, and the minimum weight of an affine F2 space),
the boolean Rayleigh quotient for expander mixing, and the maximum
nontrivial character bias of a signing support.  The hike, codeword,
mask and character scans run in blocks whose live arrays take about
BLOCK_BYTES, so their memory does not grow with the scan.  The hike
scan's blocks of origins and of pairs take BLOCK_BYTES / 2 each, at
144 + 2 m bytes per half-walk and 32 + 4 m per pair on a graph of m edges,
and 8 (k + 1)(d + 3) more per half-walk for a list's paths.
The sampled bias and the sampled Rayleigh quotient evaluate their draws
by the same blocks (_bias_max, _rayleigh_max).
"""
from __future__ import annotations

import math

import numpy as np

from . import gf2

IMPL = "python"  # implementation name, recorded in benchmark environment blocks

BLOCK_BYTES = 32 << 20
EXACT_CHAR_CAP = 1 << 20  # most characters the exact bias scan takes
# most codewords an exact distance may enumerate (codewords_to_reach)
EXACT_DISTANCE_BUDGET = 1 << 26


# ---------------------------------------------------------------------------
# closed non-backtracking walks: counted, or listed in depth-first order
# ---------------------------------------------------------------------------

def count_hikes(adj, eid_table, n_edges: int, k: int,
                singleton_free: bool = True) -> int:
    """Count closed 2k-step walks that are non-backtracking except at step k+1.

    Meet in the middle: steps 1..k and, reversed, steps 2k..k+1 of a hike
    from o are non-backtracking k-walks from o to one midpoint, joined by
    the exempt step, so hikes are the ordered pairs of half-walks with one
    origin and one endpoint.  A pair is singleton-free when the summed edge
    counts of its halves have no entry 1; (P, P) always is, and (P, Q)
    exactly when (Q, P) is, so only pairs i < j of a group are tested.
    """
    adj, eid = (np.asarray(a, dtype=np.int64) for a in (adj, eid_table))
    origins = _origins_per_block(adj.shape, n_edges, k, False)
    total = 0
    for counts, end, _, _ in _half_walks(adj, eid, n_edges, k, origins,
                                         True, False):
        # the sum of the squared group sizes: pairs i = j once, i < j twice
        total += int((2 * (end - np.arange(end.size)) - 1).sum())
        if singleton_free:
            for i, j in _later_pairs(end, n_edges):
                total -= 2 * int((counts[i] + counts[j] == 1)
                                 .any(axis=1).sum())
    return total


def list_hikes(adj, eid_table, n_edges: int, k: int,
               singleton_free: bool = True, *,
               cap: int) -> list[tuple[int, ...]]:
    """The hikes count_hikes counts, as tuples P + reversed(Q)[1:] of 2k + 1
    vertices in depth-first order: by origin, then by the host slot of each
    step.  P's index in generation order sorts its origin and k slots, and
    Q's slots back from the midpoint the rest.

    The singleton-free tests run once, before any path is built, and keep
    their passing pairs; with them the count and each block's share are
    known, and a list whose call would peak above cap bytes
    (_hike_list_bytes) is refused there with ValueError.
    """
    adj, eid = (np.asarray(a, dtype=np.int64) for a in (adj, eid_table))
    n = adj.shape[0]
    origins = _origins_per_block(adj.shape, n_edges, k, True)
    kept, sizes = [], []  # per block: its passing pairs i < j, its hikes
    for counts, end, _, _ in _half_walks(adj, eid, n_edges, k, origins,
                                         singleton_free, False):
        if not singleton_free:
            kept.append(None)
            sizes.append(int((2 * (end - np.arange(end.size)) - 1).sum()))
            continue
        pairs = []
        for i, j in _later_pairs(end, n_edges):
            keep = ~(counts[i] + counts[j] == 1).any(axis=1)
            pairs.append((i[keep], j[keep]))
        kept.append(pairs)
        sizes.append(end.size + 2 * sum(i.size for i, _ in pairs))
    count = sum(sizes)
    need = _hike_list_bytes(count, max(sizes, default=0), n, k)
    if need > cap:
        raise ValueError(f"{count} hikes of {2 * k + 1} vertices need "
                         f"{need} bytes as a list of tuples, above the cap "
                         f"of {cap} bytes")
    out, at = [None] * count, 0
    for (_, end, order, path), pairs in zip(
            _half_walks(adj, eid, n_edges, k, origins, False, True), kept):
        if pairs is None:
            pairs = list(_later_pairs(end, n_edges))
        # (P, P), and each pair i < j in both orders
        i, j = (np.concatenate(side) for side in zip(
            (np.arange(end.size),) * 2, *pairs, *((j, i) for i, j in pairs)))
        # back[:, t - 1]: the slot of path[:, t - 1] in path[:, t]'s host row
        back = (adj[path[:, 1:]] == path[:, :-1, None]).argmax(axis=2)
        sel = np.lexsort((*back[j].T, order[i]))
        del back
        for lo in range(0, sel.size, _LIST_ROWS):
            rows = sel[lo:lo + _LIST_ROWS]
            rows = np.concatenate([path[i[rows]], path[j[rows], -2::-1]],
                                  axis=1).tolist()
            out[at:at + len(rows)] = map(tuple, rows)
            at += len(rows)
    return out


_LIST_ROWS = 1 << 12  # hikes list_hikes turns into tuples at a time


def _hike_list_bytes(count: int, block: int, n: int, k: int) -> int:
    """Bytes list_hikes holds at its peak for `count` hikes of w = 2k + 1
    vertices on n, `block` of them from its largest block.

    Per hike: its list slot and its tuple, 8 + (40 + 8 w), a 32-byte int
    per vertex above 256 (Python caches the smaller ones), and 8 for the
    kept pairs.  Per hike of the block: its pair indices, sort keys, order
    and generation index, 8 (k + 5).  Per row being turned into tuples:
    its int64 halves and row and its list, 56 + 24 w and the ints.  And
    the blocks of walks and pairs, BLOCK_BYTES.
    """
    w = 2 * k + 1
    ints = 32 * w if n > 257 else 0
    return (count * (56 + 8 * w + ints) + block * 8 * (k + 5)
            + min(count, _LIST_ROWS) * (56 + 24 * w + ints) + BLOCK_BYTES)


def _origins_per_block(shape, n_edges: int, k: int, paths: bool) -> int:
    """Origins per block of _half_walks on an (n, d) table: their walks
    take about BLOCK_BYTES / 2, at 144 + 2 n_edges bytes per walk and
    8 (k + 1)(d + 3) more for its path when listing."""
    n, d = shape
    walk_bytes = 144 + 2 * n_edges + (8 * (k + 1) * (d + 3) if paths else 0)
    return max(1, BLOCK_BYTES // 2 // max(1, d * (d - 1) ** (k - 1)
                                          * walk_bytes))


def _half_walks(adj, eid, n_edges: int, k: int, origins: int, counts: bool,
                paths: bool):
    """The non-backtracking k-walks from each block of `origins` origins,
    sorted by (origin, endpoint): per block their int8 edge counts
    (saturated at 2) when counts, end (one past each walk's group), order
    (each walk's index in generation order, which is depth-first) and,
    when paths, their (walks, k + 1) vertex paths."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = adj.shape[0]
    for start in range(0, n, origins):
        origin = np.arange(start, min(start + origins, n))
        cur, prev = origin, np.full_like(origin, -1)
        tally = np.zeros((origin.size, n_edges if counts else 0),
                         dtype=np.int8)
        path = origin[:, None]
        for _ in range(k):
            rows, slots = np.nonzero(adj[cur] != prev[:, None])
            prev, cur, origin = cur[rows], adj[cur[rows], slots], origin[rows]
            tally = tally[rows]
            if counts:
                i, e = np.arange(rows.size), eid[prev, slots]
                tally[i, e] += tally[i, e] < 2  # 2 means two or more
            if paths:
                path = np.column_stack([path[rows], cur])
        order = np.argsort(origin * n + cur)
        key = (origin * n + cur)[order]
        end = np.searchsorted(key, key, side="right")  # one past each group
        # rebound, so that no unsorted copy stays alive with the sorted one
        tally, path = tally[order], path[order] if paths else None
        yield tally, end, order, path


def _later_pairs(end, n_edges: int):
    """The pairs i < j of each group of a sorted block, in blocks of whole
    rows i of about BLOCK_BYTES / 2 at 32 + 4 n_edges bytes per pair."""
    cap = max(1, BLOCK_BYTES // 2 // (32 + 4 * n_edges))
    partners = end - np.arange(end.size) - 1
    cum = np.concatenate([[0], np.cumsum(partners)])
    lo = 0
    while lo < end.size:
        hi = max(lo + 1, np.searchsorted(cum, cum[lo] + cap, "right") - 1)
        i = np.repeat(np.arange(lo, hi), partners[lo:hi])
        yield i, np.arange(cum[lo], cum[hi]) - cum[i] + i + 1
        lo = hi


# ---------------------------------------------------------------------------
# minimum weight of a code by information-set levels (Brouwer-Zimmermann)
# ---------------------------------------------------------------------------

def information_sets(gen) -> tuple[np.ndarray, list[int]]:
    """Systematic generators of rowspan(gen), gen of full row rank, on a
    greedy chain of disjoint information sets: (a (J, k, n) stack, ranks).

    Generator j is gen reduced with the columns no earlier set covers put
    first: its first r_j rows are an identity on r_j of them and its other
    rows vanish on all of them.  Each generator is the previous one reduced
    in place (gf2._eliminate) on the uncovered columns and then, from row
    r_j, on the covered ones.  The chain ends when the uncovered columns
    carry no more rank, so the last set may be partial.
    """
    k, n = gen.shape
    packed = gf2.pack_rows(gen)
    covered = np.zeros(n, dtype=bool)
    gammas, ranks = [], []
    while new := gf2._eliminate(packed, np.flatnonzero(~covered)):
        gf2._eliminate(packed, np.flatnonzero(covered), len(new))
        gammas.append(gf2.unpack_rows(packed, n))
        ranks.append(len(new))
        covered[new] = True
    return np.array(gammas, dtype=np.uint8).reshape(len(ranks), k, n), ranks


def least_weight(gen, keep) -> int:
    """Least weight of a codeword of rowspan(gen) that keep accepts, gen a
    full-rank uint8 generator and keep(packed rows) -> bool mask, by
    min_weight_codewords over information_sets(gen).

    The lightest kept row of the information-set generators bounds the
    answer; the levels that enumeration needs to reach that bound are
    counted first and refused past EXACT_DISTANCE_BUDGET codewords.
    """
    gammas, ranks = information_sets(gf2.as_f2(gen))
    n_gen, k, n = gammas.shape
    rows = gammas.reshape(-1, n)
    packed = gf2.pack_rows(rows)
    kept = keep(packed)
    if not kept.any():
        raise ValueError("no codeword passes the test")
    ub = int(rows[kept].sum(axis=1).min())
    codewords = codewords_to_reach(ranks, k, ub)
    if codewords > EXACT_DISTANCE_BUDGET:
        raise ValueError(f"exact distance budget exceeded: {codewords} "
                         f"codewords above {EXACT_DISTANCE_BUDGET}; use the "
                         "information-set mode")
    return min_weight_codewords(packed.reshape(n_gen, k, -1), ranks, ub, keep)


def keep_all(packed) -> np.ndarray:
    """The keep test of least_weight that accepts every codeword."""
    return np.ones(len(packed), dtype=bool)


def min_weight_affine(base_packed, basis_packed, skip_zero: bool = False) -> int:
    """Minimum Hamming weight of base + span(basis) over packed rows, by
    least_weight.

    Off span(basis), base + span(basis) is the part of span(basis, base)
    outside span(basis).  On it, the space is span(basis), whose least
    weight is 0, or with skip_zero its least nonzero weight.
    """
    base = np.ascontiguousarray(base_packed, dtype=np.uint64).reshape(1, -1)
    basis = np.ascontiguousarray(basis_packed, dtype=np.uint64)
    n_cols = 64 * base.shape[1]
    basis = gf2.nonzero_rref_rows(gf2.unpack_rows(
        basis.reshape(-1, base.shape[1]), n_cols))
    in_span = gf2.span_test(basis)
    if not in_span(base)[0]:
        return least_weight(np.vstack([basis, gf2.unpack_rows(base, n_cols)]),
                            lambda block: ~in_span(block))
    if not skip_zero:
        return 0
    if not basis.size:
        raise ValueError("space holds only the zero vector")
    return least_weight(basis, keep_all)


def level_bound(ranks, k: int, w: int) -> int:
    """Least weight of a codeword of a dimension-k code that levels 1..w
    of min_weight_codewords did not reach.

    Its message on each generator j has weight above w, and at most k - r_j
    of the message bits fall outside generator j's r_j identity columns, so
    it has at least w + 1 - (k - r_j) ones there; the sets are disjoint.
    """
    return sum(max(0, w + 1 - (k - r)) for r in ranks)


def codewords_to_reach(ranks, k: int, ub: int) -> int:
    """Codewords that levels 1..w* enumerate over every generator, w* the
    first level whose bound reaches ub (k at most): the most that
    min_weight_codewords started at a best of ub enumerates."""
    top = next((w for w in range(1, k) if level_bound(ranks, k, w) >= ub), k)
    return len(ranks) * sum(math.comb(k, w) for w in range(1, top + 1))


def min_weight_codewords(gammas, ranks, best: int, keep) -> int:
    """Least weight of a codeword that keep accepts, by Zimmermann's levels.

    gammas is a (J, k, words) stack of packed generator matrices of one
    dimension-k code; generator j is systematic on r_j = ranks[j] columns
    that no other covers (an identity there, zero rows below).  Level w
    XORs every w-subset of the rows of each generator; codewords lighter
    than best go to keep(packed rows) -> bool mask, and best falls to the
    lightest kept.  The scan stops once best <= level_bound, so best must
    start at the weight of a kept codeword (or above), and its cost is at
    most codewords_to_reach(ranks, k, best) codewords.

    A w-subset is its top row c and a (w-1)-subset of the rows below c.
    In colex order those are the (w-1)-subsets of rank below C(c, w - 1),
    so a block of ranks is unranked once and XORed with every top row;
    the blocks take about BLOCK_BYTES.
    """
    gammas = np.ascontiguousarray(gammas, dtype=np.uint64)
    n_gen, k, words = gammas.shape
    planes = np.ascontiguousarray(gammas.transpose(0, 2, 1))  # word-major
    for w in range(1, k + 1):
        t = w - 1
        # binom[s, c] = C(c, s): rank N's top row is the largest c with
        # C(c, s) <= N, and N - C(c, s) ranks the rest, one smaller
        binom = np.array([[math.comb(c, s) for c in range(k)]
                          for s in range(w)], dtype=np.int64)
        total = math.comb(k - 1, t)
        # live int64 columns per rank: its rank and a row index, then per
        # generator its tail, codeword and one gathered row (words each),
        # and the popcounts, weight and mask of the codeword
        rows = max(1, BLOCK_BYTES // (8 * (2 + n_gen * (3 * words + 1))))
        for lo in range(0, total, rows):
            hi = min(lo + rows, total)
            rank = np.arange(lo, hi, dtype=np.int64)
            tails = np.zeros((n_gen, words, hi - lo), dtype=np.uint64)
            for s in range(t, 0, -1):
                c = np.searchsorted(binom[s], rank, side="right") - 1
                rank -= binom[s, c]
                tails ^= planes[:, :, c]
            del rank
            word = np.empty_like(tails)
            count = np.empty(tails.shape, dtype=np.uint8)
            lighter, held = [], 0  # codewords lighter than best, untested
            for top in range(t, k):
                end = min(hi, math.comb(top, t)) - lo
                if end > 0:
                    np.bitwise_xor(tails[:, :, :end], planes[:, :, top, None],
                                   out=word[:, :, :end])
                    np.bitwise_count(word[:, :, :end], out=count[:, :, :end])
                    weight = count[:, :, :end].sum(axis=1, dtype=np.int32)
                    light = weight < best
                    if light.any():
                        lighter.append((weight[light], word[:, :, :end]
                                        .transpose(0, 2, 1)[light]))
                        held += lighter[-1][0].size
                if lighter and (held >= rows or top == k - 1):
                    weight, found = map(np.concatenate, zip(*lighter))
                    kept = keep(found)
                    if kept.any():
                        best = int(weight[kept].min())
                    lighter, held = [], 0
            del tails, word, count
        if best <= level_bound(ranks, k, w):
            break
    return best


# ---------------------------------------------------------------------------
# boolean Rayleigh quotient over disjoint 0/1 vector pairs
# ---------------------------------------------------------------------------

def rayleigh_01_max(mat) -> float:
    """max |u^T M v| / (|u| |v|)^(1/2 each) over disjoint-support 0/1 vectors.

    For each support of u the optimal v is a prefix of the sorted column
    sums on the complement, so the scan is exact.  Supports of one size are
    handled together by _rayleigh_max.
    """
    m = np.ascontiguousarray(mat, dtype=np.float64)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    if n > 20:
        raise ValueError("exhaustive scan capped at n=20")
    masks = np.arange(1, 1 << n, dtype=np.int32)
    sizes = np.bitwise_count(masks)
    bits = np.arange(n, dtype=np.int32)
    best = 0.0
    for s in range(1, n):
        group = masks[sizes == s]
        best = max(best, _rayleigh_max(
            m, s, group.size,
            lambda lo, hi, group=group: (group[lo:hi, None] >> bits) & 1 == 1))
    return best


def _rayleigh_max(m: np.ndarray, s: int, count: int, supports) -> float:
    """max |u^T M v| / sqrt(s |v|) over the `count` supports u of size s,
    0 < s < n, that supports(lo, hi) gives as boolean rows lo..hi-1, in
    blocks: one matmul gives their column sums, and the best v are the
    prefixes of each sorted complement row, summed from both ends."""
    n = m.shape[0]
    root = np.sqrt(np.arange(1, n + 1, dtype=np.float64))
    # at most four float64 columns per support of a block live at once: the
    # 0/1 rows and their column sums, or the complement and two prefix sums
    rows = max(1, BLOCK_BYTES // (8 * 4 * n))
    best = 0.0
    for lo in range(0, count, rows):
        sel = supports(lo, min(lo + rows, count))
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
    """Exact maximum bias over all nontrivial characters of (Z_ellp)^m: the
    characters 1 .. ellp^m - 1 by index, as base-ellp digit rows; 0.0
    when there is none (m = 0 or ellp = 1).  The one place a space above
    EXACT_CHAR_CAP characters is refused, before any character is taken."""
    sup = np.ascontiguousarray(support, dtype=np.int64)
    if sup.ndim != 2 or sup.shape[0] == 0:
        raise ValueError("support must be a nonempty (N, m) array")
    n_chars = ellp ** sup.shape[1]
    if n_chars > EXACT_CHAR_CAP:
        raise ValueError(f"(Z_{ellp})^{sup.shape[1]} has {n_chars} characters"
                         f", above the exact bias cap {EXACT_CHAR_CAP}")
    place = ellp ** np.arange(sup.shape[1], dtype=np.int64)
    return _bias_max(sup % ellp, ellp, n_chars - 1, lambda lo, hi: np.arange(
        lo + 1, hi + 1, dtype=np.int64)[:, None] // place % ellp)


def _bias_max(sup: np.ndarray, ellp: int, count: int, characters) -> float:
    """max |sum_x chi(x)| / N over `count` characters of (Z_ellp)^m that
    characters(lo, hi) gives as exponent rows lo..hi-1, on a support sup
    reduced mod ellp.

    Character sums whose residue counts are constant on a full subgroup
    coset are reported as exact 0, a single occupied residue as exact 1,
    so full product sets and singletons carry no float dust.  Characters
    are taken in blocks: one integer matmul gives the residues of a block,
    a bincount their counts per residue.
    """
    n_sup, m = sup.shape
    angles = 2.0 * np.pi * np.arange(ellp) / ellp
    cos_t, sin_t = np.cos(angles), np.sin(angles)
    residues = np.arange(ellp)
    # live int64/float64 columns per character of a block: digits and
    # residues, then counts, their shift and one product of width ellp
    rows = max(1, BLOCK_BYTES // (8 * (m + n_sup + 3 * ellp)))
    best = 0.0
    for lo in range(0, count, rows):
        digits = characters(lo, min(lo + rows, count))
        k = digits.shape[0]
        res = digits @ sup.T
        del digits
        res %= ellp
        res += ellp * np.arange(k)[:, None]
        counts = np.bincount(res.reshape(-1), minlength=k * ellp
                             ).reshape(k, ellp)
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
