"""Spectra of lifts and signed operators, and the checks built on them.

lambda(G) is the largest eigenvalue magnitude after removing one copy of
the trivial (Perron) eigenvalue d; for a signed operator at a nontrivial
character the whole spectrum is nontrivial and the spectral radius is
used directly.

The spectrum-union check compares a built lift with the union of its
signed character spectra.  Its non-backtracking half takes the lift's NB
spectrum from the lift's adjacency eigenvalues by the Ihara-Bass theorem
(ihara_bass_spectrum) and solves only the small per-character B(chi)
directly, one solve per conjugate pair {chi, -chi} (B(-chi) is the
conjugate of B(chi)) and a real solve per self-conjugate chi; near the
double root alpha^2 = 4 (d - 1), where the root formula loses accuracy,
it solves the lifted NB operator densely instead.  The two complex
multisets are matched by multiset_max_distance, which returns the exact
bottleneck value (the least max distance over all matchings), in numpy
alone.  radius_reaches's potrf is the one use of scipy: its compiled
LAPACK extension is loaded from its file on first use (_flapack), and the
scipy and scipy.linalg packages are never imported.

The decomposition probe checks the same decomposition as an operator
identity on one random vector, with no eigensolve: it is how searches and
the verifier above the dense cap check a built lift.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from . import graphs, kernels
from .graphs import (RegularGraph, Signing, lift,
                     nonbacktracking, signed_adjacency, signed_nonbacktracking,
                     signed_operators)
from .groups import TWO_PI, _components, _validate_element

# Most bytes of candidate pairs _bottleneck_distance takes from its
# real-part windows, at _PAIR_BYTES a pair: its tracemalloc peak per pair
# on a window of 10^6 pairs (int64 indices, complex gathers, float64
# distance).  The default is 2^20 pairs.
_PAIR_BYTES = 48
_WINDOW_BYTES = 48 << 20
# Smallest |disc| = |alpha^2 - 4 (d - 1)| over the lifted adjacency
# eigenvalues at which the union check trusts the Ihara-Bass roots.  A root
# (alpha +- sqrt(disc)) / 2 moves by about d_alpha |alpha| / (2 sqrt|disc|)
# when alpha moves by d_alpha, and |alpha| / 2 = sqrt(d - 1 + disc / 4).
# eigvalsh is backward stable, so d_alpha is a small multiple of
# eps ||A|| = 2.2e-16 d; take d_alpha = 1e-14.  At |disc| >= 1e-6 the root
# error is then at most about 1e-11 sqrt(d - 1), under tol / 100 = 1e-10
# at the default tol for every d <= 100.  Below it the lifted NB operator
# is solved densely.
IHARA_BASS_MIN_DISC = 1e-6
# Largest (characters, n, n) complex128 operator stack built at once; the
# characters of a larger group are solved in chunks that fit.
STACK_BYTES = 1 << 24
# Largest relative error decomposition_probe passes.  On an honest lift
# both sides are the same sums of d terms, apart from the FFT's rounding
# (about eps log2 l relative), so the error stays near 1e-15 up to
# l = 2^16; one edge whose shift s' in the lift disagrees with the
# signing's s moves two entries of each character's product by
# |chi(s') - chi(s)| times a probe entry, an O(1) relative error.
PROBE_TOL = 1e-10


def adjacency_spectrum(G: RegularGraph) -> np.ndarray:
    return np.linalg.eigvalsh(G.adjacency_matrix())


def lambda2(G: RegularGraph) -> float:
    """Largest |eigenvalue| of the adjacency once one copy of d is removed."""
    eigs = adjacency_spectrum(G)
    trimmed = eigs[:-1]  # eigvalsh sorts ascending; the top one is d
    if trimmed.size == 0:
        return 0.0
    return float(np.abs(trimmed).max())


def nb_radius_nontrivial(B: np.ndarray) -> float:
    """Spectral radius of a non-backtracking operator after dropping one
    copy of its Perron root d - 1."""
    eigs = np.linalg.eigvals(B)
    mags = np.abs(eigs)
    keep = np.ones(eigs.size, dtype=bool)
    keep[int(np.argmax(mags))] = False
    if not keep.any():
        return 0.0
    return float(mags[keep].max())


def linear_sum_assignment(cost):
    """scipy.optimize.linear_sum_assignment, imported on first use.  No
    library path calls it; perfbench/tracing.py wraps it by name, and every
    traced run would raise AttributeError without it."""
    from scipy.optimize import linear_sum_assignment as solve
    return solve(cost)


def multiset_max_distance(a, b) -> float:
    """min over matchings pi of max |a_i - b_pi(i)| (the bottleneck value).

    Real multisets pair off in sorted order, which attains it.  Genuinely
    complex ones are matched exactly by _bottleneck_distance.  Non-finite
    complex input raises ValueError.
    """
    av = np.asarray(a).ravel()
    bv = np.asarray(b).ravel()
    if av.size != bv.size:
        raise ValueError("multisets differ in size")
    if av.size == 0:
        return 0.0
    tol_imag = 1e-9
    ac = np.asarray(av, dtype=np.complex128)
    bc = np.asarray(bv, dtype=np.complex128)
    if np.abs(ac.imag).max() < tol_imag and np.abs(bc.imag).max() < tol_imag:
        ar = np.sort(np.real(av))
        br = np.sort(np.real(bv))
        return float(np.abs(ar - br).max())
    return _bottleneck_distance(ac, bc)


def _bottleneck_distance(a, b) -> float:
    """min over matchings pi of max |a_i - b_pi(i)|, for complex a and b
    of one size.

    Exact duplicates are merged with their counts.  A matching with max at
    most t exists exactly when the threshold graph at t, joining every
    opposite pair at distance <= t, has a perfect matching of the values
    repeated by their counts (feasible): every component holds equal
    counts on both sides and is complete bipartite or, if incomplete,
    passes _transport_feasible.  The answer is the least pairwise distance
    that passes.  Distances are np.abs of the complex differences, as a
    matching's would be.

    Candidate pairs come from windows in the real part: np.unique sorts
    the values by real part, and each a-value takes the b-values whose
    real parts lie within w of its own (a little past, by pad, so that
    rounding drops no point within w).  Every pair within w is then a
    candidate, so every threshold t <= w is decided exactly.  No matching
    has a max below bound, the largest distance from a point to its
    nearest opposite point, which is certified once bound (1 + 1e-12) <= w.
    w starts near 1e-12 of the values' magnitude and grows 16-fold until
    then.  The window's distances from bound up are then bisected for the
    least that passes, bound itself first (near-identical multisets stop
    there); while none passes, w grows 16-fold and the distances above
    the old w are bisected.  A non-finite value, or window pairs above
    _WINDOW_BYTES, raise ValueError before the pairs are built.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("complex multiset matching needs finite values")
    ua, ca = np.unique(a, return_counts=True)
    ub, cb = np.unique(b, return_counts=True)
    na, nb = ua.size, ub.size
    scale = max(np.abs(ua.real).max(), np.abs(ub.real).max(),
                np.abs(ua.imag).max(), np.abs(ub.imag).max())
    eps = np.finfo(np.float64).eps

    def feasible(t: float) -> bool:  # the threshold graph of the window
        within = dist <= t
        ti, tj = i[within], j[within]
        k, label = _components(na + nb, ti, na + tj)
        la, lb = label[:na], label[na:]
        if (np.bincount(la, ca, k) != np.bincount(lb, cb, k)).any():
            return False
        edges = np.bincount(la[ti], minlength=k)
        complete = edges == np.bincount(la, minlength=k) * np.bincount(
            lb, minlength=k)
        for c in np.flatnonzero(~complete):
            in_a, in_b = np.flatnonzero(la == c), np.flatnonzero(lb == c)
            e = la[ti] == c
            if not _transport_feasible(ca[in_a].tolist(), cb[in_b].tolist(),
                                       np.searchsorted(in_a, ti[e]).tolist(),
                                       np.searchsorted(in_b, tj[e]).tolist()):
                return False
        return True

    w = 1e-12 * scale or 1.0
    floor = None  # every threshold below it fails, once bound is certified
    while True:
        pad = 4.0 * eps * (scale + w)
        lo = np.searchsorted(ub.real, ua.real - (w + pad), "left")
        size = np.searchsorted(ub.real, ua.real + (w + pad), "right") - lo
        total = int(size.sum())
        if _PAIR_BYTES * total > _WINDOW_BYTES:
            raise ValueError(f"complex multiset matching needs {total} "
                             f"window pairs, {_PAIR_BYTES * total} bytes, "
                             f"above the cap of {_WINDOW_BYTES} bytes")
        i = np.repeat(np.arange(na), size)
        j = np.arange(total) + np.repeat(lo - np.cumsum(size) + size, size)
        dist = np.abs(ua[i] - ub[j])
        if floor is None:
            near_a = np.full(na, np.inf)
            near_b = np.full(nb, np.inf)
            np.minimum.at(near_a, i, dist)
            np.minimum.at(near_b, j, dist)
            bound = max(near_a.max(), near_b.max())
            if bound * (1.0 + 1e-12) > w:
                w *= 16.0
                continue
            floor = bound
        cand = np.unique(dist[(dist >= floor) & (dist <= w)])
        lo, hi = 0, cand.size  # cand[:lo] fail, cand[hi:] pass
        while lo < hi:
            mid = (lo + hi) // 2 if lo else 0
            if feasible(cand[mid]):
                hi = mid
            else:
                lo = mid + 1
        if hi < cand.size:
            return float(cand[hi])
        floor, w = w, 16.0 * w


def _transport_feasible(supply, demand, tails, heads) -> bool:
    """Whether left node u's supply[u] units can all reach right nodes
    that take demand[v] units each, along the edges (tails[e], heads[e]),
    when sum(supply) == sum(demand): a perfect matching of the bipartite
    graph with each node repeated by its count.

    Dinic's max-flow on source -> u (capacity supply[u]) -> v (unbounded)
    -> sink (capacity demand[v]); edge 2 e is forward and 2 e + 1 its
    residual, so e ^ 1 flips between them.
    """
    na = len(supply)
    source, sink = na + len(demand), na + len(demand) + 1
    need = sum(supply)
    out = [[] for _ in range(sink + 1)]
    to, cap = [], []
    for x, y, c in [(source, u, s) for u, s in enumerate(supply)] + [
            (na + v, sink, s) for v, s in enumerate(demand)] + [
            (u, na + v, need) for u, v in zip(tails, heads)]:
        out[x].append(len(to))
        out[y].append(len(to) + 1)
        to += [y, x]
        cap += [c, 0]
    flow = 0
    while True:
        level = [-1] * (sink + 1)
        level[source] = 0
        queue = [source]
        for x in queue:
            for e in out[x]:
                if cap[e] and level[to[e]] < 0:
                    level[to[e]] = level[x] + 1
                    queue.append(to[e])
        if level[sink] < 0:
            return flow == need
        nxt = [0] * (sink + 1)  # the next edge each node tries this phase
        path, x = [], source
        while True:
            if x == sink:
                push = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                flow += push
                path, x = [], source
            elif nxt[x] == len(out[x]):  # a dead end: retreat one edge
                if x == source:
                    break
                x = to[path.pop() ^ 1]
                nxt[x] += 1
            else:
                e = out[x][nxt[x]]
                if cap[e] and level[to[e]] == level[x] + 1:
                    path.append(e)
                    x = to[e]
                else:
                    nxt[x] += 1


# ---------------------------------------------------------------------------
# character decomposition of a lift spectrum
# ---------------------------------------------------------------------------

def character_spectra(signing: Signing, chars, kind: str) -> np.ndarray:
    """Spectra of graphs.signed_operators(signing, chars, kind), one row per
    character: ascending eigvalsh rows for "adjacency", eigvals rows for
    "nonbacktracking".  Stacks of at most STACK_BYTES (one operator at
    least) are solved by one batched call each, so every solved row equals
    the solve of that character's operator alone.

    Non-backtracking rows are solved once per conjugate pair: B(-chi) is
    the entrywise conjugate of B(chi), so when both are requested only the
    smaller index is solved and the other row is its exact conjugate.  A
    self-conjugate B(chi) (2 chi = 0) has entries +-1 up to char_table's
    rounding and is solved as the real matrix B(chi).real.  A character
    whose partner is not requested is solved alone, in complex.
    """
    chars = np.asarray(chars, dtype=np.int64)
    if kind == "adjacency":
        out = np.empty((chars.size, signing.base.n))
        _solve_rows(signing, chars, kind, np.linalg.eigvalsh, out,
                    np.arange(chars.size))
        return out
    neg = signing.group.inverse_indices(chars)
    real = neg == chars
    partner = ~real & (neg < chars) & np.isin(neg, chars)
    out = np.empty((chars.size, 2 * signing.base.m), dtype=np.complex128)
    _solve_rows(signing, chars, kind, lambda s: np.linalg.eigvals(s.real),
                out, np.flatnonzero(real))
    _solve_rows(signing, chars, kind, np.linalg.eigvals, out,
                np.flatnonzero(~real & ~partner))
    order = np.argsort(chars, kind="stable")
    rep = order[np.searchsorted(chars[order], neg[partner])]
    out[partner] = out[rep].conj()
    return out


def _solve_rows(signing: Signing, chars: np.ndarray, kind: str, solve,
                out: np.ndarray, rows: np.ndarray) -> None:
    """out[rows] = solve of the operators of chars[rows], in stacks of at
    most STACK_BYTES of complex128 (one operator at least)."""
    dim = out.shape[1]
    per = max(1, STACK_BYTES // (16 * dim * dim))
    for lo in range(0, rows.size, per):
        part = rows[lo:lo + per]
        out[part] = solve(signed_operators(signing, chars[part], kind))


def radius_margin(n: int) -> float:
    """The relative margin radius_reaches adds to its threshold for n x n
    input.

    With u = eps / 2 and gamma_k = k u / (1 - k u): a Cholesky
    factorisation of an n x n Hermitian H with every diagonal entry s runs
    to completion whenever H > c s I, with c = n gamma_{n+1} /
    (1 - gamma_{n+1}), about n (n + 1) u (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., section 10.1, Demmel's theorem).
    Complex arithmetic errs by at most sqrt(2) gamma_4 per operation where
    real errs by u (section 3.6), so c stays under 6 n (n + 1) u =
    3 n (n + 1) eps.  A failure at s = t (1 + delta) therefore proves an
    eigenvalue of +-A at least s (1 - c) > t, and the margin 8 n (n + 1) eps
    leaves 5 n (n + 1) eps of that for eigvalsh, whose eigenvalues err by
    p(n) u ||A|| for a p(n) growing modestly with n (LAPACK Users' Guide,
    section 4.7): a radius radius_reaches proves to reach t is one an
    eigvalsh radius of the same matrix also finds >= t.  It is 4.5e-12 at
    n = 50 and 3e-8 at the dense cap of 4096.
    """
    return 8.0 * n * (n + 1) * np.finfo(np.float64).eps


@functools.cache
def _flapack():
    """scipy's compiled LAPACK extension, loaded from its file on first
    use.  Only the extension is loaded, not the scipy.linalg package:
    that package's __init__ (which also imports numpy.f2py and
    numpy.testing) is nearly all the time and memory an import costs."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise RuntimeError("radius_reaches needs scipy's LAPACK extension, "
                           "but no scipy package is on sys.path")
    stem = os.path.join(scipy.submodule_search_locations[0], "linalg",
                        "_flapack")
    paths = [stem + s for s in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise RuntimeError("radius_reaches needs scipy's LAPACK extension, "
                           f"but none of {paths} is a file")
    loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack",
                                                     path)
    spec = importlib.util.spec_from_file_location(loader.name, path,
                                                  loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


@functools.cache
def _potrf(dtype: np.dtype):
    """LAPACK potrf for float64 (dpotrf) or complex128 (zpotrf) arrays,
    from _flapack, looked up once per dtype."""
    prefix = {"float64": "d", "complex128": "z"}[np.dtype(dtype).name]
    return getattr(_flapack(), prefix + "potrf")


def radius_reaches(mat: np.ndarray, t: float) -> bool:
    """Whether the spectral radius of the Hermitian `mat` is proved to reach
    t > 0.

    By Sylvester's law of inertia, rho(mat) < s exactly when sI - mat and
    sI + mat are both positive definite.  Each is factored once by
    Cholesky (LAPACK potrf, which reports failure in `info` and raises
    nothing) at s = t (1 + delta), delta = radius_margin(n).  True at the
    first that fails: rho >= t, and so is an eigvalsh radius.  False when
    both factor: rho < t (1 + delta), which does not rule out rho >= t, so
    a caller solves.  `mat` is not modified; it is factored in float64, or
    in complex128 when complex, since radius_margin is stated for float64.
    """
    n = mat.shape[0]
    work = np.empty(mat.shape, dtype=np.complex128 if np.iscomplexobj(mat)
                    else np.float64)
    diag = work.reshape(-1)[::n + 1]
    potrf = _potrf(work.dtype)
    shift = t * (1.0 + radius_margin(n))
    for sign in (-1.0, 1.0):
        np.multiply(mat, sign, out=work)
        np.add(diag, shift, out=diag)
        # work.T is Fortran-ordered, so potrf factors it in place; it is
        # the conjugate of the Hermitian work, with the same eigenvalues
        if potrf(work.T, overwrite_a=1, clean=0)[1] != 0:
            return True
    return False


@dataclass(frozen=True)
class UnionReport:
    adjacency_distance: float
    nb_distance: float | None
    tol: float
    passed: bool
    eigenvalues: np.ndarray  # the lift's adjacency spectrum, ascending


def ihara_bass_spectrum(alpha, d: int, excess: int) -> np.ndarray:
    """Non-backtracking spectrum of a d-regular graph (d >= 2) from its
    adjacency eigenvalues alpha, by the Ihara-Bass theorem.

    Each alpha contributes the two roots (alpha +- sqrt(alpha^2 - 4 (d-1)))
    / 2 of beta^2 - alpha beta + (d - 1); +1 and -1 each add excess = m - n
    more copies.
    """
    alpha = np.asarray(alpha, dtype=np.complex128).ravel()
    sq = np.sqrt(alpha * alpha - 4.0 * (d - 1))
    ones = np.ones(excess)
    return np.concatenate([(alpha + sq) / 2.0, (alpha - sq) / 2.0,
                           ones, -ones])


def spectrum_union_check(signing: Signing, tol: float = 1e-8,
                         include_nonbacktracking: bool | None = None) -> UnionReport:
    """Match the lift spectrum against the union of signed character spectra.

    Checks the adjacency operator always.  The non-backtracking half runs
    by default when the lifted NB dimension 2M fits graphs.MAX_DENSE_DIM,
    the cap of the dense lifted NB solve below; requesting it above the
    cap raises ValueError before any eigensolve.  Both halves report the
    exact bottleneck distance (multiset_max_distance), so passed is
    decided exactly at tol.  The lift's NB spectrum is ihara_bass_spectrum
    of its adjacency eigenvalues, unless some eigenvalue lies within
    IHARA_BASS_MIN_DISC of the double root (or d = 1): then the lifted NB
    operator is solved densely.  The B(chi) spectra are solved directly,
    never derived from A(chi): one complex solve per conjugate pair
    {chi, -chi}, whose partner row is its exact conjugate, and one real
    solve per self-conjugate chi (see character_spectra).
    """
    base = signing.base
    nb_dim = 2 * base.m * signing.group.fiber_size
    if include_nonbacktracking is None:
        include_nonbacktracking = nb_dim <= graphs.MAX_DENSE_DIM
    elif include_nonbacktracking and nb_dim > graphs.MAX_DENSE_DIM:
        raise ValueError(f"lifted non-backtracking spectrum has {nb_dim} "
                         "elements, above the dense cap "
                         f"{graphs.MAX_DENSE_DIM}")
    lifted = lift(base, signing, allow_disconnected=True)
    mults = signing.group.character_multiplicities()
    counts = np.fromiter(mults.values(), dtype=np.int64, count=len(mults))
    chars = np.flatnonzero(counts)
    union = np.repeat(character_spectra(signing, chars, "adjacency"),
                      counts[chars], axis=0)
    alpha = adjacency_spectrum(lifted)
    adj_dist = multiset_max_distance(alpha, union)
    nb_dist = None
    if include_nonbacktracking:
        union = np.repeat(character_spectra(signing, chars, "nonbacktracking"),
                          counts[chars], axis=0)
        d = base.d
        disc = alpha * alpha - 4.0 * (d - 1)
        if d >= 2 and np.abs(disc).min() >= IHARA_BASS_MIN_DISC:
            nb = ihara_bass_spectrum(alpha, d, lifted.m - lifted.n)
        else:
            nb = np.linalg.eigvals(nonbacktracking(lifted))
        # nb repeats values exactly (+-1 each M - N times); the bottleneck
        # matching merges them with their counts
        nb_dist = multiset_max_distance(union, nb)
    passed = adj_dist <= tol and (nb_dist is None or nb_dist <= tol)
    return UnionReport(adj_dist, nb_dist, tol, passed, alpha)


def decomposition_probe(signing: Signing, lifted: RegularGraph | None = None,
                        seed: int = 0) -> float:
    """Relative error of A_lift = F (+)_chi A(chi) F^-1 on one random probe.

    The fiber is ordered by group element, element g at the point g.0
    that it carries 0 to, and transformed along it by np.fft.fftn over the
    factor axes: Zhat[:, chi] = sum_g conj(chi(g)) Z[:, g].  Then
    (A_lift Z)hat[:, chi] = A(chi) Zhat[:, chi] for every character if and
    only if the decomposition holds, and a complex Gaussian Z drawn from
    `seed` exposes any difference with probability 1.  A_lift is one
    gather over `lifted.adj` (the signing's lift, built when not given);
    A(chi) is applied edge by edge, chi(s_e) forward and its conjugate on
    reversed edges, as in signed_operators.  Returns
    max |lhs - rhs| / max |rhs|; equal operators have equal spectra, so
    passing PROBE_TOL is at least as strong as spectrum_union_check's
    adjacency half.  The action must be regular, else ValueError
    (AbelianGroup.irregularity).
    """
    base, group = signing.base, signing.group
    if group.irregularity:
        raise ValueError(group.irregularity)
    ell, n = group.fiber_size, base.n
    elems = np.stack(np.unravel_index(np.arange(group.order), group.factors),
                     axis=1)
    point = group.action(elems, [0])[:, 0]
    if lifted is None:
        lifted = lift(base, signing, allow_disconnected=True)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n * ell) + 1j * rng.standard_normal(n * ell)
    shape = (n,) + group.factors

    def fourier(v):
        by_element = v.reshape(n, ell)[:, point].reshape(shape)
        return np.fft.fftn(by_element, axes=range(1, len(shape))
                           ).reshape(n, ell)

    lhs = fourier(z[lifted.adj].sum(axis=1))
    zhat = fourier(z)
    # chi(s_e) with each term c x / m reduced mod 1 in integers first:
    # char_table's unreduced angles drift by about l eps (a probe error of
    # 1.4e-12 at l = 4096), the FFT's twiddles do not
    chars = np.unravel_index(np.arange(ell), group.factors)
    turns = sum(np.multiply.outer(c, x) % m / m for c, x, m in
                zip(chars, signing.values.T, group.factors))
    vals = np.exp(TWO_PI * 1j * turns)  # (ell, m)
    phase = vals.T[base.eid_table]  # (n, d, ell): chi(s_e) on slot (u, j)
    backward = base.adj < np.arange(n)[:, None]
    phase[backward] = phase[backward].conj()
    rhs = (phase * zhat[base.adj]).sum(axis=1)
    scale = np.abs(rhs).max(initial=0.0)
    err = np.abs(lhs - rhs).max(initial=0.0)
    return float(err / scale) if scale else float(err)


def lift_lambda(signing: Signing, lam_base: float | None = None
                ) -> tuple[float, float, list[float]]:
    """(lambda of the lift, lambda of the base, per-nontrivial-character radii).

    Uses the character decomposition, so no lifted matrix is built: every
    character occurs once only when the action is regular, so any other
    action is refused (AbelianGroup.irregularity).  A search evaluating
    many signings of one base passes lambda2(base) once as `lam_base`.
    """
    if signing.group.irregularity:
        raise ValueError(signing.group.irregularity)
    if lam_base is None:
        lam_base = lambda2(signing.base)
    eigs = character_spectra(signing, np.arange(1, signing.group.order),
                             "adjacency")
    rhos = [float(r) for r in np.abs(eigs).max(axis=1)]
    return max([lam_base] + rhos), lam_base, rhos


# ---------------------------------------------------------------------------
# Ihara-style bound and eigenvector transport
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IharaReport:
    lhs: float
    rho_b: float
    bound: float
    trivial: bool
    passed: bool


def ihara_check(signing: Signing, chi=None) -> IharaReport:
    """Check the operator norm bound 2 max(sqrt(d-1), rho(B)) for a character.

    At the trivial character both sides drop their Perron roots: the left
    side is lambda(base) and rho is taken after removing one copy of d - 1.
    """
    base = signing.base
    d = base.d
    if chi is None:
        chi = (0,) * len(signing.group.factors)
    chi = _validate_element(signing.group.factors, chi)
    trivial = all(c == 0 for c in chi)
    if trivial:
        lhs = lambda2(base)
        rho_b = nb_radius_nontrivial(nonbacktracking(base))
    else:
        idx = signing.group.element_indices([chi])
        lhs = float(np.abs(character_spectra(signing, idx, "adjacency")).max())
        rho_b = float(np.abs(
            character_spectra(signing, idx, "nonbacktracking")).max())
    bound = 2.0 * max(math.sqrt(d - 1), rho_b)
    return IharaReport(lhs, rho_b, bound, trivial,
                       passed=lhs <= bound + 1e-9)


@dataclass(frozen=True)
class TransportResult:
    g: np.ndarray
    beta: complex
    roots: tuple[complex, complex]
    residual: float
    tol: float
    double_root: bool
    passed: bool


def nb_eigenvector_transport(signing: Signing, chi, f, alpha: float,
                             root: str = "large") -> TransportResult:
    """Push an adjacency eigenvector to a non-backtracking eigenvector.

    For A(chi) f = alpha f and a root beta of beta^2 - alpha beta + (d-1),
    g(u -> v) = conj(A[u, v]) f(u) - beta f(v) satisfies B(chi) g = beta g.
    The residual tolerance relaxes from 1e-7 to 1e-5 near the double root
    alpha^2 = 4 (d - 1).
    """
    base = signing.base
    d = base.d
    chi = tuple(int(c) for c in chi)
    f = np.asarray(f, dtype=np.complex128).ravel()
    if f.size != base.n:
        raise ValueError("f must have one entry per base vertex")
    A = signed_adjacency(signing, chi)
    err = np.abs(A @ f - alpha * f).max()
    if err > 1e-8 * (1.0 + abs(alpha)) * max(1.0, np.abs(f).max()):
        raise ValueError("f is not an eigenvector of the signed adjacency "
                         f"for alpha (residual {err:.3e})")
    disc = complex(alpha) ** 2 - 4.0 * (d - 1)
    sq = np.sqrt(disc + 0j)
    roots = ((alpha + sq) / 2.0, (alpha - sq) / 2.0)
    if root == "large":
        beta = max(roots, key=abs)
    elif root == "small":
        beta = min(roots, key=abs)
    else:
        raise ValueError("root must be 'large' or 'small'")
    u, v = base.directed_edges().T
    g = np.conj(A[u, v]) * f[u] - beta * f[v]
    norm = np.abs(g).max()
    if norm < 1e-12:
        raise ValueError("transported vector vanished (degenerate f, alpha)")
    B = signed_nonbacktracking(signing, chi)
    residual = float(np.abs(B @ g - beta * g).max() / norm)
    double_root = abs(disc) <= 1e-8 * 4.0 * (d - 1)
    tol = 1e-5 if double_root else 1e-7
    return TransportResult(g=g, beta=beta, roots=roots, residual=residual,
                           tol=tol, double_root=double_root,
                           passed=residual <= tol)


# ---------------------------------------------------------------------------
# boolean Rayleigh quotients and the expander mixing inequality
# ---------------------------------------------------------------------------

def boolean_rayleigh_max(mat, mode: str = "exhaustive", trials: int = 2000,
                         seed: int = 0) -> float:
    """max |1_S^T M 1_T| / sqrt(|S| |T|) over disjoint vertex subsets.

    The exhaustive mode scans every support of S exactly; the sampled mode
    draws random S and, grouped by size, solves T exactly as the exhaustive
    scan does, so it never exceeds the exhaustive value.
    """
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    if mode == "exhaustive":
        return kernels.rayleigh_01_max(m)
    if mode != "sampled":
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    if trials < 1:
        raise ValueError("trials must be positive")
    n = m.shape[0]
    rng = np.random.default_rng(seed)
    draws = (rng.integers(0, 2, size=n).astype(bool) for _ in range(trials))
    kept = [u for u in draws if u.any() and not u.all()]
    sel = np.array(kept, dtype=bool).reshape(len(kept), n)
    sizes = sel.sum(axis=1)
    best = 0.0
    for s in np.unique(sizes).tolist():
        group = sel[sizes == s]
        best = max(best, kernels._rayleigh_max(
            m, s, len(group), lambda lo, hi, group=group: group[lo:hi]))
    return best


@dataclass(frozen=True)
class MixingReport:
    edge_count: float
    lhs: float
    rhs: float
    passed: bool


def mixing_check(G: RegularGraph, S, T, tol: float = 1e-9) -> MixingReport:
    """Expander mixing: |e(S,T) - d |S| |T| / n| <= lambda sqrt(|S| |T|)."""
    s_idx = sorted(set(int(x) for x in S))
    t_idx = sorted(set(int(x) for x in T))
    if not s_idx or not t_idx:
        raise ValueError("S and T must be nonempty")
    if min(s_idx + t_idx) < 0 or max(s_idx + t_idx) >= G.n:
        raise ValueError("vertex label out of range")
    A = G.adjacency_matrix()
    e_st = float(A[np.ix_(s_idx, t_idx)].sum())
    lhs = abs(e_st - G.d * len(s_idx) * len(t_idx) / G.n)
    rhs = lambda2(G) * math.sqrt(len(s_idx) * len(t_idx))
    return MixingReport(e_st, lhs, rhs, passed=lhs <= rhs + tol)
