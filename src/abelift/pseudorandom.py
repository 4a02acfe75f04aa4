"""Small-bias supports over (Z_l')^m and expander-walk signings.

The bias of a set against a character is the magnitude of the character
sum averaged over the set; a nu-biased set keeps every nontrivial bias
at most nu.  bias_exact takes every nontrivial character and
bias_sampled random ones, both evaluated in the blocks of the exact scan
(kernels._bias_max), so a sampled bias keeps its exact 0 and 1 and its
memory bound.  A sampled bias is only a lower estimate, so one verdict,
BiasedSet.proved, judges every bias claim: it measures the bias exactly
(kernels.bias_scan, the one refusal of a space above
kernels.EXACT_CHAR_CAP characters) and holds it to claimed_bias.  The
biased-set search, the support search and the certificate verifier all
take their verdict from it.

Signings drawn by a random walk on an auxiliary expander inherit tail
bounds strong enough for the derandomized searches.  Every walk is drawn
on the `auxiliary_expander` of a master seed: all seeds of a walk search
walk on its one graph (`expander_walk_signing` reads walk i as a
signing), and `hoeffding_tail_check` draws its batch of walks on the
graph of its seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .graphs import (DENSE_BYTES, RegularGraph, Signing, _integer_rows,
                     random_regular_dense)
from .groups import AbelianGroup
from .serial import is_integer, is_number

# float slack allowed between an exact bias and the nu it is held to
BIAS_SLACK = 1e-12
_SAMPLED_TRIALS = 2048


def bias_exact(support, ellp: int) -> float:
    """Exact max nontrivial character bias; refuses above the character cap."""
    return kernels.bias_scan(support, ellp)


def bias_sampled(support, ellp: int, trials: int = _SAMPLED_TRIALS,
                 seed: int = 0) -> float:
    """Lower estimate of the max bias from random nontrivial characters;
    0.0, as from bias_exact, when the space has no nontrivial character."""
    if trials < 1:
        raise ValueError("trials must be positive")
    sup = np.ascontiguousarray(support, dtype=np.int64) % ellp
    if sup.ndim != 2 or sup.shape[0] == 0:
        raise ValueError("support must be a nonempty (N, m) array")
    m = sup.shape[1]
    if ellp == 1 or m == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    best = 0.0
    done = 0
    while done < trials:
        chars = rng.integers(0, ellp, size=(trials - done, m))
        chars = chars[np.any(chars != 0, axis=1)]
        done += chars.shape[0]
        best = max(best, kernels._bias_max(
            sup, ellp, len(chars), lambda lo, hi, chars=chars: chars[lo:hi]))
    return best


class _AboveClaim(ValueError):
    """A measured bias above the claimed one (BiasedSet.proved)."""


@dataclass
class BiasedSet:
    """A support in (Z_ellp)^m with a claimed and a verified bias."""

    ellp: int
    m: int
    support: np.ndarray
    claimed_bias: float
    verified: dict

    def __post_init__(self):
        sup = np.asarray(self.support, dtype=np.int64)
        if sup.ndim != 2 or sup.shape[1] != self.m:
            raise ValueError("support must be (N, m)")
        if sup.shape[0] == 0:
            raise ValueError("support is empty")
        self.support = sup % self.ellp

    @property
    def size(self) -> int:
        return int(self.support.shape[0])

    def verify(self, trials: int = _SAMPLED_TRIALS, seed: int = 0) -> dict:
        """Re-measure the bias, exactly when the character space allows."""
        if self.ellp ** self.m <= kernels.EXACT_CHAR_CAP:
            value = bias_exact(self.support, self.ellp)
            report = {"mode": "exact", "value": value}
        else:
            value = bias_sampled(self.support, self.ellp, trials, seed)
            report = {"mode": "sampled", "value": value, "trials": trials,
                      "seed": seed}
        return report

    def proved(self) -> "BiasedSet":
        """This set with verified = {"mode": "exact", "value": bias}, the
        bias measured here; the stored verified is never read.  ValueError
        when the character space is above the exact cap (bias_exact
        refuses it: only a sampled, lower estimate exists there) or the
        bias exceeds claimed_bias: no certificate could prove the claim.
        """
        bias = bias_exact(self.support, self.ellp)
        if bias > self.claimed_bias + BIAS_SLACK:
            raise _AboveClaim(f"exact bias {bias!r} exceeds claimed_bias "
                              f"{self.claimed_bias!r}")
        return BiasedSet(self.ellp, self.m, self.support, self.claimed_bias,
                         {"mode": "exact", "value": bias})

    def translate(self, h: Sequence[int]) -> "BiasedSet":
        """Shift every support point by h; bias is invariant under this."""
        h = np.asarray(h, dtype=np.int64) % self.ellp
        if h.shape != (self.m,):
            raise ValueError("translation must have m coordinates")
        return BiasedSet(self.ellp, self.m, (self.support + h) % self.ellp,
                         self.claimed_bias, dict(self.verified))

    def to_json(self) -> dict:
        return {
            "ellp": self.ellp,
            "m": self.m,
            "support": [[int(x) for x in row] for row in self.support],
            "claimed_bias": float(self.claimed_bias),
            "verified": self.verified,
        }

    @staticmethod
    def from_json(payload: dict) -> "BiasedSet":
        """Read a to_json payload; a ValueError names a malformed field."""
        for key, holds, expected in (
                ("ellp", lambda x: is_integer(x) and x > 0, "an integer > 0"),
                ("m", is_integer, "an integer"),
                ("claimed_bias", is_number, "a number"),
                ("support", lambda x: isinstance(x, list) and all(
                    isinstance(row, list) for row in x), "a list of rows"),
                ("verified", lambda x: isinstance(x, dict), "an object")):
            if not holds(payload.get(key)):
                raise ValueError(f"biased set {key} {payload.get(key)!r:.40}"
                                 f", expected {expected}")
        return BiasedSet(payload["ellp"], payload["m"],
                         _integer_rows(payload["support"], "support entry"),
                         float(payload["claimed_bias"]), payload["verified"])


def _full_product(ellp: int, m: int) -> np.ndarray:
    grids = np.meshgrid(*[np.arange(ellp)] * m, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


def _random_support(rng, ellp: int, m: int, size: int) -> np.ndarray:
    """size distinct points, as base-ellp digit rows of sorted indices."""
    total = ellp ** m
    idx = np.sort(rng.choice(total, size=min(size, total), replace=False))
    return idx[:, None] // ellp ** np.arange(m, dtype=np.int64) % ellp


def biased_set_search(ellp: int, m: int, nu: float, size_budget: int,
                      trial_budget: int = 64, seed: int = 0) -> BiasedSet:
    """Find a verified nu-biased support of at most size_budget points.

    Deterministic for fixed arguments: the identity singleton first (bias
    exactly 1), the full product set when it fits the budget (bias exactly
    0), then random supports of budget size.  A candidate is admitted by
    BiasedSet.proved, so every returned set carries the exact bias that
    admitted it; the singleton takes no draw, so its measurement refuses a
    space above the exact cap before any draw.
    """
    if ellp < 2 or m < 1:
        raise ValueError("need ellp >= 2 and m >= 1")
    if not 0.0 <= nu <= 1.0:
        raise ValueError("nu must lie in [0, 1]")
    if size_budget < 1:
        raise ValueError("size budget must be positive")
    if trial_budget < 1:
        raise ValueError("trial budget must be positive")
    rng = np.random.default_rng(seed)
    for trial in range(trial_budget):
        if trial == 0:
            support = np.zeros((1, m), dtype=np.int64)
        elif trial == 1 and ellp ** m <= size_budget:
            support = _full_product(ellp, m)
        else:
            support = _random_support(rng, ellp, m, size_budget)
        try:
            return BiasedSet(ellp, m, support, nu, {}).proved()
        except _AboveClaim:
            pass
    raise RuntimeError(f"no nu={nu} support found within {trial_budget} trials")


# ---------------------------------------------------------------------------
# expander-walk signings
# ---------------------------------------------------------------------------

AUX_LAMBDA_FACTOR = 3.0
AUX_ATTEMPTS = 256  # auxiliary graphs drawn before giving up


def effective_walk_degree(ell: int, dprime: int) -> int:
    """Auxiliary degree capped so a simple d'-regular graph on [ell] exists."""
    if ell < 3:
        raise ValueError("walk signings need fiber size >= 3")
    if dprime < 2 or dprime % 2:
        raise ValueError("dprime must be an even integer >= 2")
    return min(dprime, 2 * ((ell - 1) // 2))


def _regular_or_complement(ell: int, d: int, rng) -> RegularGraph:
    """A random d-regular graph on [ell]; for d > (ell - 1) / 2 the
    complement of a random (ell - 1 - d)-regular one, since stub matching
    stalls as d nears ell."""
    dc = ell - 1 - d
    if d <= dc:
        return random_regular_dense(ell, d, rng)
    keep = ~np.eye(ell, dtype=bool)
    if dc:
        sparse = random_regular_dense(ell, dc, rng)
        keep[np.arange(ell)[:, None], sparse.adj] = False
    return RegularGraph(np.nonzero(keep)[1].reshape(ell, d))


def _walks(aux: RegularGraph, m: int, rng, trials: int) -> np.ndarray:
    """`trials` walks of m vertices on aux, as rows of a (trials, m) array:
    each starts at a uniform vertex and takes uniform steps, all walks
    advancing together.

    The starts are one draw and the steps one more, a C-order (m - 1,
    trials) array, so step-major as a loop of one size-`trials` draw per
    step would be; and it is the same stream as that loop: a bounded
    int64 draw below 2**32 takes one next_uint32 per value whatever the
    call's size, and PCG64 keeps the unused half of a 64-bit output in
    its own state, not in the call.
    """
    walks = np.empty((trials, m), dtype=np.int64)
    walks[:, 0] = rng.integers(aux.n, size=trials)
    steps = rng.integers(aux.d, size=(m - 1, trials))
    for step in range(1, m):
        walks[:, step] = aux.adj[walks[:, step - 1], steps[step - 1]]
    return walks


@dataclass(frozen=True)
class AuxExpander:
    """The auxiliary expander of master_seed; walk i is drawn on it by
    the walk stream of the seed pair (master_seed, i)."""

    graph: RegularGraph
    lam: float
    master_seed: int

    @property
    def bound(self) -> float:
        return AUX_LAMBDA_FACTOR * math.sqrt(self.graph.d - 1)

    def walk(self, m: int, i: int) -> np.ndarray:
        """Walk i, m vertices long: uniform start and steps on this graph,
        drawn from the walk half (spawn key (1,)) of SeedSequence((master_seed,
        i)), so it depends only on the graph and the pair.  The steps are
        one draw (_walks), the same stream as one scalar draw per step."""
        walk_ss = np.random.SeedSequence((self.master_seed, i), spawn_key=(1,))
        return _walks(self.graph, m, np.random.default_rng(walk_ss), 1)[0]

    def provenance(self) -> dict:
        return {"dprime_used": self.graph.d,
                "aux_hash": self.graph.content_hash(),
                "aux_lambda": self.lam, "aux_bound": self.bound}


def auxiliary_expander(ell: int, dprime: int, master_seed: int) -> AuxExpander:
    """The auxiliary d'-regular expander on [ell] that every walk is drawn on.

    Attempt k draws from the k-th child of the auxiliary half of
    SeedSequence(master_seed) (children spawned one per attempt, in the
    order of spawn(AUX_ATTEMPTS)) and is kept once its lambda is at most
    3 sqrt(d' - 1).  A degree above (ell - 1) / 2 is drawn as the
    complement of a random (ell - 1 - d')-regular graph, so every ell >= 3
    draws.
    """
    from .spectral import lambda2
    d_eff = effective_walk_degree(ell, dprime)
    aux_ss, _ = np.random.SeedSequence(master_seed).spawn(2)
    for _ in range(AUX_ATTEMPTS):
        child, = aux_ss.spawn(1)
        g = _regular_or_complement(ell, d_eff, np.random.default_rng(child))
        aux = AuxExpander(g, lambda2(g), master_seed)
        if aux.lam <= aux.bound:
            return aux
    raise RuntimeError("no auxiliary expander met the spectral bound")


def expander_walk_signing(base: RegularGraph, group: AbelianGroup,
                          aux: AuxExpander, i: int) -> Signing:
    """Walk i on aux read as a signing: walk vertex e is the Z_ell
    exponent of canonical edge e, so group must be Z_ell with ell the
    auxiliary graph's order."""
    if tuple(group.factors) != (aux.graph.n,):
        raise ValueError(f"a walk on [{aux.graph.n}] signs over "
                         f"Z_{aux.graph.n}, not {tuple(group.factors)}")
    return Signing(base, group, aux.walk(base.m, i).reshape(-1, 1))


@dataclass(frozen=True)
class HoeffdingReport:
    trials: int
    threshold: float
    empirical_re: float
    empirical_im: float
    bound: float
    sigma: float
    passed: bool


def hoeffding_tail_check(base: RegularGraph, ell: int, edge_subset,
                         threshold: float, trials: int = 10000, seed=0,
                         dprime: int = 36) -> HoeffdingReport:
    """Empirical tail of walk-signing character sums against the theory bound.

    For the character chi = (1) of Z_ell, sums sum_{e in U} chi(s(e)) over
    fresh walks should exceed `threshold` in absolute value (separately in
    the real and imaginary parts) with frequency at most
    2 exp(-t^2 / (128 e |U|)), up to 3 sigma of sampling slack.
    """
    edge_ids = sorted(set(int(e) for e in edge_subset))
    if edge_ids and (edge_ids[0] < 0 or edge_ids[-1] >= base.m):
        raise ValueError("edge id out of range")
    if trials < 1:
        raise ValueError("trials must be positive")
    # the walks and their steps, one int64 (trials, m) table each
    table = 16 * trials * base.m
    if table > DENSE_BYTES:
        raise ValueError(f"{trials} walks of {base.m} vertices need a "
                         f"{table}-byte walk table, above the cap of "
                         f"{DENSE_BYTES} bytes")
    graph = auxiliary_expander(ell, dprime, seed).graph
    _, walk_ss = np.random.SeedSequence(seed).spawn(2)
    values = _walks(graph, base.m, np.random.default_rng(walk_ss), trials)
    u_size = len(edge_ids)
    if u_size == 0:
        emp_re = emp_im = float(threshold <= 0.0)
        bound = 2.0 if threshold <= 0.0 else 0.0
    else:
        angles = 2.0 * np.pi * values[:, edge_ids] / ell
        re = np.cos(angles).sum(axis=1)
        im = np.sin(angles).sum(axis=1)
        emp_re = float((np.abs(re) >= threshold).mean())
        emp_im = float((np.abs(im) >= threshold).mean())
        bound = 2.0 * math.exp(-threshold ** 2 / (128.0 * math.e * u_size))
    b = min(bound, 1.0)
    sigma = math.sqrt(b * (1.0 - b) / trials)
    passed = (emp_re <= bound + 3.0 * sigma) and (emp_im <= bound + 3.0 * sigma)
    return HoeffdingReport(trials=trials, threshold=float(threshold),
                           empirical_re=emp_re, empirical_im=emp_im,
                           bound=bound, sigma=sigma, passed=passed)
