"""Signing searches over explicit candidate sets, with replayable certificates.

Two regimes: scanning the support of a small-bias distribution candidate
by candidate (derandomized), and drawing a batch of expander-walk
signings (exponential fiber size).  Both emit a certificate holding the
base, group, winning signing, per-character radii and provenance, and
both check the character decomposition against a built lift by a
Fourier probe (spectral.decomposition_probe) on a fixed cadence.

Both share one scan, which keeps the first candidate of least lambda.
Since lambda is a max over lambda(base) and the per-character radii, a
candidate is out as soon as one of them reaches the best lambda so far.
The scan decides characters one at a time and stops there (see _scan):
two Choleskys decide whether a radius lies below the best
(spectral.radius_below), a radius within their small relative margin of
it is solved by eigvalsh, and only a candidate that passes every
character is solved in full.  So the winner and its certificate are
those of a full solve of every candidate.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import serial, spectral
from .graphs import RegularGraph, Signing
from .groups import AbelianGroup
from .hikes import count_bounds
from .pseudorandom import (BiasedSet, auxiliary_expander,
                           expander_walk_signing)
from .spectral import (PROBE_TOL, decomposition_probe, lambda2, lift_lambda,
                       spectrum_union_check)

CERT_SCHEMA = "abelift.lift-certificate.v3"
# still verified: v2 differs only in its crosscheck block, and v1
# certificates are not replayed
CERT_SCHEMA_V2 = "abelift.lift-certificate.v2"
CERT_SCHEMA_V1 = "abelift.lift-certificate.v1"
# bound on the dense spectrum-union distance: a v1 or v2 certificate's
# crosscheck and the verifier's check_lift=True
CROSSCHECK_TOL = 1e-8
# the fields verify_certificate reads
REQUIRED_FIELDS = ("schema", "tool", "mode", "base", "base_hash", "group",
                   "signing", "lambda_base", "per_character_rho",
                   "lambda_lift", "target", "met_target", "winner_index",
                   "candidates_evaluated", "provenance", "crosscheck")


class CertificateFieldError(ValueError):
    """A certificate's base, group or signing cannot be read; `field`
    names it and `reason` says why."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"certificate {field} {reason}")
        self.field = field
        self.reason = reason


def certificate_signing(cert: dict) -> Signing:
    """The signing a certificate claims, read over its own base and group.

    Raises CertificateFieldError naming the first of base, group and
    signing that cannot be read; a signing that does not fit its base and
    group is named as the signing.
    """
    field = "base"
    try:
        base = RegularGraph.from_json(cert[field])
        field = "group"
        group = AbelianGroup.from_json(cert[field])
        field = "signing"
        return Signing(base, group, np.asarray(cert[field]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CertificateFieldError(field, f"cannot be read: {exc!r}"
                                    ) from exc


def _tool_stamp() -> dict:
    from . import __version__
    return {"name": "abelift", "version": __version__}


def reference_lambda(d: int) -> float:
    """Comparison curve sqrt(d) * log2(d) for walk-built lift expansions."""
    return math.sqrt(d) * math.log2(d)


@dataclass
class SearchResult:
    """A search's winner and certificate.  runtime_seconds and
    candidates_pruned (scanned candidates ruled out before a full solve)
    stay in process: the certificate holds neither."""

    signing: Signing
    lam: float
    certificate: dict
    runtime_seconds: float
    candidates_pruned: int


def _support_rows(support) -> np.ndarray:
    if isinstance(support, BiasedSet):
        return support.support
    rows = np.asarray(support, dtype=np.int64)
    if rows.ndim != 2:
        raise ValueError("support must be a 2-d array of exponent rows")
    return rows


def _crosscheck(signing: Signing, index: int) -> float:
    """The decomposition probe's error on candidate `index`, probed with
    seed `index` so that reruns write the same certificate."""
    err = decomposition_probe(signing, seed=index)
    if err > PROBE_TOL:
        raise RuntimeError(
            f"character decomposition disagrees with a built lift (probe "
            f"error {err:.3e})")
    return err


def _scan(signings, lam_base, target, crosscheck_every):
    """Scan signings in order and keep the first with the least lambda.

    lambda is max(lam_base, radii over the nontrivial characters).  The
    first signing is solved in full.  After it, with `best` the least
    lambda so far, a signing is pruned unsolved when lam_base >= best;
    otherwise _Pruner decides its characters one at a time, the one that
    pruned the previous signing first, by two Choleskys each
    (spectral.radius_below) and by eigvalsh inside their margin, and
    prunes it at the first radius >= best.  Every decision is the one a
    solve of that character would make (spectral.radius_margin), and a
    pruned signing has lambda >= best, so it could neither replace the
    first strict minimum nor meet a target (that would need best <=
    target, and the scan stops there).  A signing never pruned has every
    radius below best: it is the new best, solved in full by lift_lambda,
    so the winner keeps its index, lambda and radii.  The scan stops
    after the first signing meeting `target`; every crosscheck_every-th
    signing, pruned or not, has its character decomposition checked
    against a built lift by a Fourier probe.  Returns ((index, signing,
    lambda, radii) of the winner, signings evaluated, signings pruned,
    crosschecks run, largest probe error).
    """
    best = pruner = None
    evaluated = pruned = checks = 0
    max_check_err = 0.0
    for i, signing in enumerate(signings):
        evaluated += 1
        if crosscheck_every and i % crosscheck_every == 0:
            max_check_err = max(max_check_err, _crosscheck(signing, i))
            checks += 1
        if best is None:
            pruner = _Pruner(signing)
        elif lam_base >= best[2] or not pruner.all_below(signing, best[2]):
            pruned += 1
            continue
        lam, _, rhos = lift_lambda(signing, lam_base)
        best = (i, signing, lam, rhos)
        if target is not None and lam <= target:
            break
    return best, evaluated, pruned, checks, max_check_err


def _check_cadence(crosscheck_every: int) -> None:
    if crosscheck_every < 0:
        raise ValueError(f"crosscheck_every must be >= 0 (0 turns "
                         f"crosschecks off), got {crosscheck_every}")


class _Pruner:
    """Whether a scanned signing's radii all lie below a bound, character
    by character, over the base and group of the scan's first signing.

    Each A(chi) is written into one n x n buffer, chi(s_e) at (u, v) and
    its conjugate at (v, u) for each canonical edge e = (u, v), as
    graphs.signed_operators writes it.  chi's values on every group
    element are kept per character, up to STACK_BYTES of them; past that
    a character is evaluated on the signing's entries alone.
    """

    def __init__(self, signing: Signing):
        self.group = signing.group
        self.u, self.v = signing.base.edges.T
        self.mat = np.zeros((signing.base.n,) * 2, dtype=np.complex128)
        # nontrivial character indices less one, the last pruner first
        self.order = list(range(self.group.order - 1))
        self.columns = {}
        self.room = spectral.STACK_BYTES // (16 * self.group.order)

    def _values(self, k: int, elems: np.ndarray) -> np.ndarray:
        column = self.columns.get(k)
        if column is None:
            if len(self.columns) >= self.room:
                return self.group.char_table([k + 1], elems)[0]
            column = self.columns[k] = self.group.char_table(
                [k + 1], np.arange(self.group.order))[0]
        return column[elems]

    def all_below(self, signing: Signing, bound: float) -> bool:
        """Whether every nontrivial radius of `signing` is below `bound`.

        Characters are tried in `order`.  spectral.radius_below decides
        each, and one it leaves undecided is solved by
        spectral.character_spectra; the first whose radius reaches
        `bound` moves to the front of `order`, so the next signing tries
        it first.
        """
        elems = self.group.element_indices(signing.values)
        for pos, k in enumerate(self.order):
            vals = self._values(k, elems)
            self.mat[self.u, self.v] = vals
            self.mat[self.v, self.u] = vals.conj()
            below = spectral.radius_below(self.mat, bound)
            if below is None:
                eigs = spectral.character_spectra(signing, [k + 1],
                                                  "adjacency")
                below = float(np.abs(eigs).max()) < bound
            if not below:
                self.order.insert(0, self.order.pop(pos))
                return False
        return True


def derandomized_lift_search(base: RegularGraph, group: AbelianGroup, support,
                             target: float | None = None,
                             crosscheck_every: int = 50) -> SearchResult:
    """Scan signings drawn from a support, in row order, for small lambda.

    Stops at the first candidate meeting `target` when one is given,
    otherwise keeps the best.  Every crosscheck_every-th candidate (none
    at 0; a negative cadence is refused) has its character decomposition
    checked against a built lift by a Fourier probe.  The group must be
    one cyclic factor acting transitively; a BiasedSet must be over that
    Z_ell, plain rows are read mod ell.
    """
    _check_cadence(crosscheck_every)
    if len(group.factors) != 1:
        raise ValueError("support-driven search expects one cyclic factor")
    if not group.is_transitive():
        raise ValueError("group action must be transitive")
    if group.order != group.fiber_size:
        raise ValueError(f"group action must be regular: a group of order "
                         f"{group.order} acts on {group.fiber_size} fiber "
                         "points")
    if isinstance(support, BiasedSet) and support.ellp != group.order:
        raise ValueError(f"biased set is over Z_{support.ellp} but the group "
                         f"is Z_{group.order}")
    rows = _support_rows(support) % group.factors[0]
    if rows.shape[0] == 0:
        raise ValueError("support is empty")
    if rows.shape[1] != base.m:
        raise ValueError("support rows must have one exponent per edge")
    t0 = time.perf_counter()
    lam_base = lambda2(base)
    signings = (Signing(base, group, row.reshape(-1, 1)) for row in rows)
    best, evaluated, pruned, checks, max_check_err = _scan(
        signings, lam_base, target, crosscheck_every)
    best_idx, signing, best_lam, best_rhos = best
    runtime = time.perf_counter() - t0
    provenance = {"kind": "biased-support"}
    if isinstance(support, BiasedSet):
        provenance["dist"] = support.to_json()
    else:
        provenance["support_size"] = int(rows.shape[0])
        provenance["support_hash"] = serial.object_hash(rows.tolist())
    cert = _certificate("derandomized", base, group, signing, best_lam,
                        lam_base, best_rhos, target, best_idx, evaluated,
                        provenance, checks, max_check_err)
    return SearchResult(signing, best_lam, cert, runtime, pruned)


def exponential_regime_build(base: RegularGraph, ell: int, seeds: int,
                             dprime: int = 36, master_seed: int = 0,
                             target: float | None = None,
                             crosscheck_every: int = 50) -> SearchResult:
    """Draw expander-walk signings and keep the spectrally best lift.

    One auxiliary d'-regular expander on [ell] is drawn from master_seed
    (pseudorandom.auxiliary_expander) and seed i is its walk i read as a
    signing (pseudorandom.expander_walk_signing): it depends only on the
    graph and the pair (master_seed, i), so a prefix of the seeds draws
    the same walks.  The certificate records the graph once (dprime_used,
    aux_hash, aux_lambda, aux_bound) and the winner's pair as winner_seed,
    from which `verify_certificate` rebuilds both the graph and the
    winning walk.
    """
    if seeds < 1:
        raise ValueError("need at least one walk seed")
    _check_cadence(crosscheck_every)
    t0 = time.perf_counter()
    aux = auxiliary_expander(ell, dprime, master_seed)
    lam_base = lambda2(base)
    group = AbelianGroup.cyclic(ell)
    signings = (expander_walk_signing(base, group, aux, i)
                for i in range(seeds))
    best, evaluated, pruned, checks, max_check_err = _scan(
        signings, lam_base, target, crosscheck_every)
    idx, signing, lam, rhos = best
    runtime = time.perf_counter() - t0
    ref = reference_lambda(base.d)
    provenance = {
        "kind": "expander-walk",
        "master_seed": master_seed,
        "dprime": dprime,
        **aux.provenance(),
        "seeds_requested": seeds,
        "winner_seed": [master_seed, idx],
        "reference_curve": {"form": "sqrt(d)*log2(d)", "value": ref,
                            "ratio": lam / ref},
    }
    cert = _certificate("walk", base, group, signing, lam, lam_base, rhos,
                        target, idx, evaluated, provenance, checks,
                        max_check_err)
    return SearchResult(signing, lam, cert, runtime, pruned)


def _certificate(mode, base, group, signing, lam, lam_base, rhos, target,
                 winner_index, evaluated, provenance, checks, max_check_err):
    met = None if target is None else bool(lam <= target)
    return {
        "schema": CERT_SCHEMA,
        "tool": _tool_stamp(),
        "mode": mode,
        "base": base.to_json(),
        "base_hash": base.content_hash(),
        "group": group.to_json(),
        "signing": [[int(x) for x in row] for row in signing.values],
        "lambda_base": float(lam_base),
        "per_character_rho": [float(r) for r in rhos],
        "lambda_lift": float(lam),
        "target": None if target is None else float(target),
        "met_target": met,
        "winner_index": int(winner_index),
        "candidates_evaluated": int(evaluated),
        "provenance": provenance,
        "crosscheck": {"kind": "fourier-probe", "count": checks,
                       "max_error": float(max_check_err), "tol": PROBE_TOL},
    }


def verify_certificate(cert: dict, tol: float = 1e-9,
                       check_lift: bool = False) -> dict:
    """Recompute a certificate's spectral claims from its own payload.

    Besides the recomputed errors, the certificate's bookkeeping must hold:
    every one of REQUIRED_FIELDS present, a known schema (v3, v2 or v1), a
    tool object whose name is "abelift", a known mode, one radius per
    nontrivial character, met_target equal to lambda_lift <= target (None
    without a target), a winner_index among the candidates_evaluated, and
    a crosscheck block that the search could have written (see
    _crosscheck_fault).  A v3 or v2 walk certificate also replays its
    provenance: the auxiliary expander rebuilt from (master_seed, dprime,
    ell) must match dprime_used, aux_hash, aux_bound and (within tol)
    aux_lambda, winner_seed must be [master_seed, winner_index], and the
    walk it draws on that graph must equal the signing.  v1 certificates
    are not replayed.  Each violated rule is named under "invalid" with ok
    false; a missing field, or a base, group or signing that cannot be
    read (certificate_signing), is named before anything is recomputed.

    The lift is checked against the character decomposition by
    spectral.decomposition_probe at every size: lift_probe_error must be
    within PROBE_TOL, and a group whose action is not regular is named
    under "group".  check_lift=True also builds the lift and solves it
    densely (spectrum_union_check): lift_union_distance, null otherwise,
    must be within CROSSCHECK_TOL.
    """
    invalid = {key: "missing" for key in REQUIRED_FIELDS if key not in cert}
    if not invalid:
        try:
            signing = certificate_signing(cert)
        except CertificateFieldError as exc:
            invalid[exc.field] = exc.reason
    if invalid:
        return {"ok": False, "hash_ok": None, "lambda_error": None,
                "lambda_base_error": None, "rho_error": None,
                "lift_union_distance": None, "lift_probe_error": None,
                "invalid": invalid}
    lam, lam_base, rhos = lift_lambda(signing)
    if cert["schema"] not in (CERT_SCHEMA, CERT_SCHEMA_V2, CERT_SCHEMA_V1):
        invalid["schema"] = (f"{cert['schema']!r}, expected {CERT_SCHEMA!r}, "
                             f"{CERT_SCHEMA_V2!r} or {CERT_SCHEMA_V1!r}")
    tool = cert["tool"]
    if not isinstance(tool, dict):
        invalid["tool"] = f"{tool!r}, expected an object named 'abelift'"
    elif tool.get("name") != "abelift":
        invalid["tool"] = f"name {tool.get('name')!r}, expected 'abelift'"
    if cert["mode"] not in ("derandomized", "walk"):
        invalid["mode"] = f"{cert['mode']!r}, expected derandomized or walk"
    elif cert["mode"] == "walk" and cert["schema"] in (CERT_SCHEMA,
                                                       CERT_SCHEMA_V2):
        invalid.update(_walk_replay_faults(cert, signing, tol))
    invalid.update(_number_faults(cert))
    claimed = cert["per_character_rho"]
    rho_err = None
    if "per_character_rho" not in invalid:
        if len(claimed) == len(rhos):
            rho_err = max((abs(a - b) for a, b in
                           zip(sorted(rhos), sorted(claimed))), default=0.0)
        else:
            invalid["per_character_rho"] = (
                f"{len(claimed)} radii, expected {len(rhos)}")
    target = cert["target"]
    if not invalid.keys() & {"lambda_lift", "target"}:
        met = None if target is None else bool(cert["lambda_lift"] <= target)
        if cert["met_target"] is not met:
            invalid["met_target"] = (f"{cert['met_target']!r}, expected "
                                     f"{met!r}")
    winner, evaluated = cert["winner_index"], cert["candidates_evaluated"]
    if invalid.keys() & {"winner_index", "candidates_evaluated"}:
        evaluated = None  # named already: it bounds no crosscheck count
    elif not 0 <= winner < evaluated:
        invalid["candidates_evaluated"] = (
            f"{evaluated} evaluated cannot include winner_index {winner}")
        evaluated = None
    if "schema" not in invalid:
        fault = _crosscheck_fault(cert["schema"], cert["crosscheck"],
                                  evaluated)
        if fault:
            invalid["crosscheck"] = fault
    lam_err = (None if "lambda_lift" in invalid
               else abs(lam - cert["lambda_lift"]))
    base_err = (None if "lambda_base" in invalid
                else abs(lam_base - cert["lambda_base"]))
    hash_ok = signing.base.content_hash() == cert["base_hash"]
    probe_err = lift_dist = None
    try:
        probe_err = decomposition_probe(signing)
    except ValueError as exc:
        invalid["group"] = str(exc)
    if check_lift:
        lift_dist = spectrum_union_check(
            signing, CROSSCHECK_TOL,
            include_nonbacktracking=False).adjacency_distance
    ok = (not invalid and hash_ok and rho_err <= tol and lam_err <= tol
          and base_err <= tol and probe_err <= PROBE_TOL
          and (lift_dist is None or lift_dist <= CROSSCHECK_TOL))
    report = {"ok": bool(ok), "hash_ok": hash_ok, "lambda_error": lam_err,
              "lambda_base_error": base_err, "rho_error": rho_err,
              "lift_union_distance": lift_dist, "lift_probe_error": probe_err}
    if invalid:
        report["invalid"] = invalid
    return report


def _crosscheck_fault(schema: str, block, evaluated) -> str | None:
    """Why a crosscheck block could not have come from its search, or None.

    A v3 block records the Fourier probe (kind "fourier-probe", tol
    PROBE_TOL, max_error), a v1 or v2 block the dense union check (tol
    CROSSCHECK_TOL, max_distance).  The error lies in [0, tol] and count
    is an integer in [0, evaluated], or only >= 0 when evaluated is None.
    """
    if not isinstance(block, dict):
        return f"{block!r}, expected an object"
    if schema == CERT_SCHEMA:
        tol, err_key = PROBE_TOL, "max_error"
        if block.get("kind") != "fourier-probe":
            return f"kind {block.get('kind')!r}, expected 'fourier-probe'"
    else:
        tol, err_key = CROSSCHECK_TOL, "max_distance"
    if block.get("tol") != tol:
        return f"tol {block.get('tol')!r}, expected {tol!r}"
    err, count = block.get(err_key), block.get("count")
    if not (_is_number(err) and 0 <= err <= tol):
        return f"{err_key} {err!r}, expected within [0, {tol!r}]"
    if not (_is_number(count) and isinstance(count, int) and 0 <= count
            and (evaluated is None or count <= evaluated)):
        return (f"count {count!r}, expected an integer within [0, "
                f"candidates_evaluated = {evaluated!r}]")
    return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number_faults(cert: dict) -> dict:
    """The fields that must hold numbers but hold something else, named:
    lambda_base, lambda_lift and target (or null) are numbers, winner_index
    and candidates_evaluated integers, per_character_rho a list of
    numbers."""
    faults = {}
    for key, kind in (("lambda_base", "a number"),
                      ("lambda_lift", "a number"),
                      ("target", "a number or null"),
                      ("winner_index", "an integer"),
                      ("candidates_evaluated", "an integer")):
        value = cert[key]
        if key == "target" and value is None:
            continue
        if not _is_number(value) or (kind == "an integer"
                                     and not isinstance(value, int)):
            faults[key] = f"{value!r:.40}, expected {kind}"
    rhos = cert["per_character_rho"]
    if not (isinstance(rhos, list) and all(_is_number(r) for r in rhos)):
        faults["per_character_rho"] = (f"{rhos!r:.40}, expected a list of "
                                       "numbers")
    return faults


def _walk_replay_faults(cert: dict, signing: Signing, tol: float) -> dict:
    """Named mismatches between a v2 walk provenance and its replay."""
    prov = cert["provenance"]
    try:
        aux = auxiliary_expander(signing.group.fiber_size, prov["dprime"],
                                 prov["master_seed"])
        expected_seed = [prov["master_seed"], cert["winner_index"]]
        replay = (expander_walk_signing(signing.base, signing.group, aux,
                                        cert["winner_index"])
                  if prov["winner_seed"] == expected_seed else None)
    except (KeyError, TypeError, ValueError, RuntimeError) as exc:
        return {"provenance": f"cannot be replayed: {exc!r}"}
    faults = {}
    for key, value in aux.provenance().items():
        claimed = prov.get(key)
        close = (key == "aux_lambda" and isinstance(claimed, float)
                 and abs(claimed - value) <= tol)
        if claimed != value and not close:
            faults[key] = f"{claimed!r}, rebuilt {value!r}"
    if replay is None:
        faults["winner_seed"] = (f"{prov['winner_seed']!r}, expected "
                                 f"[master_seed, winner_index] = "
                                 f"{expected_seed!r}")
    else:
        differ = int((signing.values != replay.values).any(axis=1).sum())
        if differ:
            faults["signing"] = (f"{differ} of {signing.base.m} entries "
                                 "differ from the walk replayed from "
                                 "winner_seed")
    return faults


def markov_bound_report(base: RegularGraph, dist: BiasedSet, k: int,
                        eps: float, delta: float | None = None,
                        r: int | None = None) -> dict:
    """Report the hike-count route to a spectral bound for a biased signing.

    The distribution premise nu <= (n l d^2)^(-1) (eps/d)^(2k) is reported,
    never asserted, and only an exact bias can satisfy it (a sampled one is
    a lower estimate); gamma' adds log2(l d^2) / (2k) to the plain rates.
    """
    from .graphs import bicycle_free_radius
    n, d, ell = base.n, base.d, dist.ellp
    if dist.m != base.m:
        raise ValueError("distribution coordinates must match base edges")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if r is None:
        bfr = bicycle_free_radius(base)
        r = base.n if math.isinf(bfr) else int(bfr)
    r_floored = r < 1
    r_used = max(1, r)
    bounds = count_bounds(n, d, k, r_used, delta)
    shift = math.log2(ell * d * d) / (2 * k)
    gamma1p = bounds.gamma1 + shift
    gamma2p = None if bounds.gamma2 is None else bounds.gamma2 + shift
    nu_required = (eps / d) ** (2 * k) / (n * ell * d * d)
    verified = dist.verified or dist.verify()
    nu_achieved = float(verified["value"])
    report = {
        "n": n, "d": d, "ell": ell, "k": k, "eps": eps,
        "r_used": r_used, "r_floored": r_floored,
        "gamma1": bounds.gamma1, "gamma1_prime": gamma1p,
        "lambda_bound1": (2.0 ** gamma1p) * math.sqrt(d - 1) + eps,
        "gamma2": bounds.gamma2, "gamma2_prime": gamma2p,
        "nu_required": nu_required,
        "nu_achieved": nu_achieved,
        "nu_mode": verified["mode"],
        "premise_satisfied": bool(verified["mode"] == "exact"
                                  and nu_achieved <= nu_required),
    }
    if gamma2p is not None:
        report["lambda_bound2"] = (2.0 ** gamma2p) * math.sqrt(d - 1) + eps
    return report
