"""Signing searches over explicit candidate sets, with replayable certificates.

Two regimes: scanning the support of a small-bias distribution candidate
by candidate (derandomized), and drawing a batch of expander-walk
signings (exponential fiber size).  Both emit a certificate holding the
base, group, winning signing, per-character radii and provenance, and
both check the character decomposition against a built lift by a
Fourier probe (spectral.decomposition_probe) on a fixed cadence.

Both share one scan, which keeps the first candidate of least lambda.
Since lambda is a max over lambda(base) and the per-character radii, a
candidate is out as soon as one of them is proved to reach the best
lambda so far.  The scan tries characters one at a time and stops there
(see _scan): one Cholesky per sign proves a radius reaches the best
(spectral.radius_reaches), and every candidate not ruled out is solved
in full and kept only when its lambda is below the best.  So the winner
and its certificate are those of a full solve of every candidate.
"""
from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase

import numpy as np

from . import serial, spectral
from .graphs import RegularGraph, Signing, _integer_rows
from .groups import AbelianGroup
from .hikes import count_bounds
from .pseudorandom import (BIAS_SLACK, BiasedSet, auxiliary_expander,
                           expander_walk_signing)
from .serial import is_integer, is_number
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
    lambda so far, a signing is pruned unsolved when lam_base >= best or
    _Pruner proves a radius reaches best: solved, its lambda would be >=
    best (spectral.radius_margin).  Every other signing is solved by
    lift_lambda and becomes the best only when its lambda is below best,
    the first strict minimum a full solve of every signing finds.  The
    scan stops at the first new best meeting `target` (a signing meeting
    it is below every earlier one); every crosscheck_every-th signing,
    pruned or not, has its character decomposition checked against a
    built lift by a Fourier probe.  Returns ((index, signing, lambda,
    radii) of the winner, signings evaluated, signings pruned,
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
        elif lam_base >= best[2] or pruner.reaches(signing, best[2]):
            pruned += 1
            continue
        lam, _, rhos = lift_lambda(signing, lam_base)
        if best is None or lam < best[2]:
            best = (i, signing, lam, rhos)
            if target is not None and lam <= target:
                break
    return best, evaluated, pruned, checks, max_check_err


def _check_cadence(crosscheck_every: int) -> None:
    if crosscheck_every < 0:
        raise ValueError(f"crosscheck_every must be >= 0 (0 turns "
                         f"crosschecks off), got {crosscheck_every}")


class _Pruner:
    """Whether a scanned signing has a radius proved to reach a bound, by
    character, over the base and group of the scan's first signing.

    One character of each conjugate pair {chi, -chi} is tested, the one of
    smaller index: A(-chi) is the conjugate of A(chi) up to char_table's
    rounding, with the same spectrum, and a skipped test only leaves a
    signing to be solved in full.  Each A(chi) is written into one n x n
    buffer, chi(s_e) at (u, v) and its conjugate at (v, u) for each
    canonical edge e = (u, v), as graphs.signed_operators writes it.  A
    self-conjugate A(chi) (2 chi = 0) is +-1 up to that rounding and is
    factored in float64 (see reaches).  chi's values on every group
    element are kept per character, up to STACK_BYTES of them; past that
    a character is evaluated on the signing's entries alone.
    """

    def __init__(self, signing: Signing):
        self.group = signing.group
        self.d = signing.base.d
        self.u, self.v = signing.base.edges.T
        n = signing.base.n
        self.mat = np.zeros((n, n), dtype=np.complex128)
        self.real = np.zeros((n, n))
        chars = np.arange(1, self.group.order)
        neg = self.group.inverse_indices(chars)
        # nontrivial character indices less one, the last pruner first
        self.order = (chars[chars <= neg] - 1).tolist()
        self.self_conjugate = neg == chars
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

    def reaches(self, signing: Signing, bound: float) -> bool:
        """Whether some nontrivial radius of `signing` is proved to reach
        `bound` (spectral.radius_reaches).  Characters are tried in
        `order`, and the first proved moves to its front, so the next
        signing tries it first.

        A self-conjugate A(chi) differs from its real part by a Hermitian
        E of norm at most d max |Im chi(s_e)| (its largest row sum), so a
        proof that the real part reaches bound + that norm proves, by
        Weyl's inequality, that A(chi) reaches bound.
        """
        elems = self.group.element_indices(signing.values)
        for pos, k in enumerate(self.order):
            vals = self._values(k, elems)
            if self.self_conjugate[k]:
                mat = self.real
                mat[self.u, self.v] = mat[self.v, self.u] = vals.real
                t = bound + self.d * np.abs(vals.imag).max()
            else:
                mat, t = self.mat, bound
                mat[self.u, self.v] = vals
                mat[self.v, self.u] = vals.conj()
            if spectral.radius_reaches(mat, t):
                self.order.insert(0, self.order.pop(pos))
                return True
        return False


def derandomized_lift_search(base: RegularGraph, group: AbelianGroup, support,
                             target: float | None = None,
                             crosscheck_every: int = 50) -> SearchResult:
    """Scan signings drawn from a support, in row order, for small lambda.

    Stops at the first candidate meeting `target` when one is given,
    otherwise keeps the best.  Every crosscheck_every-th candidate (none
    at 0; a negative cadence is refused) has its character decomposition
    checked against a built lift by a Fourier probe.  The group must be
    one cyclic factor acting regularly (AbelianGroup.irregularity); a
    BiasedSet must be over that Z_ell, and its bias is measured before the
    scan (BiasedSet.proved, which refuses a claim it cannot prove) and
    recorded as its verified value; plain rows are read mod ell.
    """
    _check_cadence(crosscheck_every)
    if len(group.factors) != 1:
        raise ValueError("support-driven search expects one cyclic factor")
    if group.irregularity:
        raise ValueError(group.irregularity)
    if isinstance(support, BiasedSet) and support.ellp != group.order:
        raise ValueError(f"biased set is over Z_{support.ellp} but the group "
                         f"is Z_{group.order}")
    rows = _support_rows(support) % group.factors[0]
    if rows.shape[0] == 0:
        raise ValueError("support is empty")
    if rows.shape[1] != base.m:
        raise ValueError("support rows must have one exponent per edge")
    if isinstance(support, BiasedSet):
        support = support.proved()
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


_SCHEMAS = (CERT_SCHEMA, CERT_SCHEMA_V2, CERT_SCHEMA_V1)


class _Unread(Exception):
    """A rule read a field that did not pass its own row."""


class _Read(dict):
    """The fields read so far; reading any other raises _Unread."""

    def __missing__(self, field):
        raise _Unread(field)


def _counted(size: int, r):
    """A scan of `size` candidates evaluates them all, or fewer only when
    it stopped on a met target."""
    evaluated, met = r["candidates_evaluated"], r["met_target"]
    return (evaluated == size or met is True and evaluated <= size or
            f"{size} candidates, expected {'at least ' if met else ''}"
            f"candidates_evaluated = {evaluated}")


def _dist(x, r):
    """A support provenance's dist, read, or True when it names its rows
    by support_size and support_hash instead."""
    if x is None and "support_size" in r["provenance"]:
        return True
    dist, signing, index = (BiasedSet.from_json(x), r["signing"],
                            r["winner_index"])
    if (dist.m, (dist.ellp,)) != (signing.base.m, signing.group.factors):
        return (f"a set in (Z_{dist.ellp})^{dist.m}, expected one in "
                f"(Z_{signing.group.order})^{signing.base.m}")
    if (counted := _counted(dist.size, r)) is not True:
        return counted
    if (dist.support[index] != signing.values[:, 0]).any():
        return f"support row {index} is not the signing"
    try:
        bias = dist.proved().verified["value"]
    except ValueError as exc:
        return str(exc)
    verified = dist.verified
    if (set(verified) != {"mode", "value"} or verified["mode"] != "exact"
            or not is_number(verified["value"])
            or abs(verified["value"] - bias) > BIAS_SLACK):
        return (f"verified {verified!r:.60}, expected "
                f"{{'mode': 'exact', 'value': {bias!r}}}")
    return dist


# read_certificate's rows, in order: (field, rule, expected).  A field is
# a top-level key or "<key>.<key in its object>", after an optional
# "<scope>:", a glob that "<mode> <schema version>" must match.
# rule(x, read) gets the field's value x (None for a key its object lacks)
# and the fields read so far, and returns True (x is read), a value parsed
# from x, False ("<x!r>, expected <expected>") or a reason; a rule that
# raises names its field "cannot be read", and one that reads a field that
# was not read is skipped.  Faults within tool and crosscheck are named
# under those keys, and within provenance under their own.
_TABLE = [
    ("schema", lambda x, r: x in _SCHEMAS,
     f"{CERT_SCHEMA!r}, {CERT_SCHEMA_V2!r} or {CERT_SCHEMA_V1!r}"),
    ("tool", lambda x, r: isinstance(x, dict), "an object named 'abelift'"),
    ("tool.name", lambda x, r: x == "abelift", "'abelift'"),
    ("mode", lambda x, r: x in ("derandomized", "walk"),
     "derandomized or walk"),
    ("base", lambda x, r: RegularGraph.from_json(x), None),
    ("base_hash", lambda x, r: x == r["base"].content_hash(), "its hash"),
    ("group", lambda x, r: (g := AbelianGroup.from_json(x)).irregularity
     or g, None),
    ("signing", lambda x, r: Signing(r["base"], r["group"],
                                     _integer_rows(x, "signing entry")), None),
    ("lambda_base", lambda x, r: is_number(x), "a number"),
    ("lambda_lift", lambda x, r: is_number(x), "a number"),
    ("per_character_rho", lambda x, r: isinstance(x, list) and all(
        map(is_number, x)) and (len(x) == (k := r["signing"].group.order - 1)
                                or f"{len(x)} radii, expected {k}"),
     "a list of numbers"),
    ("target", lambda x, r: x is None or is_number(x), "a number or null"),
    ("met_target", lambda x, r: x is (None if r["target"] is None else
                                      r["lambda_lift"] <= r["target"]),
     "lambda_lift <= target, or null without a target"),
    ("candidates_evaluated", lambda x, r: is_integer(x) and x > 0,
     "a positive integer"),
    ("winner_index", lambda x, r: is_integer(x) and 0 <= x < r[
        "candidates_evaluated"], "an integer in [0, candidates_evaluated)"),
    ("provenance", lambda x, r: isinstance(x, dict), "an object"),
    ("walk *:provenance.kind", lambda x, r: x == "expander-walk",
     "'expander-walk'"),
    ("walk *:provenance.seeds_requested", lambda x, r: is_integer(x) and
     _counted(x, r), "an integer"),
    ("walk *:provenance.reference_curve", lambda x, r: x == {
        "form": "sqrt(d)*log2(d)", "value": (v := reference_lambda(
            r["base"].d)), "ratio": r["lambda_lift"] / v},
     "sqrt(d)*log2(d) and lambda_lift's ratio to it"),
    ("walk v[23]:provenance.master_seed", lambda x, r: is_integer(x) and
     x >= 0, "a non-negative integer"),
    ("walk v[23]:provenance.dprime", lambda x, r: is_integer(x),
     "an integer"),
    ("derandomized *:provenance.kind", lambda x, r: x == "biased-support",
     "'biased-support'"),
    ("derandomized *:provenance.dist", _dist, None),
    ("derandomized *:provenance.support_size", lambda x, r: "dist" in r[
        "provenance"] or is_integer(x) and _counted(x, r), "an integer"),
    ("derandomized *:provenance.support_hash", lambda x, r: "dist" in r[
        "provenance"] or isinstance(x, str) and re.fullmatch(
        "[0-9a-f]{64}", x) is not None, "a sha256 hex digest"),
    ("crosscheck", lambda x, r: isinstance(x, dict), "an object"),
    ("* v3:crosscheck.kind", lambda x, r: x == "fourier-probe",
     "'fourier-probe'"),
    ("* v3:crosscheck.tol", lambda x, r: x == PROBE_TOL, repr(PROBE_TOL)),
    ("* v[12]:crosscheck.tol", lambda x, r: x == CROSSCHECK_TOL,
     repr(CROSSCHECK_TOL)),
    ("* v3:crosscheck.max_error", lambda x, r: is_number(x) and
     0 <= x <= PROBE_TOL, f"within [0, {PROBE_TOL!r}]"),
    ("* v[12]:crosscheck.max_distance", lambda x, r: is_number(x) and
     0 <= x <= CROSSCHECK_TOL, f"within [0, {CROSSCHECK_TOL!r}]"),
    ("crosscheck.count", lambda x, r: is_integer(x) and 0 <= x <= r.get(
        "candidates_evaluated", x) or f"{x!r}, expected an integer within "
     f"[0, candidates_evaluated = {r.get('candidates_evaluated')!r}]", None),
]
# every top-level field of a certificate
REQUIRED_FIELDS = tuple(dict.fromkeys(
    row[0].rpartition(":")[2].partition(".")[0] for row in _TABLE))


def _read_fields(cert: dict) -> tuple[_Read, dict]:
    """Walk _TABLE over `cert`: (the fields read, the faults named)."""
    read, faults = _Read(), {}
    for scoped, rule, expected in _TABLE:
        scope, _, field = scoped.rpartition(":")
        head, _, key = field.partition(".")
        name = key if key and head == "provenance" else head
        if name in faults:
            continue
        if head not in cert:
            faults[head] = "missing"
            continue
        try:
            if scope and not fnmatchcase(f"{read.get('mode')} "
                                         f"{read.get('schema', '')[-2:]}",
                                         scope):
                continue
            x = read[head].get(key) if key else cert[head]
            verdict = rule(x, read)
        except _Unread:
            continue
        except (AttributeError, IndexError, KeyError, OverflowError,
                TypeError, ValueError) as exc:
            verdict = f"cannot be read: {exc!r}"
        if verdict is False:
            verdict = f"{x!r:.40}, expected {expected}"
        if isinstance(verdict, str):
            faults[name] = f"{key} {verdict}" if name == head != field \
                else verdict
        else:
            read[field] = x if verdict is True else verdict
    return read, faults


def read_certificate(cert: dict) -> tuple[Signing | None, dict]:
    """The signing a certificate claims (None when its base, group or
    signing cannot be read), and why each field that breaks a row of
    _TABLE breaks it, by field."""
    read, faults = _read_fields(cert)
    return read.get("signing"), faults


def read_signing(cert: dict) -> Signing:
    """The signing read_certificate reads; a ValueError names the first of
    base, group and signing that it cannot read."""
    signing, faults = read_certificate(cert)
    if signing is None:
        field = next(f for f in ("base", "group", "signing") if f in faults)
        raise ValueError(f"certificate {field} {faults[field]}")
    return signing


def verify_certificate(cert: dict, tol: float = 1e-9,
                       check_lift: bool = False) -> dict:
    """Recompute a certificate's spectral claims from its own payload.

    The certificate is read first (read_certificate: _TABLE is the one
    list of what each field must hold), and each field that breaks a row
    is named under "invalid" with ok false; a group whose action is not
    regular breaks the group row, so nothing is solved.  Then lift_lambda
    (errors within tol), a v3 or v2 walk's replay and
    spectral.decomposition_probe (at every size, within PROBE_TOL) are
    checked against the fields read; check_lift=True also solves the
    built lift densely (CROSSCHECK_TOL).
    """
    read, invalid = _read_fields(cert)
    signing = read.get("signing")
    missing = {key: "missing" for key in REQUIRED_FIELDS if key not in cert}
    if missing or signing is None:
        return {"ok": False, "hash_ok": None, "lambda_error": None,
                "lambda_base_error": None, "rho_error": None,
                "lift_union_distance": None, "lift_probe_error": None,
                "invalid": missing or invalid}
    lam, lam_base, rhos = lift_lambda(signing)
    try:
        invalid.update(_walk_replay_faults(read, signing, tol))
    except _Unread:  # no v3 or v2 walk, or one whose replay reads a fault
        pass

    def error(field, value):
        return abs(value - read[field]) if field in read else None

    lam_err, base_err = error("lambda_lift", lam), error("lambda_base",
                                                         lam_base)
    rho_err = (max((abs(a - b) for a, b in zip(
        sorted(rhos), sorted(read["per_character_rho"]))), default=0.0)
        if "per_character_rho" in read else None)
    probe_err, lift_dist = decomposition_probe(signing), None
    if check_lift:
        lift_dist = spectrum_union_check(
            signing, CROSSCHECK_TOL,
            include_nonbacktracking=False).adjacency_distance
    ok = (not invalid and rho_err <= tol and lam_err <= tol
          and base_err <= tol and probe_err <= PROBE_TOL
          and (lift_dist is None or lift_dist <= CROSSCHECK_TOL))
    report = {"ok": bool(ok), "hash_ok": "base_hash" in read,
              "lambda_error": lam_err, "lambda_base_error": base_err,
              "rho_error": rho_err, "lift_union_distance": lift_dist,
              "lift_probe_error": probe_err}
    if invalid:
        report["invalid"] = invalid
    return report


def _walk_replay_faults(read: _Read, signing: Signing, tol: float) -> dict:
    """Named mismatches between a v3 or v2 walk provenance and its replay;
    raises _Unread for any other certificate."""
    prov, index = read["provenance"], read["winner_index"]
    master = read["provenance.master_seed"]
    try:
        aux = auxiliary_expander(signing.group.fiber_size,
                                 read["provenance.dprime"], master)
        expected_seed = [master, index]
        replay = (expander_walk_signing(signing.base, signing.group, aux,
                                        index)
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
    a lower estimate).  The bias is measured here (BiasedSet.verify); the
    set's stored verified is never read.  gamma' adds log2(l d^2) / (2k)
    to the plain rates.
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
    measured = dist.verify()
    nu_achieved = float(measured["value"])
    report = {
        "n": n, "d": d, "ell": ell, "k": k, "eps": eps,
        "r_used": r_used, "r_floored": r_floored,
        "gamma1": bounds.gamma1, "gamma1_prime": gamma1p,
        "lambda_bound1": (2.0 ** gamma1p) * math.sqrt(d - 1) + eps,
        "gamma2": bounds.gamma2, "gamma2_prime": gamma2p,
        "nu_required": nu_required,
        "nu_achieved": nu_achieved,
        "nu_mode": measured["mode"],
        "premise_satisfied": bool(measured["mode"] == "exact"
                                  and nu_achieved <= nu_required),
    }
    if gamma2p is not None:
        report["lambda_bound2"] = (2.0 ** gamma2p) * math.sqrt(d - 1) + eps
    return report
