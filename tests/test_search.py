"""Support-scan and walk-budget lift searches with replayable certificates."""
from __future__ import annotations

import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from abelift import kernels, pseudorandom, search, serial, spectral
from abelift.codes import free_action_check
from abelift.graphs import (RegularGraph, Signing, complete_graph,
                            cycle_graph, lift, random_regular)
from abelift.groups import AbelianGroup
from abelift.hikes import count_bounds
from abelift.pseudorandom import (BiasedSet, auxiliary_expander,
                                  biased_set_search, effective_walk_degree,
                                  expander_walk_signing)
from abelift.search import (CERT_SCHEMA, CERT_SCHEMA_V1, CERT_SCHEMA_V2,
                            CERT_SCHEMA_V3, derandomized_lift_search,
                            exponential_regime_build, markov_bound_report,
                            reference_lambda, verify_certificate)
from abelift.spectral import lift_lambda, spectrum_union_check


FIXTURES = Path(__file__).parent / "fixtures"


def _all_rows(ell, m):
    return np.array(list(itertools.product(range(ell), repeat=m)),
                    dtype=np.int64)


def _replayed_walk(cert):
    """The winner's walk rebuilt from a walk certificate's provenance."""
    prov = cert["provenance"]
    ell = AbelianGroup.from_json(cert["group"]).fiber_size
    aux = auxiliary_expander(ell, prov["dprime"], prov["master_seed"])
    assert aux.provenance()["aux_hash"] == prov["aux_hash"]
    master_seed, idx = prov["winner_seed"]
    assert master_seed == prov["master_seed"]
    return aux.walk(RegularGraph.from_json(cert["base"]).m, idx)


def test_all_two_lifts_of_triangle_share_lambda_two():
    base = cycle_graph(3)
    res = derandomized_lift_search(base, AbelianGroup.cyclic(2),
                                   _all_rows(2, 3))
    assert res.lam == pytest.approx(2.0, abs=1e-9)
    assert res.certificate["winner_index"] == 0  # ties keep the first row
    assert res.certificate["candidates_evaluated"] == 8
    assert res.certificate["schema"] == CERT_SCHEMA
    assert res.certificate["met_target"] is None


def test_identity_support_reports_failure_against_target():
    base = cycle_graph(3)
    res = derandomized_lift_search(base, AbelianGroup.cyclic(2),
                                   np.zeros((1, 3), dtype=np.int64),
                                   target=1.5)
    assert res.lam == pytest.approx(2.0, abs=1e-9)  # lambda = d: disconnected
    assert res.certificate["met_target"] is False


def test_search_input_validation():
    base = cycle_graph(3)
    with pytest.raises(ValueError, match="one cyclic factor"):
        derandomized_lift_search(base, AbelianGroup.product([2, 2]),
                                 _all_rows(2, 3))
    with pytest.raises(ValueError, match="empty"):
        derandomized_lift_search(base, AbelianGroup.cyclic(2),
                                 np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="per edge"):
        derandomized_lift_search(base, AbelianGroup.cyclic(2),
                                 np.zeros((4, 2), dtype=np.int64))
    stuck = AbelianGroup((2,), (np.array([1, 0, 3, 2]),))
    with pytest.raises(ValueError, match="must be regular: Z_2 of order 2 "
                       r"acts on a fiber of size 4 in 2 orbit\(s\)"):
        derandomized_lift_search(base, stuck, _all_rows(2, 3))


def test_exhaustive_z3_sweep_of_k4():
    base = complete_graph(4)
    res = derandomized_lift_search(base, AbelianGroup.cyclic(3),
                                   _all_rows(3, 6))
    assert res.lam == pytest.approx(2.302775637731994, abs=1e-9)
    assert res.certificate["candidates_evaluated"] == 729
    # a signing meeting the near-Ramanujan target exists in the support
    target = 2.0 * math.sqrt(2.0) + 0.2
    hit = derandomized_lift_search(base, AbelianGroup.cyclic(3),
                                   _all_rows(3, 6), target=target)
    assert hit.certificate["met_target"] is True
    assert hit.lam <= target


def test_certificates_are_sound_and_deterministic():
    base = complete_graph(4)
    group = AbelianGroup.cyclic(3)
    rows = _all_rows(3, 6)[:120]
    a = derandomized_lift_search(base, group, rows)
    b = derandomized_lift_search(base, group, rows)
    assert serial.canonical_json(a.certificate) == serial.canonical_json(b.certificate)
    report = verify_certificate(a.certificate)
    assert report["ok"] and report["hash_ok"]
    assert report["lambda_error"] <= 1e-9
    tampered = dict(a.certificate)
    tampered["lambda_lift"] = a.certificate["lambda_lift"] + 0.1
    assert not verify_certificate(tampered)["ok"]


def test_verify_requires_one_radius_per_nontrivial_character():
    base = complete_graph(4)
    res = derandomized_lift_search(base, AbelianGroup.cyclic(4),
                                   _all_rows(4, 6)[:40])
    report = verify_certificate(res.certificate)
    assert report["ok"] and "invalid" not in report
    for radii in ([min(res.certificate["per_character_rho"])], []):
        cut = dict(res.certificate, per_character_rho=radii)
        report = verify_certificate(cut)
        assert not report["ok"]
        assert report["rho_error"] is None
        assert report["invalid"] == {
            "per_character_rho": f"{len(radii)} radii, expected 3"}


def test_verify_rederives_met_target_and_bounds_evaluated():
    base = random_regular(10, 3, seed=2)
    cert = exponential_regime_build(base, 8, seeds=6,
                                    master_seed=1).certificate
    forged = dict(cert, target=0.1, met_target=True, candidates_evaluated=-5)
    report = verify_certificate(forged)
    assert not report["ok"]
    assert set(report["invalid"]) == {"met_target", "candidates_evaluated"}
    assert not verify_certificate(dict(cert, met_target=False))["ok"]
    honest = dict(cert, target=0.1, met_target=False)
    assert verify_certificate(honest)["ok"]


def test_verify_names_a_forged_schema_and_mode():
    base = complete_graph(4)
    cert = derandomized_lift_search(base, AbelianGroup.cyclic(3),
                                    _all_rows(3, 6)[:20]).certificate
    forged = dict(cert, schema="abelift.lift-certificate.v9", mode="bogus")
    report = verify_certificate(forged)
    assert not report["ok"]
    assert report["invalid"] == {
        "schema": "'abelift.lift-certificate.v9', expected "
                  "'abelift.lift-certificate.v4', "
                  "'abelift.lift-certificate.v3', "
                  "'abelift.lift-certificate.v2' or "
                  "'abelift.lift-certificate.v1'",
        "mode": "'bogus', expected derandomized or walk"}
    sound = verify_certificate(cert)
    assert sound["ok"] and set(sound) == {
        "ok", "hash_ok", "lambda_error", "lambda_base_error", "rho_error",
        "lift_union_distance", "lift_probe_error"}
    assert sound["lift_union_distance"] is None


def test_decomposition_matches_built_lift_on_the_winner():
    base = complete_graph(4)
    group = AbelianGroup.cyclic(3)
    res = derandomized_lift_search(base, group, _all_rows(3, 6)[:60])
    lam_direct, _, _ = lift_lambda(res.signing)
    assert res.lam == pytest.approx(lam_direct, abs=1e-8)
    assert res.certificate["crosscheck"]["count"] >= 1
    assert res.certificate["crosscheck"]["max_error"] <= 1e-8


def test_support_monotonicity():
    base = complete_graph(4)
    group = AbelianGroup.cyclic(3)
    rows = _all_rows(3, 6)
    lam_small = derandomized_lift_search(base, group, rows[:40]).lam
    lam_big = derandomized_lift_search(base, group, rows[:400]).lam
    assert lam_big <= lam_small + 1e-12


def test_walk_build_single_seed_matches_direct_evaluation():
    base = cycle_graph(10)
    res = exponential_regime_build(base, 8, seeds=1, master_seed=3)
    walk = Signing(base, AbelianGroup.cyclic(8),
                   _replayed_walk(res.certificate).reshape(-1, 1))
    assert np.array_equal(res.signing.values, walk.values)
    assert res.lam == pytest.approx(lift_lambda(walk)[0], abs=1e-12)
    assert res.certificate["winner_index"] == 0


@pytest.mark.parametrize("ell, dprime, master_seed",
                         [(8, 36, 0), (16, 36, 5), (40, 36, 2), (64, 8, 9)])
def test_one_seed_walk_build_is_the_walk_signing(ell, dprime, master_seed):
    base = random_regular(10, 3, seed=2)
    res = exponential_regime_build(base, ell, 1, dprime=dprime,
                                   master_seed=master_seed)
    group = AbelianGroup.cyclic(ell)
    direct = expander_walk_signing(
        base, group, auxiliary_expander(ell, dprime, master_seed), 0)
    assert res.signing.group == group
    assert np.array_equal(res.signing.values, direct.values)


def test_walk_build_replay_is_byte_identical():
    base = random_regular(10, 3, seed=2)
    a = exponential_regime_build(base, 8, seeds=6, master_seed=1)
    b = exponential_regime_build(base, 8, seeds=6, master_seed=1)
    assert serial.canonical_json(a.certificate) == serial.canonical_json(b.certificate)
    assert a.lam == pytest.approx(2.729208666447012, abs=1e-9)
    assert np.array_equal(_replayed_walk(a.certificate),
                          np.asarray(a.certificate["signing"])[:, 0])
    assert verify_certificate(a.certificate)["ok"]


def test_walk_budget_monotonicity_and_reference_curve():
    base = random_regular(10, 3, seed=2)
    small = exponential_regime_build(base, 8, seeds=2, master_seed=0)
    big = exponential_regime_build(base, 8, seeds=12, master_seed=0)
    assert big.lam <= small.lam + 1e-12
    prov = big.certificate["provenance"]
    assert prov["reference_curve"]["value"] == pytest.approx(
        reference_lambda(3))
    assert prov["reference_curve"]["ratio"] == pytest.approx(
        big.lam / reference_lambda(3))
    assert reference_lambda(3) == pytest.approx(math.sqrt(3) * math.log2(3))


def test_walk_build_succeeds_and_verifies_at_every_small_fiber_size():
    # d' = 36 exceeds (ell - 1) / 2 throughout, so every auxiliary graph
    # here is drawn as a complement: direct stub matching gives up at
    # ell in {30, 36, 38, 39, 40, 41}
    base = random_regular(8, 3, seed=1)
    for ell in range(3, 65):
        res = exponential_regime_build(base, ell, seeds=2,
                                       crosscheck_every=0)
        prov = res.certificate["provenance"]
        assert prov["dprime_used"] == effective_walk_degree(ell, 36)
        assert prov["aux_lambda"] <= prov["aux_bound"]
        assert verify_certificate(res.certificate)["ok"], ell


def _forged(cert, **provenance):
    return dict(cert, provenance=dict(cert["provenance"], **provenance))


def test_verify_replays_the_walk_provenance():
    base = random_regular(10, 3, seed=2)
    cert = exponential_regime_build(base, 8, seeds=6,
                                    master_seed=1).certificate
    idx = cert["winner_index"]
    assert verify_certificate(cert)["ok"] and idx > 0
    edited = [list(row) for row in cert["signing"]]
    edited[4][0] = (edited[4][0] + 1) % 8
    aux_hash = cert["provenance"]["aux_hash"]
    cases = [
        (_forged(cert, winner_seed=[1, idx - 1]),
         {"winner_seed": f"[1, {idx - 1}], expected [master_seed, "
                         f"winner_index] = [1, {idx}]"}),
        (_forged(cert, aux_hash="0" * 64),
         {"aux_hash": f"'{'0' * 64}', rebuilt '{aux_hash}'"}),
        (dict(cert, signing=edited),
         {"signing": "1 of 15 entries differ from the walk replayed from "
                     "winner_seed"}),
        (_forged(cert, dprime=7),
         {"provenance": "cannot be replayed: ValueError('dprime must be an "
                        "even integer >= 2')"}),
    ]
    for forged, invalid in cases:
        report = verify_certificate(forged)
        assert not report["ok"]
        assert report["invalid"] == invalid
    # a forged group rebuilds the graph of its fiber size, and Z_4 acting
    # by two 4-cycles is refused before any walk is replayed
    moved = verify_certificate(
        dict(cert, group=AbelianGroup.cyclic(16).to_json()))["invalid"]
    assert {"aux_hash", "dprime_used", "aux_bound", "signing"} <= set(moved)
    two_cycles = tuple((i + 1) % 4 + 4 * (i >= 4) for i in range(8))
    moved = verify_certificate(
        dict(cert, group=AbelianGroup((4,), (two_cycles,)).to_json()))
    assert moved["invalid"] == {
        "group": "group action must be regular: Z_4 of order 4 acts on a "
                 "fiber of size 8 in 2 orbit(s)"}
    # another master seed rebuilds another graph and another seed pair
    moved = verify_certificate(_forged(cert, master_seed=2))["invalid"]
    assert {"aux_hash", "winner_seed"} <= set(moved)
    # aux_lambda is a float solve: it is held to tol, not to the bit
    close = cert["provenance"]["aux_lambda"] + 1e-12
    assert verify_certificate(_forged(cert, aux_lambda=close))["ok"]


def test_v1_walk_certificates_are_not_replayed():
    cert = serial.load_json(str(FIXTURES / "walk_cert_v1.json"))["certificate"]
    assert cert["schema"] == CERT_SCHEMA_V1
    forged = _forged(cert, winner_seed=[5, 5], master_seed=9)
    assert verify_certificate(forged) == verify_certificate(cert)


def _fixture_cert(name):
    return serial.load_json(str(FIXTURES / f"{name}.json"))["certificate"]


def _assert_fixture_report(mode, version):
    report = verify_certificate(_fixture_cert(f"{mode}_cert_{version}"))
    assert (serial.canonical_json(report) + "\n"
            == (FIXTURES / f"{mode}_report_{version}.json").read_text())


@pytest.mark.parametrize("mode", ["walk", "support"])
def test_v1_fixtures_verify_to_their_recorded_reports(mode):
    _assert_fixture_report(mode, "v1")


@pytest.mark.parametrize("mode", ["walk", "support"])
def test_v2_fixtures_verify_to_their_recorded_reports(mode):
    assert _fixture_cert(f"{mode}_cert_v2")["schema"] == CERT_SCHEMA_V2
    _assert_fixture_report(mode, "v2")


@pytest.mark.parametrize("mode", ["walk", "support"])
def test_v3_fixtures_verify_to_their_recorded_reports(mode):
    assert _fixture_cert(f"{mode}_cert_v3")["schema"] == CERT_SCHEMA_V3
    _assert_fixture_report(mode, "v3")


@pytest.mark.parametrize("mode", ["walk", "support"])
def test_v4_fixtures_verify_to_their_recorded_reports(mode):
    assert _fixture_cert(f"{mode}_cert_v4")["schema"] == CERT_SCHEMA
    _assert_fixture_report(mode, "v4")


# the dense distances of the v1 and v2 fixtures, which their reports
# recorded before the probe became the verifier's only default lift check
@pytest.mark.parametrize("mode, distance", [
    ("walk", 1.3322676295501878e-15), ("support", 1.1102230246251565e-15)])
@pytest.mark.parametrize("version", ["v1", "v2"])
def test_check_lift_reproduces_the_recorded_dense_distances(mode, distance,
                                                            version):
    cert = _fixture_cert(f"{mode}_cert_{version}")
    default = verify_certificate(cert)
    assert default["lift_union_distance"] is None
    dense = verify_certificate(cert, check_lift=True)
    assert dense["ok"] and dense["lift_union_distance"] == distance
    assert dense == dict(default, lift_union_distance=distance)


def test_v2_walk_fixture_replays_its_provenance():
    cert = _fixture_cert("walk_cert_v2")
    idx = cert["winner_index"]
    report = verify_certificate(_forged(cert, winner_seed=[0, idx + 1]))
    assert not report["ok"]
    assert report["invalid"] == {
        "winner_seed": f"[0, {idx + 1}], expected [master_seed, "
                       f"winner_index] = [0, {idx}]"}


@pytest.mark.parametrize("mode", ["walk", "support"])
def test_v2_fixtures_with_an_unknown_schema_are_rejected(mode):
    cert = _fixture_cert(f"{mode}_cert_v2")
    report = verify_certificate(dict(cert,
                                     schema="abelift.lift-certificate.v5"))
    assert not report["ok"] and set(report["invalid"]) == {"schema"}


@pytest.mark.parametrize("name", ["walk_cert_v1", "support_cert_v1",
                                  "walk_cert_v2", "support_cert_v2",
                                  "walk_cert_v3", "support_cert_v3",
                                  "walk_cert_v4", "support_cert_v4"])
def test_verify_names_each_missing_field(name):
    cert = _fixture_cert(name)
    assert verify_certificate(cert)["ok"]
    for key in search.REQUIRED_FIELDS:
        report = verify_certificate({k: v for k, v in cert.items()
                                     if k != key})
        assert report["ok"] is False
        assert report["invalid"] == {key: "missing"}


# a signing is read over its base and group, so a group with another
# factor count leaves the signing unreadable
@pytest.mark.parametrize("field, value, named, reason", [
    ("group", AbelianGroup.product([2, 4]).to_json(), "signing",
     "ValueError('exponent rows of shape (6, 1), but one row per canonical "
     "edge needs (6, 2)')"),
    ("group", {"factors": [3]}, "group", "KeyError('generators')"),
    ("group", {"factors": [3.7], "generators": [[2, 3, 1]]}, "group",
     "ValueError(\"group is malformed: 'float' object cannot be interpreted "
     "as an integer\")"),
    ("group", {"factors": [3], "generators": [[2, 3, True]]}, "group",
     "ValueError('group is malformed: True is not an integer')"),
    ("base", {"n": 3, "d": 1, "adj": [[2], [1], [1]]}, "base",
     "ValueError('adjacency is not symmetric')"),
    ("base", {"n": 4, "d": 3}, "base", "KeyError('adj')"),
    ("base", 5, "base", 'TypeError("\'int\' object is not subscriptable")'),
    ("signing", [[0], [1]], "signing", "ValueError('exponent rows of shape "
     "(2, 1), but one row per canonical edge needs (6, 1)')"),
    ("signing", [[2 ** 70]] * 6, "signing", "ValueError('signing entry "
     "1180591620717411303424 is not a 64-bit integer')"),
    ("signing", [[1], [2], [0], [1], [0], [2.5]], "signing",
     "ValueError('signing entry 2.5 is not a 64-bit integer')"),
    ("signing", [[1], [2], [0], [1], [0], [True]], "signing",
     "ValueError('signing entry True is not a 64-bit integer')"),
    ("signing", [[1], [2], [0], [1], [0], [math.nan]], "signing",
     "ValueError('signing entry nan is not a 64-bit integer')")],
    ids=["group-of-two-factors", "group-without-generators",
         "group-float-factor", "group-bool-generator",
         "base-asymmetric", "base-without-adj", "base-not-an-object",
         "signing-of-two-rows", "signing-beyond-int64", "signing-float",
         "signing-bool", "signing-nan"])
def test_verify_names_a_part_that_cannot_be_read(field, value, named, reason):
    cert = _fixture_cert("walk_cert_v2")
    assert verify_certificate(cert)["ok"]
    report = verify_certificate(dict(cert, **{field: value}))
    assert report["ok"] is False and report["lambda_error"] is None
    assert list(report["invalid"]) == [named]
    assert report["invalid"][named].startswith(f"cannot be read: {reason}")
    # a missing field is still named first, alone
    del cert["tool"]
    report = verify_certificate(dict(cert, **{field: value}))
    assert report["invalid"] == {"tool": "missing"}


@pytest.mark.parametrize("name", ["walk_cert_v1", "support_cert_v1",
                                  "walk_cert_v2", "support_cert_v2",
                                  "walk_cert_v3", "support_cert_v3",
                                  "walk_cert_v4", "support_cert_v4"])
def test_verify_names_a_forged_tool(name):
    cert = _fixture_cert(name)
    honest = verify_certificate(cert)
    assert honest["ok"]
    for tool, reason in (
            ("abelift", "'abelift', expected an object named 'abelift'"),
            (["abelift"], "['abelift'], expected an object named 'abelift'"),
            (dict(cert["tool"], name="other"),
             "name 'other', expected 'abelift'"),
            ({"version": "0.1.0"}, "name None, expected 'abelift'")):
        report = verify_certificate(dict(cert, tool=tool))
        assert report["ok"] is False
        assert report["invalid"] == {"tool": reason}
        assert report["rho_error"] == honest["rho_error"]


# each value below used to raise TypeError out of verify_certificate
@pytest.mark.parametrize("field, value", [
    *((field, value) for field in ("lambda_base", "lambda_lift",
                                   "candidates_evaluated", "winner_index")
      for value in (None, "x", [], {})),
    *(("target", value) for value in ("x", [], {})),
    *(("per_character_rho", value) for value in (None, True, 1.5, ["x"]))])
def test_verify_names_a_field_that_is_not_a_number(field, value):
    cert = _fixture_cert("walk_cert_v3")
    assert verify_certificate(cert)["ok"]
    report = verify_certificate(dict(cert, **{field: value}))
    assert report["ok"] is False
    assert report["invalid"][field].startswith(f"{value!r}, expected ")
    # a bad winner_index also fails the walk replay of winner_seed
    assert set(report["invalid"]) <= {field, "winner_seed"}


@pytest.mark.parametrize("field, value", [
    *((field, value) for field in ("lambda_base", "lambda_lift", "target")
      for value in (math.nan, math.inf, -math.inf, 10 ** 400)),
    ("per_character_rho", [math.nan, 2.5])],
    ids=[*(f"{field}-{value}" for field in ("lambda_base", "lambda_lift",
                                            "target")
           for value in ("nan", "inf", "-inf", "10**400")), "rho-nan"])
def test_verify_names_a_number_that_is_not_finite(field, value):
    report = verify_certificate(dict(_fixture_cert("support_cert_v3"),
                                     **{field: value}))
    assert report["ok"] is False and list(report["invalid"]) == [field]
    assert report["invalid"][field].startswith(f"{value!r:.40}, expected ")
    serial.canonical_json(report)  # refuses a NaN or an inf


# the ten values each certificate field is mutated to
_MUTATIONS = (None, "x", 1.5, -1, [], {}, [1, 2], True, 10 ** 30, math.nan)
# the fields a mutated field feeds: a mutation may be named under these
# instead of its own field
_FEEDS = {
    "target": {"met_target"},
    "candidates_evaluated": {"seeds_requested", "dist"},
    "master_seed": {"winner_seed", "aux_hash"},
    "dprime": {"provenance", "dprime_used", "aux_hash", "aux_lambda",
               "aux_bound"},
}
# the mutations that keep a certificate ok, by (fixture, field), each for
# its reason
_STILL_OK = {
    # an auxiliary degree past ell - 1 is capped, to the same dprime_used
    ("walk_cert_v2", "dprime"): [10 ** 30],
    ("walk_cert_v3", "dprime"): [10 ** 30],
    ("walk_cert_v4", "dprime"): [10 ** 30],
    # v1 walks record their auxiliary graph under "walk" and are not
    # replayed, so nothing reads these fields
    **{("walk_cert_v1", key): _MUTATIONS
       for key in ("master_seed", "dprime", "walk", "winner_seed")},
}


def _same(a, b) -> bool:
    return type(a) is type(b) and repr(a) == repr(b)


@pytest.mark.parametrize("name", ["walk_cert_v1", "support_cert_v1",
                                  "walk_cert_v2", "support_cert_v2",
                                  "walk_cert_v3", "support_cert_v3",
                                  "walk_cert_v4", "support_cert_v4"])
def test_every_field_mutation_is_named_or_fails_its_errors(name):
    """Each top-level and provenance field of a fixture, set to each of ten
    values: the verifier never raises and never reports a NaN.  A value
    left unchanged (a null target) or listed in _STILL_OK stays ok; every
    other ends ok false with its field (or one it feeds) named, or with a
    finite error above tol."""
    cert = _fixture_cert(name)
    prov = cert["provenance"]
    cases = [(key, value, dict(cert, **{key: value}))
             for key in cert for value in _MUTATIONS]
    cases += [(key, value, dict(cert, provenance=dict(prov, **{key: value})))
              for key in prov for value in _MUTATIONS]
    wrong = []
    for key, value, forged in cases:
        report = verify_certificate(forged)
        serial.canonical_json(report)  # refuses a NaN
        original = prov[key] if key in prov else cert[key]
        if any(_same(value, v) for v in [original, *_STILL_OK.get(
                (name, key), ())]):
            if not report["ok"]:
                wrong.append((key, value, "not ok", report))
            continue
        named = set(report.get("invalid", ())) & ({key} | _FEEDS.get(
            key, set()) | (set(prov) if key == "provenance" else set()))
        errors = [report[k] for k in ("lambda_error", "lambda_base_error",
                                      "rho_error") if report[k] is not None]
        if report["ok"] or not (named or max(errors, default=0) > 1e-9):
            wrong.append((key, value, "not named", report))
    assert not wrong, wrong[:5]


def test_verify_holds_the_support_provenance_to_the_scan():
    base, group = complete_graph(4), AbelianGroup.cyclic(3)
    plain = derandomized_lift_search(base, group,
                                     _all_rows(3, 6)[:40]).certificate
    assert verify_certificate(plain)["ok"]
    for forged, invalid in (
            (_forged(plain, support_size=41),
             {"support_size": "41 candidates, expected candidates_evaluated "
                              "= 40"}),
            (_forged(plain, support_size=40.0),
             {"support_size": "40.0, expected an integer"}),
            (_forged(plain, support_hash="0abc"),
             {"support_hash": "'0abc', expected a sha256 hex digest"})):
        assert verify_certificate(forged)["invalid"] == invalid
    # a scan stops early only on a met target
    met = derandomized_lift_search(base, group, _all_rows(3, 6)[:400],
                                   target=2.31).certificate
    assert met["met_target"] and met["candidates_evaluated"] < 400
    assert verify_certificate(met)["ok"]
    assert verify_certificate(dict(met, target=None, met_target=None))[
        "invalid"] == {"support_size": f"400 candidates, expected "
                       f"candidates_evaluated = {met['candidates_evaluated']}"}
    cert = _fixture_cert("support_cert_v3")
    dist, idx = cert["provenance"]["dist"], cert["winner_index"]
    rows = [list(row) for row in dist["support"]]
    rows[idx][0] = (rows[idx][0] + 1) % 3
    assert verify_certificate(_forged(cert, dist=dict(dist, support=rows)))[
        "invalid"] == {"dist": f"support row {idx} is not the signing"}
    report = verify_certificate(_forged(cert, dist=dict(dist, ellp=4)))
    assert report["invalid"] == {
        "dist": "a set in (Z_4)^6, expected one in (Z_3)^6"}


# the exact bias of the support fixtures' dist
SUPPORT_BIAS = 0.36827299656640594


@pytest.mark.parametrize("version", ["v1", "v2", "v3", "v4"])
@pytest.mark.parametrize("claimed, verified, fault", [
    (0.6, {"mode": "exact", "value": SUPPORT_BIAS}, None),
    (SUPPORT_BIAS, {"mode": "exact", "value": SUPPORT_BIAS}, None),
    (0.0, {"mode": "exact", "value": 0.0},
     f"exact bias {SUPPORT_BIAS!r} exceeds claimed_bias 0.0"),
    (0.6, {"mode": "exact", "value": SUPPORT_BIAS + 1e-9},
     "verified {'mode': 'exact', 'value': 0.3682729975664"),
    (0.6, {"mode": "sampled", "value": SUPPORT_BIAS, "trials": 64,
           "seed": 0}, "verified {'mode': 'sampled'"),
    (0.6, {"mode": "exact", "value": SUPPORT_BIAS, "seed": 0},
     "verified {'mode': 'exact', 'value': 0.36827299656640594, 'se"),
    (0.6, {"mode": "exact", "value": True}, "verified {'mode': 'exact', "
     "'value': True}"),
    (0.6, {}, "verified {}"),
    (0.3, {"mode": "exact", "value": SUPPORT_BIAS},
     f"exact bias {SUPPORT_BIAS!r} exceeds claimed_bias 0.3")],
    ids=["fixture", "claim-at-the-bias", "forged-zero", "value-off",
         "sampled", "extra-key", "value-bool", "unverified", "claim-low"])
def test_verify_measures_the_support_bias(version, claimed, verified, fault):
    cert = _fixture_cert(f"support_cert_{version}")
    dist = dict(cert["provenance"]["dist"], claimed_bias=claimed,
                verified=verified)
    report = verify_certificate(_forged(cert, dist=dist))
    if fault is None:
        assert report == verify_certificate(cert) and report["ok"]
    else:
        assert not report["ok"] and list(report["invalid"]) == ["dist"]
        assert report["invalid"]["dist"].startswith(fault)
        if fault.startswith("verified"):
            assert report["invalid"]["dist"].endswith(
                f", expected {{'mode': 'exact', 'value': {SUPPORT_BIAS!r}}}")


def test_verify_refuses_a_support_bias_above_the_exact_cap(monkeypatch):
    def refuse(*args):
        raise AssertionError("measured a bias above the cap")

    monkeypatch.setattr(kernels, "EXACT_CHAR_CAP", 3 ** 6 - 1)
    monkeypatch.setattr(kernels, "_bias_max", refuse)
    report = verify_certificate(_fixture_cert("support_cert_v3"))
    assert report["invalid"] == {
        "dist": "(Z_3)^6 has 729 characters, above the exact bias cap 728"}


def test_verify_lets_only_a_met_target_stop_a_walk_early():
    cert = exponential_regime_build(random_regular(10, 3, seed=2), 8,
                                    seeds=6, target=100.0).certificate
    assert cert["met_target"] and cert["candidates_evaluated"] == 1
    assert verify_certificate(cert)["ok"]
    report = verify_certificate(dict(cert, target=None, met_target=None))
    assert report["invalid"] == {
        "seeds_requested": "6 candidates, expected candidates_evaluated = 1"}


def test_verify_keeps_a_null_target_valid():
    cert = _fixture_cert("support_cert_v3")
    report = verify_certificate(dict(cert, target=None, met_target=None))
    assert report["ok"] and "invalid" not in report


def test_certificates_changed_only_their_schema_and_crosscheck():
    # the searches the fixtures' CLI runs made, exactly the v4 fixtures;
    # from v3 they also moved their floats in the last bits
    dist = biased_set_search(3, 6, 0.6, 40)
    support = derandomized_lift_search(
        complete_graph(4), AbelianGroup.cyclic(3), dist).certificate
    walk = exponential_regime_build(complete_graph(4), 3, 2).certificate
    for cert, mode in ((support, "support"), (walk, "walk")):
        assert cert["schema"] == CERT_SCHEMA
        assert cert == _fixture_cert(f"{mode}_cert_v4")
        check = cert["crosscheck"]
        assert check == {"kind": "fourier-probe", "count": 1,
                         "max_error": check["max_error"],
                         "tol": spectral.PROBE_TOL}
        assert check["max_error"] <= 1e-12
        # -chi's radius is chi's, bit for bit
        rhos = cert["per_character_rho"]
        assert rhos == rhos[::-1]
        old = _fixture_cert(f"{mode}_cert_v3")
        assert set(old) == set(cert)
        assert abs(old["lambda_lift"] - cert["lambda_lift"]) <= 1e-14
        assert old["lambda_base"] == cert["lambda_base"]
    # the v3 support winner (index 30) ties index 25 at the exact lambda
    # (1 + sqrt 13) / 2; the first strict minimum moved with the last bits
    assert (_fixture_cert("support_cert_v3")["winner_index"],
            support["winner_index"]) == (30, 25)
    assert walk["signing"] == _fixture_cert("walk_cert_v3")["signing"]


def test_negative_crosscheck_cadence_is_refused_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("work started before the cadence was checked")

    monkeypatch.setattr(search, "auxiliary_expander", refuse)
    monkeypatch.setattr(search, "lambda2", refuse)
    base = random_regular(10, 3, seed=2)
    with pytest.raises(ValueError, match="crosscheck_every must be >= 0"):
        exponential_regime_build(base, 5, 3, crosscheck_every=-1)
    with pytest.raises(ValueError, match="crosscheck_every must be >= 0"):
        derandomized_lift_search(base, AbelianGroup.cyclic(5),
                                 np.zeros((3, base.m), dtype=np.int64),
                                 crosscheck_every=-1)


def _one_shift_changed(monkeypatch):
    """Make every lift built for a check disagree with its signing on edge 0."""
    real = spectral.lift

    def wrong(base, signing, allow_disconnected=False):
        values = signing.values.copy()
        values[0] = (values[0] + 1) % np.asarray(signing.group.factors)
        return real(base, Signing(base, signing.group, values),
                    allow_disconnected)

    monkeypatch.setattr(spectral, "lift", wrong)


def test_large_certificates_are_checked_by_the_probe(monkeypatch):
    # n l = 65536, where a dense l x l character table alone would take
    # 268 MB
    base = random_regular(16, 3, seed=1)
    group = AbelianGroup.cyclic(4096)
    rows = np.random.default_rng(0).integers(4096, size=(2, base.m))
    res = derandomized_lift_search(base, group, rows)
    assert res.certificate["crosscheck"]["count"] == 1
    assert res.certificate["crosscheck"]["max_error"] <= 1e-12
    tracemalloc.start()
    try:
        report = verify_certificate(res.certificate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["ok"] and report["lift_union_distance"] is None
    assert report["lift_probe_error"] <= 1e-12
    assert peak < 64 << 20
    # check_lift=False is the default: the probe alone
    assert verify_certificate(res.certificate, check_lift=False) == report
    _one_shift_changed(monkeypatch)
    report = verify_certificate(res.certificate)
    assert not report["ok"]
    assert report["lift_probe_error"] > spectral.PROBE_TOL
    with pytest.raises(RuntimeError, match="disagrees with a built lift"):
        derandomized_lift_search(base, group, rows)


def test_verify_names_a_group_the_probe_refuses(monkeypatch):
    # n l = 256 or 2048: the probe checks every size; two (l/2)-cycles are
    # a Z_l action, but not a transitive one
    base = random_regular(16, 3, seed=1)
    for ell in (16, 128):
        rows = np.random.default_rng(0).integers(ell, size=(2, base.m))
        cert = derandomized_lift_search(base, AbelianGroup.cyclic(ell),
                                        rows).certificate
        assert verify_certificate(cert)["lift_probe_error"] <= 1e-12
        half = ell // 2
        two_cycles = tuple((i + 1) % half + half * (i >= half)
                           for i in range(ell))
        forged = dict(cert, group=AbelianGroup((ell,), (two_cycles,)
                                               ).to_json())
        report = verify_certificate(forged)
        assert not report["ok"] and report["lift_probe_error"] is None
        assert report["lambda_error"] is None  # refused before any solve
        assert report["invalid"] == {"group": (
            f"group action must be regular: Z_{ell} of order {ell} acts on "
            f"a fiber of size {ell} in 2 orbit(s)")}

    def refuse(*args, **kwargs):
        raise AssertionError("solved a certificate over a non-regular group")

    # Z_3 fixing a one-point fiber, whose characters 1 and 2 miss the lift
    base = random_regular(10, 3, seed=1)
    cert = derandomized_lift_search(base, AbelianGroup.cyclic(3), np.zeros(
        (1, base.m), dtype=np.int64)).certificate
    monkeypatch.setattr(search, "lift_lambda", refuse)
    monkeypatch.setattr(search, "decomposition_probe", refuse)
    report = verify_certificate(dict(cert, group=AbelianGroup(
        (3,), ((0,),)).to_json()))
    assert not report["ok"] and report["invalid"] == {
        "group": "group action must be regular: Z_3 of order 3 acts on a "
                 "fiber of size 1 in 1 orbit(s)"}


def test_small_certificates_are_checked_by_the_probe(monkeypatch):
    # n l = 256: the verifier probes here too, and builds no dense lift
    # spectrum unless check_lift asks for it
    def refuse(*args, **kwargs):
        raise AssertionError("the default verify solved the lift densely")

    base = random_regular(16, 3, seed=1)
    cert = exponential_regime_build(base, 16, 3).certificate
    honest = verify_certificate(cert)
    assert honest["ok"] and honest["lift_union_distance"] is None
    assert honest["lift_probe_error"] <= 1e-12
    _one_shift_changed(monkeypatch)
    dense = verify_certificate(cert, check_lift=True)
    assert not dense["ok"] and "invalid" not in dense
    assert dense["lift_union_distance"] > search.CROSSCHECK_TOL
    assert dense["lift_probe_error"] > spectral.PROBE_TOL
    monkeypatch.setattr(search, "spectrum_union_check", refuse)
    report = verify_certificate(cert)
    assert not report["ok"] and "invalid" not in report
    assert report == dict(dense, lift_union_distance=None)


@pytest.mark.parametrize("name", ["support_cert_v3", "walk_cert_v3",
                                  "support_cert_v4", "walk_cert_v4"])
@pytest.mark.parametrize("block, reason", [
    ({"kind": "fourier-probe", "count": 99, "max_error": 5.0, "tol": 1e9},
     "tol 1000000000.0, expected 1e-10"),
    ({"kind": "fourier-probe", "count": 1, "max_error": 5.0, "tol": 1e-10},
     "max_error 5.0, expected within [0, 1e-10]"),
    ({"kind": "fourier-probe", "count": 1, "max_error": -1e-16,
      "tol": 1e-10}, "max_error -1e-16, expected within [0, 1e-10]"),
    ({"kind": "fourier-probe", "count": 1, "max_error": "0", "tol": 1e-10},
     "max_error '0', expected within [0, 1e-10]"),
    ({"kind": "fourier-probe", "count": 99, "max_error": 0.0, "tol": 1e-10},
     "count 99, expected an integer within [0, candidates_evaluated = "),
    ({"kind": "fourier-probe", "count": -1, "max_error": 0.0, "tol": 1e-10},
     "count -1, expected an integer within [0, candidates_evaluated = "),
    ({"kind": "fourier-probe", "count": 1.0, "max_error": 0.0, "tol": 1e-10},
     "count 1.0, expected an integer"),
    ({"kind": "fourier-probe", "count": True, "max_error": 0.0,
      "tol": 1e-10}, "count True, expected an integer"),
    ({"count": 1, "max_error": 0.0, "tol": 1e-10},
     "kind None, expected 'fourier-probe'"),
    ({"count": 1, "max_distance": 0.0, "tol": 1e-8},
     "kind None, expected 'fourier-probe'"),
    ("x", "'x', expected an object"),
    (None, "None, expected an object"),
    ({}, "kind None, expected 'fourier-probe'")],
    ids=["forged-tol", "error-above-tol", "negative-error", "string-error",
         "count-above-evaluated", "negative-count", "float-count",
         "bool-count", "no-kind", "dense-block", "string", "null", "empty"])
def test_verify_names_a_forged_crosscheck_block(name, block, reason):
    cert = _fixture_cert(name)
    assert verify_certificate(cert)["ok"]
    report = verify_certificate(dict(cert, crosscheck=block))
    assert report["ok"] is False
    assert list(report["invalid"]) == ["crosscheck"]
    assert report["invalid"]["crosscheck"].startswith(reason)
    cut = {k: v for k, v in cert.items() if k != "crosscheck"}
    assert verify_certificate(cut)["invalid"] == {"crosscheck": "missing"}


@pytest.mark.parametrize("name", ["support_cert_v1", "walk_cert_v2"])
def test_verify_holds_a_dense_crosscheck_block_to_its_tolerance(name):
    cert = _fixture_cert(name)
    block = cert["crosscheck"]
    assert set(block) == {"count", "max_distance", "tol"}
    for forged, reason in (
            (dict(block, tol=1.0), "tol 1.0, expected 1e-08"),
            (dict(block, max_distance=1e-7),
             "max_distance 1e-07, expected within [0, 1e-08]"),
            (dict(block, max_distance=float("nan")),
             "max_distance nan, expected within [0, 1e-08]"),
            (dict(block, count=cert["candidates_evaluated"] + 1),
             f"count {cert['candidates_evaluated'] + 1}, expected an "
             "integer within [0, candidates_evaluated = "),
            (dict(block, kind="fourier-probe", tol=1e-10),
             "tol 1e-10, expected 1e-08")):
        report = verify_certificate(dict(cert, crosscheck=forged))
        assert report["ok"] is False
        assert list(report["invalid"]) == ["crosscheck"]
        assert report["invalid"]["crosscheck"].startswith(reason)
    assert verify_certificate(dict(cert, crosscheck=dict(block, count=0)))[
        "ok"]


def test_search_refuses_a_non_regular_group_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("work started before the group was checked")

    monkeypatch.setattr(search, "lambda2", refuse)
    # Z_4 acting on 2 points through Z_2: transitive, but characters 1 and
    # 3 do not occur in its lifts
    group = AbelianGroup((4,), ((1, 0),))
    assert group.is_transitive() and group.fiber_size == 2
    base = complete_graph(4)
    for every in (50, 0):
        with pytest.raises(ValueError, match="group action must be regular: "
                           "Z_4 of order 4 acts on a fiber of size 2 in 1 "
                           r"orbit\(s\)$"):
            derandomized_lift_search(base, group,
                                     np.zeros((3, base.m), dtype=np.int64),
                                     crosscheck_every=every)


def test_small_searches_crosscheck_by_the_probe(monkeypatch):
    base = random_regular(16, 3, seed=1)
    cert = exponential_regime_build(base, 16, 3, crosscheck_every=1
                                    ).certificate
    assert cert["crosscheck"]["count"] == 3
    _one_shift_changed(monkeypatch)
    with pytest.raises(RuntimeError, match="disagrees with a built lift"):
        exponential_regime_build(base, 16, 3, crosscheck_every=1)


def test_walk_build_beats_trivial_bound():
    base = random_regular(10, 3, seed=2)
    res = exponential_regime_build(base, 8, seeds=6, master_seed=1)
    assert res.lam < 3.0  # connected, spectrally nontrivial


def test_no_search_path_fills_characters_one_call_at_a_time(monkeypatch):
    def refuse(self, chi, g):
        raise AssertionError("char_value called on a batched path")

    monkeypatch.setattr(AbelianGroup, "char_value", refuse)
    base = random_regular(10, 3, seed=4)
    for group in (AbelianGroup.cyclic(8), AbelianGroup.product([2, 4])):
        sg = Signing.random(base, group, seed=1)
        lift_lambda(sg)
        assert spectrum_union_check(sg).passed
    res = exponential_regime_build(base, 8, 3, crosscheck_every=1)
    assert res.certificate["crosscheck"]["count"] == 3
    assert verify_certificate(res.certificate)["ok"]


def test_no_path_builds_the_fiber_action_one_element_at_a_time(monkeypatch):
    def refuse(self, g):
        raise AssertionError("perm_of called on a batched path")

    monkeypatch.setattr(AbelianGroup, "perm_of", refuse)
    base = random_regular(10, 3, seed=4)
    for group in (AbelianGroup.cyclic(8), AbelianGroup.product([2, 4])):
        sg = Signing.random(base, group, seed=1)
        assert group.is_transitive(sg.values.tolist()) is True
        assert lift(base, sg).n == lift(base, sg, allow_disconnected=True).n
        with pytest.raises(ValueError, match="non-transitive"):
            lift(base, Signing.identity(base, group))
        assert group.fixed_point() is None
        assert set(group.character_multiplicities().values()) == {1}
        assert spectrum_union_check(sg).passed
        assert free_action_check(base, sg).ok
    rows = np.random.default_rng(0).integers(8, size=(6, base.m))
    res = derandomized_lift_search(base, AbelianGroup.cyclic(8), rows,
                                   crosscheck_every=1)
    assert res.certificate["crosscheck"]["count"] == 6


def test_support_over_another_group_is_refused():
    base = cycle_graph(4)
    dist = BiasedSet(2, base.m, np.eye(base.m, dtype=np.int64), 0.5, {})
    with pytest.raises(ValueError, match="Z_2.*Z_8"):
        derandomized_lift_search(base, AbelianGroup.cyclic(8), dist)
    # the same rows as a plain array are read mod 8, as before
    res = derandomized_lift_search(base, AbelianGroup.cyclic(8), dist.support)
    assert res.certificate["candidates_evaluated"] == base.m
    # a claim the rows can meet: their exact bias is above 0.5
    same = BiasedSet(8, base.m, np.eye(base.m, dtype=np.int64), 1.0, {})
    res = derandomized_lift_search(base, AbelianGroup.cyclic(8), same)
    assert res.certificate["provenance"]["dist"]["ellp"] == 8


def test_support_search_records_the_bias_it_proved():
    base = complete_graph(4)
    full = _all_rows(2, 6)
    # an unmeasured set: its exact bias is 0, nothing recorded it
    res = derandomized_lift_search(base, AbelianGroup.cyclic(2),
                                   BiasedSet(2, 6, full, 0.0, {}))
    assert res.certificate["provenance"]["dist"]["verified"] == {
        "mode": "exact", "value": 0.0}
    assert verify_certificate(res.certificate)["ok"]
    # a recorded value is replaced by the measured one
    forged = BiasedSet(2, 6, full, 0.0, {"mode": "exact", "value": 0.25})
    assert derandomized_lift_search(
        base, AbelianGroup.cyclic(2), forged).certificate == res.certificate
    assert forged.verified == {"mode": "exact", "value": 0.25}


def test_support_search_refuses_a_bias_it_cannot_prove(monkeypatch):
    base = complete_graph(4)
    ident = BiasedSet(2, 6, np.zeros((1, 6), dtype=np.int64), 0.5, {})
    with pytest.raises(ValueError,
                       match=r"exact bias 1\.0 exceeds claimed_bias 0\.5"):
        derandomized_lift_search(base, AbelianGroup.cyclic(2), ident)

    def refuse(*args):
        raise AssertionError("measured a bias above the cap")

    monkeypatch.setattr(kernels, "EXACT_CHAR_CAP", 2 ** 6 - 1)
    monkeypatch.setattr(kernels, "_bias_max", refuse)
    with pytest.raises(ValueError, match=r"^\(Z_2\)\^6 has 64 characters, "
                       r"above the exact bias cap 63$"):
        derandomized_lift_search(base, AbelianGroup.cyclic(2), BiasedSet(
            2, 6, np.zeros((1, 6), dtype=np.int64), 1.0, {}))


def test_markov_report_premise_and_rates():
    base = complete_graph(4)
    ident = BiasedSet(3, 6, np.zeros((1, 6), dtype=np.int64), 1.0, {})
    rep = markov_bound_report(base, ident, k=3, eps=0.5)
    assert not rep["premise_satisfied"]
    assert rep["nu_achieved"] == 1.0
    assert rep["r_floored"] and rep["r_used"] == 1
    shift = math.log2(3 * 9) / 6.0
    assert rep["gamma1_prime"] == pytest.approx(rep["gamma1"] + shift,
                                                abs=1e-12)
    assert rep["nu_required"] == pytest.approx(
        (0.5 / 3) ** 6 / (4 * 3 * 9), rel=1e-12)


def test_markov_report_full_support_satisfies_premise():
    base = cycle_graph(3)
    # d = 2 rejects gamma rates, so lean on a 3-regular base instead
    base = complete_graph(4)
    full = np.array(list(itertools.product(range(2), repeat=6)),
                    dtype=np.int64)
    dist = BiasedSet(2, 6, full, 0.0, {"mode": "exact", "value": 0.0})
    rep = markov_bound_report(base, dist, k=3, eps=0.5)
    assert rep["premise_satisfied"]
    assert rep["nu_achieved"] == 0.0


def test_markov_report_premise_needs_an_exact_bias(monkeypatch):
    # with the cap below (Z_2)^6 the full set's bias is sampled: 0.0 there
    # is only a lower estimate
    monkeypatch.setattr(kernels, "EXACT_CHAR_CAP", 2 ** 6 - 1)
    base = complete_graph(4)
    full = np.array(list(itertools.product(range(2), repeat=6)),
                    dtype=np.int64)
    dist = BiasedSet(2, 6, full, 0.0, {"mode": "exact", "value": 0.0})
    rep = markov_bound_report(base, dist, k=3, eps=0.5)
    assert rep["nu_mode"] == "sampled" and rep["nu_achieved"] == 0.0
    assert not rep["premise_satisfied"]


def test_markov_report_measures_and_never_reads_verified():
    # a one-point support has exact bias 1, whatever its verified says
    base = complete_graph(4)
    forged = BiasedSet(2, 6, np.zeros((1, 6), dtype=np.int64), 0.0,
                       {"mode": "exact", "value": 0.0})
    rep = markov_bound_report(base, forged, k=3, eps=0.5)
    assert rep["nu_mode"] == "exact" and rep["nu_achieved"] == 1.0
    assert not rep["premise_satisfied"]


def test_markov_report_samples_above_the_exact_cap(monkeypatch):
    def refuse(*args):
        raise AssertionError("took the exact scan above the cap")

    # m = 21 edges at l' = 2: 2^21 characters, above the exact cap
    monkeypatch.setattr(pseudorandom, "bias_exact", refuse)
    base = random_regular(14, 3, seed=0)
    support = np.random.default_rng(0).integers(2, size=(64, base.m))
    dist = BiasedSet(2, base.m, support, 0.0, {"mode": "exact", "value": 0.0})
    rep = markov_bound_report(base, dist, k=3, eps=0.5)
    assert rep["nu_mode"] == "sampled" and 0.0 < rep["nu_achieved"] <= 1.0
    assert not rep["premise_satisfied"]


def test_markov_report_second_rate():
    base = complete_graph(4)
    ident = BiasedSet(3, 6, np.zeros((1, 6), dtype=np.int64), 1.0, {})
    # the second rate needs 3 <= k <= exp(delta r): k = 3, delta = 0.2, r = 6
    rep = markov_bound_report(base, ident, k=3, eps=0.5, delta=0.2, r=6)
    bounds = count_bounds(4, 3, 3, 6, delta=0.2)
    assert rep["gamma2"] == bounds.gamma2
    assert rep["gamma2_prime"] == bounds.gamma2 + math.log2(3 * 9) / 6.0
    assert rep["lambda_bound2"] == (2.0 ** rep["gamma2_prime"]
                                    * math.sqrt(2) + 0.5)
    assert "lambda_bound2" not in markov_bound_report(base, ident, k=3,
                                                      eps=0.5, r=6)


def test_markov_report_rejects_mismatched_width():
    base = complete_graph(4)
    dist = BiasedSet(2, 5, np.zeros((1, 5), dtype=np.int64), 1.0, {})
    with pytest.raises(ValueError, match="match base edges"):
        markov_bound_report(base, dist, k=3, eps=0.5)


def _unpruned_scan(signings, lam_base, target, crosscheck_every):
    """The scan before pruning: every character of every signing solved."""
    best = None
    evaluated = checks = 0
    max_check_dist = 0.0
    for i, signing in enumerate(signings):
        lam, _, rhos = lift_lambda(signing, lam_base)
        evaluated += 1
        if crosscheck_every and i % crosscheck_every == 0:
            max_check_dist = max(max_check_dist,
                                 search._crosscheck(signing, i))
            checks += 1
        if best is None or lam < best[2]:
            best = (i, signing, lam, rhos)
        if target is not None and lam <= target:
            break
    return best, evaluated, 0, checks, max_check_dist


def _pruned_and_reference(monkeypatch, run):
    """run() with the pruning scan, then with the unpruned reference."""
    pruned = run()
    with monkeypatch.context() as mp:
        mp.setattr(search, "_scan", _unpruned_scan)
        reference = run()
    return pruned, reference


def _assert_same_certificate(a, b):
    assert a.certificate == b.certificate
    assert (serial.canonical_json(a.certificate)
            == serial.canonical_json(b.certificate))
    assert 0 <= a.candidates_pruned < a.certificate["candidates_evaluated"]


@pytest.mark.parametrize("crosscheck_every", [0, 1, 50])
@pytest.mark.parametrize("ell", [1, 2, 3, 4, 8, 16])
def test_pruned_scan_matches_the_unpruned_reference(monkeypatch, ell,
                                                    crosscheck_every):
    base = random_regular(12, 3, seed=5)
    group = AbelianGroup.cyclic(ell)
    rows = np.random.default_rng(ell).integers(ell, size=(40, base.m))
    # each row twice in a row: the copy ties, so the first index must win
    doubled = np.repeat(rows[:20], 2, axis=0)
    for support in (rows, doubled):
        half = derandomized_lift_search(base, group, support[:20],
                                        crosscheck_every=0).lam
        for target in (None, half, 0.5):  # none, met, unmet
            new, ref = _pruned_and_reference(
                monkeypatch, lambda: derandomized_lift_search(
                    base, group, support, target=target,
                    crosscheck_every=crosscheck_every))
            _assert_same_certificate(new, ref)
            assert (new.certificate["crosscheck"]["count"]
                    == ref.certificate["crosscheck"]["count"])
            if target == half:
                assert new.certificate["met_target"] is True


@pytest.mark.parametrize("master_seed", [1, 7])
def test_pruned_walk_scan_matches_the_unpruned_reference(monkeypatch,
                                                         master_seed):
    base = random_regular(10, 3, seed=2)
    met = exponential_regime_build(base, 8, seeds=4,
                                   master_seed=master_seed).lam
    for target, crosscheck_every in ((None, 50), (met, 1), (0.5, 3)):
        new, ref = _pruned_and_reference(
            monkeypatch, lambda: exponential_regime_build(
                base, 8, seeds=12, master_seed=master_seed, target=target,
                crosscheck_every=crosscheck_every))
        _assert_same_certificate(new, ref)
        # the provenance replays the winner's own walk
        winner = new.certificate["winner_index"]
        assert (new.certificate["provenance"]["winner_seed"]
                == [master_seed, winner])
        assert np.array_equal(new.signing.values[:, 0],
                              _replayed_walk(new.certificate))
    assert winner > 0


def _count_solves(monkeypatch):
    """Record the signing values and characters of every character solve."""
    solves = []
    solve = spectral.character_spectra

    def counting(signing, chars, kind):
        solves.append((signing.values.ravel().tolist(), len(chars)))
        return solve(signing, chars, kind)

    monkeypatch.setattr(spectral, "character_spectra", counting)
    return solves


def test_rows_after_one_attaining_lambda_base_are_pruned_unsolved(monkeypatch):
    # lambda_base of an even cycle is d = 2, and a signing whose exponents
    # sum to a unit of Z_5 has every radius below 2: row 0 attains it
    base = cycle_graph(8)
    rows = np.random.default_rng(3).integers(5, size=(30, base.m))
    rows[0] = [1] + [0] * (base.m - 1)
    solves = _count_solves(monkeypatch)
    res = derandomized_lift_search(base, AbelianGroup.cyclic(5), rows,
                                   crosscheck_every=0)
    assert res.lam == res.certificate["lambda_base"] == pytest.approx(2.0)
    assert res.certificate["winner_index"] == 0
    assert res.certificate["candidates_evaluated"] == 30
    assert res.candidates_pruned == 29
    assert solves == [(rows[0].tolist(), 4)]


def _spy_pruner_solves(monkeypatch):
    """Record every character_spectra or eigvalsh call made inside
    _Pruner.reaches."""
    inside, calls = [False], []
    reaches = search._Pruner.reaches

    def pruning(self, signing, bound):
        inside[0] = True
        try:
            return reaches(self, signing, bound)
        finally:
            inside[0] = False

    def spy(module, name):
        solve = getattr(module, name)

        def recording(*args, **kwargs):
            if inside[0]:
                calls.append(name)
            return solve(*args, **kwargs)
        monkeypatch.setattr(module, name, recording)

    monkeypatch.setattr(search._Pruner, "reaches", pruning)
    spy(spectral, "character_spectra")
    spy(np.linalg, "eigvalsh")
    return calls


def test_pruning_solves_under_half_the_characters(monkeypatch):
    base = random_regular(50, 3, seed=0)
    group = AbelianGroup.cyclic(16)
    rows = np.random.default_rng(0).integers(16, size=(200, base.m))

    def run():
        return derandomized_lift_search(base, group, rows, crosscheck_every=0)

    with monkeypatch.context() as mp:
        solves = _count_solves(mp)
        pruner_solves = _spy_pruner_solves(mp)
        res = run()
    assert pruner_solves == []
    # every solve is lift_lambda's, of all 15 characters at once
    assert {count for _, count in solves} == {15}
    assert len(solves) * 15 < 200 * 15 // 2
    assert res.candidates_pruned > 100
    with monkeypatch.context() as mp:
        mp.setattr(search, "_scan", _unpruned_scan)
        _assert_same_certificate(res, run())


def test_each_tested_character_costs_at_most_two_factorizations(
        monkeypatch):
    base = random_regular(50, 3, seed=0)
    rows = np.random.default_rng(0).integers(16, size=(60, base.m))
    factored, per_test = [0], []
    potrf_of, reaches = spectral._potrf, spectral.radius_reaches

    def counting_potrf(dtype):
        potrf = potrf_of(dtype)

        def counted(*args, **kwargs):
            factored[0] += 1
            return potrf(*args, **kwargs)
        return counted

    def counting_reaches(mat, t):
        before = factored[0]
        verdict = reaches(mat, t)
        per_test.append(factored[0] - before)
        return verdict

    monkeypatch.setattr(spectral, "_potrf", counting_potrf)
    monkeypatch.setattr(spectral, "radius_reaches", counting_reaches)
    derandomized_lift_search(base, AbelianGroup.cyclic(16), rows,
                             crosscheck_every=0)
    assert per_test and set(per_test) <= {1, 2}


@pytest.mark.parametrize("ell, tested, real", [
    (2, [0], [0]), (3, [0], []), (4, [0, 1], [1]), (8, [0, 1, 2, 3], [3]),
    (16, list(range(8)), [7])])
def test_the_pruner_tests_one_character_per_conjugate_pair(ell, tested, real):
    signing = Signing.random(random_regular(12, 3, seed=5),
                             AbelianGroup.cyclic(ell), seed=1)
    pruner = search._Pruner(signing)
    # character c is order entry c - 1, and c <= ell - c
    assert pruner.order == tested
    assert np.flatnonzero(pruner.self_conjugate).tolist() == real


@pytest.mark.parametrize("ell", [2, 3, 4, 16])
def test_pruner_verdicts_at_the_largest_radius(ell):
    base = random_regular(50, 3, seed=0)
    group = AbelianGroup.cyclic(ell)
    for seed in range(5):
        signing = Signing.random(base, group, seed=seed)
        rho = max(lift_lambda(signing, 0.0)[2])
        assert search._Pruner(signing).reaches(signing, rho * (1 - 1e-9))
        assert not search._Pruner(signing).reaches(signing, rho * (1 + 1e-9))


@pytest.mark.parametrize("ell", [2, 3, 4, 8, 16])
def test_pruned_scan_at_fifty_vertices_matches_the_unpruned_reference(
        monkeypatch, ell):
    base = random_regular(50, 3, seed=0)
    rows = np.random.default_rng(ell).integers(ell, size=(60, base.m))
    dtypes = []
    reaches = spectral.radius_reaches

    def recording(mat, t):
        dtypes.append(mat.dtype)
        return reaches(mat, t)

    monkeypatch.setattr(spectral, "radius_reaches", recording)
    new, ref = _pruned_and_reference(
        monkeypatch, lambda: derandomized_lift_search(
            base, AbelianGroup.cyclic(ell), rows, crosscheck_every=0))
    _assert_same_certificate(new, ref)
    assert new.candidates_pruned > 0
    # the self-conjugate character of an even ell is factored in float64
    assert (np.dtype(np.float64) in dtypes) is (ell % 2 == 0)
    assert (np.dtype(np.complex128) in dtypes) is (ell > 2)


def test_a_search_without_the_lapack_extension_names_it(lapack_missing):
    base = random_regular(12, 3, seed=5)
    rows = np.random.default_rng(0).integers(8, size=(10, base.m))
    with pytest.raises(RuntimeError, match=re.escape(lapack_missing)):
        derandomized_lift_search(base, AbelianGroup.cyclic(8), rows)


def test_ties_are_solved_in_full_and_not_taken(monkeypatch):
    base = random_regular(12, 3, seed=5)
    group = AbelianGroup.cyclic(8)
    rows = np.random.default_rng(8).integers(8, size=(20, base.m))
    doubled = np.repeat(rows, 2, axis=0)

    def run():
        return derandomized_lift_search(base, group, doubled,
                                        crosscheck_every=0)

    with monkeypatch.context() as mp:
        solves = _count_solves(mp)
        new = run()
    with monkeypatch.context() as mp:
        mp.setattr(search, "_scan", _unpruned_scan)
        _assert_same_certificate(new, run())
    assert new.certificate["winner_index"] % 2 == 0
    # the copy of each new best ties it: it is solved, and the first stays
    lam_base = spectral.lambda2(base)
    lams = [lift_lambda(Signing(base, group, row.reshape(-1, 1)),
                        lam_base)[0] for row in rows]
    new_bests = [row.tolist() for i, row in enumerate(rows)
                 if lams[i] < min(lams[:i], default=math.inf)]
    assert len(new_bests) > 1
    for row in new_bests:
        assert solves.count((row, 7)) == 2


def test_scan_without_cached_character_columns_is_unchanged(monkeypatch):
    base = random_regular(12, 3, seed=5)
    rows = np.random.default_rng(4).integers(8, size=(60, base.m))

    def run():
        return derandomized_lift_search(base, AbelianGroup.cyclic(8), rows,
                                        crosscheck_every=0)

    cached = run()
    monkeypatch.setattr(spectral, "STACK_BYTES", 0)
    uncached = run()
    _assert_same_certificate(uncached, cached)
    assert uncached.candidates_pruned == cached.candidates_pruned > 0
