"""End-to-end CLI runs: artifacts, exit codes, reproducibility."""
from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from abelift import kernels, pseudorandom, search, serial
from abelift.cli import main
from abelift.graphs import (Signing, complete_graph, cycle_graph, lift,
                            petersen_graph, random_regular)
from abelift.groups import AbelianGroup
from abelift.pseudorandom import BiasedSet
from abelift.search import verify_certificate
from abelift.spectral import adjacency_spectrum, lambda2

FIXTURES = Path(__file__).parent / "fixtures"


def _write_graph(path, g):
    serial.dump_json({"graph": g.to_json()}, str(path))
    return str(path)


def _write_signing(path, signing):
    serial.dump_json(signing.to_json(), str(path))
    return str(path)


def test_gen_base_writes_reproducible_artifact(tmp_path):
    out = tmp_path / "k4.json"
    argv = ["gen-base", "--kind", "complete", "--n", "4",
            "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    payload = json.loads(first)
    assert payload["graph"]["n"] == 4
    assert set(payload["meta"]) == {"tool", "config_hash", "inputs"}
    assert payload["graph_hash"]
    assert main(argv) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("argv, graph", [
    (["--kind", "random", "--n", "10", "--d", "3", "--seed", "4"],
     random_regular(10, 3, seed=4)),
    (["--kind", "cycle", "--n", "7"], cycle_graph(7)),
    (["--kind", "petersen"], petersen_graph())],
    ids=["random", "cycle", "petersen"])
def test_gen_base_kinds(tmp_path, argv, graph):
    out = tmp_path / "g.json"
    assert main(["gen-base", *argv, "--out", str(out)]) == 0
    payload = json.loads(out.read_bytes())
    assert payload["graph"] == graph.to_json()
    assert payload["graph_hash"] == graph.content_hash()


def test_spectrum_union_roundtrip(tmp_path):
    base = cycle_graph(3)
    gp = _write_graph(tmp_path / "c3.json", base)
    sg = Signing.identity(base, AbelianGroup.cyclic(2))
    sg.values[0] = [1]
    sp = _write_signing(tmp_path / "sg.json", sg)
    out = tmp_path / "union.json"
    argv = ["spectrum", "--graph", gp, "--signing", sp,
            "--check", "union", "--out", str(out)]
    assert main(argv) == 0
    payload = json.loads(out.read_bytes())
    assert payload["passed"] and payload["adjacency_distance"] <= 1e-8
    assert payload["lambda_modulus"] == pytest.approx(2.0, abs=1e-9)
    assert len(payload["eigenvalues"]) == 6
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_spectrum_union_lambdas_equal_the_library_ones(tmp_path):
    # the artifact reads both lambdas off one eigvalsh of the lift
    for name, base, group, seed in (
            ("c3", cycle_graph(3), AbelianGroup.cyclic(2), 1),
            ("k4", complete_graph(4), AbelianGroup.cyclic(3), 2),
            ("rr", random_regular(10, 3, seed=1), AbelianGroup.cyclic(4), 3)):
        sg = Signing.random(base, group, seed=seed)
        out = tmp_path / f"{name}-union.json"
        assert main(["spectrum", "--graph",
                     _write_graph(tmp_path / f"{name}.json", base),
                     "--signing", _write_signing(tmp_path / f"{name}-sg.json",
                                                 sg),
                     "--check", "union", "--out", str(out)]) == 0
        payload = json.loads(out.read_bytes())
        lifted = lift(base, sg, allow_disconnected=True)
        assert payload["lambda_modulus"] == lambda2(lifted)
        assert payload["lambda_signed"] == adjacency_spectrum(lifted)[-2]
        assert payload["nb_distance"] <= 1e-10


def test_spectrum_timing_is_opt_in(tmp_path):
    gp = _write_graph(tmp_path / "k4.json", complete_graph(4))
    sg = Signing.identity(complete_graph(4), AbelianGroup.cyclic(2))
    sp = _write_signing(tmp_path / "sg.json", sg)
    out = tmp_path / "ihara.json"
    assert main(["spectrum", "--graph", gp, "--signing", sp,
                 "--check", "ihara", "--out", str(out)]) == 0
    payload = json.loads(out.read_bytes())
    assert "runtime" not in payload
    assert payload["trivial"] and payload["passed"]
    assert main(["spectrum", "--graph", gp, "--signing", sp,
                 "--check", "ihara", "--out", str(out), "--timing"]) == 0
    assert "runtime" in json.loads(out.read_bytes())


def test_spectrum_mixing(tmp_path):
    gp = _write_graph(tmp_path / "k4.json", complete_graph(4))
    out = tmp_path / "mix.json"
    assert main(["spectrum", "--graph", gp, "--check", "mixing",
                 "--set-s", "1", "--set-t", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_bytes())
    assert payload["lhs"] == pytest.approx(0.25)
    assert payload["passed"]


def test_lift_search_walk_mode(tmp_path):
    gp = _write_graph(tmp_path / "c10.json", cycle_graph(10))
    out = tmp_path / "cert.json"
    argv = ["lift-search", "--graph", gp, "--mode", "walk", "--ell", "8",
            "--seeds", "4", "--master-seed", "7", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    cert = json.loads(first)["certificate"]
    assert cert["mode"] == "walk"
    assert cert["candidates_evaluated"] == 4
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_lift_search_impossible_target_exits_one(tmp_path):
    gp = _write_graph(tmp_path / "c10.json", cycle_graph(10))
    out = tmp_path / "cert.json"
    code = main(["lift-search", "--graph", gp, "--mode", "walk",
                 "--ell", "8", "--seeds", "3", "--target", "0.1",
                 "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_bytes())
    assert payload["failed"] is True
    assert payload["certificate"]["met_target"] is False
    assert payload["certificate"]["lambda_lift"] > 0.1  # best effort kept


def test_lift_search_support_mode_chains_artifacts(tmp_path):
    bs_out = tmp_path / "bias.json"
    assert main(["pseudorandom", "biased-set", "--ellp", "2", "--m", "3",
                 "--nu", "1.0", "--size-budget", "8",
                 "--out", str(bs_out)]) == 0
    bs = json.loads(bs_out.read_bytes())["biased_set"]
    assert bs["support"] == [[0, 0, 0]]
    gp = _write_graph(tmp_path / "c3.json", cycle_graph(3))
    cert_out = tmp_path / "cert.json"
    assert main(["lift-search", "--graph", gp, "--mode", "support",
                 "--ell", "2", "--support", str(bs_out),
                 "--out", str(cert_out)]) == 0
    cert = json.loads(cert_out.read_bytes())["certificate"]
    assert cert["mode"] == "derandomized"
    assert cert["lambda_lift"] == pytest.approx(2.0, abs=1e-9)


def test_lift_search_refuses_a_support_whose_bias_is_unproved(tmp_path,
                                                              capsys):
    def run(graph, dist):
        path = tmp_path / "bias.json"
        serial.dump_json({"biased_set": dist.to_json()}, str(path))
        capsys.readouterr()
        code = main(["lift-search", "--graph", graph, "--mode", "support",
                     "--ell", "2", "--support", str(path)])
        return code, json.loads(capsys.readouterr().out)

    # (Z_2)^21 is above the exact cap: only a sampled (lower) estimate exists
    g21 = _write_graph(tmp_path / "g21.json", random_regular(14, 3, seed=0))
    support = np.random.default_rng(0).integers(2, size=(64, 21))
    sampled = BiasedSet(2, 21, support, 0.5, {})
    sampled.verified = sampled.verify()
    assert sampled.verified["mode"] == "sampled"
    code, payload = run(g21, sampled)
    assert code == 1 and payload["failed"] is True
    assert payload["error"] == ("(Z_2)^21 has 2097152 characters, above the "
                                "exact bias cap 1048576")
    # a claim below the exact bias, hand-edited into a written file
    bs_out = tmp_path / "made.json"
    assert main(["pseudorandom", "biased-set", "--ellp", "2", "--m", "6",
                 "--nu", "0.6", "--size-budget", "32",
                 "--out", str(bs_out)]) == 0
    made = BiasedSet.from_json(json.loads(bs_out.read_bytes())["biased_set"])
    g6 = _write_graph(tmp_path / "k4.json", complete_graph(4))
    assert run(g6, made)[0] == 0
    made.claimed_bias = made.verified["value"] / 2
    code, payload = run(g6, made)
    assert code == 1 and payload["failed"] is True
    assert "exceeds claimed_bias" in payload["error"]
    # an honest claim with no recorded verification is re-measured
    singleton = BiasedSet(2, 6, np.zeros((1, 6), dtype=np.int64), 1.0, {})
    code, payload = run(g6, singleton)
    assert code == 0
    cert = payload["certificate"]
    assert cert["provenance"]["dist"]["verified"] == {"mode": "exact",
                                                      "value": 1.0}
    assert search.verify_certificate(cert)["ok"]


def test_lift_search_refuses_an_unprovable_support_before_sampling(
        tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("measured a bias it cannot use")

    monkeypatch.setattr(pseudorandom, "bias_sampled", refuse)
    monkeypatch.setattr(kernels, "_bias_max", refuse)
    path = tmp_path / "bias.json"
    support = np.random.default_rng(0).integers(2, size=(64, 21))
    serial.dump_json({"biased_set": BiasedSet(2, 21, support, 0.5,
                                              {}).to_json()}, str(path))
    g21 = _write_graph(tmp_path / "g21.json", random_regular(14, 3, seed=0))
    capsys.readouterr()
    assert main(["lift-search", "--graph", g21, "--mode", "support",
                 "--ell", "2", "--support", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"failed": True, "error": "(Z_2)^21 has 2097152 "
                       "characters, above the exact bias cap 1048576"}


def test_biased_set_and_support_certificate_bytes_are_pinned(tmp_path,
                                                            monkeypatch):
    # the v3 support fixture was written by these three commands: its meta
    # pins the biased-set artifact's hash, and the certificate is the file
    fixture = FIXTURES / "support_cert_v3.json"
    monkeypatch.chdir(tmp_path)
    assert main(["gen-base", "--kind", "complete", "--n", "4",
                 "--out", "k4.json"]) == 0
    assert main(["pseudorandom", "biased-set", "--ellp", "3", "--m", "6",
                 "--nu", "0.6", "--size-budget", "40",
                 "--out", "bias.json"]) == 0
    assert serial.file_hash("bias.json") == (
        "1b399847f851f5fe9cd974eaac44ee9fa0990b4b3add61e2bbf9a16a40191e35")
    assert main(["lift-search", "--graph", "k4.json", "--mode", "support",
                 "--ell", "3", "--support", "bias.json",
                 "--out", "cert.json"]) == 0
    assert (tmp_path / "cert.json").read_bytes() == fixture.read_bytes()


def test_lift_search_refuses_a_support_over_another_group(tmp_path, capsys):
    bs_out = tmp_path / "bias.json"
    assert main(["pseudorandom", "biased-set", "--ellp", "2", "--m", "3",
                 "--nu", "1.0", "--size-budget", "8",
                 "--out", str(bs_out)]) == 0
    gp = _write_graph(tmp_path / "c3.json", cycle_graph(3))
    capsys.readouterr()
    code = main(["lift-search", "--graph", gp, "--mode", "support",
                 "--ell", "8", "--support", str(bs_out)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] is True
    assert "Z_2" in payload["error"] and "Z_8" in payload["error"]


def test_hikes_count_and_bounds(tmp_path):
    gp = _write_graph(tmp_path / "k4.json", complete_graph(4))
    out = tmp_path / "h.json"
    assert main(["hikes", "count", "--graph", gp, "--k", "1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_bytes())["count"] == 12
    assert main(["hikes", "check-bound", "--graph", gp, "--k", "2",
                 "--r", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_bytes())
    assert payload["passed"] and payload["count"] <= payload["bound1"]
    assert main(["hikes", "bounds", "--graph", gp, "--k", "3",
                 "--r", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_bytes())["bound1"] == pytest.approx(4478976.0)


def test_hikes_count_at_k10_and_above_the_budget(tmp_path, capsys,
                                                 nb_walk_counts):
    g = random_regular(40, 3, seed=5)
    gp = _write_graph(tmp_path / "g40.json", g)
    out = tmp_path / "h.json"
    assert main(["hikes", "count", "--graph", gp, "--k", "10", "--all-walks",
                 "--out", str(out)]) == 0
    every = json.loads(out.read_bytes())["count"]
    assert every == int((nb_walk_counts(g, 10) ** 2).sum())
    assert main(["hikes", "count", "--graph", gp, "--k", "10",
                 "--out", str(out)]) == 0
    assert 0 < json.loads(out.read_bytes())["count"] < every
    # 10 (3 * 2^11)^2 = 3.8e8 ordered pairs of half-walks
    pp = _write_graph(tmp_path / "petersen.json", petersen_graph())
    assert main(["hikes", "count", "--graph", pp, "--k", "12"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"failed": True, "error": "hike enumeration budget "
                       "exceeded for these n, d, k"}


def test_hikes_mop(tmp_path):
    gp = _write_graph(tmp_path / "c100.json", cycle_graph(100))
    out = tmp_path / "mop.json"
    assert main(["hikes", "mop", "--graph", gp, "--r", "50",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_bytes())
    assert payload["hypothesis_ok"] and payload["passed"]
    assert payload["bound"] == pytest.approx(11.210340371976182)


def test_hikes_mop_rejects_r_below_one(tmp_path, capsys):
    gp = _write_graph(tmp_path / "petersen.json", petersen_graph())
    for r in ("0", "-1"):
        assert main(["hikes", "mop", "--graph", gp, "--r", r]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"failed": True, "error": "r must be >= 1"}


def test_hikes_check_bound_refuses_k_below_two(tmp_path, capsys):
    gp = _write_graph(tmp_path / "k4.json", complete_graph(4))
    for k in ("1", "0"):
        assert main(["hikes", "check-bound", "--graph", gp, "--k", k]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"failed": True, "error": (
            f"check-bound counts (k - 1)-hikes, so it needs --k >= 2, "
            f"got {k}")}


def test_pseudorandom_biased_set_refuses_a_zero_trial_budget(capsys):
    for budget in ("0", "-3"):
        assert main(["pseudorandom", "biased-set", "--ellp", "2", "--m", "3",
                     "--nu", "1.0", "--trial-budget", budget]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"failed": True,
                           "error": "trial budget must be positive"}


def test_pseudorandom_hoeffding(tmp_path):
    gp = _write_graph(tmp_path / "c10.json", cycle_graph(10))
    out = tmp_path / "tail.json"
    assert main(["pseudorandom", "hoeffding", "--graph", gp, "--ell", "16",
                 "--threshold", "8", "--trials", "500",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_bytes())
    assert payload["passed"]
    assert payload["trials"] == 500


def test_pseudorandom_hoeffding_refuses_a_walk_table_above_the_cap(
        tmp_path, capsys):
    gp = _write_graph(tmp_path / "c10.json", cycle_graph(10))
    started = time.perf_counter()
    assert main(["pseudorandom", "hoeffding", "--graph", gp,
                 "--trials", "1000000000000000"]) == 1
    assert time.perf_counter() - started < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] is True
    assert "160000000000000000-byte walk table" in payload["error"]


def test_codes_toric_with_distance(tmp_path):
    out = tmp_path / "toric.json"
    assert main(["codes", "toric", "--ell", "2", "--distance", "exact",
                 "--out", str(out)]) == 0
    css = json.loads(out.read_bytes())["css"]
    assert css["n"] == 8 and css["k"] == 2
    assert css["distance"]["value"] == 2 and css["distance"]["certified"]


def test_codes_toric_exact_distance_at_and_past_the_budget(tmp_path,
                                                          capsys):
    out = tmp_path / "toric.json"
    assert main(["codes", "toric", "--ell", "6", "--distance", "exact",
                 "--out", str(out)]) == 0
    css = json.loads(out.read_bytes())["css"]
    assert (css["n"], css["k"]) == (72, 2)
    assert css["distance"] == {"mode": "exact", "value": 6,
                               "certified": True, "dx": 6, "dz": 6}
    capsys.readouterr()
    assert main(["codes", "toric", "--ell", "8", "--distance", "exact"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["failed"] is True
    assert payload["error"].startswith("exact distance budget exceeded: ")
    assert payload["error"].endswith("; use the information-set mode")
    assert captured.err == ""


def test_codes_css_valid_failure_path(tmp_path):
    hx = tmp_path / "hx.json"
    hz = tmp_path / "hz.json"
    serial.dump_json([[1, 0]], str(hx))
    serial.dump_json([[1, 0]], str(hz))
    out = tmp_path / "check.json"
    code = main(["codes", "css-valid", "--hx", str(hx), "--hz", str(hz),
                 "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_bytes())
    assert payload["failed"] is True and payload["css_valid"] is False
    serial.dump_json([[1, 1]], str(hx))
    serial.dump_json([[1, 1]], str(hz))
    assert main(["codes", "css-valid", "--hx", str(hx), "--hz", str(hz),
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("payload, reason", [
    ([[1, None]], "entry [0][1] is null, not 0 or 1"),
    ([[2, 0]], "entry [0][0] is 2, not 0 or 1"),
    ([[1, 0], [0, 1.5]], "entry [1][1] is 1.5, not 0 or 1"),
    ([[1, 0], [True, 0]], "entry [1][0] is true, not 0 or 1"),
    ([[1, 0], [1]], "row 1 has 1 entries, row 0 has 2"),
    ({"rows": [[1, 0]]}, "expected a JSON list of rows of 0 or 1"),
    ([1, 0], "expected a JSON list of rows of 0 or 1"),
], ids=["null", "two", "fraction", "bool", "ragged", "object", "flat"])
def test_codes_css_valid_refuses_an_entry_that_is_not_0_or_1(
        tmp_path, capsys, payload, reason):
    # read strictly: 2 is not reduced to 0, so [[2, 0]] against [[1, 0]]
    # is refused, not reported as a valid pair
    hx, hz = tmp_path / "hx.json", tmp_path / "hz.json"
    serial.dump_json(payload, str(hx))
    serial.dump_json([[1, 0]], str(hz))
    for argv in (["--hx", str(hx), "--hz", str(hz)],
                 ["--hx", str(hz), "--hz", str(hx)]):
        assert main(["codes", "css-valid", *argv]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "failed": True, "error": f"{hx}: {reason}"}
        assert captured.err == ""


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_codes_sampled_distance_refuses_nonpositive_trials(capsys, trials):
    assert main(["codes", "toric", "--ell", "3", "--distance",
                 "information-set", "--trials", trials]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "failed": True, "error": "trials must be positive"}


def test_codes_tanner_from_certificate(tmp_path):
    gp = _write_graph(tmp_path / "k4.json", complete_graph(4))
    cert_out = tmp_path / "cert.json"
    assert main(["lift-search", "--graph", gp, "--mode", "walk",
                 "--ell", "3", "--seeds", "2", "--out", str(cert_out)]) == 0
    out = tmp_path / "tanner.json"
    alist = tmp_path / "tanner.alist"
    assert main(["codes", "tanner", "--cert", str(cert_out),
                 "--local", "even-weight", "--alist", str(alist),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_bytes())["tanner"]
    assert payload["circulant"] is True
    assert (payload["rows"], payload["cols"]) == (12, 18)
    assert alist.read_text().splitlines()[0] == "18 12"
    # pinned: building the parity another way must leave artifacts unchanged.
    # At l = 3 the only 2-regular auxiliary graph is the triangle, and walk
    # i keeps the stream of the seed pair (0, i), so the v2 certificate
    # signs the base as the v1 fixture does and both give one hash
    v1_hash = ("00ac1e50c8372d0a8f5c4bb22b8a540f"
               "27500689b14cb42d3d49b692ad1606c2")
    v2_hash = v1_hash
    assert payload["parity_hash"] == v2_hash
    assert serial.file_hash(str(alist)) == (
        "25baf0fae1c466684b8272b6cd30d4b498c0d1946cd2fd25510e247dc2193ddf")
    v1_out = tmp_path / "tanner_v1.json"
    assert main(["codes", "tanner", "--cert",
                 str(FIXTURES / "walk_cert_v1.json"), "--local",
                 "even-weight", "--out", str(v1_out)]) == 0
    assert json.loads(v1_out.read_bytes())["tanner"]["parity_hash"] == v1_hash


def test_walk_chain_at_l16_is_pinned(tmp_path):
    """gen-base, lift-search --mode walk and codes tanner at l = 16, the
    benchmark's walk chain: the certificate, the parity hash and the alist
    bytes were recorded with one draw per walk step, the parity
    hashed from its JSON and the alist built per row and column."""
    base, cert, tanner, alist = (str(tmp_path / name) for name in (
        "base.json", "cert.json", "tanner.json", "code.alist"))
    assert main(["gen-base", "--kind", "random", "--n", "16", "--d", "3",
                 "--seed", "1", "--out", base]) == 0
    assert main(["lift-search", "--graph", base, "--mode", "walk", "--ell",
                 "16", "--seeds", "64", "--out", cert]) == 0
    assert main(["codes", "tanner", "--cert", cert, "--alist", alist,
                 "--out", tanner]) == 0
    certificate = serial.load_json(cert)["certificate"]
    assert [v for v, in certificate["signing"]] == [
        13, 9, 12, 1, 6, 9, 5, 8, 4, 9, 10, 8, 5, 12, 7, 5, 14, 15, 6, 12, 1,
        12, 14, 8]
    assert certificate["winner_index"] == 44
    assert certificate["lambda_lift"] == 2.7383478784862274
    payload = serial.load_json(tanner)["tanner"]
    assert (payload["rows"], payload["cols"]) == (256, 384)
    assert payload["parity_hash"] == (
        "89134641797d10e37103f0cecadecdf32209fa75c55ae2785dbf05a0b6dfdcfe")
    assert serial.file_hash(alist) == (
        "9215711bba6e8984622559823325fda784f3a1ca94db11adfc4670a3c38075e3")


def test_codes_tanner_refuses_a_non_canonical_group(tmp_path, capsys):
    gp = _write_graph(tmp_path / "k4.json", complete_graph(4))
    cert_out = tmp_path / "cert.json"
    assert main(["lift-search", "--graph", gp, "--mode", "walk",
                 "--ell", "3", "--seeds", "2", "--out", str(cert_out)]) == 0
    cert = json.loads(cert_out.read_bytes())["certificate"]
    # Z_3 acting by the backward rotation: regular, but not the canonical
    # rotation whose fiber shifts the Tanner expansion assumes
    cert["group"] = AbelianGroup((3,), ((2, 0, 1),)).to_json()
    forged = tmp_path / "forged.json"
    serial.dump_json({"certificate": cert}, str(forged))
    capsys.readouterr()
    assert main(["codes", "tanner", "--cert", str(forged)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "failed": True,
        "error": "certificate group is not the canonical cyclic rotation "
                 "action"}


@pytest.mark.parametrize("adj, found", [
    (None, "None"), ([1, 2, 3, 4], "[1, 2, 3, 4]")],
    ids=["adj-null", "adj-of-labels"])
@pytest.mark.parametrize("argv", [
    ["spectrum", "--check", "mixing", "--set-s", "1", "--set-t", "2"],
    ["lift-search", "--ell", "4", "--seeds", "2"],
    ["hikes", "count", "--k", "3"]], ids=["spectrum", "lift-search", "hikes"])
def test_graph_readers_name_a_malformed_graph(tmp_path, capsys, argv, adj,
                                              found):
    graph = tmp_path / "g.json"
    serial.dump_json({"graph": {"n": 4, "d": 3, "adj": adj}}, str(graph))
    capsys.readouterr()
    assert main(argv + ["--graph", str(graph)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "failed": True,
        "error": f"graph adj must be a list of neighbor rows, found {found}"}
    assert captured.err == ""


@pytest.mark.parametrize("signing, error", [
    ({"group": AbelianGroup.cyclic(2).to_json(), "edges": None},
     "signing edges must be a list of [u, v, exponents] triples, found "
     "None"),
    ({"group": AbelianGroup.cyclic(2).to_json(), "edges": [[1, 2]]},
     "signing edges must be a list of [u, v, exponents] triples, found "
     "[[1, 2]]"),
    ({"group": None, "edges": []},
     "group is malformed: 'NoneType' object is not subscriptable")],
    ids=["edges-null", "edges-of-pairs", "group-null"])
def test_spectrum_names_a_malformed_signing(tmp_path, capsys, signing,
                                            error):
    graph = _write_graph(tmp_path / "k4.json", complete_graph(4))
    path = tmp_path / "s.json"
    serial.dump_json(signing, str(path))
    capsys.readouterr()
    assert main(["spectrum", "--graph", graph, "--signing", str(path)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"failed": True, "error": error}
    assert captured.err == ""


@pytest.mark.parametrize("field, value, expected", [
    ("ellp", None, "an integer > 0"), ("ellp", 2.7, "an integer > 0"),
    ("m", True, "an integer"), ("support", None, "a list of rows"),
    ("claimed_bias", None, "a number"), ("verified", 5, "an object")],
    ids=["ellp-null", "ellp-float", "m-bool", "support-null",
         "claimed-bias-null", "verified-int"])
def test_lift_search_names_a_malformed_support_file(tmp_path, capsys, field,
                                                    value, expected):
    graph = _write_graph(tmp_path / "k4.json", complete_graph(4))
    dist = dict(BiasedSet(2, 6, [[0] * 6], 1.0, {}).to_json(),
                **{field: value})
    path = tmp_path / "bias.json"
    serial.dump_json({"biased_set": dist}, str(path))
    capsys.readouterr()
    assert main(["lift-search", "--graph", graph, "--mode", "support",
                 "--ell", "2", "--support", str(path)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "failed": True,
        "error": f"biased set {field} {value!r}, expected {expected}"}
    assert captured.err == ""


@pytest.mark.parametrize("field, value", [
    ("base", 5), ("base", None), ("group", "x"), ("group", [1, 2]),
    ("signing", None), ("signing", {})],
    ids=["base-int", "base-null", "group-string", "group-list",
         "signing-null", "signing-empty-object"])
def test_codes_tanner_names_a_certificate_part_that_cannot_be_read(
        tmp_path, capsys, field, value):
    cert = serial.load_json(str(FIXTURES / "walk_cert_v3.json"))
    cert["certificate"][field] = value
    forged = tmp_path / "forged.json"
    serial.dump_json(cert, str(forged))
    capsys.readouterr()
    assert main(["codes", "tanner", "--cert", str(forged)]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["failed"] is True and set(payload) == {"failed", "error"}
    assert payload["error"].startswith(f"certificate {field} cannot be "
                                       "read: ")
    assert captured.err == ""


def test_walk_search_at_fiber_size_forty_succeeds_and_replays(tmp_path):
    gp = _write_graph(tmp_path / "g16.json", random_regular(16, 3, seed=1))
    runs = []
    for _ in range(2):
        out = tmp_path / "cert.json"
        assert main(["lift-search", "--graph", gp, "--ell", "40",
                     "--seeds", "2", "--out", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]
    cert = json.loads(runs[0])["certificate"]
    assert cert["provenance"]["dprime_used"] == 36
    assert verify_certificate(cert)["ok"]


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--graph"])  # missing value
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--graph", str(tmp_path / "absent.json"),
              "--check", "mixing", "--set-s", "0", "--set-t", "1"])
    assert exc.value.code == 2
    assert "missing input file" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["union", "ihara"])
def test_spectrum_check_without_signing_is_a_usage_error(tmp_path, capsys,
                                                          check):
    gp = _write_graph(tmp_path / "k4.json", complete_graph(4))
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--graph", gp, "--check", check])
    assert exc.value.code == 2
    assert f"--check {check} needs --signing" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["gen-base", "--kind", "cycle"], "gen-base --kind cycle needs --n"),
    (["gen-base", "--kind", "complete"], "--kind complete needs --n"),
    (["gen-base", "--kind", "random"], "--kind random needs --n and --d"),
    (["gen-base", "--n", "8"], "gen-base --kind random needs --d"),
    (["lift-search", "--graph", "{k4}", "--ell", "3", "--mode", "support"],
     "lift-search --mode support needs --support"),
    (["codes", "tanner"], "codes tanner needs --cert"),
    (["codes", "css-valid", "--hx", "{k4}"], "codes css-valid needs --hz"),
    (["pseudorandom", "hoeffding"], "pseudorandom hoeffding needs --graph"),
    (["spectrum", "--graph", "{k4}", "--check", "mixing"],
     "spectrum --check mixing needs --set-s and --set-t"),
    (["spectrum", "--graph", "{k4}", "--check", "mixing", "--set-s", "1"],
     "spectrum --check mixing needs --set-t"),
])
def test_missing_required_option_is_a_usage_error(tmp_path, capsys, argv,
                                                  message):
    gp = _write_graph(tmp_path / "k4.json", complete_graph(4))
    with pytest.raises(SystemExit) as exc:
        main([a.format(k4=gp) for a in argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("check", ["union", "ihara"])
@pytest.mark.parametrize("edit, error", [
    (lambda es: es + [es[3]], "signing lists edge (2, 3) more than once"),
    (lambda es: [[1, 1, [0, 0]]] + es[1:],
     "signing pair (1, 1) is not a base edge"),
    (lambda es: [[1, 2 ** 70, [0, 0]]] + es[1:],
     f"signing entry {2 ** 70} is not a 64-bit integer"),
], ids=["repeated-edge", "non-edge", "huge-label"])
def test_malformed_signing_exits_one_naming_the_fault(tmp_path, capsys,
                                                      check, edit, error):
    base = random_regular(6, 3, seed=0)
    gp = _write_graph(tmp_path / "g.json", base)
    payload = Signing.random(base, AbelianGroup.product([2, 4]),
                             seed=1).to_json()
    payload["edges"] = edit(payload["edges"])
    sp = tmp_path / "signing.json"
    serial.dump_json(payload, str(sp))
    assert main(["spectrum", "--graph", gp, "--check", check,
                 "--signing", str(sp)]) == 1
    assert json.loads(capsys.readouterr().out) == {"failed": True,
                                                   "error": error}


def test_json_flag_prints_payload(tmp_path, capsys):
    out = tmp_path / "k4.json"
    assert main(["gen-base", "--kind", "complete", "--n", "4",
                 "--out", str(out), "--json"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == out.read_text().strip()


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "abelift.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    """Successive main calls share one parser and print what fresh
    processes print."""
    from abelift import cli
    gp = _write_graph(tmp_path / "k4.json", complete_graph(4))
    runs = [["gen-base", "--kind", "petersen"],
            ["hikes", "count", "--graph", gp, "--k", "2"],
            ["gen-base", "--kind", "cycle", "--n", "5"]]
    fresh = [subprocess.run([sys.executable, "-m", "abelift.cli", *argv],
                            capture_output=True, text=True, check=True).stdout
             for argv in runs]
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._parser.cache_clear()
    capsys.readouterr()
    outs = []
    for argv in runs:
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs == fresh
    assert len(built) == 1


def test_bad_semantic_input_exits_one(tmp_path, capsys):
    gp = _write_graph(tmp_path / "k4.json", complete_graph(4))
    code = main(["spectrum", "--graph", gp, "--check", "mixing",
                 "--set-s", "", "--set-t", "1"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] is True and "error" in payload


@pytest.mark.parametrize("argv, reason", [
    (["lift-search", "--ell", "2", "--seeds", "2"],
     "walk signings need fiber size >= 3"),
    (["pseudorandom", "biased-set", "--ellp", "2", "--m", "2", "--nu", "0",
      "--size-budget", "1"], "no nu=0.0 support found"),
    (["pseudorandom", "biased-set", "--m", "21"], "above the exact bias cap"),
    (["lift-search", "--ell", "5", "--seeds", "3", "--crosscheck-every", "-1"],
     "crosscheck_every must be >= 0"),
], ids=["walk-aux-expander", "biased-set-budget", "biased-set-above-cap",
        "negative-crosscheck-cadence"])
def test_failed_search_exits_one_with_a_reason(tmp_path, capsys, argv,
                                               reason):
    if argv[0] == "lift-search":
        argv = argv + ["--graph", _write_graph(
            tmp_path / "g16.json", random_regular(16, 3, seed=1))]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] is True and reason in payload["error"]


def test_lift_search_without_the_lapack_extension_exits_one(
        tmp_path, capsys, lapack_missing):
    graph = _write_graph(tmp_path / "g16.json", random_regular(16, 3, seed=1))
    assert main(["lift-search", "--graph", graph, "--mode", "walk", "--ell",
                 "8", "--seeds", "8"]) == 1
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["failed"] is True and lapack_missing in payload["error"]
    assert "Traceback" not in err


@pytest.mark.parametrize("chi", ["9", "1,1", "-1", "0,0"])
def test_ihara_rejects_a_character_outside_the_group(tmp_path, capsys, chi):
    base = cycle_graph(4)
    gp = _write_graph(tmp_path / "c4.json", base)
    sp = _write_signing(tmp_path / "sg.json",
                        Signing.random(base, AbelianGroup.cyclic(4), seed=1))
    code = main(["spectrum", "--graph", gp, "--signing", sp,
                 "--check", "ihara", "--chi", chi])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] is True and "error" in payload


def test_spectrum_union_builds_one_lift(tmp_path, monkeypatch):
    # the artifact's eigenvalues come from the union check's own lift
    from abelift import graphs
    original = graphs.lift
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("abelift")
                and getattr(module, "lift", None) is original):
            monkeypatch.setattr(module, "lift", counting)
    base = complete_graph(4)
    sg = Signing.random(base, AbelianGroup.cyclic(3), seed=2)
    assert main(["spectrum", "--graph", _write_graph(tmp_path / "k4.json",
                                                      base),
                 "--signing", _write_signing(tmp_path / "sg.json", sg),
                 "--check", "union", "--out", str(tmp_path / "u.json")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv, name, found", [
    (["spectrum", "--graph", "{bad}", "--check", "mixing", "--set-s", "0",
      "--set-t", "1"], "list.json", "list"),
    (["spectrum", "--graph", "{k4}", "--signing", "{bad}"], "list.json",
     "list"),
    (["codes", "tanner", "--cert", "{cert5}"], "cert5.json", "int"),
], ids=["graph-list", "signing-list", "cert-int"])
def test_non_object_json_input_exits_one_naming_the_file(tmp_path, capsys,
                                                         argv, name, found):
    paths = {"k4": _write_graph(tmp_path / "k4.json", complete_graph(4)),
             "bad": str(tmp_path / "list.json"),
             "cert5": str(tmp_path / "cert5.json")}
    serial.dump_json([1, 2], paths["bad"])
    serial.dump_json({"certificate": 5}, paths["cert5"])
    assert main([a.format(**paths) for a in argv]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "failed": True,
        "error": f"{tmp_path / name}: expected a JSON object, found {found}"}


@pytest.mark.parametrize("option", ["--out", "--alist"])
def test_missing_output_directory_names_the_output(tmp_path, capsys,
                                                   option):
    gp = _write_graph(tmp_path / "k4.json", complete_graph(4))
    cert = tmp_path / "cert.json"
    assert main(["lift-search", "--graph", gp, "--ell", "3", "--seeds", "1",
                 "--out", str(cert)]) == 0
    target = str(tmp_path / "nodir" / "x")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["codes", "tanner", "--cert", str(cert), option, target])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"abelift: cannot write output file: {target} (no such directory)\n")


@pytest.fixture(scope="module")
def runner_inputs(tmp_path_factory):
    """One file of each input kind the subcommands read."""
    root = tmp_path_factory.mktemp("runner")
    base = complete_graph(4)
    paths = {"graph": _write_graph(root / "k4.json", base),
             "signing": _write_signing(root / "sg.json", Signing.random(
                 base, AbelianGroup.cyclic(3), seed=2)),
             "cert": str(root / "cert.json"), "bias": str(root / "bias.json"),
             "h_ok": str(root / "h_ok.json"), "h_bad": str(root / "h_bad.json")}
    serial.dump_json([[1, 1]], paths["h_ok"])
    serial.dump_json([[1, 0]], paths["h_bad"])
    assert main(["lift-search", "--graph", paths["graph"], "--ell", "3",
                 "--seeds", "2", "--out", paths["cert"]]) == 0
    assert main(["pseudorandom", "biased-set", "--ellp", "2", "--m", "6",
                 "--nu", "0.6", "--size-budget", "32",
                 "--out", paths["bias"]]) == 0
    return paths


# id: (argv, exit code); the failing rows cover every check that can fail
RUNNER_CASES = {
    "gen-base": ("gen-base --kind complete --n 4", 0),
    "spectrum-union": ("spectrum --graph {graph} --signing {signing}", 0),
    "spectrum-union-failed": ("spectrum --graph {graph} --signing {signing} "
                              "--tol -1", 1),
    "spectrum-ihara": ("spectrum --graph {graph} --signing {signing} "
                       "--check ihara --chi 1", 0),
    "spectrum-mixing": ("spectrum --graph {graph} --check mixing "
                        "--set-s 1 --set-t 2", 0),
    "lift-search-walk": ("lift-search --graph {graph} --ell 3 --seeds 2", 0),
    "lift-search-unmet-target": ("lift-search --graph {graph} --ell 3 "
                                 "--seeds 2 --target 0.1", 1),
    "lift-search-support": ("lift-search --graph {graph} --mode support "
                            "--ell 2 --support {bias}", 0),
    "hikes-count": ("hikes count --graph {graph} --k 1", 0),
    "hikes-bounds": ("hikes bounds --graph {graph} --k 3", 0),
    "hikes-check-bound": ("hikes check-bound --graph {graph} --k 2", 0),
    "hikes-mop": ("hikes mop --graph {graph}", 0),
    "pseudorandom-biased-set": ("pseudorandom biased-set --m 3 --nu 1.0", 0),
    "pseudorandom-hoeffding": ("pseudorandom hoeffding --graph {graph} "
                               "--ell 16 --threshold 8 --trials 200", 0),
    # d' = 36 at l = 40 is a complement draw: direct stub matching gave up
    "pseudorandom-hoeffding-ell40": ("pseudorandom hoeffding --graph {graph} "
                                     "--ell 40 --threshold 2 --trials 10", 0),
    "codes-toric": ("codes toric --ell 2 --distance exact", 0),
    "codes-tanner": ("codes tanner --cert {cert}", 0),
    "codes-css-valid": ("codes css-valid --hx {h_ok} --hz {h_ok}", 0),
    "codes-css-invalid": ("codes css-valid --hx {h_bad} --hz {h_bad}", 1),
}


@pytest.mark.parametrize("case", sorted(RUNNER_CASES))
def test_runner_stamps_every_command_alike(tmp_path, runner_inputs, case):
    argv, code = RUNNER_CASES[case]
    argv = argv.format(**runner_inputs).split() + ["--out",
                                                   str(tmp_path / "a.json")]
    assert main(argv) == code
    first = (tmp_path / "a.json").read_bytes()
    assert main(argv) == code
    assert (tmp_path / "a.json").read_bytes() == first
    payload = json.loads(first)
    assert "runtime" not in payload
    assert payload.get("failed", False) is (code == 1)
    assert set(payload["meta"]) == {"tool", "config_hash", "inputs"}
    assert main(argv + ["--timing"]) == code
    timed = json.loads((tmp_path / "a.json").read_bytes())
    assert timed.pop("runtime")["seconds"] >= 0.0
    assert timed["meta"] == payload["meta"]
