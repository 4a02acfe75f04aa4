"""Bias measurement, small-bias search, and expander-walk signings."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from abelift import graphs, kernels, pseudorandom, spectral
from abelift.graphs import (RegularGraph, cycle_graph, random_regular,
                            random_regular_dense)
from abelift.groups import AbelianGroup
from abelift.pseudorandom import (BiasedSet, auxiliary_expander, bias_exact,
                                  bias_sampled, biased_set_search,
                                  effective_walk_degree,
                                  expander_walk_signing, hoeffding_tail_check)


def _full_product(ellp, m):
    grids = np.meshgrid(*[np.arange(ellp)] * m, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def test_bias_exact_full_product_vanishes():
    assert bias_exact(_full_product(3, 2), 3) == 0.0
    assert bias_exact(_full_product(2, 3), 2) == 0.0


def test_bias_exact_singletons_are_one():
    assert bias_exact(np.zeros((1, 2), dtype=np.int64), 4) == 1.0
    assert bias_exact(np.array([[3, 1]]), 4) == 1.0


def test_bias_exact_half_pair_over_z4():
    v = bias_exact(np.array([[0], [1]]), 4)
    assert v == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)


def test_bias_sampled_matches_trivial_cases():
    assert bias_sampled(_full_product(2, 3), 2, trials=500, seed=1) <= 1e-12
    assert bias_sampled(np.zeros((1, 3), dtype=np.int64), 2,
                        trials=100, seed=0) == pytest.approx(1.0)


def test_bias_sampled_of_a_one_character_space_is_zero():
    # the only character is trivial: there is no nontrivial one to draw
    assert bias_sampled(np.zeros((3, 2), dtype=np.int64), 1) == 0.0
    assert bias_exact(np.zeros((3, 2), dtype=np.int64), 1) == 0.0
    assert bias_sampled(np.zeros((3, 0), dtype=np.int64), 4, trials=1) == 0.0
    assert bias_exact(np.zeros((3, 0), dtype=np.int64), 4) == 0.0


@pytest.mark.parametrize("trials", [0, -1])
def test_bias_sampled_refuses_no_trials(trials):
    with pytest.raises(ValueError, match="trials must be positive"):
        bias_sampled(_full_product(2, 3), 2, trials=trials)


def test_bias_sampled_refuses_an_empty_support():
    with pytest.raises(ValueError, match="nonempty"):
        bias_sampled(np.zeros((0, 3), dtype=np.int64), 2)


def test_bias_sampled_never_exceeds_exact():
    rng = np.random.default_rng(7)
    for seed in range(5):
        sup = rng.integers(0, 4, size=(12, 3))
        exact = bias_exact(sup, 4)
        low = bias_sampled(sup, 4, trials=300, seed=seed)
        assert low <= exact + 1e-12


def test_bias_sampled_is_exact_on_full_products_and_singletons():
    # the draws go through the exact scan's block, with its exact rules
    assert bias_sampled(_full_product(2, 3), 2) == 0.0
    assert bias_sampled(_full_product(3, 2), 3, trials=40, seed=2) == 0.0
    assert bias_sampled(np.zeros((1, 3), dtype=np.int64), 2) == 1.0
    assert bias_sampled(np.array([[3, 1]]), 4, trials=5, seed=9) == 1.0


def test_bias_sampled_evaluates_through_the_exact_kernel(monkeypatch):
    rng = np.random.default_rng(11)
    sup = rng.integers(0, 5, size=(20, 3))
    value = bias_sampled(sup, 5, trials=300, seed=4)
    blocks = []

    def spy(sup_, ellp, count, characters):
        def recorded(lo, hi):
            blocks.append(hi - lo)
            return characters(lo, hi)
        return evaluate(sup_, ellp, count, recorded)

    evaluate = kernels._bias_max
    monkeypatch.setattr(kernels, "_bias_max", spy)
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 1)  # one character a block
    assert bias_sampled(sup, 5, trials=300, seed=4) == value
    assert blocks == [1] * 300
    assert 0.0 < value <= bias_exact(sup, 5)


def test_bias_sampled_memory_stays_within_one_block(monkeypatch):
    # all 2048 draws on 4000 points of (Z_2)^21 at once would take about
    # 32 KiB per point, over 120 MB
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 4 << 20)
    sup = np.random.default_rng(0).integers(2, size=(4000, 21))
    tracemalloc.start()
    try:
        value = bias_sampled(sup, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < value < 1.0
    assert peak <= kernels.BLOCK_BYTES + (4 << 20)


def test_one_exact_character_cap(monkeypatch):
    # the cap lives in kernels alone, and only its scan refuses
    assert not hasattr(pseudorandom, "EXACT_CHAR_CAP")
    # the scan takes a space of exactly the cap and refuses one more
    assert bias_exact(np.zeros((1, 20), dtype=np.int64), 2) == 1.0

    def refuse(*args):
        raise AssertionError("took a character or a draw above the cap")

    monkeypatch.setattr(kernels, "_bias_max", refuse)
    monkeypatch.setattr(pseudorandom, "_random_support", refuse)
    with pytest.raises(ValueError, match=r"^\(Z_1025\)\^2 has 1050625 "
                       r"characters, above the exact bias cap 1048576$"):
        bias_exact(np.zeros((1, 2), dtype=np.int64), 1025)
    # the search's first candidate takes no draw, so it refuses first
    with pytest.raises(ValueError, match=r"^\(Z_2\)\^21 has 2097152 "
                       r"characters, above the exact bias cap 1048576$"):
        biased_set_search(2, 21, 0.5, 64)


def test_bias_translation_invariance():
    rng = np.random.default_rng(5)
    sup = rng.integers(0, 5, size=(9, 3))
    s = BiasedSet(5, 3, sup, claimed_bias=1.0, verified={})
    before = bias_exact(s.support, 5)
    shifted = s.translate([2, 4, 1])
    after = bias_exact(shifted.support, 5)
    assert after == pytest.approx(before, abs=1e-12)


def test_biased_set_validation_and_json():
    with pytest.raises(ValueError, match="empty"):
        BiasedSet(3, 2, np.zeros((0, 2), dtype=np.int64), 1.0, {})
    with pytest.raises(ValueError, match="must be"):
        BiasedSet(3, 2, np.zeros((4, 3), dtype=np.int64), 1.0, {})
    s = BiasedSet(3, 2, np.array([[0, 1], [2, 2]]), 0.9, {"mode": "exact"})
    back = BiasedSet.from_json(s.to_json())
    assert back.ellp == 3 and back.m == 2
    assert np.array_equal(back.support, s.support)


def test_verify_switches_mode_on_character_cap():
    small = BiasedSet(2, 4, np.array([[0, 0, 0, 0]]), 1.0, {})
    assert small.verify()["mode"] == "exact"
    rng = np.random.default_rng(0)
    big = BiasedSet(2, 21, rng.integers(0, 2, size=(32, 21)), 1.0, {})
    rep = big.verify(trials=64, seed=3)
    assert rep["mode"] == "sampled" and rep["seed"] == 3


def test_search_trivial_nu_returns_identity_singleton():
    s = biased_set_search(4, 3, nu=1.0, size_budget=10, seed=0)
    assert s.size == 1
    assert np.array_equal(s.support, np.zeros((1, 3), dtype=np.int64))
    assert s.verified["value"] == 1.0


def test_search_zero_bias_needs_the_full_product():
    s = biased_set_search(2, 2, nu=0.0, size_budget=4, seed=0)
    assert s.size == 4
    assert s.verified == {"mode": "exact", "value": 0.0}


def test_search_is_reproducible():
    a = biased_set_search(5, 4, nu=0.6, size_budget=40, seed=11)
    b = biased_set_search(5, 4, nu=0.6, size_budget=40, seed=11)
    assert np.array_equal(a.support, b.support)
    assert a.verified == b.verified
    assert a.verified["value"] <= 0.6
    assert a.verify()["value"] == a.verified["value"]


def test_search_budget_exhaustion():
    # no two-point subset of Z2 x Z2 is exactly unbiased
    with pytest.raises(RuntimeError, match="trials"):
        biased_set_search(2, 2, nu=0.0, size_budget=2, trial_budget=6, seed=0)


@pytest.mark.parametrize("trial_budget", [0, -1])
def test_search_refuses_a_trial_budget_below_one(trial_budget):
    with pytest.raises(ValueError, match="trial budget must be positive"):
        biased_set_search(4, 3, nu=1.0, size_budget=10,
                          trial_budget=trial_budget)


@pytest.mark.parametrize("nu, budget", [(0.5, 64), (0.4, 128)])
def test_search_refuses_a_space_above_the_exact_cap(nu, budget):
    # a sampled bias is a lower estimate: with seed 0 these budgets once
    # returned sets sampled at 0.406 and 0.297 whose exact biases are 0.625
    # and 0.4375
    with pytest.raises(ValueError, match="above the exact bias cap"):
        biased_set_search(2, 21, nu, budget)


def test_effective_walk_degree():
    assert effective_walk_degree(8, 36) == 6
    assert effective_walk_degree(64, 36) == 36
    assert effective_walk_degree(9, 36) == 8
    with pytest.raises(ValueError, match="fiber"):
        effective_walk_degree(2, 36)
    with pytest.raises(ValueError, match="even"):
        effective_walk_degree(8, 7)


def _walk_signing(base, ell, master_seed, i, dprime=36):
    aux = auxiliary_expander(ell, dprime, master_seed)
    return aux, expander_walk_signing(base, AbelianGroup.cyclic(ell), aux, i)


def test_walk_signing_reproducible_and_certified():
    base = cycle_graph(10)
    aux, a = _walk_signing(base, 64, 123, 0)
    _, b = _walk_signing(base, 64, 123, 0)
    assert np.array_equal(a.values, b.values)
    assert aux.lam <= aux.bound
    assert aux.graph.d == 36
    assert a.values.shape == (base.m, 1)
    assert a.group.fiber_size == 64
    walk = a.values[:, 0]
    assert np.array_equal(walk, aux.walk(base.m, 0))
    # consecutive walk values are adjacent in the auxiliary expander
    for x, y in zip(walk, walk[1:]):
        assert aux.graph.has_edge(x, y)


def test_walk_signing_needs_the_cyclic_group_of_the_expander():
    aux = auxiliary_expander(8, 36, 0)
    for group in (AbelianGroup.cyclic(16), AbelianGroup.product([2, 4])):
        with pytest.raises(ValueError, match="signs over Z_8"):
            expander_walk_signing(cycle_graph(10), group, aux, 0)


def _bulk_children(master_seed):
    aux_ss, _ = np.random.SeedSequence(master_seed).spawn(2)
    return aux_ss.spawn(pseudorandom.AUX_ATTEMPTS)


def test_auxiliary_expander_spawns_children_lazily_in_bulk_order(monkeypatch):
    # one child spawned per attempt must replay spawn(256)[:k] exactly
    lazy = np.random.SeedSequence([7, 3])
    bulk = np.random.SeedSequence([7, 3]).spawn(256)
    for k in range(8):
        child, = lazy.spawn(1)
        assert child.spawn_key == bulk[k].spawn_key
        assert np.array_equal(child.generate_state(4),
                              bulk[k].generate_state(4))
    # below half degree attempt k is the direct draw of child k: refuse
    # the first two draws and the third child's graph is kept
    real, calls = spectral.lambda2, []

    def refuse_two(g):
        calls.append(g)
        return math.inf if len(calls) <= 2 else real(g)

    monkeypatch.setattr(spectral, "lambda2", refuse_two)
    aux = auxiliary_expander(80, 36, 5)
    third = random_regular_dense(80, 36,
                                 np.random.default_rng(_bulk_children(5)[2]))
    assert len(calls) == 3
    assert np.array_equal(aux.graph.adj, third.adj)
    assert aux.provenance() == {
        "dprime_used": 36, "aux_hash": third.content_hash(),
        "aux_lambda": real(third), "aux_bound": 3.0 * math.sqrt(35)}


def test_run_expander_above_half_degree_is_a_complement():
    # l = 3 and 5: the complement of the empty graph; l = 16: of a matching
    for ell, dprime in ((3, 36), (5, 36), (16, 36), (40, 36), (41, 36),
                        (64, 36), (9, 4)):
        aux = auxiliary_expander(ell, dprime, 0)
        d = effective_walk_degree(ell, dprime)
        assert aux.graph.n == ell and aux.graph.d == d
        assert aux.lam <= aux.bound == 3.0 * math.sqrt(d - 1)
    assert np.array_equal(auxiliary_expander(5, 36, 0).graph.adjacency_matrix(),
                          1 - np.eye(5))
    matching = random_regular_dense(16, 1,
                                    np.random.default_rng(_bulk_children(0)[0]))
    assert np.array_equal(auxiliary_expander(16, 36, 0).graph.adjacency_matrix(),
                          1 - np.eye(16) - matching.adjacency_matrix())


def test_run_walks_keep_the_streams_of_their_seed_pairs():
    # walk i takes a uniform start and uniform steps from the walk half of
    # SeedSequence((master, i)), drawn one scalar at a time here
    base = cycle_graph(10)
    aux = auxiliary_expander(16, 36, 7)
    group = AbelianGroup.cyclic(16)
    for i in range(4):
        _, walk_ss = np.random.SeedSequence((7, i)).spawn(2)
        rng = np.random.default_rng(walk_ss)
        expected = [int(rng.integers(16))]
        for _ in range(base.m - 1):
            expected.append(int(aux.graph.adj[expected[-1],
                                              rng.integers(aux.graph.d)]))
        assert aux.walk(base.m, i).tolist() == expected
        signing = expander_walk_signing(base, group, aux, i)
        assert signing.values[:, 0].tolist() == expected


def test_walk_half_built_by_its_spawn_key_is_the_spawned_child():
    # AuxExpander.walk builds SeedSequence(pair).spawn(2)[1] directly
    for pair in ((0, 0), (7, 3), (2 ** 40 + 1, 194)):
        spawned = np.random.SeedSequence(pair).spawn(2)[1]
        direct = np.random.SeedSequence(pair, spawn_key=(1,))
        assert (direct.entropy, direct.spawn_key) == (spawned.entropy,
                                                      spawned.spawn_key)
        assert np.array_equal(direct.generate_state(8),
                              spawned.generate_state(8))
        assert np.array_equal(
            np.random.default_rng(direct).integers(1 << 40, size=32),
            np.random.default_rng(spawned).integers(1 << 40, size=32))


def test_walk_on_single_edge_base_is_just_the_start():
    base = RegularGraph([[1], [0]])
    aux, signing = _walk_signing(base, 8, 5, 0)
    assert signing.values.shape == (1, 1)
    assert signing.values[0, 0] == aux.walk(1, 0)[0]


def test_walk_marginals_are_nearly_uniform():
    base = cycle_graph(10)
    aux = auxiliary_expander(16, 36, 0)
    rng = np.random.default_rng(99)
    trials = 10000
    cur = rng.integers(16, size=trials)
    cols = [cur.copy()]
    for _ in range(base.m - 1):
        cur = aux.graph.adj[cur, rng.integers(aux.graph.d, size=trials)]
        cols.append(cur.copy())
    values = np.stack(cols, axis=1)
    phases = np.exp(2j * np.pi * values / 16)
    worst = np.abs(phases.mean(axis=0)).max()
    assert worst <= 0.05


def test_walk_streams_are_pinned():
    # the walk stream of the earlier per-step scalar sampler, taken on the
    # complement draw of l = 16, d' = 14: certificates replay only while
    # the batched sampler keeps its random stream
    _, signing = _walk_signing(cycle_graph(10), 16, 0, 3)
    assert tuple(signing.values[:, 0].tolist()) == (10, 11, 12, 11, 15, 4,
                                                    14, 5, 1, 13)
    rep = hoeffding_tail_check(cycle_graph(10), 16, range(10), 3.0,
                               trials=200, seed=1)
    assert (rep.empirical_re, rep.empirical_im) == (0.15, 0.155)


def _per_step_walks(aux, m, rng, trials):
    """The sampler as one draw per step: the stream _walks must keep."""
    walks = np.empty((trials, m), dtype=np.int64)
    walks[:, 0] = rng.integers(aux.n, size=trials)
    for step in range(1, m):
        walks[:, step] = aux.adj[walks[:, step - 1],
                                 rng.integers(aux.d, size=trials)]
    return walks


@pytest.mark.parametrize("ell", [80, 16], ids=["direct", "complement"])
def test_one_step_draw_keeps_the_per_step_stream(ell):
    aux = auxiliary_expander(ell, 36, 2).graph
    # l = 80 draws a 36-regular graph directly, l = 16 the complement of
    # a matching
    assert aux.d == (36 if ell == 80 else 14)
    for trials in (1, 2, 7):
        for m in (1, 2, 24):
            seed = [ell, trials, m]
            rng = np.random.default_rng(seed)
            walks = pseudorandom._walks(aux, m, rng, trials)
            ref_rng = np.random.default_rng(seed)
            assert np.array_equal(walks,
                                  _per_step_walks(aux, m, ref_rng, trials))
            # and both leave the generator in one state
            assert rng.integers(2 ** 62) == ref_rng.integers(2 ** 62)


def test_hoeffding_report_is_pinned():
    # recorded with one draw per step; l = 80 walks a directly drawn graph
    rep = hoeffding_tail_check(random_regular(16, 3, seed=2), 80,
                               range(0, 24, 2), 3.0, trials=500, seed=5)
    assert rep == pseudorandom.HoeffdingReport(
        trials=500, threshold=3.0, empirical_re=0.214, empirical_im=0.222,
        bound=1.9956935558303015, sigma=0.0, passed=True)


def test_hoeffding_refuses_a_walk_table_above_the_cap(monkeypatch):
    # refused by size before the auxiliary expander is drawn
    monkeypatch.setattr(pseudorandom, "auxiliary_expander", None)
    trials = graphs.DENSE_BYTES // (16 * 10) + 1
    with pytest.raises(ValueError) as err:
        hoeffding_tail_check(cycle_graph(10), 16, range(10), 3.0,
                             trials=trials)
    assert str(err.value) == (
        f"{trials} walks of 10 vertices need a {16 * 10 * trials}-byte walk "
        f"table, above the cap of {graphs.DENSE_BYTES} bytes")


@pytest.mark.parametrize("ell", [16, 40, 64])
def test_hoeffding_walks_on_the_auxiliary_expander_of_its_seed(monkeypatch,
                                                               ell):
    graphs = []
    real = pseudorandom._walks

    def spy(aux, m, rng, trials):
        graphs.append(aux)
        return real(aux, m, rng, trials)

    monkeypatch.setattr(pseudorandom, "_walks", spy)
    rep = hoeffding_tail_check(cycle_graph(10), ell, range(10), 3.0,
                               trials=50, seed=4)
    assert rep.trials == 50
    assert [g.content_hash() for g in graphs] == [
        auxiliary_expander(ell, 36, 4).provenance()["aux_hash"]]


def test_hoeffding_vacuous_threshold():
    rep = hoeffding_tail_check(cycle_graph(10), 16, range(10), 0.0,
                               trials=200, seed=0)
    assert rep.bound == 2.0 and rep.passed


def test_hoeffding_empty_subset():
    rep = hoeffding_tail_check(cycle_graph(10), 16, [], 3.0,
                               trials=50, seed=0)
    assert rep.empirical_re == 0.0 and rep.passed


def test_hoeffding_tail_on_c10():
    rep = hoeffding_tail_check(cycle_graph(10), 16, range(10), 8.0,
                               trials=2000, seed=1)
    assert rep.passed
    assert rep.bound == pytest.approx(2.0 * math.exp(-64.0 / (1280.0 * math.e)))


def test_hoeffding_rejects_bad_edges():
    with pytest.raises(ValueError, match="edge id"):
        hoeffding_tail_check(cycle_graph(10), 16, [40], 1.0, trials=10)
