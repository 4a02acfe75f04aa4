"""The four workloads: inputs drawn from a seed, timed ops, output checks.

A workload holds its generated inputs, an ordered list of ops (one public
call or one CLI command each) and a check per op.  An op receives the
outputs of the earlier ops of the same pass.  `check` returns None for a
correct output and a reason otherwise; references come from `oracles`
(any seed) and, for the seeds recorded in references.json, must also
equal the values recorded at the seed commit.  Timed calls go through
module attributes (`search.verify_certificate`, not a local name), so
the tracer's wrappers see them.
"""
from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

import oracles
from abelift import (cli, codes, hikes, kernels, pseudorandom, search, serial,
                     spectral)
from abelift.codes import GroupAlgebraMatrix, lifted_product, toric_code
from abelift.graphs import Signing, random_regular
from abelift.groups import AbelianGroup

VERIFY_TOL = 1e-9      # verify_certificate's default tolerance
UNION_TOL = 1e-8       # spectrum_union_check's default tolerance
NEAR_RAMANUJAN = 2 * math.sqrt(2) + 0.1
REFERENCES = json.loads(
    Path(__file__).with_name("references.json").read_text())["seeds"]


def _int_seed(rng) -> int:
    return int(rng.integers(2 ** 31))


def _first_base(rng, n: int, accept) -> tuple[int, object]:
    """First random_regular(n, 3) from a seed-drawn start that `accept`s."""
    start = _int_seed(rng)
    for seed in range(start, start + 10_000):
        g = random_regular(n, 3, seed=seed)
        if accept(g):
            return seed, g
    raise RuntimeError(f"no accepted cubic base on {n} vertices")


class Workload:
    """Generated inputs plus the ops of one pass and their checks."""

    name = ""
    warmup = ""  # label of the op run once during set-up

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed, self.size, self.workdir = seed, size, workdir
        self.ops: list = []
        recorded = REFERENCES.get(str(seed), {}) if size == "full" else {}
        self.recorded = recorded.get(self.name, {})

    def run_op(self, label: str, outs: dict):
        return dict(self.ops)[label](outs)

    def check(self, label: str, out) -> str | None:
        raise NotImplementedError

    def final_ops(self) -> list:
        """Ops run once after the timed passes, as (label, fn() -> reason)."""
        return []

    def _against_record(self, label: str, value, tol: float = 0.0):
        ref = self.recorded.get(label)
        if ref is not None and abs(value - ref) > tol:
            return f"{label}: {value!r} differs from recorded {ref!r}"
        return None


class SupportSearch(Workload):
    """Derandomized search over uniform support rows, then verification."""

    name = "support-search"
    warmup = "search l=2"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        n, self.ells, n_rows = ((50, (2, 4, 8, 16), 200) if size == "full"
                                else (12, (2, 4), 6))
        rng = np.random.default_rng([seed, 1])
        _, self.base = _first_base(
            rng, n, lambda g: spectral.lambda2(g) <= NEAR_RAMANUJAN)
        self.rows = {ell: rng.integers(ell, size=(n_rows, self.base.m))
                     for ell in self.ells}
        self._refs: dict[int, float] = {}
        for ell in self.ells:
            group = AbelianGroup.cyclic(ell)
            self.ops.append((f"search l={ell}", self._search(group)))
            self.ops.append((f"verify l={ell}", self._verify(ell)))

    def _search(self, group):
        def op(outs):
            res = search.derandomized_lift_search(
                self.base, group, self.rows[group.fiber_size])
            return {"certificate": res.certificate}
        return op

    @staticmethod
    def _verify(ell):
        return lambda outs: search.verify_certificate(
            outs[f"search l={ell}"]["certificate"])

    def check(self, label, out):
        kind, ell = label.split(" l=")
        ell = int(ell)
        if kind == "verify":
            return None if out["ok"] else f"{label}: certificate rejected"
        cert = out["certificate"]
        if ell not in self._refs:
            self._refs[ell] = oracles.best_lambda(
                self.base.n, np.array(self.base.edges), ell, self.rows[ell])
        lam = cert["lambda_lift"]
        if abs(lam - self._refs[ell]) > VERIFY_TOL:
            return f"{label}: lambda {lam!r}, oracle {self._refs[ell]!r}"
        if cert["candidates_evaluated"] != self.rows[ell].shape[0]:
            return f"{label}: evaluated {cert['candidates_evaluated']} rows"
        return self._against_record(label, lam, VERIFY_TOL)


class WalkPipeline(Workload):
    """gen-base, lift-search --mode walk, verify, codes tanner via cli.main."""

    name = "walk-pipeline"
    warmup = "gen-base 0"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.n, self.ell, self.seeds, chains = (
            (16, 16, 64, 3) if size == "full" else (8, 4, 4, 1))
        rng = np.random.default_rng([seed, 2])
        self.chains = []
        for c in range(chains):
            # lambda < 3 needs a connected, non-bipartite base
            base_seed, _ = _first_base(
                rng, self.n, lambda g: spectral.lambda2(g) < 3 - 1e-9)
            self.chains.append((base_seed, _int_seed(rng)))
            self.ops += [(f"gen-base {c}", self._gen_base(c)),
                         (f"lift-search {c}", self._lift_search(c)),
                         (f"verify {c}", self._verify(c)),
                         (f"tanner {c}", self._tanner(c))]

    def _path(self, c, name):
        return os.path.join(self.workdir, f"chain{c}-{name}")

    def _gen_base(self, c):
        argv = ["gen-base", "--kind", "random", "--n", str(self.n), "--d", "3",
                "--seed", str(self.chains[c][0]),
                "--out", self._path(c, "base.json")]
        return lambda outs: cli.main(argv)

    def _search_argv(self, c, out):
        return ["lift-search", "--graph", self._path(c, "base.json"),
                "--mode", "walk", "--ell", str(self.ell),
                "--seeds", str(self.seeds),
                "--master-seed", str(self.chains[c][1]), "--out", out]

    def _lift_search(self, c):
        def op(outs):
            rc = cli.main(self._search_argv(c, self._path(c, "cert.json")))
            cert = serial.load_json(self._path(c, "cert.json"))["certificate"]
            return {"rc": rc, "certificate": cert}
        return op

    def _verify(self, c):
        return lambda outs: search.verify_certificate(
            outs[f"lift-search {c}"]["certificate"])

    def _tanner(self, c):
        argv = ["codes", "tanner", "--cert", self._path(c, "cert.json"),
                "--alist", self._path(c, "code.alist"),
                "--out", self._path(c, "tanner.json")]

        def op(outs):
            rc = cli.main(argv)
            return {"rc": rc,
                    **serial.load_json(self._path(c, "tanner.json"))["tanner"]}
        return op

    def check(self, label, out):
        kind = label.split()[0]
        if kind == "gen-base":
            return None if out == 0 else f"{label}: exit code {out}"
        if kind == "verify":
            return None if out["ok"] else f"{label}: certificate rejected"
        if out["rc"] != 0:
            return f"{label}: exit code {out['rc']}"
        if kind == "tanner":
            return None if out["circulant"] else f"{label}: not circulant"
        lam = out["certificate"]["lambda_lift"]
        if not lam < 3.0:
            return f"{label}: lambda {lam!r} is not below 3"
        if out["certificate"]["candidates_evaluated"] != self.seeds:
            return f"{label}: evaluated fewer than {self.seeds} walks"
        return None

    def final_ops(self):
        return [(f"replay {c}", self._replay(c))
                for c in range(len(self.chains))]

    def _replay(self, c):
        def op():
            replay = self._path(c, "replay.json")
            rc = cli.main(self._search_argv(c, replay))
            with open(replay, "rb") as a, \
                    open(self._path(c, "cert.json"), "rb") as b:
                same = a.read() == b.read()
            if rc != 0 or not same:
                return f"replay {c}: exit code {rc}, byte-identical {same}"
            return None
        return op


class UnionCertify(Workload):
    """Spectrum-union checks with non-backtracking on, then a verify that
    also builds the lift."""

    name = "union-certify"
    warmup = "verify"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        if size == "full":
            n, groups, n_cert, ell_cert = 80, ((8,), (2, 4)), 100, 8
        else:
            n, groups, n_cert, ell_cert = 10, ((4,), (2, 2)), 12, 4
        rng = np.random.default_rng([seed, 3])
        base = random_regular(n, 3, seed=_int_seed(rng))
        for factors in groups:
            group = (AbelianGroup.cyclic(factors[0]) if len(factors) == 1
                     else AbelianGroup.product(factors))
            values = rng.integers(0, factors, size=(base.m, len(factors)))
            signing = Signing(base, group, values)
            label = "union " + "x".join(f"Z{m}" for m in factors)
            self.ops.append((label, self._union(signing)))
        cert_base = random_regular(n_cert, 3, seed=_int_seed(rng))
        rows = rng.integers(ell_cert, size=(4, cert_base.m))
        self.cert = search.derandomized_lift_search(
            cert_base, AbelianGroup.cyclic(ell_cert), rows).certificate
        self.ops.append(("verify", lambda outs: search.verify_certificate(
            self.cert, check_lift=True)))

    @staticmethod
    def _union(signing):
        return lambda outs: spectral.spectrum_union_check(
            signing, include_nonbacktracking=True)

    def check(self, label, out):
        if label == "verify":
            if out["ok"] and out["lift_union_distance"] is not None:
                return None
            return f"{label}: certificate rejected"
        if (out.passed and out.nb_distance is not None
                and max(out.adjacency_distance, out.nb_distance) <= UNION_TOL):
            return None
        return (f"{label}: distances {out.adjacency_distance!r}, "
                f"{out.nb_distance!r}")


class Combinatorics(Workload):
    """Hike counts, exact bias, Boolean Rayleigh maximum and code distances."""

    name = "combinatorics"
    warmup = "distance toric"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        full = size == "full"
        rng = np.random.default_rng([seed, 4])
        hike_sizes = ((40, 7), (24, 5)) if full else ((10, 3), (8, 2))
        q, sup_shape = (5, (64, 6)) if full else (3, (16, 3))
        ray_n = 14 if full else 6
        self.toric_ell, self.lp_ell, lp_trials = ((5, 8, 8) if full
                                                  else (3, 4, 2))
        n_basis, words = (20, 2) if full else (8, 1)

        self.hike_inputs = {}
        for n, k in hike_sizes:
            label = f"hikes n={n} k={k}"
            g = random_regular(n, 3, seed=_int_seed(rng))
            self.hike_inputs[label] = (g, k)
            self.ops.append((label, self._hikes(g, k)))
        self.support = rng.integers(q, size=sup_shape)
        mat = rng.standard_normal((ray_n, ray_n))
        self.mat = mat + mat.T
        self.toric = toric_code(self.toric_ell)
        # x^s (1 + x^a) with a odd is the incidence of one lp_ell-cycle, so
        # the product is a permuted toric code: [[2 lp_ell^2, 2, lp_ell]]
        shifts = rng.integers(self.lp_ell, size=2)
        steps = rng.choice(np.arange(1, self.lp_ell, 2), size=2)
        A, B = (GroupAlgebraMatrix.from_polys(self.lp_ell, [[[s, s + a]]])
                for s, a in zip(shifts, steps))
        self.lp = lifted_product(A, B)
        lp_seed = _int_seed(rng)
        self.affine = (rng.integers(0, 1 << 62, size=words, dtype=np.uint64),
                       rng.integers(0, 1 << 62, size=(n_basis, words),
                                    dtype=np.uint64))
        self.q = q
        self.ops += [
            ("bias", lambda outs: pseudorandom.bias_exact(self.support, q)),
            ("rayleigh", lambda outs: spectral.boolean_rayleigh_max(self.mat)),
            ("distance toric", lambda outs: codes.min_distance(
                self.toric, "exact")),
            ("distance lifted-product", lambda outs: codes.min_distance(
                self.lp, "information-set", trials=lp_trials, seed=lp_seed)),
            ("min-weight affine", lambda outs: kernels.min_weight_affine(
                *self.affine)),
        ]
        self._refs: dict[str, object] = {}

    @staticmethod
    def _hikes(g, k):
        return lambda outs: hikes.enumerate_hikes(g, k)

    def _reference(self, label):
        if label not in self._refs:
            if label.startswith("hikes"):
                g, k = self.hike_inputs[label]
                ref = oracles.hike_count(g.adj, g.eid_table, k)
            elif label == "bias":
                ref = oracles.max_bias(self.support, self.q)
            elif label == "rayleigh":
                ref = oracles.rayleigh_max(self.mat)
            else:
                ref = oracles.min_weight_affine(*self.affine)
            self._refs[label] = ref
        return self._refs[label]

    def check(self, label, out):
        if label == "distance toric":
            got = (self.toric.n, self.toric.k, out.value)
            want = (2 * self.toric_ell ** 2, 2, self.toric_ell)
            return None if got == want else f"{label}: [[n, k, d]] = {got}"
        if label == "distance lifted-product":
            got = (self.lp.n, self.lp.k)
            if got != (2 * self.lp_ell ** 2, 2) or out.value < self.lp_ell:
                return f"{label}: (n, k) = {got}, bound {out.value}"
            return self._against_record(label, out.value)
        tol = VERIFY_TOL if label in ("bias", "rayleigh") else 0
        ref = self._reference(label)
        if abs(out - ref) > tol:
            return f"{label}: {out!r} against oracle {ref!r}"
        return self._against_record(label, out, tol)


class Composite(Workload):
    """The ops of several parts run as one pass; each part checks its own."""

    part_classes: tuple = ()

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.parts = [cls(seed, size, workdir) for cls in self.part_classes]
        self.warmup = self.parts[0].warmup
        self._owner = {}
        for part in self.parts:
            self.ops += part.ops
            self._owner.update((label, part) for label, _ in part.ops)

    def check(self, label, out):
        return self._owner[label].check(label, out)

    def final_ops(self):
        return [op for part in self.parts for op in part.final_ops()]


class SearchPipeline(Composite):
    """Both lift searches: the derandomized scan and the CLI walk chain."""

    name = "search-pipeline"
    part_classes = (SupportSearch, WalkPipeline)


class CertifyCombinatorics(Composite):
    """Large certification solves and the combinatorial kernels; no search."""

    name = "certify-combinatorics"
    part_classes = (UnionCertify, Combinatorics)


# Two workloads of about seven seconds a pass each: on a noisy host, long
# runs of two workloads give steadier medians than short runs of four.
WORKLOADS = {w.name: w for w in (SearchPipeline, CertifyCombinatorics)}
