"""Command line front end.

Subcommands: gen-base, spectrum, lift-search, hikes, pseudorandom, codes.
Exit codes: 0 success, 1 a requested check or search failed or an input
was rejected (a machine-readable failure report is still written), 2
usage errors.  Each cmd_* returns (payload, input paths, failed); main
alone stamps, writes and exits.  Artifacts are canonical JSON with sorted
keys and embed the tool version, a hash of the run configuration, and
hashes of every input file, so reruns are byte identical; --timing
appends wall-clock data and opts out of that.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import codes, hikes, pseudorandom, search, serial, spectral
from .graphs import (RegularGraph, Signing, complete_graph, cycle_graph,
                     petersen_graph, random_regular)
from .groups import AbelianGroup


def _meta(args: argparse.Namespace, input_paths: list[str]) -> dict:
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "json", "out", "timing")}
    return {
        "tool": search._tool_stamp(),
        "config_hash": serial.object_hash(config),
        "inputs": {p: "sha256:" + serial.file_hash(p)
                   for p in sorted(set(input_paths))},
    }


def _read(path: str, key: str | None = None) -> dict:
    """The JSON object in *path*, or the one an artifact nests under *key*."""
    payload = serial.load_json(path)
    if isinstance(payload, dict) and key in payload:
        payload = payload[key]
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, found "
                         f"{type(payload).__name__}")
    return payload


def _read_matrix(path: str) -> np.ndarray:
    """The binary matrix in *path*: a JSON list of equal-length rows whose
    entries are the integers 0 or 1, read strictly (nothing is reduced)."""
    rows = serial.load_json(path)
    if not isinstance(rows, list) or not all(isinstance(r, list)
                                             for r in rows):
        raise ValueError(f"{path}: expected a JSON list of rows of 0 or 1")
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ValueError(f"{path}: row {i} has {len(row)} entries, "
                             f"row 0 has {len(rows[0])}")
        for j, x in enumerate(row):
            if not serial.is_integer(x) or x not in (0, 1):
                raise ValueError(f"{path}: entry [{i}][{j}] is "
                                 f"{json.dumps(x)}, not 0 or 1")
    return np.asarray(rows)


def _parse_ints(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(x) for x in text.replace(",", " ").split()]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_base(args):
    if args.kind == "random":
        g = random_regular(args.n, args.d, seed=args.seed)
    elif args.kind == "cycle":
        g = cycle_graph(args.n)
    elif args.kind == "complete":
        g = complete_graph(args.n)
    else:
        g = petersen_graph()
    return {"graph": g.to_json(), "graph_hash": g.content_hash()}, [], False


def cmd_spectrum(args):
    base = RegularGraph.from_json(_read(args.graph, "graph"))
    inputs = [args.graph]
    payload: dict = {"check": args.check}
    if args.check == "mixing":
        rep = spectral.mixing_check(base, _parse_ints(args.set_s),
                                    _parse_ints(args.set_t))
        payload.update(edge_count=rep.edge_count, lhs=rep.lhs, rhs=rep.rhs,
                       passed=rep.passed)
        return payload, inputs, not rep.passed
    signing = Signing.from_json(base, _read(args.signing))
    inputs.append(args.signing)
    if args.check == "union":
        rep = spectral.spectrum_union_check(signing, tol=args.tol)
        eigs = rep.eigenvalues
        # ascending eigvalsh: drop one copy of the top eigenvalue d
        payload.update(adjacency_distance=rep.adjacency_distance,
                       nb_distance=rep.nb_distance, tol=rep.tol,
                       passed=rep.passed,
                       lambda_modulus=float(np.abs(eigs[:-1]).max()),
                       lambda_signed=float(eigs[-2]),
                       eigenvalues=[[float(x), 0.0] for x in eigs])
    else:  # ihara
        chi = _parse_ints(args.chi) if args.chi else None
        rep = spectral.ihara_check(signing, chi)
        payload.update(lhs=rep.lhs, rho_b=rep.rho_b, bound=rep.bound,
                       trivial=rep.trivial, passed=rep.passed)
    return payload, inputs, not rep.passed


def cmd_lift_search(args):
    base = RegularGraph.from_json(_read(args.graph, "graph"))
    inputs = [args.graph]
    if args.mode == "walk":
        result = search.exponential_regime_build(
            base, args.ell, args.seeds, dprime=args.dprime,
            master_seed=args.master_seed, target=args.target,
            crosscheck_every=args.crosscheck_every)
    else:
        dist = pseudorandom.BiasedSet.from_json(
            _read(args.support, "biased_set"))
        inputs.append(args.support)
        # the search proves the claimed bias (BiasedSet.proved) before
        # the scan, so a space above the exact cap is refused unmeasured
        result = search.derandomized_lift_search(
            base, AbelianGroup.cyclic(args.ell), dist, target=args.target,
            crosscheck_every=args.crosscheck_every)
    failed = args.target is not None and not result.certificate["met_target"]
    return {"certificate": result.certificate}, inputs, failed


def cmd_hikes(args):
    if args.action == "check-bound" and args.k < 2:
        raise ValueError(f"check-bound counts (k - 1)-hikes, so it needs "
                         f"--k >= 2, got {args.k}")
    base = RegularGraph.from_json(_read(args.graph, "graph"))
    if args.action == "count":
        count = hikes.enumerate_hikes(base, args.k,
                                      singleton_free_only=not args.all_walks)
        payload = dict(k=args.k, count=count,
                       singleton_free=not args.all_walks)
    elif args.action == "bounds":
        b = hikes.count_bounds(base.n, base.d, args.k, args.r,
                               delta=args.delta)
        payload = dict(k=args.k, gamma1=b.gamma1, bound1=b.bound1,
                       gamma2=b.gamma2, bound2=b.bound2, r_used=b.r_used,
                       r_floored=b.r_floored)
    elif args.action == "check-bound":
        count = hikes.enumerate_hikes(base, args.k - 1,
                                      singleton_free_only=True)
        b = hikes.count_bounds(base.n, base.d, args.k, args.r)
        payload = dict(k=args.k, count=count, bound1=b.bound1,
                       passed=count <= b.bound1)
    else:  # mop: passed is None when the hypothesis fails
        rep = hikes.mop_excess_check(base, args.r)
        payload = dict(n_vertices=rep.n_vertices, excess=rep.excess,
                       bound=rep.bound, hypothesis_ok=rep.hypothesis_ok,
                       passed=rep.passed)
    return payload, [args.graph], payload.get("passed") is False


def cmd_pseudorandom(args):
    if args.action == "biased-set":
        bs = pseudorandom.biased_set_search(
            args.ellp, args.m, args.nu, args.size_budget,
            trial_budget=args.trial_budget, seed=args.seed)
        return {"biased_set": bs.to_json()}, [], False
    base = RegularGraph.from_json(_read(args.graph, "graph"))
    edge_ids = (_parse_ints(args.edges) if args.edges
                else list(range(min(args.edge_count, base.m))))
    rep = pseudorandom.hoeffding_tail_check(
        base, args.ell, edge_ids, args.threshold, trials=args.trials,
        seed=args.seed, dprime=args.dprime)
    payload = {"trials": rep.trials, "threshold": rep.threshold,
               "empirical_re": rep.empirical_re,
               "empirical_im": rep.empirical_im,
               "bound": rep.bound, "sigma": rep.sigma, "passed": rep.passed}
    return payload, [args.graph], not rep.passed


def cmd_codes(args):
    if args.action == "toric":
        code = codes.toric_code(args.ell)
        dist = None
        if args.distance:
            rep = codes.min_distance(code, mode=args.distance,
                                     trials=args.trials, seed=args.seed)
            dist = {"mode": rep.mode, "value": rep.value,
                    "certified": rep.certified, "dx": rep.dx, "dz": rep.dz}
        return {"css": code.to_json(distance=dist)}, [], False
    if args.action == "css-valid":
        ok = codes.css_valid(_read_matrix(args.hx), _read_matrix(args.hz))
        return {"css_valid": ok}, [args.hx, args.hz], not ok
    signing = search.read_signing(_read(args.cert, "certificate"))
    d = signing.base.d
    local = (codes.LinearCodeF2.even_weight(d) if args.local == "even-weight"
             else codes.LinearCodeF2.repetition(d))
    H = codes.tanner_from_certificate(signing, local)
    tanner = {"rows": int(H.shape[0]), "cols": int(H.shape[1]),
              "dimension": codes.code_dimension(H),
              "circulant": codes.circulant_structure_check(
                  H, signing.group.fiber_size),
              "parity_hash": serial.binary_matrix_hash(H)}
    if args.alist:
        codes.write_alist(H, args.alist)
        tanner["alist"] = args.alist
    return {"tanner": tanner}, [args.cert], False


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    from . import __version__
    p = argparse.ArgumentParser(prog="abelift")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="artifact path (canonical JSON)")
        sp.add_argument("--json", action="store_true",
                        help="print the artifact to stdout")
        sp.add_argument("--timing", action="store_true",
                        help="append wall-clock data (artifact no longer "
                             "byte-reproducible)")

    g = sub.add_parser("gen-base", help="generate a base graph")
    g.add_argument("--kind", choices=["random", "cycle", "complete",
                                      "petersen"], default="random")
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--seed", type=int, default=0)
    common(g)
    g.set_defaults(func=cmd_gen_base)

    s = sub.add_parser("spectrum", help="spectral checks on graphs and lifts")
    s.add_argument("--graph", required=True)
    s.add_argument("--signing")
    s.add_argument("--check", choices=["union", "ihara", "mixing"],
                   default="union")
    s.add_argument("--chi", help="character exponents, comma separated")
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--set-s", dest="set_s", help="vertex set S")
    s.add_argument("--set-t", dest="set_t", help="vertex set T")
    common(s)
    s.set_defaults(func=cmd_spectrum)

    ls = sub.add_parser("lift-search", help="search signings for small lambda")
    ls.add_argument("--graph", required=True)
    ls.add_argument("--mode", choices=["walk", "support"], default="walk")
    ls.add_argument("--ell", type=int, required=True)
    ls.add_argument("--seeds", type=int, default=64)
    ls.add_argument("--master-seed", type=int, default=0)
    ls.add_argument("--dprime", type=int, default=36)
    ls.add_argument("--target", type=float)
    ls.add_argument("--support", help="biased set JSON for support mode")
    ls.add_argument("--crosscheck-every", type=int, default=50)
    common(ls)
    ls.set_defaults(func=cmd_lift_search)

    h = sub.add_parser("hikes", help="hike counts, bounds and excess checks")
    h.add_argument("action", choices=["count", "bounds", "check-bound", "mop"])
    h.add_argument("--graph", required=True)
    h.add_argument("--k", type=int, default=2)
    h.add_argument("--r", type=int, default=1)
    h.add_argument("--delta", type=float)
    h.add_argument("--all-walks", action="store_true",
                   help="count all hikes, not only singleton-free ones")
    common(h)
    h.set_defaults(func=cmd_hikes)

    pr = sub.add_parser("pseudorandom", help="biased sets and walk tails")
    pr.add_argument("action", choices=["biased-set", "hoeffding"])
    pr.add_argument("--ellp", type=int, default=2)
    pr.add_argument("--m", type=int, default=2)
    pr.add_argument("--nu", type=float, default=0.5)
    pr.add_argument("--size-budget", type=int, default=64)
    pr.add_argument("--trial-budget", type=int, default=64)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--graph")
    pr.add_argument("--ell", type=int, default=8)
    pr.add_argument("--edges", help="edge ids, comma separated")
    pr.add_argument("--edge-count", type=int, default=10)
    pr.add_argument("--threshold", type=float, default=4.0)
    pr.add_argument("--trials", type=int, default=10000)
    pr.add_argument("--dprime", type=int, default=36)
    common(pr)
    pr.set_defaults(func=cmd_pseudorandom)

    c = sub.add_parser("codes", help="CSS and Tanner code construction")
    c.add_argument("action", choices=["toric", "tanner", "css-valid"])
    c.add_argument("--ell", type=int, default=2)
    c.add_argument("--distance", choices=["exact", "information-set"])
    c.add_argument("--trials", type=int, default=200)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--cert", help="lift certificate JSON")
    c.add_argument("--local", choices=["even-weight", "repetition"],
                   default="even-weight")
    c.add_argument("--alist", help="also export the parity in alist format")
    c.add_argument("--hx", help="JSON 0/1 matrix file")
    c.add_argument("--hz", help="JSON 0/1 matrix file")
    common(c)
    c.set_defaults(func=cmd_codes)
    return p


# (command, option, values): the options each of those values needs
_NEEDS = [
    ("gen-base", "kind", ("random",), ("n", "d")),
    ("gen-base", "kind", ("cycle", "complete"), ("n",)),
    ("spectrum", "check", ("union", "ihara"), ("signing",)),
    ("spectrum", "check", ("mixing",), ("set_s", "set_t")),
    ("lift-search", "mode", ("support",), ("support",)),
    ("pseudorandom", "action", ("hoeffding",), ("graph",)),
    ("codes", "action", ("tanner",), ("cert",)),
    ("codes", "action", ("css-valid",), ("hx", "hz")),
]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: parsing leaves it unchanged,
    and a search pipeline calls main many times."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    for command, option, values, needs in _NEEDS:
        if args.command != command or getattr(args, option) not in values:
            continue
        missing = [f"--{dest.replace('_', '-')}" for dest in needs
                   if getattr(args, dest) is None]
        if missing:
            value = getattr(args, option)
            choice = value if option == "action" else f"--{option} {value}"
            parser.error(f"{command} {choice} needs {' and '.join(missing)}")
    started = time.perf_counter()
    try:
        payload, inputs, failed = args.func(args)
        payload["meta"] = _meta(args, inputs)
        if failed:
            payload["failed"] = True
        if args.timing:
            payload["runtime"] = {"seconds": time.perf_counter() - started}
        text = (serial.dump_json(payload, args.out) if args.out
                else serial.canonical_json(payload))
    except FileNotFoundError as exc:
        if exc.filename in (args.out, getattr(args, "alist", None)):
            parser.exit(2, f"abelift: cannot write output file: "
                           f"{exc.filename} (no such directory)\n")
        parser.exit(2, f"abelift: missing input file: {exc.filename}\n")
    except (ValueError, KeyError, RuntimeError) as exc:
        print(serial.canonical_json({"failed": True, "error": str(exc)}))
        return 1
    if args.json or not args.out:
        print(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
