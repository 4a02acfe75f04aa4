"""Span and counter tracing installed from outside the library.

`Tracer.install()` replaces each traced public function by a wrapper in
every `abelift.*` namespace that binds the same object (for example
`graphs.signed_adjacency` is also `spectral.signed_adjacency` and
`search.signed_adjacency`), and wraps `numpy.linalg.eigvalsh` and
`numpy.linalg.eigvals` as the `linalg` layer.  Spans live in memory as
(name, start, end, parent, op) tuples; hot leaves are counted, not spanned.
"""
from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter

import numpy as np

# (module, attribute): span name is "<module>.<attribute>"
SPANNED = [
    ("cli", "main"),
    ("search", "derandomized_lift_search"),
    ("search", "exponential_regime_build"),
    ("search", "verify_certificate"),
    ("spectral", "spectrum_union_check"),
    ("spectral", "lift_lambda"),
    ("spectral", "lambda2"),
    ("spectral", "adjacency_spectrum"),
    ("spectral", "multiset_max_distance"),
    ("spectral", "linear_sum_assignment"),
    ("spectral", "boolean_rayleigh_max"),
    ("graphs", "signed_adjacency"),
    ("graphs", "signed_nonbacktracking"),
    ("graphs", "nonbacktracking"),
    ("graphs", "lift"),
    ("graphs", "random_regular"),
    ("graphs", "random_regular_dense"),
    ("pseudorandom", "expander_walk_signing"),
    ("pseudorandom", "bias_exact"),
    ("hikes", "enumerate_hikes"),
    ("codes", "tanner_from_certificate"),
    ("codes", "circulant_structure_check"),
    ("codes", "code_dimension"),
    ("codes", "write_alist"),
    ("codes", "min_distance"),
    ("gf2", "rank"),
    ("gf2", "rref"),
    ("gf2", "nullspace"),
    ("kernels", "count_hikes"),
    ("kernels", "bias_scan"),
    ("kernels", "rayleigh_01_max"),
    ("kernels", "min_weight_affine"),
    ("serial", "canonical_json"),
    ("serial", "object_hash"),
]


def _dim3(args, kwargs):
    a = np.asarray(args[0] if args else kwargs["a"])
    return int(np.prod(a.shape[:-2], dtype=np.int64)) * a.shape[-1] ** 3


def _extra_counts(name, args, kwargs, result):
    """Work counts computed from a call's arguments and result."""
    if name in ("linalg.eigvalsh", "linalg.eigvals"):
        return {name + ".dim3": _dim3(args, kwargs)}
    if name == "serial.canonical_json":
        return {name + ".bytes": len(result.encode("utf-8"))}
    if name == "kernels.bias_scan":
        support, ellp = args[0], args[1]
        return {name + ".characters": ellp ** np.shape(support)[1] - 1}
    if name == "kernels.rayleigh_01_max":
        return {name + ".masks": 2 ** np.shape(args[0])[0] - 1}
    if name == "kernels.min_weight_affine":
        basis = np.asarray(args[1])
        return {name + ".vectors": 2 ** (basis.shape[0] if basis.ndim == 2
                                         else 1)}
    if name == "hikes.enumerate_hikes":
        g, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
        return {"hikes.states": g.n * g.d * max(1, g.d - 1) ** (2 * k - 1),
                "hikes.walks_counted": int(result)}
    return {}


class Tracer:
    """In-memory spans and counters for one process; install, run, restore."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._restore: list = []

    def _spanned(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        measure_alloc = name == "hikes.enumerate_hikes"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if measure_alloc:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    self.peaks["hikes.peak_alloc_mb"] = max(
                        self.peaks.get("hikes.peak_alloc_mb", 0.0), peak)
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            counts[name + ".calls"] += 1
            counts.update(_extra_counts(name, args, kwargs, result))
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, original, wrapper):
        """Rebind `original` to `wrapper` in every abelift namespace."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "abelift"
                                   or mod_name.startswith("abelift.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self) -> None:
        from abelift import groups
        for mod_name, attr in SPANNED:
            original = getattr(sys.modules["abelift." + mod_name], attr)
            self._replace_everywhere(
                original, self._spanned(f"{mod_name}.{attr}", original))
        for attr in ("eigvalsh", "eigvals"):
            original = getattr(np.linalg, attr)
            setattr(np.linalg, attr,
                    self._spanned(f"linalg.{attr}", original))
            self._restore.append((np.linalg, attr, original))
        original = groups.AbelianGroup.char_value
        groups.AbelianGroup.char_value = self._counted("groups.char_value",
                                                       original)
        self._restore.append((groups.AbelianGroup, "char_value", original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def totals(self) -> dict[str, float]:
        """Inclusive and self seconds per span name, self seconds per layer."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Counter = Counter()
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            out[name + ".s"] += t1 - t0
            out[name + ".self_s"] += t1 - t0 - c
            out[name.split(".")[0] + ".self_s"] += t1 - t0 - c
        return dict(out)
