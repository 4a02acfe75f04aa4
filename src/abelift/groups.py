"""Finite abelian groups acting on fibers by permutations.

A group is a product of cyclic factors Z_m1 x ... x Z_mk.  Elements and
characters are exponent tuples against those factors.  The action on a
fiber [l] is given by one permutation per generator; the canonical
cyclic group of order l acts on itself by rotation.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


def _validate_element(factors: tuple[int, ...], g: Sequence[int]) -> tuple[int, ...]:
    g = tuple(int(x) for x in g)
    if len(g) != len(factors):
        raise ValueError("element length does not match group factors")
    for x, m in zip(g, factors):
        if not 0 <= x < m:
            raise ValueError(f"exponent {x} out of range for Z_{m}")
    return g


def _components(n: int, u, v) -> tuple[int, np.ndarray]:
    """Component count and labels of the undirected graph on vertices
    0..n-1 with edges (u[e], v[e]); labels are numbered by least vertex.

    A union-find in whole-array steps: each round hooks the larger root of
    every edge whose ends lie in different trees under the least root it
    meets (min-label hooking), then pointer jumping flattens the forest;
    edges are carried to their roots, and those inside one tree dropped.
    A parent is never above its child, so each root is its component's
    least vertex.
    """
    parent = np.arange(n)
    u, v = (np.asarray(x, dtype=np.int64).ravel() for x in (u, v))
    hi, lo = np.maximum(u, v), np.minimum(u, v)
    while True:
        cross = hi != lo
        hi, lo = hi[cross], lo[cross]
        if not hi.size:
            break
        np.minimum.at(parent, hi, lo)
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
        hi, lo = parent[hi], parent[lo]
        hi, lo = np.maximum(hi, lo), np.minimum(hi, lo)
    roots = parent == np.arange(n)
    return int(roots.sum()), (np.cumsum(roots) - 1)[parent]


def _orbits(perms) -> tuple[int, np.ndarray]:
    """Orbit count and each fiber point's orbit label (numbered by least
    point) under the group the rows of a (k, ell) permutation stack
    generate: the components of their Schreier graph, i -- perms[r, i]."""
    perms = np.asarray(perms, dtype=np.int64)
    k, ell = perms.shape
    return _components(ell, np.tile(np.arange(ell), k), perms)


@dataclass(frozen=True)
class AbelianGroup:
    """Z_m1 x ... x Z_mk together with a permutation action on [fiber_size]."""

    factors: tuple[int, ...]
    generator_perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("at least one cyclic factor required")
        if any(m < 1 for m in self.factors):
            raise ValueError("cyclic factor orders must be positive")
        if len(self.generator_perms) != len(self.factors):
            raise ValueError("one generator permutation per factor required")
        ell = self.fiber_size
        for p in self.generator_perms:
            if sorted(p) != list(range(ell)):
                raise ValueError("generator is not a permutation of the fiber")
        # each generator must have order dividing its factor, and the
        # generators must commute, otherwise the exponent arithmetic lies
        if not (self.action(np.diag(self.factors)) == np.arange(ell)).all():
            raise ValueError("generator order does not divide its factor")
        gens = np.asarray(self.generator_perms, dtype=np.int64)
        pairs = gens[:, gens]  # [i, j] = generator i after generator j
        if not (pairs == pairs.transpose(1, 0, 2)).all():
            raise ValueError("generator permutations do not commute")

    @property
    def fiber_size(self) -> int:
        return len(self.generator_perms[0])

    @property
    def order(self) -> int:
        return int(np.prod(self.factors))

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)

    @staticmethod
    def cyclic(ell: int) -> "AbelianGroup":
        """Z_ell acting on [ell] by rotation i -> i+1."""
        if ell < 1:
            raise ValueError("order must be positive")
        rot = tuple((i + 1) % ell for i in range(ell))
        return AbelianGroup((ell,), (rot,))

    @staticmethod
    def product(factors: Iterable[int]) -> "AbelianGroup":
        """Z_m1 x ... x Z_mk acting on itself (mixed-radix labels)."""
        factors = tuple(int(m) for m in factors)
        # generator i sends each label to the label one step further along
        # axis i of the mixed-radix grid
        labels = np.arange(int(np.prod(factors))).reshape(factors)
        return AbelianGroup(factors, tuple(
            tuple(np.roll(labels, -1, axis=i).ravel().tolist())
            for i in range(len(factors))))

    def compose(self, g: Sequence[int], h: Sequence[int]) -> tuple[int, ...]:
        g = _validate_element(self.factors, g)
        h = _validate_element(self.factors, h)
        return tuple((a + b) % m for a, b, m in zip(g, h, self.factors))

    def inverse(self, g: Sequence[int]) -> tuple[int, ...]:
        g = _validate_element(self.factors, g)
        return tuple((-a) % m for a, m in zip(g, self.factors))

    def elements(self) -> list[tuple[int, ...]]:
        return [tuple(e) for e in product(*[range(m) for m in self.factors])]

    def element_indices(self, values) -> np.ndarray:
        """Position in elements() of each exponent row of `values`."""
        return np.ravel_multi_index(tuple(np.asarray(values).T), self.factors)

    def inverse_indices(self, idx) -> np.ndarray:
        """Position in elements() of -g for each position `idx` of g; read
        as character indices, the index of the conjugate character -chi."""
        g = np.unravel_index(np.asarray(idx, dtype=np.int64), self.factors)
        return np.ravel_multi_index(
            tuple(-x % m for x, m in zip(g, self.factors)), self.factors)

    def char_table(self, chars, elems) -> np.ndarray:
        """(len(chars), len(elems)) table of chi(g) for the indices `chars`
        into characters() and `elems` into elements().

        Each entry follows char_value's formula in numpy: the phase
        c1 x1 / m1 + c2 x2 / m2 + ... is summed factor by factor from the
        left, then cos and sin of TWO_PI * phase.  Each ci xi is an exact
        float64 (ci xi < mi^2 <= 2^53), so entries equal char_value bit for
        bit.
        """
        cs = np.unravel_index(np.asarray(chars, dtype=np.int64), self.factors)
        xs = np.unravel_index(np.asarray(elems, dtype=np.int64), self.factors)
        angle = TWO_PI * sum(np.multiply.outer(c, x) / m
                             for c, x, m in zip(cs, xs, self.factors))
        out = np.empty(angle.shape, dtype=np.complex128)
        out.real, out.imag = np.cos(angle), np.sin(angle)
        return out

    def char_value(self, chi: Sequence[int], g: Sequence[int]) -> complex:
        """chi(g) = exp(2*pi*i * sum_j chi_j g_j / m_j)."""
        chi = _validate_element(self.factors, chi)
        g = _validate_element(self.factors, g)
        phase = sum(c * x / m for c, x, m in zip(chi, g, self.factors))
        return complex(math.cos(TWO_PI * phase), math.sin(TWO_PI * phase))

    def characters(self) -> list[tuple[int, ...]]:
        """All |H| characters, the trivial one first."""
        return self.elements()

    def action(self, values, points=None) -> np.ndarray:
        """(N, len(points)) images of fiber `points` (default: all of them)
        under N rows of non-negative (not necessarily reduced) exponents.

        Each generator's powers come by repeated squaring, for all rows at
        once; the generators commute, so their order does not matter.
        """
        vals = np.asarray(values, dtype=np.int64)
        if vals.size == 0:
            vals = vals.reshape(0, len(self.factors))
        if vals.ndim != 2 or vals.shape[1] != len(self.factors):
            raise ValueError("element length does not match group factors")
        if (vals < 0).any():
            raise ValueError("exponents must be non-negative")
        pts = np.arange(self.fiber_size) if points is None else points
        out = np.tile(np.asarray(pts, dtype=np.int64), (len(vals), 1))
        for exp, perm in zip(vals.T, self.generator_perms):
            power = np.asarray(perm, dtype=np.int64)
            while exp.any():
                odd = (exp & 1).astype(bool)
                out[odd] = power[out[odd]]
                power = power[power]
                exp = exp >> 1
        return out

    def perm_of(self, g: Sequence[int]) -> np.ndarray:
        """Permutation of the fiber induced by g (as an index map)."""
        return self.action([_validate_element(self.factors, g)])[0]

    def is_transitive(self, elements: Iterable[Sequence[int]] | None = None
                      ) -> bool:
        """Is the fiber one orbit?

        The orbit is taken under the generators, or under the permutations
        of `elements` (the subgroup they generate) when given.
        """
        perms = self.generator_perms if elements is None else self.action(
            [_validate_element(self.factors, g) for g in elements])
        return _orbits(perms)[0] == 1

    @functools.cached_property
    def irregularity(self) -> str | None:
        """None when the action is regular (transitive, with one fiber
        point per element), else a reason naming the action.  Decided once
        per group object: lift_lambda reads it for every signing."""
        orbits = _orbits(self.generator_perms)[0]
        if self.order == self.fiber_size and orbits == 1:
            return None
        name = " x ".join(f"Z_{m}" for m in self.factors)
        return (f"group action must be regular: {name} of order {self.order}"
                f" acts on a fiber of size {self.fiber_size} in {orbits} "
                "orbit(s)")

    def _orbit_fixes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Least point and size of each orbit (by least point), and the
        (|H|, #orbits) table of whether element g fixes the least point.
        In an abelian group g fixes all of an orbit or none of it."""
        _, labels = _orbits(self.generator_perms)
        least = np.sort(np.unique(labels, return_index=True)[1])
        sizes = np.bincount(labels)[labels[least]]
        rows = np.stack(np.unravel_index(np.arange(self.order),
                                         self.factors), axis=1)
        return least, sizes, self.action(rows, least) == least

    def fixed_point(self) -> tuple[tuple[int, ...], int] | None:
        """First (nonidentity element, least fiber point it fixes), or None."""
        least, _, fixes = self._orbit_fixes()
        hits = np.flatnonzero(fixes[1:].any(axis=1)) + 1
        if not hits.size:
            return None
        g = tuple(int(x) for x in np.unravel_index(hits[0], self.factors))
        return g, int(least[fixes[hits[0]]].min())

    def is_free(self) -> bool:
        """No nonidentity element fixes a fiber point."""
        return self.fixed_point() is None

    def character_multiplicities(self) -> dict[tuple[int, ...], int]:
        """Multiplicity of each character in the fiber permutation representation.

        m_chi = (1/|H|) sum_h conj(chi(h)) * fix(h), with fix(h) the total
        size of the orbits h fixes; for a transitive (hence regular)
        abelian action every character appears once.
        """
        _, sizes, fixes = self._orbit_fixes()
        fixes = fixes.astype(np.int64) @ sizes
        fixed = np.flatnonzero(fixes)  # only fixing elements contribute
        accs = (np.conj(self.char_table(np.arange(self.order), fixed))
                @ fixes[fixed])
        out = {}
        order = self.order
        for chi, acc in zip(self.characters(), accs):
            mult = acc / order
            if abs(mult.imag) > 1e-9 or abs(mult.real - round(mult.real)) > 1e-9:
                raise ArithmeticError("non-integer character multiplicity")
            out[chi] = int(round(mult.real))
        return out

    def to_json(self) -> dict:
        return {
            "factors": list(self.factors),
            "generators": [[int(x) + 1 for x in p] for p in self.generator_perms],
        }

    @staticmethod
    def from_json(payload: dict) -> "AbelianGroup":
        try:
            factors = tuple(map(_json_int, payload["factors"]))
            perms = tuple(tuple(_json_int(x) - 1 for x in p)
                          for p in payload["generators"])
        except TypeError as exc:  # a null, scalar or non-integer entry
            raise ValueError(f"group is malformed: {exc}") from exc
        return AbelianGroup(factors, perms)


def _json_int(x) -> int:
    """operator.index, which also refuses true and false."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not an integer")
    return operator.index(x)
