"""Finite abelian groups acting on fibers by permutations.

A group is a product of cyclic factors Z_m1 x ... x Z_mk.  Elements and
characters are exponent tuples against those factors.  The action on a
fiber [l] is given by one permutation per generator; the canonical
cyclic group of order l acts on itself by rotation.
"""
from __future__ import annotations

import math
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


def _perm_power(perm: np.ndarray, exp: int) -> np.ndarray:
    """perm applied exp times, by repeated squaring."""
    out = np.arange(perm.size)
    while exp:
        if exp & 1:
            out = perm[out]
        perm = perm[perm]
        exp >>= 1
    return out


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
        for p, m in zip(self.generator_perms, self.factors):
            if not np.array_equal(_perm_power(np.asarray(p), m),
                                  np.arange(ell)):
                raise ValueError("generator order does not divide its factor")
        for i in range(len(self.generator_perms)):
            a = np.asarray(self.generator_perms[i])
            for j in range(i + 1, len(self.generator_perms)):
                b = np.asarray(self.generator_perms[j])
                if not np.array_equal(a[b], b[a]):
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
        order = int(np.prod(factors))
        weights = []
        w = order
        for m in factors:
            w //= m
            weights.append(w)
        perms = []
        for i, m in enumerate(factors):
            perm = []
            for label in range(order):
                digits = []
                t = label
                for wgt, mm in zip(weights, factors):
                    digits.append(t // wgt)
                    t %= wgt
                digits[i] = (digits[i] + 1) % m
                perm.append(sum(d * wgt for d, wgt in zip(digits, weights)))
            perms.append(tuple(perm))
        return AbelianGroup(factors, tuple(perms))

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

    def perm_of(self, g: Sequence[int]) -> np.ndarray:
        """Permutation of the fiber induced by g (as an index map)."""
        g = _validate_element(self.factors, g)
        out = np.arange(self.fiber_size)
        for exp, p in zip(g, self.generator_perms):
            out = _perm_power(np.asarray(p), exp)[out]
        return out

    def is_transitive(self, elements: Iterable[Sequence[int]] | None = None
                      ) -> bool:
        """Does the action reach every fiber point from point 0?

        The orbit is taken under the generators, or under the permutations
        of `elements` (the subgroup they generate) when given.
        """
        ell = self.fiber_size
        seen = {0}
        frontier = [0]
        if elements is None:
            perms = [np.asarray(p) for p in self.generator_perms]
        else:
            perms = [self.perm_of(g) for g in elements]
        invs = [np.argsort(p) for p in perms]
        while frontier:
            x = frontier.pop()
            for p in perms + invs:
                y = int(p[x])
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == ell

    def fixed_point(self) -> tuple[tuple[int, ...], int] | None:
        """First (nonidentity element, fiber point it fixes), or None."""
        points = np.arange(self.fiber_size)
        for g in self.elements()[1:]:
            fixed = np.flatnonzero(self.perm_of(g) == points)
            if fixed.size:
                return g, int(fixed[0])
        return None

    def is_free(self) -> bool:
        """No nonidentity element fixes a fiber point."""
        return self.fixed_point() is None

    def character_multiplicities(self) -> dict[tuple[int, ...], int]:
        """Multiplicity of each character in the fiber permutation representation.

        m_chi = (1/|H|) sum_h conj(chi(h)) * fix(h); for a transitive
        (hence regular) abelian action every character appears once.
        """
        ell = self.fiber_size
        fixes = np.array([int(np.sum(self.perm_of(g) == np.arange(ell)))
                          for g in self.elements()], dtype=np.int64)
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
        factors = tuple(int(m) for m in payload["factors"])
        perms = tuple(tuple(int(x) - 1 for x in p) for p in payload["generators"])
        return AbelianGroup(factors, perms)
