"""Classical F2 codes, Tanner constructions, and circulant CSS products.

Parity matrices are uint8 arrays; all rank and span work runs on the
bit-packed routines in gf2.  Matrices over the group algebra F2[Z_ell]
are (rows, cols, ell) coefficient bit arrays, and a certified cyclic
lift's Tanner code is built as one and expanded once into circulant
blocks.  Distances, classical and CSS alike, come either from
Brouwer-Zimmermann enumeration over a chain of disjoint information sets
(kernels.least_weight: certified, and refused past a stated number of
codewords) or an information-set sampler (upper bound).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gf2, kernels
from .graphs import DENSE_BYTES, RegularGraph, Signing
from .groups import AbelianGroup
from .search import read_signing


class BudgetError(RuntimeError):
    """A bounded search ran out of attempts."""


# ---------------------------------------------------------------------------
# classical linear codes
# ---------------------------------------------------------------------------

class LinearCodeF2:
    """A binary linear code presented by a parity-check matrix."""

    def __init__(self, parity):
        h = gf2.as_f2(parity)
        self.parity = h
        self.length = h.shape[1]

    @property
    def dimension(self) -> int:
        return code_dimension(self.parity)

    def generator_matrix(self) -> np.ndarray:
        """Basis of the codeword space, one codeword per row."""
        return gf2.nullspace(self.parity)

    def dual(self) -> "LinearCodeF2":
        return LinearCodeF2(self.generator_matrix())

    def contains(self, word) -> bool:
        w = gf2.as_f2(word)
        return not gf2.matmul(self.parity, w.T).any()

    def distance(self) -> int:
        """Exact minimum weight over all nonzero codewords, by
        kernels.least_weight (refused past its codeword budget)."""
        gen = self.generator_matrix()
        if gen.shape[0] == 0:
            raise ValueError("the zero code has no distance")
        return kernels.least_weight(gen, kernels.keep_all)

    @staticmethod
    def repetition(n: int) -> "LinearCodeF2":
        h = np.zeros((n - 1, n), dtype=np.uint8)
        for i in range(n - 1):
            h[i, i] = h[i, i + 1] = 1
        return LinearCodeF2(h)

    @staticmethod
    def even_weight(n: int) -> "LinearCodeF2":
        return LinearCodeF2(np.ones((1, n), dtype=np.uint8))

    @staticmethod
    def full_space(n: int) -> "LinearCodeF2":
        return LinearCodeF2(np.zeros((0, n), dtype=np.uint8))

    def __repr__(self):
        return f"LinearCodeF2(n={self.length}, k={self.dimension})"


def code_dimension(parity) -> int:
    h = gf2.as_f2(parity)
    return h.shape[1] - gf2.rank(h)


def tanner_code(G: RegularGraph, local: LinearCodeF2) -> np.ndarray:
    """Parity matrix of the Tanner code of G with a local code on edge slots.

    Bits sit on edges; vertex v imposes the local checks on its incident
    edges read in neighbor-row order.  The local parity is row reduced
    first so the result has exactly n * rank(local) rows.
    """
    return _tanner_matrix(G, local, 1, np.zeros_like(G.eid_table)).expand()


def _tanner_matrix(G: RegularGraph, local: LinearCodeF2, ell: int,
                   exps: np.ndarray) -> GroupAlgebraMatrix:
    """Tanner parity over F2[Z_ell]; slot j of v carries x^exps[v, j].

    Ring row v * checks + c is vertex v's local check c, ring column e is
    edge e.
    """
    if local.length != G.d:
        raise ValueError("local code length must equal the degree")
    lp = gf2.nonzero_rref_rows(local.parity)
    rc = lp.shape[0]
    coeffs = np.zeros((G.n, rc, G.m, ell), dtype=np.uint8)
    # a simple graph's slots at v carry distinct edges, so nothing collides
    coeffs[np.arange(G.n)[:, None, None], np.arange(rc)[:, None],
           G.eid_table[:, None, :], exps[:, None, :]] = lp
    return GroupAlgebraMatrix(ell, coeffs.reshape(G.n * rc, G.m, ell))


def local_code_search(block_length: int, distance_target: int,
                      dual_distance_target: int = 1, budget: int = 2000,
                      seed: int = 0):
    """Random search for a short code meeting distance floors on both sides.

    Candidate parity matrices are drawn uniformly; the code's distance and
    its dual's distance are both verified exactly, so block_length stays
    small.  Returns (code, report) on success and raises BudgetError when
    the budget runs out first.
    """
    if block_length > 16:
        raise ValueError("exact two-sided verification caps length at 16")
    rng = np.random.default_rng(seed)
    best = None
    for tried in range(1, budget + 1):
        r = int(rng.integers(1, block_length))
        h = rng.integers(0, 2, size=(r, block_length), dtype=np.int64)
        code = LinearCodeF2(h)
        gen = code.generator_matrix()
        dim = gen.shape[0]
        if dim == 0 or dim == block_length:
            continue  # one side would be the zero code
        dist = kernels.least_weight(gen, kernels.keep_all)
        dual_dist = LinearCodeF2(gen).distance()
        if best is None or (min(dist, dual_dist), dist) > best[:2]:
            best = (min(dist, dual_dist), dist, dual_dist, code)
        if dist >= distance_target and dual_dist >= dual_distance_target:
            return code, {"found": True, "tried": tried, "distance": dist,
                          "dual_distance": dual_dist, "dimension": dim}
    detail = ""
    if best is not None:
        detail = (f"; best seen had distance {best[1]} and dual distance "
                  f"{best[2]}")
    raise BudgetError(f"no length-{block_length} code with distance >= "
                      f"{distance_target} and dual distance >= "
                      f"{dual_distance_target} in {budget} tries{detail}")


# ---------------------------------------------------------------------------
# matrices over the cyclic group algebra and their circulant expansions
# ---------------------------------------------------------------------------

def _circulant_blocks(coeffs: np.ndarray) -> np.ndarray:
    """Entry (i, j) as its ell x ell shift-matrix sum, [i, j, a, b] = [x^(b-a)].

    Blocks of more than graphs.DENSE_BYTES in all are refused before
    anything is allocated.  Row a of a block is the window ell - a of the
    doubled coefficients, so no ell x ell index is allocated either.
    """
    rows, cols, ell = coeffs.shape
    size = rows * ell * cols * ell
    if size > DENSE_BYTES:
        raise ValueError(f"expanding a {rows} x {cols} matrix over "
                         f"F2[Z_{ell}] takes {size} bytes, above the cap of "
                         f"{DENSE_BYTES} bytes")
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([coeffs, coeffs], axis=2), ell, axis=2)
    return windows[:, :, ell - np.arange(ell)]


@dataclass(frozen=True, eq=False)
class GroupAlgebraMatrix:
    """Matrix over F2[Z_ell] held as a read-only (rows, cols, ell) bit array.

    coeffs[i, j, e] = 1 when x^e appears in entry (i, j).  Construction
    from exponent lists sets bits rather than toggling them, so repeated
    exponents collapse to one and degenerate reductions such as 1 + x at
    ell = 1 keep a unit entry.
    """

    ell: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be positive")
        coeffs = np.array(self.coeffs, dtype=np.uint8)
        if coeffs.ndim != 3 or coeffs.shape[2] != self.ell:
            raise ValueError("coefficients must have shape (rows, cols, ell)")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def from_polys(ell: int, rows: Sequence[Sequence]) -> "GroupAlgebraMatrix":
        """Entries given as exponent collections (or single ints), mod ell."""
        if ell < 1:
            raise ValueError("ell must be positive")
        cells = [[[c] if isinstance(c, (int, np.integer)) else list(c)
                  for c in row] for row in rows]
        if len({len(r) for r in cells}) > 1:
            raise ValueError("ragged rows")
        coeffs = np.zeros((len(cells), len(cells[0]) if cells else 0, ell),
                          dtype=np.uint8)
        for i, row in enumerate(cells):
            for j, exps in enumerate(row):
                coeffs[i, j, np.asarray(exps, dtype=np.int64) % ell] = 1
        return GroupAlgebraMatrix(ell, coeffs)

    @property
    def shape(self) -> tuple[int, int]:
        return self.coeffs.shape[:2]

    def star(self) -> "GroupAlgebraMatrix":
        """Transpose with every shift exponent negated (the ring involution)."""
        negated = -np.arange(self.ell) % self.ell
        return GroupAlgebraMatrix(
            self.ell, self.coeffs.transpose(1, 0, 2)[:, :, negated])

    def matmul(self, other: "GroupAlgebraMatrix") -> "GroupAlgebraMatrix":
        """Ring product: a cyclic convolution of exponents, summed mod 2,
        through other's circulant blocks (refused, as by expand, above
        graphs.DENSE_BYTES)."""
        if self.ell != other.ell:
            raise ValueError("mismatched ell")
        if self.shape[1] != other.shape[0]:
            raise ValueError("inner dimensions differ")
        # uint8 sums wrap mod 256, which keeps their parity
        prod = np.tensordot(self.coeffs, _circulant_blocks(other.coeffs),
                            axes=([1, 2], [0, 2]))
        return GroupAlgebraMatrix(self.ell, prod & 1)

    def expand(self) -> np.ndarray:
        """Binary block matrix with P_e[i, (i+e) % ell] = 1 for each shift e.

        An expansion of more than graphs.DENSE_BYTES is refused by a
        ValueError naming its bytes, before anything is allocated.
        """
        rows, cols = self.shape
        return _circulant_blocks(self.coeffs).transpose(0, 2, 1, 3).reshape(
            rows * self.ell, cols * self.ell)


def group_algebra_from_blocks(H, ell: int) -> GroupAlgebraMatrix:
    """Read the base matrix over F2[Z_ell] back off a block-circulant matrix.

    Rows and columns must come in contiguous fiber blocks of size ell
    (the tanner_from_certificate layout); every ell x ell block must be a
    sum of shift matrices P_e[i, (i + e) % ell] = 1, else this raises.
    Inverse of GroupAlgebraMatrix.expand.
    """
    h = gf2.as_f2(H)
    n_rows, n_cols = h.shape
    if n_rows % ell or n_cols % ell:
        raise ValueError("matrix shape not divisible into ell-blocks")
    blocks = h.reshape(n_rows // ell, ell, n_cols // ell, ell)
    mat = GroupAlgebraMatrix(ell, blocks[:, 0])
    bad = np.argwhere((mat.expand() != h).reshape(blocks.shape)
                      .any(axis=(1, 3)))
    if bad.size:
        raise ValueError(f"block ({bad[0, 0]}, {bad[0, 1]}) is not "
                         "circulant")
    return mat


def circulant_structure_check(H, ell: int) -> bool:
    """Is the row space invariant under a one-step cyclic shift of each column block?

    Columns are taken as contiguous fiber blocks of size ell.  A matrix laid
    out in ell x ell circulant blocks (as the Tanner builders lay theirs)
    is answered exactly without elimination: the same shift of its row
    blocks undoes the column shift, so the shifted rows are a permutation
    of the rows.  Anything else is decided by comparing row spaces.
    """
    h = gf2.as_f2(H)
    rows, n = h.shape
    if n % ell:
        raise ValueError("column count not divisible by ell")
    c = np.arange(n)
    shifted = h[:, (c // ell) * ell + (c + 1) % ell]
    if rows % ell == 0:
        r = np.arange(rows)
        if np.array_equal(shifted[(r // ell) * ell + (r + 1) % ell], h):
            return True
    return gf2.row_space_equal(h, shifted)


# ---------------------------------------------------------------------------
# CSS codes
# ---------------------------------------------------------------------------

def css_valid(hx, hz) -> bool:
    a, b = gf2.as_f2(hx), gf2.as_f2(hz)
    if a.shape[1] != b.shape[1]:
        return False
    return not gf2.matmul(a, b.T).any()


@dataclass
class CSSCode:
    hx: np.ndarray
    hz: np.ndarray

    def __post_init__(self):
        self.hx = gf2.as_f2(self.hx)
        self.hz = gf2.as_f2(self.hz)
        if not css_valid(self.hx, self.hz):
            raise ValueError("H_X H_Z^T != 0, not a CSS pair")

    @property
    def n(self) -> int:
        return self.hx.shape[1]

    @property
    def k(self) -> int:
        return self.n - gf2.rank(self.hx) - gf2.rank(self.hz)

    def to_json(self, distance: dict | None = None) -> dict:
        return {
            "schema": "abelift.css.v1",
            "n": self.n,
            "k": self.k,
            "hx": [_row_hex(r) for r in self.hx],
            "hz": [_row_hex(r) for r in self.hz],
            "distance": distance,
        }

    @staticmethod
    def from_json(payload: dict) -> "CSSCode":
        n = int(payload["n"])
        hx = np.array([_hex_row(s, n) for s in payload["hx"]], dtype=np.uint8)
        hz = np.array([_hex_row(s, n) for s in payload["hz"]], dtype=np.uint8)
        return CSSCode(hx.reshape(-1, n), hz.reshape(-1, n))


def _row_hex(row: np.ndarray) -> str:
    return np.packbits(row.astype(np.uint8), bitorder="little").tobytes().hex()


def _hex_row(s: str, n: int) -> np.ndarray:
    raw = np.frombuffer(bytes.fromhex(s), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n]


def lifted_product(A: GroupAlgebraMatrix, B: GroupAlgebraMatrix) -> CSSCode:
    """Hypergraph product of the binary expansions of A and B.

    This is not Panteleev-Kalachev's lifted product, the quotient of this
    code by the diagonal Z_l action: (1 + x, 1 + x) over Z_l gives the
    2 l^2-qubit toric code here, where theirs has 2 l qubits.
    With H1 = expand(A) and H2 = expand(B*) = expand(B)^T,
    H_X = [H1 x I | I x H2^T] and H_Z = [I x H2 | H1^T x I]; the mixed
    Kronecker identity makes the pair commute entrywise over F2.  A pair
    whose larger check matrix would take more than graphs.DENSE_BYTES is
    refused before the product is built.
    """
    if A.ell != B.ell:
        raise ValueError("factors must share ell")
    h1 = A.expand()
    h2 = B.expand().T
    m1, n1 = h1.shape
    m2, n2 = h2.shape
    size = max(m1 * n2, n1 * m2) * (n1 * n2 + m1 * m2)
    if size > DENSE_BYTES:
        raise ValueError(f"the product's check matrices take up to {size} "
                         f"bytes each, above the cap of {DENSE_BYTES} bytes")
    hx = np.hstack([np.kron(h1, np.eye(n2, dtype=np.uint8)),
                    np.kron(np.eye(m1, dtype=np.uint8), h2.T)])
    hz = np.hstack([np.kron(np.eye(n1, dtype=np.uint8), h2),
                    np.kron(h1.T, np.eye(m2, dtype=np.uint8))])
    return CSSCode(hx % 2, hz % 2)


def toric_code(ell: int) -> CSSCode:
    one_plus_x = GroupAlgebraMatrix.from_polys(ell, [[[0, 1]]])
    return lifted_product(one_plus_x, one_plus_x)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceReport:
    value: int
    mode: str
    certified: bool
    dx: int | None = None
    dz: int | None = None


def _logical_min_weight_exact(stab, kernel_basis) -> int:
    """Least weight of ker(H_other), spanned by kernel_basis, outside
    rowspan(stab), by kernels.least_weight."""
    stabilizer = gf2.span_test(stab)
    return kernels.least_weight(kernel_basis, lambda block: ~stabilizer(block))


def _logical_upper_bound(stab, kernel_basis, n_cols, trials, seed) -> int:
    """Least weight outside rowspan(stab) of the reduced rows (and, up to
    48 rows, their pairwise sums) of a basis of rowspan(stab, kernel_basis)
    in random column orders."""
    stabilizer = gf2.span_test(stab)
    space = gf2.pack_rows(np.vstack([stab, kernel_basis]))
    space = space[:len(gf2._eliminate(space, range(n_cols)))]
    i, j = np.triu_indices(len(space) if len(space) <= 48 else 0, k=1)
    rng = np.random.default_rng(seed)
    # min_distance refuses k = 0, so a basis row is logical: best <= n_cols
    best = n_cols + 1
    for _ in range(trials):
        packed = space.copy()
        gf2._eliminate(packed, rng.permutation(n_cols))
        cands = gf2.unpack_rows(packed, n_cols)
        cands = np.vstack([cands, cands[i] ^ cands[j]])
        weights = cands.sum(axis=1)
        lighter = weights < best  # the zero vector is in every span
        if lighter.any():
            logical = ~stabilizer(gf2.pack_rows(cands[lighter]))
            if logical.any():
                best = int(weights[lighter][logical].min())
    return best


def min_distance(obj, mode: str = "exact", trials: int = 200,
                 seed: int = 0) -> DistanceReport:
    """Minimum distance of a classical or CSS code.

    mode 'exact' is certified: a classical code's nonzero codewords, and
    each CSS side's codewords outside the stabilizer span, are enumerated
    by Brouwer-Zimmermann levels (kernels.least_weight), which refuses
    past kernels.EXACT_DISTANCE_BUDGET codewords.  'information-set'
    samples random information sets and reports an upper bound.
    """
    if mode not in ("exact", "information-set"):
        raise ValueError("mode must be 'exact' or 'information-set'")
    if mode == "information-set" and trials < 1:
        raise ValueError("trials must be positive")
    if isinstance(obj, LinearCodeF2):
        if mode == "exact":
            return DistanceReport(obj.distance(), mode, True)
        gen = obj.generator_matrix()
        if gen.shape[0] == 0:
            raise ValueError("the zero code has no distance")
        val = _logical_upper_bound(gen[:0], gen, obj.length, trials, seed)
        return DistanceReport(val, mode, False)
    if not isinstance(obj, CSSCode):
        raise TypeError("expected LinearCodeF2 or CSSCode")
    if obj.k == 0:
        raise ValueError("code has no logical qubits")
    sides = {}
    for name, stab, other in (("dx", obj.hx, obj.hz), ("dz", obj.hz, obj.hx)):
        kernel = gf2.nullspace(other)
        if mode == "exact":
            sides[name] = _logical_min_weight_exact(stab, kernel)
        else:
            sides[name] = _logical_upper_bound(stab, kernel, obj.n,
                                               trials, seed)
    value = min(sides["dx"], sides["dz"])
    return DistanceReport(value, mode, mode == "exact",
                          dx=sides["dx"], dz=sides["dz"])


# ---------------------------------------------------------------------------
# codes from lift certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeActionReport:
    vertices_free: bool
    edges_free: bool
    ok: bool
    witness: tuple | None


def free_action_check(base: RegularGraph, signing: Signing) -> FreeActionReport:
    """Does the deck action move every lifted vertex and every lifted edge?

    The group acts on fibers only, so a fixed vertex needs a fixed fiber
    point, and the whole report reads off group.fixed_point().  A lifted
    edge (u, i) ~ (v, s.i) is fixed by g iff g.i = i: the base is simple
    (u != v), so g cannot swap its ends, and the group is abelian, so
    g.i = i gives g.(s.i) = s.(g.i) = s.i.  Every fiber point lies on a
    lifted edge, so the edges are free exactly when the vertices are.
    """
    fixed = signing.group.fixed_point()
    free = fixed is None
    return FreeActionReport(free, free, free,
                            None if free else ("vertex",) + fixed)


def tanner_from_certificate(cert: dict | Signing,
                            local: LinearCodeF2) -> np.ndarray:
    """Tanner parity of a certified lift, built over F2[Z_ell] and expanded.

    The base graph's Tanner code with the local-code bit of edge e at x^0
    when v is e's lower endpoint and at x^(-s_e) otherwise, where s_e is
    e's shift.  Expanded, columns sit at (base edge e, fiber f) ->
    e * ell + f and rows at ((v * checks + c) * ell + i).  Needs the
    canonical cyclic action, whose fiber shifts are exactly these rotations.
    `cert` is a certificate, read by search.read_signing, or the Signing
    read from one.
    """
    signing = cert if isinstance(cert, Signing) else read_signing(cert)
    base, group = signing.base, signing.group
    ell = group.fiber_size
    canonical = AbelianGroup.cyclic(ell)
    if group.factors != canonical.factors or \
            group.generator_perms != canonical.generator_perms:
        raise ValueError("certificate group is not the canonical cyclic "
                         "rotation action")
    shifts = signing.values[:, 0]
    exps = np.where(np.arange(base.n)[:, None] < base.adj, 0,
                    -shifts[base.eid_table] % ell)
    return _tanner_matrix(base, local, ell, exps).expand()


# ---------------------------------------------------------------------------
# alist export
# ---------------------------------------------------------------------------

def _padded_supports(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's degree and its 1-based support columns in order, padded
    with 0 to the largest degree: a (rows, max degree) table."""
    rows, cols = np.nonzero(h)
    degree = np.bincount(rows, minlength=h.shape[0])
    table = np.zeros((h.shape[0], degree.max(initial=0)), dtype=np.int64)
    start = np.cumsum(degree) - degree
    table[rows, np.arange(rows.size) - start[rows]] = cols + 1
    return degree, table


def write_alist(parity, path: str) -> None:
    """Write a parity matrix in MacKay's alist format ('n m' on line one)."""
    h = gf2.as_f2(parity)
    m, n = h.shape
    col_deg, cols = _padded_supports(h.T)
    row_deg, rows = _padded_supports(h)

    def lines(table):
        return [" ".join(map(str, line)) for line in table.tolist()]

    text = [f"{n} {m}", f"{cols.shape[1]} {rows.shape[1]}",
            " ".join(map(str, col_deg.tolist())),
            " ".join(map(str, row_deg.tolist())), *lines(cols), *lines(rows)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(text) + "\n")
