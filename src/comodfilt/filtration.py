"""The filtration functor M -> M_X and the coalgebra closure O(G)_X.

M_X is the greatest subspace V of M with Delta(V) <= V (x) X, computed by a
greatest-fixed-point iteration on the coefficient matrices of the coaction:
one matrix B_h per monomial h appearing in the coefficients, kept as the
nonzero rows of all B_h stacked (`Coaction`), built once per comodule and
kept on it.  Writing the right legs h in a basis of X (`_split`) gives inside
legs (constraint B_h V <= V) and outside rows (constraint B_h V = 0).  The
same iteration run on the coproduct yields the largest sub-coalgebra
contained in a finite-dimensional subspace X.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coordalg import Element, Group
from .comodules import Comodule, StreamModule, tensor
# kernel and preimage stay bound here: bench/test_bench.py checks the tracer wraps them
from .linalg import Subspace, kernel, matmul_mod, preimage, sparse_kernel  # noqa: F401


class InternalInvariantError(AssertionError):
    pass


class CanonicalLevel:
    """X = O(G)_{<=d}, never materialized: membership is a degree test."""

    def __init__(self, group: Group, d: int):
        if d < 0:
            raise ValueError("filtration level must be >= 0")
        self.group = group
        self.d = d

    def __repr__(self):
        return f"O({self.group.spec()})_<= {self.d}"


class ExplicitSubspace:
    """X as a Subspace of the span of an ordered monomial list."""

    def __init__(self, group: Group, monos, space: Subspace):
        self.group = group
        self.monos = list(monos)
        if space.ambient_dim != len(self.monos):
            raise ValueError("subspace ambient does not match the monomial span")
        self.space = space

    @staticmethod
    def from_elements(group: Group, elements) -> "ExplicitSubspace":
        monos = sorted({m for f in elements for m in f.coeffs}, key=group.mono_key)
        index = {m: i for i, m in enumerate(monos)}
        rows = [[0] * len(monos) for _ in elements]
        for r, f in enumerate(elements):
            for m, c in f.coeffs.items():
                rows[r][index[m]] = c
        return ExplicitSubspace(group, monos,
                                Subspace.from_rows(rows, len(monos), group.p))

    @staticmethod
    def canonical(group: Group, d: int) -> "ExplicitSubspace":
        monos = group.filtration_basis(d)
        return ExplicitSubspace(group, monos,
                                Subspace.full(len(monos), group.p))

    def elements(self) -> list[Element]:
        return [Element(self.group, {self.monos[i]: int(c)
                                     for i, c in enumerate(row) if c})
                for row in self.space.basis]

    def unit_coords(self) -> np.ndarray | None:
        """The coordinates of the unit 1 in X's basis, or None if 1 is not in X."""
        vec = np.array([m == self.group.one_mono() for m in self.monos], dtype=np.int64)
        return self.space.coords(vec) if vec.any() else None


@dataclass
class Coaction:
    """The coefficient matrices B_h of a coaction, as their nonzero rows.

    Row r of `rows` is B_h[row[r], :] for the right leg h = legs[leg[r]].
    Every B_h has `height` rows and rows.shape[1] columns; rows past the
    columns are left legs outside the ambient (stray legs of a coproduct).
    """

    legs: list
    leg: np.ndarray
    row: np.ndarray
    rows: np.ndarray
    height: int


def _gather(entries: list, height: int, n: int) -> Coaction:
    """A Coaction from (leg h, row, column, value) entries, one per position,
    values reduced and nonzero; legs and rows come in order of appearance."""
    legs, at = {}, {}  # leg h -> its index, (leg, row) -> the row's index
    e = np.array([(at.setdefault((legs.setdefault(h, len(legs)), j), len(at)), i, c)
                  for h, j, i, c in entries], dtype=np.int64).reshape(-1, 3)
    rows = np.zeros((len(at), n), dtype=np.int64)
    rows[e[:, 0], e[:, 1]] = e[:, 2]
    leg, row = np.array(list(at), dtype=np.int64).reshape(-1, 2).T
    return Coaction(list(legs), leg, row, rows, height)


def coaction(m: Comodule) -> Coaction:
    """B_h[j, i] = the coefficient of h in f_{ji}.

    Built on the first call and kept on the comodule; its arrays are
    read-only, since every later caller shares them.
    """
    if m._coaction is None:
        co = _gather([(h, j, i, c) for (j, i), f in m.coeffs.items()
                      for h, c in f.coeffs.items()], m.dim, m.dim)
        for a in (co.leg, co.row, co.rows):
            a.flags.writeable = False
        m._coaction = co
    return m._coaction


class RestrictResult:
    """M_X as a subspace of M; its induced comodule is built on first read.

    `comodule` is M_X on the basis v1..vn of `subspace`, built from the
    coordinates `restrict` kept and validated.  At V = M it is M's own
    columns relabelled, with M's report; at V = 0 it is empty.
    """

    def __init__(self, m: Comodule, subspace: Subspace, coords: tuple | None,
                 iterations: int):
        self._m = m
        self._coords = coords  # the triples of _coordinates, or None at V = 0, V = M
        self.subspace = subspace
        self.iterations = iterations

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @cached_property
    def comodule(self) -> Comodule:
        return _induced_comodule(self._m, self.subspace, self._coords)


def restrict(m: Comodule, x) -> RestrictResult:
    """The greatest subcomodule M_X with coaction landing in M_X (x) X.

    M is validated first (once per comodule: the report is kept on it), and
    a failure raises InternalInvariantError with its first failure.  The
    fixpoint V is then checked exactly: every image B_h V must lie in V.
    V = 0 and V = M pass that check vacuously, so neither takes a product;
    for any other V the coordinates of B_h V are kept for `comodule`.  M
    valid and V stable under every B_h certify M_X without building it: V
    is a subcomodule, whose coaction is the restriction of M's (Jantzen,
    Representations of Algebraic Groups, I.2).
    """
    g = m.group
    if not isinstance(x, (CanonicalLevel, ExplicitSubspace)):
        raise TypeError(f"not a filtration level: {x!r}")
    if x.group != g:
        raise ValueError("filtration level group does not match the comodule")
    report = m.validate()
    if not report.ok:
        raise InternalInvariantError(
            f"{m!r} fails validation before restrict: {report.failures[0]}")
    co = coaction(m)
    v, iterations = _greatest_fixpoint(g, co, x, Subspace.full(m.dim, g.p))
    coords = None
    if 0 < v.dim < m.dim:
        coords = _coordinates(co, v)
        if coords is None:
            raise InternalInvariantError("induced coaction escapes the fixed-point subspace")
    return RestrictResult(m, v, coords, iterations)


def _split(g: Group, co: Coaction, x, n: int):
    """Write the right legs of a coaction in a basis of X.

    Returns (inside, outside, outside_row).  `inside` is a Coaction with n
    rows per leg over X's basis: against a canonical level its legs are the
    support monomials of degree <= d; against an explicit X they are X's
    RREF basis vectors, whose coefficient is that of their pivot monomial.
    `outside` stacks the nonzero rows that must vanish on M_X, and
    `outside_row` holds the row j of each: the rows of legs outside X's
    span, the residuals B_c - sum_s X[s, c] B_{pivot s} of X's non-pivot
    monomials c, and the rows past n of the inside legs.
    """
    if isinstance(x, CanonicalLevel):
        basis, nonpiv = [h for h in co.legs if g.degree(h) <= x.d], []
    else:
        basis = [x.monos[c] for c in x.space.pivots]
        nonpiv = [c for c in range(len(x.monos)) if c not in x.space.pivots]
    # slot of each row's leg: t for basis[t], -2 - k for X's non-pivot
    # monomial nonpiv[k], -1 outside X's span
    slots = {x.monos[c]: -2 - k for k, c in enumerate(nonpiv)}
    slots.update({h: t for t, h in enumerate(basis)})
    slot = np.array([slots.get(h, -1) for h in co.legs], dtype=np.int64)[co.leg]
    inside = (slot >= 0) & (co.row < n)
    out = (slot == -1) | (slot >= 0) & ~inside
    outside, outside_row = [co.rows[out]], [co.row[out]]
    for k, c in enumerate(nonpiv):
        resid = np.zeros((co.height, n), dtype=np.int64)
        resid[co.row[slot == -2 - k]] = co.rows[slot == -2 - k]
        for t in np.flatnonzero(x.space.basis[:, c]):
            # reduced after each product: exact in int64 while (p-1)^2 < 2^63
            r = slot == t
            j, coef = co.row[r], int(x.space.basis[t, c])
            resid[j] = (resid[j] - coef * co.rows[r]) % g.p
        keep = np.flatnonzero(resid.any(axis=1))
        outside.append(resid[keep])
        outside_row.append(keep)
    return (Coaction(basis, slot[inside], co.row[inside], co.rows[inside], n),
            np.vstack(outside), np.concatenate(outside_row))


def _greatest_fixpoint(g: Group, co: Coaction, x, start: Subspace) -> tuple[Subspace, int]:
    """The greatest V <= start with B_h V <= V inside X and B_h V = 0 outside it.

    The outside rows, mostly of one nonzero each, are peeled by
    `sparse_kernel`.  Each pass then keeps the x in V with B_h x in V for
    every inside h at once: one kernel, with a row per (coordinate, leg), of
    the residuals of the nonzero images modulo V, in V's coordinates.  Every
    pass contains the greatest fixpoint and the first pass that keeps all of
    V is one, so the loop ends on it.  V = 0 and V = the whole ambient are
    fixpoints as they stand.  For a coassociative coaction the second pass
    always keeps V: B_k B_h = sum_g Delta(g)_{k,h} B_g.
    """
    p, n = g.p, start.ambient_dim
    inside, outside, _ = _split(g, co, x, n)
    v = start
    if len(outside) and v.dim:
        v = v.lift(sparse_kernel(*_triples(_on_basis(outside, v)), v.dim, p))
    iterations = 0
    while inside.legs and 0 < v.dim < n:
        iterations += 1
        keys, w = _images(inside, v)
        j, c, vals = _triples(v.residual(w))
        h, a = np.divmod(keys[c], v.dim)
        ker = sparse_kernel(j * len(inside.legs) + h, a, vals, v.dim, p)
        if ker.dim == v.dim:
            break
        v = v.lift(ker)
    return v, iterations


def _on_basis(rows: np.ndarray, v: Subspace) -> np.ndarray:
    """rows @ V^T; at V = the whole ambient, V's RREF basis is the identity."""
    return rows if v.dim == v.ambient_dim else matmul_mod(rows, v.basis.T, v.p)


def _triples(mat: np.ndarray):
    """(rows, cols, values) of the nonzero entries of a matrix, row by row."""
    r, c = np.nonzero(mat)
    return r, c, mat[r, c]


def _images(co: Coaction, v: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """(keys, W): column k of W, shape (n, K), is the image B_h v_a of a basis
    vector of V keyed keys[k] = h * dim V + a, for the K nonzero images in
    increasing order of key; no (n, legs, dim V) array is built."""
    r, a, vals = _triples(_on_basis(co.rows, v))
    keys, col = np.unique(co.leg[r] * v.dim + a, return_inverse=True)
    w = np.zeros((co.height, keys.size), dtype=np.int64)
    w[co.row[r], col] = vals
    return keys, w


def _coordinates(co: Coaction, v: Subspace) -> tuple | None:
    """C[b, h, a] with B_h v_a = sum_b C[b, h, a] v_b, as its nonzero triples
    (b, h * dim V + a, value), or None when some image B_h v_a leaves V.  An
    image in V is V^T times its entries at V's pivots, so C is W read there."""
    keys, w = _images(co, v)
    if np.any(v.residual(w)):
        return None
    b, col, vals = _triples(w[list(v.pivots)])
    return b, keys[col], vals


def _induced_comodule(m: Comodule, v: Subspace, coords: tuple | None) -> Comodule:
    """The coaction on V's basis v1..vn, validated.

    At V = M the basis is the identity: M's columns and M's report serve as
    they stand.  Otherwise `coords` holds the triples of `_coordinates`, or
    None at V = 0, which has no columns.
    """
    g = m.group
    labels = [f"v{a + 1}" for a in range(v.dim)]
    if v.dim == m.dim:
        sub = Comodule(g, labels, [m.column(i) for i in range(m.dim)])
        sub._report = m.validate()
        return sub
    cols: list[dict] = [{} for _ in range(v.dim)]
    if v.dim:
        legs = coaction(m).legs
        b, key, vals = coords
        h, a = np.divmod(key, v.dim)
        order = np.lexsort((b, h, a))  # in (a, h, b) order
        for a, h, b, c in zip(*(t[order].tolist() for t in (a, h, b, vals))):
            cols[a].setdefault(b, {})[legs[h]] = c
    sub = Comodule(g, labels, [{j: Element(g, f) for j, f in col.items()} for col in cols])
    report = sub.validate()
    if not report.ok:
        raise InternalInvariantError(
            f"induced coaction fails validation: {report.failures[0]}")
    return sub


class FiltrationResult:
    """Dimension ladder of M_{O(G)_{<=d}} for d = 0..d_max."""

    def __init__(self, dims: list[int], stabilized_at):
        self.dims = dims
        self.stabilized_at = stabilized_at  # first d with M_{<=d} = M, or None

    def __repr__(self):
        return f"FiltrationResult(dims={self.dims}, stabilized_at={self.stabilized_at})"


def filtration_dims(m, d_max: int) -> FiltrationResult:
    """dim M_{O(G)_{<=d}} for d = 0..d_max, for a comodule or a stream."""
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    dims = []
    stabilized = None
    stream = isinstance(m, StreamModule)
    for d in range(d_max + 1):
        # `generate` caches, so the levels of one generation share its coaction
        target = m.generate(m.sufficiency(d)) if stream else m
        dims.append(restrict(target, CanonicalLevel(m.group, d)).dim)
        if stabilized is None and not stream and dims[-1] == m.dim:
            stabilized = d
    return FiltrationResult(dims, stabilized)


@dataclass
class ClosureResult:
    """O(G)_X in span(X's monomials); its structure constants are built on first read."""

    subspace: ExplicitSubspace
    is_subcoalgebra: bool

    @property
    def dim(self) -> int:
        return self.subspace.space.dim

    @cached_property
    def delta_matrix(self) -> np.ndarray | None:
        """The structure constants, or None if not a sub-coalgebra."""
        x = self.subspace
        return structure_constants(x.group, x.monos, x.space) if self.is_subcoalgebra else None


def coalgebra_closure(g: Group, x) -> ClosureResult:
    """O(G)_X: the greatest D <= X with Delta(D) <= D (x) X.

    This is the fixpoint of `restrict` run on the coproduct itself.  Its
    greatest fixed point is automatically a sub-coalgebra contained in X; the
    sub-coalgebra property Delta(D) <= D (x) D is verified independently,
    from the nonzero images of D's basis, without building D's structure
    constants.
    """
    if isinstance(x, CanonicalLevel):
        x = ExplicitSubspace.canonical(x.group, x.d)
    if x.group != g:
        raise ValueError("subspace group does not match")
    co = coproduct_coaction(g, x.monos)
    v, _ = _greatest_fixpoint(g, co, x, x.space)
    return ClosureResult(ExplicitSubspace(g, x.monos, v),
                         _subcoalgebra_coordinates(g, co, x.monos, v) is not None)


def coproduct_coaction(g: Group, monos) -> Coaction:
    """The coaction Delta on span(monos), as for a comodule.

    B_h[a, k] is the coefficient of l_a (x) h in Delta(monos[k]).  The left
    legs l_a are the monos followed by every stray leg outside their span,
    so B_h has len(monos) columns and at least as many rows.
    """
    index = {m: i for i, m in enumerate(monos)}
    entries = [(b, index.setdefault(a, len(index)), k, c % g.p)
               for k, m in enumerate(monos)
               for (a, b), c in g.coproduct_mono(m).items() if c % g.p]
    return _gather(entries, len(index), len(monos))


def structure_constants(g: Group, monos, space: Subspace):
    """The coproduct of a subspace of span(monos) in its RREF basis b_0..b_{s-1}.

    Returns D of shape (s*s, s) with Delta(b_k) = sum_{a,b} D[a*s+b, k]
    b_a (x) b_b, or None when the space is not a sub-coalgebra.
    """
    coords = _subcoalgebra_coordinates(g, coproduct_coaction(g, monos), monos, space)
    if coords is None:
        return None
    # C[a, b, k] pairs the left leg b_a with b_b in Delta(b_k), at key b*s + k
    a, key, vals = coords
    d = np.zeros(space.dim ** 3, dtype=np.int64)
    d[a * space.dim ** 2 + key] = vals
    return d.reshape(space.dim ** 2, space.dim)


def _subcoalgebra_coordinates(g: Group, co: Coaction, monos, space: Subspace):
    """`_coordinates` of the coproduct `co`, or None if not a sub-coalgebra."""
    inside, outside, _ = _split(g, co, ExplicitSubspace(g, monos, space), len(monos))
    return None if np.any(_on_basis(outside, space)) else _coordinates(inside, space)


def subspace_tensor(u: Subspace, v: Subspace) -> Subspace:
    """u (x) v inside F^(mu*mv) with index (i, j) -> i*mv + j."""
    if u.p != v.p:
        raise ValueError("field mismatch")
    return Subspace.from_rows(np.kron(u.basis, v.basis), u.ambient_dim * v.ambient_dim, u.p)


def tensor_containment(m: Comodule, n: Comodule, x) -> dict:
    """Compare (M (x) N)_X with M_X (x) N_X; the containment can fail for
    determinant-power pairs at small X, which is reported rather than hidden."""
    mn = tensor(m, n)
    lhs = restrict(mn, x).subspace
    rhs = subspace_tensor(restrict(m, x).subspace, restrict(n, x).subspace)
    return {
        "lhs_dim": lhs.dim,
        "rhs_dim": rhs.dim,
        "contained": rhs.contains_space(lhs),
    }
