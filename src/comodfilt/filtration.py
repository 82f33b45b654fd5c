"""The filtration functor M -> M_X and the coalgebra closure O(G)_X.

M_X is the greatest subspace V of M with Delta(V) <= V (x) X, computed by a
greatest-fixed-point iteration on the coefficient matrices of the coaction:
one matrix B_h per monomial h appearing in the coefficients, kept only as
the nonzero entries of all B_h (`Coaction`), built once per comodule and
kept on it.  Writing the right legs h in a basis of X (`_split`) gives inside
legs (constraint B_h V <= V) and outside entries (constraint B_h V = 0).
Every product with V's basis, and the images W = B_h V with their residuals
modulo V, stay (row, col, value) triples joined on their shared index
(`linalg.join`); `sparse_kernel` solves each pass.  The same iteration run
on the coproduct yields the largest sub-coalgebra contained in a
finite-dimensional subspace X.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coordalg import Element, Group
from .comodules import Comodule, StreamModule, tensor
# kernel and preimage stay bound here: bench/test_bench.py checks the tracer wraps them
from .linalg import Subspace, join, kernel, preimage, sparse_kernel, sum_duplicates  # noqa: F401


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
        rows = [[f.coeffs.get(m, 0) for m in monos] for f in elements]
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
    """The coefficient matrices B_h of a coaction, as their nonzero entries:
    B_h[row[e], col[e]] = val[e] for the right leg h = legs[leg[e]], one entry
    per position.  Every B_h has `height` rows; rows past the ambient's
    dimension are left legs outside it (stray legs of a coproduct)."""

    legs: list
    leg: np.ndarray
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    height: int


def _gather(entries: list, height: int) -> Coaction:
    """A Coaction from (leg h, row, column, value) entries, one per position,
    values reduced and nonzero; legs are numbered in order of appearance."""
    legs = {}
    e = np.array([(legs.setdefault(h, len(legs)), j, i, c) for h, j, i, c in entries],
                 dtype=np.int64).reshape(-1, 4).T.copy()
    return Coaction(list(legs), *e, height)


def coaction(m: Comodule) -> Coaction:
    """B_h[j, i] = the coefficient of h in f_{ji}.  Built on the first call and
    kept on the comodule; its arrays are read-only, as later callers share them."""
    if m._coaction is None:
        co = _gather([(h, j, i, c) for (j, i), f in m.coeffs.items()
                      for h, c in f.coeffs.items()], m.dim)
        for a in (co.leg, co.row, co.col, co.val):
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

    Returns (inside, outside).  `inside` is a Coaction with n rows per leg
    over X's basis: against a canonical level its legs are the support
    monomials of degree <= d; against an explicit X they are X's RREF basis
    vectors, whose coefficient is that of their pivot monomial.  `outside`
    holds the summed triples (q * height + j, i, value) that must vanish on
    M_X: q is the leg for a leg outside X's span or a row j >= n, and len(legs)
    + k for the residual B_c - sum_t X[t, c] B_{basis t} of nonpiv[k] = c.
    """
    if isinstance(x, CanonicalLevel):
        basis, nonpiv, coef = [h for h in co.legs if g.degree(h) <= x.d], [], np.zeros((0, 0), np.int64)
    else:
        basis = [x.monos[c] for c in x.space.pivots]
        nonpiv = [c for c in range(len(x.monos)) if c not in x.space.pivots]
        coef = x.space.basis[:, nonpiv]
    # slot of each entry's leg: t for basis[t], -2 - k for nonpiv[k], -1 outside X
    slots = {x.monos[c]: -2 - k for k, c in enumerate(nonpiv)}
    slots.update({h: t for t, h in enumerate(basis)})
    slot = np.array([slots.get(h, -1) for h in co.legs], dtype=np.int64)[co.leg]
    inside = (slot >= 0) & (co.row < n)
    q = np.where(slot < -1, len(co.legs) - 2 - slot, co.leg)
    # the residuals' terms -X[t, c] B_{basis t}: X's nonzeros off the pivots
    t, k = coef.nonzero()
    e, y = join(slot, t)
    out = ~inside
    key, val = sum_duplicates(
        np.concatenate([q[out], len(co.legs) + k[y]]) * co.height * n
        + np.concatenate([co.row[out] * n + co.col[out], co.row[e] * n + co.col[e]]),
        np.concatenate([co.val[out], -co.val[e] * coef[t, k][y]]),
        g.p)
    return (Coaction(basis, slot[inside], co.row[inside], co.col[inside], co.val[inside], n),
            (key // n, key % n, val))


def _greatest_fixpoint(g: Group, co: Coaction, x, start: Subspace,
                       split=None) -> tuple[Subspace, int]:
    """The greatest V <= start with B_h V <= V inside X and B_h V = 0 outside it.

    The outside entries, in rows mostly of one nonzero each, are peeled by
    `sparse_kernel`.  Each pass then keeps the x in V with B_h x in V for
    every inside h at once: one kernel, with a row per (coordinate, leg), of
    the residuals of the images modulo V, in V's coordinates.  Every pass
    contains the greatest fixpoint and the first pass that keeps all of V is
    one, so the loop ends on it; V = 0 and V = the ambient are fixpoints as
    they stand.  For a coassociative coaction the second pass always keeps
    V: B_k B_h = sum_g Delta(g)_{k,h} B_g.  `split`, if given, is `_split(g, co, x, n)`.
    """
    p, n = g.p, start.ambient_dim
    inside, outside = split or _split(g, co, x, n)
    v = start
    if outside[0].size and v.dim:
        v = v.lift(sparse_kernel(*_on_basis(outside, v), v.dim, p))
    iterations = 0
    while inside.legs and 0 < v.dim < n:
        iterations += 1
        ker = sparse_kernel(*_images(inside, v)[1], v.dim, p)
        if ker.dim == v.dim:
            break
        v = v.lift(ker)
    return v, iterations


def _on_basis(entries: tuple, v: Subspace) -> tuple:
    """The summed triples of A V^T for A's summed (row, col, value) triples: each
    entry meets V's nonzeros in its column; at V = the ambient, V^T = I."""
    if v.dim == v.ambient_dim:
        return entries
    r, i, c = entries
    vi, a = v.basis.T.nonzero()
    x, y = join(i, vi)
    key, vals = sum_duplicates(r[x] * v.dim + a[y], c[x] * v.basis[a[y], vi[y]], v.p)
    return key // v.dim, key % v.dim, vals


def _images(co: Coaction, v: Subspace) -> tuple[tuple, tuple]:
    """(W, its residual modulo V) as summed triples (j * len(legs) + h, a,
    value), for coordinate j of the images B_h v_a.  The residual is
    W - V^T W[pivots], whose pivot rows cancel: an image lies in V iff its
    column of the residual is empty."""
    legs = len(co.legs)
    r, a, c = w = _on_basis((co.row * legs + co.leg, co.col, co.val), v)
    b, i = v.basis.nonzero()
    x, y = join(r // legs, np.take(v.pivots, b))
    key = np.concatenate([r, i[y] * legs + r[x] % legs]) * v.dim + np.concatenate([a, a[x]])
    key, vals = sum_duplicates(key, np.concatenate([c, -c[x] * v.basis[b[y], i[y]]]), v.p)
    return w, (key // v.dim, key % v.dim, vals)


def _coordinates(co: Coaction, v: Subspace) -> tuple | None:
    """C[b, h, a] with B_h v_a = sum_b C[b, h, a] v_b, as its nonzero triples
    (b, h * dim V + a, value), or None when some image B_h v_a leaves V.  An
    image in V is V^T times its entries at V's pivots, so C is W read there."""
    (r, a, c), resid = _images(co, v)
    if resid[0].size:
        return None
    at = np.full(v.ambient_dim, -1)
    at[list(v.pivots)] = np.arange(v.dim)  # at[j] = b at v_b's pivot j, else -1
    j, h = np.divmod(r, len(co.legs))
    on = at[j] >= 0
    return at[j[on]], h[on] * v.dim + a[on], c[on]


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


@dataclass
class FiltrationResult:
    """Dimension ladder of M_{O(G)_{<=d}} for d = 0..d_max."""

    dims: list[int]
    stabilized_at: int | None  # first d with M_{<=d} = M, or None


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
    """O(G)_X in span(X's monomials), with the structure constants its
    sub-coalgebra check computed, or None if it is not a sub-coalgebra."""

    subspace: ExplicitSubspace
    delta_matrix: np.ndarray | None

    @property
    def dim(self) -> int:
        return self.subspace.space.dim

    @property
    def is_subcoalgebra(self) -> bool:
        return self.delta_matrix is not None


def coalgebra_closure(g: Group, x) -> ClosureResult:
    """O(G)_X: the greatest D <= X with Delta(D) <= D (x) X.

    This is the fixpoint of `restrict` run on the coproduct itself.  Its
    greatest fixed point is automatically a sub-coalgebra contained in X; the
    sub-coalgebra property Delta(D) <= D (x) D is verified independently,
    from the nonzero images of D's basis, whose coordinates are D's
    structure constants: the result keeps them.
    """
    if isinstance(x, CanonicalLevel):
        x = ExplicitSubspace.canonical(x.group, x.d)
    if x.group != g:
        raise ValueError("subspace group does not match")
    co = coproduct_coaction(g, x.monos)
    split = _split(g, co, x, len(x.monos))
    v, _ = _greatest_fixpoint(g, co, x, x.space, split)
    # V <= X, so at V = X (every canonical level) the split against V is X's
    return ClosureResult(ExplicitSubspace(g, x.monos, v), _subcoalgebra_constants(
        g, co, x.monos, v, split if v.dim == x.space.dim else None))


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
    return _gather(entries, len(index))


def structure_constants(g: Group, monos, space: Subspace):
    """The coproduct of a subspace of span(monos) in its RREF basis b_0..b_{s-1}.

    Returns the nonzero entries (a, b, k, value) of D, with Delta(b_k) =
    sum_{a,b} D[a, b, k] b_a (x) b_b, as one (4, nnz) array sorted by
    (a, b, k), or None when the space is not a sub-coalgebra.
    """
    return _subcoalgebra_constants(g, coproduct_coaction(g, monos), monos, space)


def _subcoalgebra_constants(g: Group, co: Coaction, monos, space: Subspace, split=None):
    """`structure_constants` from the coproduct `co`: the outside entries
    must vanish on the space and `_coordinates` of the inside legs must not
    be None.  `split` is `co` split against `space`, if the caller has it."""
    inside, outside = split or _split(g, co, ExplicitSubspace(g, monos, space), len(monos))
    if _on_basis(outside, space)[0].size or (coords := _coordinates(inside, space)) is None:
        return None
    # C[a, b, k] pairs the left leg b_a with b_b in Delta(b_k), at key b*s + k
    a, key, vals = coords
    order = np.argsort(a * space.dim ** 2 + key, kind="stable")
    b, k = np.divmod(key[order], space.dim)
    return np.stack([a[order], b, k, vals[order]])


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
