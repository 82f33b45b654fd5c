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
        """The coordinates of the unit 1 in X's basis, or None if 1 is not in X.

        1 is the standard vector e_c of its monomial's column c, so it is in X
        iff c is the pivot of a basis row r that is e_c itself; it is then e_r.
        """
        one, space = self.group.one_mono(), self.space
        c = next((k for k, m in enumerate(self.monos) if m == one), None)
        r = space.pivots.index(c) if c in space.pivots else None
        if r is None or np.count_nonzero(space.basis[r]) != 1:
            return None
        return np.eye(1, space.dim, r, dtype=np.int64)[0]


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
    degrees: np.ndarray | None = None  # of each leg, filled in by `_split`


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

    `blocks` are the entries (h, j, i, value), sorted by (h, j, i), of the
    F^h with Delta(v_i) = sum_{j,h} F^h[j, i] v_j (x) legs[h], over the
    legs of M's split against X: for an explicit X, X's RREF basis, as in
    `SubCoalgebra.coefficient_blocks`.  `comodule` is M_X on the basis
    v1..vn of `subspace`, built from those entries and validated.  At V = M
    it is M's own columns relabelled, with M's report; at V = 0 it is empty.
    """

    def __init__(self, m: Comodule, x, legs: list, subspace: Subspace,
                 entries: tuple, iterations: int):
        self._m, self._x, self._legs, self._entries = m, x, legs, entries
        self.subspace, self.iterations = subspace, iterations

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @cached_property
    def blocks(self) -> np.ndarray:
        return np.stack(self._entries)[:, np.lexsort(self._entries[2::-1])]

    @cached_property
    def comodule(self) -> Comodule:
        return _induced_comodule(self._m, self._x, self._legs, self.subspace, self._entries)


def restrict(m: Comodule, x) -> RestrictResult:
    """The greatest subcomodule M_X with coaction landing in M_X (x) X.

    M is validated first (once per comodule: the report is kept on it), and
    a failure raises InternalInvariantError with its first failure.  M is
    split against X once, and the fixpoint V is then checked exactly by
    `_coordinates`, on the images of the fixpoint's confirming pass: every
    image B_h V must lie in V, and B_h V = 0 for every h outside X.
    V = 0 and V = M pass that check vacuously, so neither takes a product;
    for any other V the coordinates of B_h V are kept for `blocks` and
    `comodule`.  M valid and V stable under every B_h certify M_X without
    building it: V is a subcomodule, whose coaction is the restriction of
    M's (Jantzen, Representations of Algebraic Groups, I.2).
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
    inside = (split := _split(g, co, x, m.dim))[0]
    v, iterations, images = _greatest_fixpoint(g, co, x, Subspace.full(m.dim, g.p), split)
    entries = (np.zeros(0, dtype=np.int64),) * 4
    if v.dim == m.dim:  # the split's own arrays, not a copy
        entries = (inside.leg, inside.row, inside.col, inside.val)
    elif v.dim and (entries := _coordinates(split, v, images)) is None:
        raise InternalInvariantError("induced coaction escapes the fixed-point subspace")
    return RestrictResult(m, x, inside.legs, v, entries, iterations)


def _split(g: Group, co: Coaction, x, n: int):
    """Write the right legs of a coaction in a basis of X.

    Returns (inside, outside).  `inside` is a Coaction with n rows per leg
    over X's basis: against a canonical level its legs are the support
    monomials of degree <= d, a mask on `degrees`; against an explicit X they
    are X's RREF basis vectors, whose coefficient is that of their pivot
    monomial.  `outside` holds the triples (q * height + j, i, value), one
    per position, that must vanish on M_X: q is the leg for a leg outside
    X's span or a row j >= n, and len(legs) + k for the residual
    B_c - sum_t X[t, c] B_{basis t} of nonpiv[k] = c.
    """
    if isinstance(x, CanonicalLevel):
        if co.degrees is None:
            co.degrees = np.array([g.degree(h) for h in co.legs], dtype=np.int64)
        keep, nonpiv = co.degrees <= x.d, []
        basis = [h for h, k in zip(co.legs, keep.tolist()) if k]
        slot = np.where(keep, keep.cumsum() - 1, -1)[co.leg]
    else:
        basis = [x.monos[c] for c in x.space.pivots]
        nonpiv = np.delete(np.arange(len(x.monos)), np.asarray(x.space.pivots, dtype=np.int64))
        # slot of each entry's leg: t for basis[t], -2 - k for nonpiv[k], -1 outside X
        slots = {x.monos[c]: -2 - k for k, c in enumerate(nonpiv.tolist())}
        slots.update({h: t for t, h in enumerate(basis)})
        slot = np.array([slots.get(h, -1) for h in co.legs], dtype=np.int64)[co.leg]
    inside = (slot >= 0) & (co.row < n)
    out = ~inside
    q = np.where(slot < -1, len(co.legs) - 2 - slot, co.leg)[out]
    key, val = (q * co.height + co.row[out]) * n + co.col[out], co.val[out]
    if len(nonpiv):
        # the residuals' terms -X[t, c] B_{basis t}: X's nonzeros off the pivots
        coef = x.space.basis[:, nonpiv]
        t, k = coef.nonzero()
        e, y = join(slot, t)
        key, val = sum_duplicates(
            np.concatenate([key, ((len(co.legs) + k[y]) * co.height + co.row[e]) * n + co.col[e]]),
            np.concatenate([val, -co.val[e] * coef[t, k][y]]), g.p)
    return (Coaction(basis, slot[inside], co.row[inside], co.col[inside], co.val[inside], n),
            (key // n, key % n, val))


def _greatest_fixpoint(g: Group, co: Coaction, x, start: Subspace,
                       split=None) -> tuple[Subspace, int, tuple | None]:
    """The greatest V <= start with B_h V <= V inside X and B_h V = 0 outside it.

    Returns V, the number of passes and the `_images` of the last pass, or
    None when no pass was taken.

    The outside entries, in rows mostly of one nonzero each, are peeled by
    `sparse_kernel`.  Each pass then keeps the x in V with B_h x in V for
    every inside h at once: one kernel, with a row per (coordinate, leg), of
    the residuals of the images modulo V, in V's coordinates.  Every pass
    contains the greatest fixpoint and the first pass that keeps all of V is
    one, so the loop ends on it (the confirming pass); V = 0 and V = the
    ambient are fixpoints as they stand.  For a coassociative coaction the
    second pass always keeps V: B_k B_h = sum_g Delta(g)_{k,h} B_g.
    `split`, if given, is `_split(g, co, x, n)`.
    """
    p, n = g.p, start.ambient_dim
    inside, outside = split or _split(g, co, x, n)
    v, images = start, None
    if outside[0].size and v.dim:
        v = v.lift(sparse_kernel(*_on_basis(outside, v), v.dim, p))
    iterations = 0
    while inside.legs and 0 < v.dim < n:
        iterations += 1
        images = _images(inside, v)
        ker = sparse_kernel(*images[1], v.dim, p)
        if ker.dim == v.dim:
            break
        v = v.lift(ker)
    return v, iterations, images


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


def _coordinates(split: tuple, v: Subspace, images=None) -> tuple | None:
    """The entries (h, b, a, value) of C, B_h v_a = sum_b C[h, b, a] v_b for
    the inside legs h of a split, or None unless the outside entries vanish
    on V and every image B_h v_a lies in V.  `images`, if given, is
    `_images(inside, v)`.  An image in V is V^T times its entries at V's
    pivots, so C is W read there."""
    inside, outside = split
    (r, a, c), resid = images or _images(inside, v)
    if resid[0].size or _on_basis(outside, v)[0].size:
        return None
    at = np.full(v.ambient_dim, -1)
    at[list(v.pivots)] = np.arange(v.dim)  # at[j] = b at v_b's pivot j, else -1
    j, h = np.divmod(r, len(inside.legs))
    on = at[j] >= 0
    return h[on], at[j[on]], a[on], c[on]


def _induced_comodule(m: Comodule, x, legs: list, v: Subspace, entries: tuple) -> Comodule:
    """The coaction on V's basis v1..vn, validated.

    At V = M the basis is the identity: M's columns and M's report serve as
    they stand.  Otherwise f_ji = sum_h C[h, j, i] b_h, from the entries
    (h, j, i, value) of C, b_h the monomial legs[h] or X's basis vector h.
    """
    g = m.group
    labels = [f"v{a + 1}" for a in range(v.dim)]
    if v.dim == m.dim:
        sub = Comodule(g, labels, [m.column(i) for i in range(m.dim)])
        sub._report = m.validate()
        return sub
    basis = [{h: 1} for h in legs] if isinstance(x, CanonicalLevel) else [
        b.coeffs for b in x.elements()]
    cols: list[dict] = [{} for _ in range(v.dim)]
    for h, j, i, c in zip(*(e.tolist() for e in entries)):
        f = cols[i].setdefault(j, {})
        for mono, e in basis[h].items():
            f[mono] = f.get(mono, 0) + c * e
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
    v, _, _ = _greatest_fixpoint(g, co, x, x.space, split)
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
    """`structure_constants` from the coproduct `co`: `_coordinates` of its
    split must not be None, which holds when the outside entries vanish on
    the space and every inside image lies in it.  `split` is `co` split
    against `space`, if the caller has it."""
    split = split or _split(g, co, ExplicitSubspace(g, monos, space), len(monos))
    if (coords := _coordinates(split, space)) is None:
        return None
    # C[b, a, k] pairs the left leg b_a with b_b in Delta(b_k)
    f = np.stack([coords[t] for t in (1, 0, 2, 3)])
    return f[:, np.lexsort(f[2::-1])]


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
