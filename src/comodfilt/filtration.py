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

import numpy as np

from .coordalg import Element, Group
from .comodules import Comodule, StreamModule, tensor
# preimage stays bound here: bench/test_bench.py checks that the tracer wraps it
from .linalg import Subspace, kernel, matmul_mod, preimage  # noqa: F401


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
    def __init__(self, subspace: Subspace, comodule: Comodule, iterations: int):
        self.subspace = subspace
        self.comodule = comodule
        self.iterations = iterations

    @property
    def dim(self) -> int:
        return self.subspace.dim


def restrict(m: Comodule, x) -> RestrictResult:
    """The greatest subcomodule M_X with coaction landing in M_X (x) X."""
    g = m.group
    if not isinstance(x, (CanonicalLevel, ExplicitSubspace)):
        raise TypeError(f"not a filtration level: {x!r}")
    if x.group != g:
        raise ValueError("filtration level group does not match the comodule")
    co = coaction(m)
    v, iterations = _greatest_fixpoint(g, co, x, Subspace.full(m.dim, g.p))
    return RestrictResult(v, _induced_comodule(m, v, co), iterations)


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

    Each pass keeps the x in V with B_h x in V for every inside h at once: one
    kernel of the stacked residuals of B_h V modulo V, in V's coordinates.
    Every pass contains the greatest fixpoint and the first pass that keeps
    all of V is one, so the loop ends on it.  V = 0 and V = the whole ambient
    are fixpoints as they stand.  For a coassociative coaction the second
    pass always keeps V: B_k B_h = sum_g Delta(g)_{k,h} B_g.
    """
    p, n = g.p, start.ambient_dim
    inside, outside, _ = _split(g, co, x, n)
    v = start
    if len(outside) and v.dim:
        v = v.lift(kernel(matmul_mod(outside, v.basis.T, p), p))
    iterations = 0
    while inside.legs and 0 < v.dim < n:
        iterations += 1
        resid = v.residual(_images(inside, v).reshape(n, -1))
        ker = kernel(resid.reshape(-1, v.dim), p)
        if ker.dim == v.dim:
            break
        v = v.lift(ker)
    return v, iterations


def _images(co: Coaction, v: Subspace) -> np.ndarray:
    """W[:, h, a] = B_h v_a for the basis vectors v_a of V, as one product.

    W has shape (n, legs, dim V), so W.reshape(n, -1) holds every image as a
    column, ready for `Subspace.residual`.
    """
    w = np.zeros((co.height, len(co.legs), v.dim), dtype=np.int64)
    w[co.row, co.leg] = matmul_mod(co.rows, v.basis.T, v.p)
    return w


def _induced_comodule(m: Comodule, v: Subspace, co: Coaction) -> Comodule:
    """Express the coaction on the basis of V and re-validate it.

    B_h v_a = sum_j W[piv_j, h, a] v_j, once the residual check has shown
    that every B_h v_a lies in V.
    """
    g = m.group
    cols: list[dict] = [{} for _ in range(v.dim)]
    if v.dim and co.legs:
        w = _images(co, v)
        if np.any(v.residual(w.reshape(m.dim, -1))):
            raise InternalInvariantError(
                "induced coaction escapes the fixed-point subspace")
        coords = w[list(v.pivots)].transpose(2, 1, 0)  # (a, h, j)
        for a, h, j in zip(*np.nonzero(coords)):
            cols[a].setdefault(int(j), {})[co.legs[h]] = int(coords[a, h, j])
    sub = Comodule(g, [f"v{a + 1}" for a in range(v.dim)],
                   [{j: Element(g, f) for j, f in col.items()} for col in cols])
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


class ClosureResult:
    def __init__(self, subspace: ExplicitSubspace, delta_matrix):
        self.subspace = subspace
        self.delta_matrix = delta_matrix  # structure constants, None if not a sub-coalgebra

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
    sub-coalgebra property Delta(D) <= D (x) D is verified independently by
    building D's structure constants, which the result keeps.
    """
    if isinstance(x, CanonicalLevel):
        x = ExplicitSubspace.canonical(x.group, x.d)
    if x.group != g:
        raise ValueError("subspace group does not match")
    co = coproduct_coaction(g, x.monos)
    v, _ = _greatest_fixpoint(g, co, x, x.space)
    return ClosureResult(ExplicitSubspace(g, x.monos, v),
                         structure_constants(g, x.monos, v, co))


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


def structure_constants(g: Group, monos, space: Subspace, co: Coaction | None = None):
    """The coproduct of a subspace of span(monos) in its RREF basis b_0..b_{s-1}.

    Returns D of shape (s*s, s) with Delta(b_k) = sum_{a,b} D[a*s+b, k]
    b_a (x) b_b, or None when the space is not a sub-coalgebra.  `co` may
    pass in `coproduct_coaction(g, monos)` when it is already at hand.
    """
    if co is None:
        co = coproduct_coaction(g, monos)
    inside, outside, _ = _split(g, co, ExplicitSubspace(g, monos, space), len(monos))
    s = space.dim
    if np.any(matmul_mod(outside, space.basis.T, g.p)):
        return None
    if not s:
        return np.zeros((0, 0), dtype=np.int64)
    # W[:, b, k]: the left leg paired with b_b in Delta(b_k); it must lie in the space
    w = _images(inside, space)
    if np.any(space.residual(w.reshape(len(monos), -1))):
        return None
    return w[list(space.pivots)].reshape(s * s, s)


def subspace_tensor(u: Subspace, v: Subspace) -> Subspace:
    """u (x) v inside F^(mu*mv) with index (i, j) -> i*mv + j."""
    if u.p != v.p:
        raise ValueError("field mismatch")
    amb = u.ambient_dim * v.ambient_dim
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(amb, u.p)
    rows = [np.kron(a, b) % u.p for a in u.basis for b in v.basis]
    return Subspace.from_rows(np.array(rows), amb, u.p)


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
