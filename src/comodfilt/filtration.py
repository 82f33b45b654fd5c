"""The filtration functor M -> M_X and the coalgebra closure O(G)_X.

M_X is the greatest subspace V of M with Delta(V) <= V (x) X, computed by a
greatest-fixed-point iteration on the coefficient matrices of the coaction:
one matrix B_h per monomial h appearing in the coefficients, with h either
inside X (preimage constraint B_h V <= V) or outside (kernel constraint
B_h V = 0, after projecting along X).  The same iteration run inside the
coordinate algebra itself yields the largest sub-coalgebra contained in a
finite-dimensional subspace X.
"""

from __future__ import annotations

import warnings

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

    def contains_unit(self) -> bool:
        one = self.group.one_mono()
        if one not in self.monos:
            return False
        vec = np.zeros(len(self.monos), dtype=np.int64)
        vec[self.monos.index(one)] = 1
        return self.space.contains(vec)


def coefficient_matrices(m: Comodule) -> dict:
    """One dim x dim matrix per support monomial h: B_h[j,i] = coeff of h in f_{ji}."""
    mats: dict = {}
    for (j, i), f in m.coeffs.items():
        for mono, c in f.coeffs.items():
            if mono not in mats:
                mats[mono] = np.zeros((m.dim, m.dim), dtype=np.int64)
            mats[mono][j, i] = c
    return mats


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
    if isinstance(x, CanonicalLevel):
        if x.group != g:
            raise ValueError("filtration level group does not match the comodule")
    elif isinstance(x, ExplicitSubspace):
        if x.group != g:
            raise ValueError("subspace group does not match the comodule")
        if not x.contains_unit():
            warnings.warn("X does not contain the unit; M_X will be 0",
                          stacklevel=2)
    else:
        raise TypeError(f"not a filtration level: {x!r}")
    mats = coefficient_matrices(m)
    v, iterations = _greatest_fixpoint(g, mats, x, Subspace.full(m.dim, g.p))
    return RestrictResult(v, _induced_comodule(m, v, mats), iterations)


def _split(g: Group, mats: dict, x, n: int):
    """Split coefficient matrices against X into (inside, outside).

    `mats` maps each right-leg monomial h to B_h with n columns; rows past n
    are left legs outside the ambient, which must vanish.  Against an explicit
    X the inside matrices are those of X's RREF pivots, one per basis vector
    of X, and every other monomial contributes its residual to the outside.
    Support monomials absent from X's span are outside as they stand.  Inside
    is a list of n x n matrices; outside is one matrix, the nonzero rows of
    the rest.
    """
    p = g.p
    if isinstance(x, CanonicalLevel):
        inside = [b for h, b in mats.items() if g.degree(h) <= x.d]
        outside = [b for h, b in mats.items() if g.degree(h) > x.d]
    else:
        rows = next(iter(mats.values())).shape[0] if mats else n
        zero = np.zeros((rows, n), dtype=np.int64)
        inside = [mats.get(x.monos[c], zero) for c in x.space.pivots]
        span, pivots = set(x.monos), set(x.space.pivots)
        outside = [b for h, b in mats.items() if h not in span]
        for c, h in enumerate(x.monos):
            if c in pivots:
                continue
            resid = mats.get(h, zero)
            for s, piv_mat in enumerate(inside):
                coef = int(x.space.basis[s, c])
                if coef:
                    resid = (resid - coef * piv_mat) % p
            outside.append(resid)
    outside = np.vstack([np.zeros((0, n), dtype=np.int64), *outside,
                         *(b[n:] for b in inside)])
    return [b[:n] for b in inside], outside[outside.any(axis=1)]


def _greatest_fixpoint(g: Group, mats: dict, x, start: Subspace) -> tuple[Subspace, int]:
    """The greatest V <= start with B_h V <= V inside X and B_h V = 0 outside it.

    Each pass keeps the x in V with B_h x in V for every inside h at once: one
    kernel of the stacked residuals of B_h V modulo V, in V's coordinates.
    Every pass contains the greatest fixpoint and the first pass that keeps
    all of V is one, so the loop ends on it.  V = 0 and V = the whole ambient
    are fixpoints as they stand.  For a coassociative coaction the second
    pass always keeps V: B_k B_h = sum_g Delta(g)_{k,h} B_g.
    """
    p, n = g.p, start.ambient_dim
    inside, outside = _split(g, mats, x, n)
    v = start
    if len(outside) and v.dim:
        v = v.lift(kernel(matmul_mod(outside, v.basis.T, p), p))
    iterations = 0
    while inside and 0 < v.dim < n:
        iterations += 1
        ker = kernel(_residual(_images(inside, v), v).reshape(-1, v.dim), p)
        if ker.dim == v.dim:
            break
        v = v.lift(ker)
    return v, iterations


def _images(mats: list, v: Subspace) -> np.ndarray:
    """W[h, :, a] = B_h v_a for the basis vectors v_a of V, as one product.

    The B_h share one shape and are very sparse, so only their nonzero rows
    enter the product.
    """
    nz = [np.flatnonzero(b.any(axis=1)) for b in mats]
    w = np.zeros((len(mats), mats[0].shape[0], v.dim), dtype=np.int64)
    counts = [r.size for r in nz]
    if sum(counts):
        rows = np.vstack([b[r] for b, r in zip(mats, nz)])
        w[np.repeat(np.arange(len(mats)), counts), np.concatenate(nz)] = \
            matmul_mod(rows, v.basis.T, v.p)
    return w


def _residual(w: np.ndarray, v: Subspace) -> np.ndarray:
    """The images W (H, n, dim V) modulo V: W[:, nonpiv] - V[:, nonpiv]^T W[:, piv].

    A vector y lies in V iff y = V^T y[piv], because V's RREF basis is the
    identity in its pivot columns; so W[h, :, a] lies in V iff column a of
    the residual of block h is zero.
    """
    hcount, k = w.shape[0], v.dim
    piv = list(v.pivots)
    nonpiv = np.ones(v.ambient_dim, dtype=bool)
    nonpiv[piv] = False
    nonpiv = np.flatnonzero(nonpiv)
    top = w[:, piv, :].transpose(1, 0, 2).reshape(k, hcount * k)
    back = matmul_mod(v.basis[:, nonpiv].T, top, v.p)
    back = back.reshape(nonpiv.size, hcount, k).transpose(1, 0, 2)
    return (w[:, nonpiv, :] - back) % v.p


def _induced_comodule(m: Comodule, v: Subspace, mats: dict) -> Comodule:
    """Express the coaction on the basis of V and re-validate it.

    B_h v_a = sum_j W[h, piv_j, a] v_j, once the residual check has shown
    that every B_h v_a lies in V.
    """
    g = m.group
    coaction: list[dict] = [{} for _ in range(v.dim)]
    if v.dim and mats:
        monos = list(mats)
        w = _images(list(mats.values()), v)
        if np.any(_residual(w, v)):
            raise InternalInvariantError(
                "induced coaction escapes the fixed-point subspace")
        coords = w[:, list(v.pivots), :].transpose(2, 0, 1)  # (a, h, j)
        for a, h, j in zip(*np.nonzero(coords)):
            coaction[a].setdefault(int(j), {})[monos[h]] = int(coords[a, h, j])
    sub = Comodule(g, [f"v{a + 1}" for a in range(v.dim)],
                   [{j: Element(g, f) for j, f in col.items()} for col in coaction])
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
    if isinstance(m, StreamModule):
        for d in range(d_max + 1):
            gen = m.generate(m.sufficiency(d))
            dims.append(restrict(gen, CanonicalLevel(m.group, d)).dim)
    else:
        for d in range(d_max + 1):
            dim = restrict(m, CanonicalLevel(m.group, d)).dim
            dims.append(dim)
            if stabilized is None and dim == m.dim:
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
    building D's structure constants, which are kept for `SubCoalgebra`.
    """
    if isinstance(x, CanonicalLevel):
        x = ExplicitSubspace.canonical(x.group, x.d)
    if x.group != g:
        raise ValueError("subspace group does not match")
    mats = coproduct_matrices(g, x.monos)
    v, _ = _greatest_fixpoint(g, mats, x, x.space)
    return ClosureResult(ExplicitSubspace(g, x.monos, v),
                         structure_constants(g, x.monos, v, mats))


def coproduct_matrices(g: Group, monos) -> dict:
    """The coefficient matrices of Delta on span(monos), as for a comodule.

    B_h[a, k] is the coefficient of l_a (x) h in Delta(monos[k]).  The left
    legs l_a are the monos followed by every stray leg outside their span,
    so B_h has len(monos) columns and at least as many rows.
    """
    index = {m: i for i, m in enumerate(monos)}
    terms = []
    for k, m in enumerate(monos):
        for (a, b), c in g.coproduct_mono(m).items():
            terms.append((b, index.setdefault(a, len(index)), k, c))
    mats: dict = {}
    for b, row, k, c in terms:
        if b not in mats:
            mats[b] = np.zeros((len(index), len(monos)), dtype=np.int64)
        mats[b][row, k] = c % g.p
    return mats


def structure_constants(g: Group, monos, space: Subspace, mats: dict | None = None):
    """The coproduct of a subspace of span(monos) in its RREF basis b_0..b_{s-1}.

    Returns D of shape (s*s, s) with Delta(b_k) = sum_{a,b} D[a*s+b, k]
    b_a (x) b_b, or None when the space is not a sub-coalgebra.  `mats` may
    pass in `coproduct_matrices(g, monos)` when it is already at hand.
    """
    if mats is None:
        mats = coproduct_matrices(g, monos)
    inside, outside = _split(g, mats, ExplicitSubspace(g, monos, space), len(monos))
    s = space.dim
    if np.any(matmul_mod(outside, space.basis.T, g.p)):
        return None
    if not s:
        return np.zeros((0, 0), dtype=np.int64)
    # W[b, :, k]: the left leg paired with b_b in Delta(b_k); it must lie in the space
    w = _images(inside, space)
    if np.any(_residual(w, space)):
        return None
    return w[:, list(space.pivots), :].transpose(1, 0, 2).reshape(s * s, s)


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
