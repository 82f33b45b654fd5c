"""Cobar complexes of finite-dimensional sub-coalgebras and injectivity tests.

Cohomology is computed on the normalized cobar complex CH^n(C, M) =
M (x) Cbar^(x n), where Cbar = ker(epsilon) and C = k.1 + Cbar.  Its
differential is d^n = rho_bar (x) I + sum_{i=1}^{n} (-1)^i I (x) delta_bar (x) I:
rho_bar is the coaction followed by the projection C -> Cbar, delta_bar the
reduced coproduct Delta(x) - x (x) 1 - 1 (x) x on the i-th tensor factor.  There
is no unit face.  It has dimension m (s-1)^n instead of the m s^n of the full
complex M (x) C^(x n), and computes the same Ext_C(k, M) (Ravenel, Complex
Cobordism and Stable Homotopy Groups of Spheres, App. A1).  Cohomology
dimensions come from exact ranks.  Injectivity of a C-comodule M is decided by
solvability of the retraction system for the canonical embedding
M -> M^{triv} (x) C, solved in two stages.  Stage 1 finds the space W of
comodule maps C -> M: its equations are built as (row, col, value) triples
from the nonzeros of the coaction blocks F^c and the structure constants,
and `sparse_kernel` peels the rows that force one unknown to 0 before it
eliminates the small dense core that remains.  Stage 2 solves the
normalization sum_a S^a F^a = I inside W, densely.  Every canonical level
O(G)_{<=d} is a sub-coalgebra, so it is its own closure: the injectivity
profile tests each level itself, and a level whose closed-form dimension
passes the sub-coalgebra ceiling is refused before it is built.
"""

from __future__ import annotations

import numpy as np

from .comodules import Comodule, StreamModule
from .config import Limits, check_limit
from .coordalg import Group, UnsupportedOperation
from .filtration import (CanonicalLevel, ExplicitSubspace, InternalInvariantError,
                         _split, coaction, restrict, structure_constants)
from .linalg import Subspace, kernel, matmul_mod, matrank, solvable, sparse_kernel


class NotACComoduleError(ValueError):
    pass


class SubCoalgebra:
    """A finite-dimensional sub-coalgebra C of O(G), with structure constants.

    Stores the coproduct as lambda[k] giving Delta(b_k) = sum lambda^k_{ab}
    b_a (x) b_b, and the coordinates of the unit 1 in the basis.
    """

    def __init__(self, group: Group, monos, space: Subspace,
                 limits: Limits | None = None):
        limits = limits or Limits()
        self.group = group
        self.monos = list(monos)
        self.space = space
        self.index = {m: i for i, m in enumerate(self.monos)}
        check_limit(space.dim, limits.max_coalgebra_dim, "sub-coalgebra dimension")
        self.dim = space.dim
        self.x = ExplicitSubspace(group, self.monos, space)
        delta_matrix = structure_constants(group, self.monos, space)
        if delta_matrix is None:
            raise ValueError("the given subspace is not a sub-coalgebra")
        # delta_matrix: (s*s, s) with Delta(b_k) = sum_{a,b} D[a*s+b, k] b_a (x) b_b
        self.delta_matrix = delta_matrix
        self.unit = self.x.unit_coords()
        if self.unit is None:
            raise UnsupportedOperation("sub-coalgebra does not contain the unit")

    @staticmethod
    def canonical(group: Group, d: int, limits: Limits | None = None) -> "SubCoalgebra":
        """The level O(G)_{<=d}, refused before its basis is built when its
        closed-form dimension passes the sub-coalgebra ceiling."""
        check_limit(group.filtration_dim(d), (limits or Limits()).max_coalgebra_dim,
                    "sub-coalgebra dimension")
        monos = group.filtration_basis(d)
        return SubCoalgebra(group, monos, Subspace.full(len(monos), group.p),
                            limits=limits)

    def coefficient_blocks(self, m: Comodule) -> np.ndarray:
        """F^a, stacked, with Delta_M(m_i) = sum_{j,a} F^a[j,i] m_j (x) b_a.

        One split of M's coaction against C: F^a holds the coefficients of
        b_a's pivot monomial.  A coefficient outside C is reported at the
        first f_{ji} in `m.coeffs` order.
        """
        inside, outside, outside_row = _split(self.group, coaction(m), self.x, m.dim)
        if len(outside):
            r, i = np.nonzero(outside)
            bad = set(zip(outside_row[r].tolist(), i.tolist()))
            j, i = next(k for k in m.coeffs if k in bad)
            f = m.coeffs[(j, i)]
            stray = [self.group.mono_str(h) for h in f.coeffs if h not in self.index]
            raise NotACComoduleError(
                f"coefficient f[{j},{i}] = {f} is not in the sub-coalgebra"
                + (f" (monomial {stray[0]} outside the span)" if stray else ""))
        blocks = np.zeros((self.dim, m.dim, m.dim), dtype=np.int64)
        blocks[inside.leg, inside.row] = inside.rows
        return blocks


class ChainComplex:
    """Degrees 0..n_max with differentials d^n: CH^n -> CH^(n+1)."""

    def __init__(self, p: int, dims: list[int], diffs: list[np.ndarray]):
        self.p = p
        self.dims = dims          # dims of CH^0 .. CH^(n_max)
        self.diffs = diffs        # d^0 .. d^(n_max)
        self.n_max = len(dims) - 1
        for n in range(len(diffs) - 1):
            if np.any(matmul_mod(diffs[n + 1], diffs[n], p)):
                raise InternalInvariantError(f"d^{n + 1} after d^{n} is nonzero")


def _normalized_factors(c: SubCoalgebra, blocks: np.ndarray):
    """The coaction and the coproduct restricted to Cbar = ker(epsilon).

    C = k.1 + Cbar, with Cbar spanned by the RREF basis e_1..e_t of
    ker(epsilon), t = s - 1.  The Cbar-part b_a - epsilon(b_a).1 of b_a lies
    in ker(epsilon), so its coordinates are its entries at the pivots: no
    inverse is needed.
    Returns rho_bar, shape (m*t, m), whose row (j, r) holds the e_r-component
    of the coaction, and delta_bar, shape (t*t, t), the reduced coproduct
    Delta(e_k) - e_k (x) 1 - 1 (x) e_k = sum delta_bar[r*t+u, k] e_r (x) e_u.
    """
    p = c.group.p
    s = c.dim
    mm = blocks[0].shape[0]
    counit = np.array([c.group.counit_mono(mono) % p for mono in c.monos],
                      dtype=np.int64)
    eps = matmul_mod(c.space.basis, counit[:, None], p)[:, 0]
    kbar = kernel(eps[None, :], p)
    t, piv = kbar.dim, list(kbar.pivots)
    # each product multiplies two entries below p: exact in int64
    to_bar = (np.eye(s, dtype=np.int64)[piv] - np.outer(c.unit[piv], eps)) % p
    g = matmul_mod(to_bar, blocks.reshape(s, mm * mm), p)            # [r, j, i]
    rho_bar = g.reshape(t, mm, mm).transpose(1, 0, 2).reshape(mm * t, mm)
    x = matmul_mod(c.delta_matrix, kbar.basis.T, p)                  # [a, b, k]
    y = matmul_mod(to_bar, x.reshape(s, s * t), p)                   # [r, b, k]
    y = y.reshape(t, s, t).transpose(1, 0, 2).reshape(s, t * t)      # [b, r, k]
    z = matmul_mod(to_bar, y, p).reshape(t, t, t)                    # [u, r, k]
    return rho_bar, z.transpose(1, 0, 2).reshape(t * t, t)


def _add_kron(d: np.ndarray, left: int, a: np.ndarray, right: int, sign: int):
    """d += sign * (I_left (x) a (x) I_right), written at a's nonzero entries.

    The entries of one such term are distinct, so one fancy-index update is
    exact.
    """
    ar, ac = a.shape
    r, c = np.nonzero(a)
    outer = np.arange(left)[:, None, None]
    inner = np.arange(right)
    rows = (outer * ar + r[:, None]) * right + inner
    cols = (outer * ac + c[:, None]) * right + inner
    d[rows.ravel(), cols.ravel()] += sign * np.broadcast_to(a[r, c][:, None], rows.shape).ravel()


def cobar_complex(c: SubCoalgebra, m: Comodule, n_max: int,
                  limits: Limits | None = None) -> ChainComplex:
    """Build the normalized CH^0..CH^(n_max) with all differentials
    (including d^(n_max)).

    CH^n = M (x) Cbar^(x n) and d^n = rho_bar (x) I + sum_{i=1}^{n} (-1)^i
    I (x) delta_bar (x) I, written entry by entry into one array per degree.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    limits = limits or Limits()
    p = c.group.p
    s = c.dim
    mm = m.dim
    blocks = c.coefficient_blocks(m)
    # the ceiling stays on the full complex's top dimension m s^(n_max+1), so
    # a job is accepted or refused regardless of which complex is built
    check_limit(mm * s ** (n_max + 1), limits.max_chain_dim, "chain-group dimension")
    rho_bar, delta_bar = _normalized_factors(c, blocks)
    t = s - 1
    dims = [mm * t ** n for n in range(n_max + 2)]
    diffs = []
    for n in range(n_max + 1):
        d = np.zeros((dims[n + 1], dims[n]), dtype=np.int64)
        _add_kron(d, 1, rho_bar, t ** n, 1)
        for i in range(1, n + 1):
            _add_kron(d, mm * t ** (i - 1), delta_bar, t ** (n - i), (-1) ** i)
        diffs.append(d % p)
    return ChainComplex(p, dims[: n_max + 1], diffs)


def cohomology_dims(cx: ChainComplex) -> list[int]:
    """dim H^n for n = 0..n_max (exact: d^(n_max) is materialized)."""
    out = []
    prev_rank = 0
    for n in range(cx.n_max + 1):
        rank = matrank(cx.diffs[n], cx.p)
        out.append(cx.dims[n] - rank - prev_rank)
        prev_rank = rank
    return out


def _stage1_triples(blocks: np.ndarray, lam: np.ndarray):
    """The stage-1 system of all c at once, as (rows, cols, vals) triples.

    Row (c, k, j), column (a, i) holds delta_ak F^c[j, i] - lambda^k_{ac}
    delta_ji, with lambda^k_{ac} = lam[a*s+c, k]: the first term is written
    at the nonzeros of the F^c, one entry per k, the second at the nonzeros
    of lambda, one entry per j.  The two terms meet only on the keys with
    a = k and j = i; `sparse_kernel` sums them there, each in [0, p), so the
    sum stays below p in absolute value.
    """
    s, mm = blocks.shape[:2]
    ks, js = np.arange(s)[:, None], np.arange(mm)[:, None]
    c1, j, i = np.nonzero(blocks)
    ac, k = np.nonzero(lam)
    a, c2 = np.divmod(ac, s)
    rows = np.concatenate([((c1 * s + ks) * mm + j).ravel(),
                           ((c2 * s + k) * mm + js).ravel()])
    cols = np.concatenate([(ks * mm + i).ravel(), (a * mm + js).ravel()])
    vals = np.concatenate([np.tile(blocks[c1, j, i], s), -np.tile(lam[ac, k], mm)])
    return rows, cols, vals


def injective_test(c: SubCoalgebra, m: Comodule,
                   limits: Limits | None = None) -> bool:
    """Does the embedding Delta_M: M -> M^triv (x) C split by a comodule map?"""
    limits = limits or Limits()
    p = c.group.p
    s = c.dim
    mm = m.dim
    if mm == 0:
        return True
    check_limit(s * mm, limits.max_solver_unknowns, "retraction system unknowns")
    blocks = c.coefficient_blocks(m)
    lam = c.delta_matrix  # (s*s, s): lambda^k_{ab} = lam[a*s+b, k]
    # stage 1: the space W of comodule maps phi: C -> M,
    # phi(b_k) = v^k with F^c v^k = sum_a lambda^k_{ac} v^a for all c, k
    w = sparse_kernel(*_stage1_triples(blocks, lam), s * mm, p)
    t = w.dim
    if t == 0:
        return False
    check_limit(t * mm, limits.max_solver_unknowns, "retraction system unknowns")
    # stage 2: columns of the retraction are combinations of W's basis maps;
    # solve sum_a S^a F^a = I for the combination coefficients
    # P[u, r, j, i] = sum_a phi_u(b_a)[r] F^a[j, i]; equation (r, i), unknown (u, j)
    phis = w.basis.reshape(t, s, mm).transpose(0, 2, 1).reshape(t * mm, s)
    prod = matmul_mod(phis, blocks.reshape(s, mm * mm), p)
    mat = prod.reshape(t, mm, mm, mm).transpose(1, 3, 0, 2).reshape(mm * mm, t * mm)
    rhs = np.eye(mm, dtype=np.int64).reshape(-1)
    return solvable(mat, rhs, p)


def injectivity_profile(g: Group, m, d_max: int,
                        limits: Limits | None = None) -> list[bool]:
    """Levelwise injectivity of M_X over X = O(G)_{<=d}, its own closure."""
    limits = limits or Limits()
    out = []
    for d in range(d_max + 1):
        c = SubCoalgebra.canonical(g, d, limits=limits)
        target = m.generate(m.sufficiency(d)) if isinstance(m, StreamModule) else m
        level = restrict(target, CanonicalLevel(g, d)).comodule
        out.append(injective_test(c, level, limits=limits))
    return out
