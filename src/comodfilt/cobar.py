"""Cobar complexes of finite-dimensional sub-coalgebras and injectivity tests.

Cohomology is computed on the normalized cobar complex CH^n(C, M) =
M (x) Cbar^(x n), where Cbar = ker(epsilon) and C = k.1 + Cbar.  Its
differential is d^n = rho_bar (x) I + sum_{i=1}^{n} (-1)^i I (x) delta_bar (x) I:
rho_bar is the coaction followed by the projection C -> Cbar, delta_bar the
reduced coproduct Delta(x) - x (x) 1 - 1 (x) x on the i-th tensor factor.  There
is no unit face.  It has dimension m (s-1)^n instead of the m s^n of the full
complex M (x) C^(x n), and computes the same Ext_C(k, M) (Ravenel, Complex
Cobordism and Stable Homotopy Groups of Spheres, App. A1).  Two identities
cut it into small pieces.  Delta keeps each monomial's block degree, so C is
the direct sum of its blocks, and Ext_C(k, M) = Ext_{C0}(k, M_{C0}) with C0
the unit's block and M_{C0} = restrict(M, C0).  Delta, epsilon and the
coaction add torus weights, so every d^n is block diagonal by total weight.
`cobar_complex` checks, in order: that M is a C-comodule (over the whole
level), the chain-dimension ceiling (on the full complex), that C's basis
vectors are block-homogeneous (else C0 = C), and that C0's and Cbar's basis
vectors are weight-homogeneous and M's weights, read off its coaction, are
consistent (else one weight block).  Either fallback gives the same ranks.
Each d^n is emitted as (row, col, value) triples, which must join basis
vectors of equal weight, and is kept as one dense array per weight block;
d o d = 0 is checked and the ranks are taken block by block.

Injectivity of a C-comodule M is decided by solvability of the retraction
system for the canonical embedding M -> M^{triv} (x) C, solved in two
stages.  Stage 1 finds the space W of comodule maps C -> M: its equations
are I_s (x) F - L (x) I_m, from the coaction blocks F and the structure
constants L, emitted as (row, col, value) triples by `_kron_triples` as the
cobar differentials are, and `sparse_kernel` peels the rows that force one
unknown to 0 before it eliminates the small dense core that remains.
Stage 2 solves the normalization sum_a S^a F^a = I inside W for weight-0
retractions only: every structure map has torus weight 0, so M
splits off M^{triv} (x) C iff a weight-0 retraction splits it.  W's RREF
basis is weight-homogeneous, each map having the weight of its pivot; the
unknowns kept pair a map with a basis vector of M of its own weight, the
equations kept join two basis vectors of equal weight, and the dropped
equations must vanish on the kept unknowns.  When a basis vector of C mixes
weights or M's weights are inconsistent, all of M is one weight class: the
unsplit system.  Every canonical level O(G)_{<=d} is a sub-coalgebra, so it
is its own closure: the injectivity profile tests each level itself, and a
level whose closed-form dimension passes the sub-coalgebra ceiling is
refused before it is built.
"""

from __future__ import annotations

import numpy as np

from .comodules import Comodule, StreamModule
from .config import Limits, check_limit
from .coordalg import Group, UnsupportedOperation
from .filtration import (CanonicalLevel, ExplicitSubspace, InternalInvariantError,
                         _split, coaction, restrict, structure_constants)
from .linalg import (Subspace, kernel, matmul_mod, matrank, solvable, sparse_kernel,
                     stacked_matmul_mod)


class NotACComoduleError(ValueError):
    pass


class SubCoalgebra(ExplicitSubspace):
    """A finite-dimensional sub-coalgebra C of O(G), with structure constants.

    It is its own filtration level X: `restrict(m, c)` gives M_C.  Stores the
    coproduct as lambda[k] giving Delta(b_k) = sum lambda^k_{ab} b_a (x) b_b,
    and the coordinates of the unit 1 in the basis.
    """

    def __init__(self, group: Group, monos, space: Subspace,
                 limits: Limits | None = None):
        check_limit(space.dim, (limits or Limits()).max_coalgebra_dim,
                    "sub-coalgebra dimension")
        super().__init__(group, monos, space)
        self.index = {m: i for i, m in enumerate(self.monos)}
        self.dim = space.dim
        # (s*s, s) with Delta(b_k) = sum_{a,b} D[a*s+b, k] b_a (x) b_b
        self.delta_matrix = structure_constants(group, self.monos, space)
        if self.delta_matrix is None:
            raise ValueError("the given subspace is not a sub-coalgebra")
        self.unit = self.unit_coords()
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
        inside, outside, outside_row = _split(self.group, coaction(m), self, m.dim)
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


class BlockComplex:
    """A direct sum of ChainComplexes, one per torus-weight block, each with
    its own d o d = 0 check; `dims` and `diffs` run over all blocks."""

    def __init__(self, p: int, n_max: int, parts: list[ChainComplex]):
        self.p = p
        self.n_max = n_max
        self.parts = parts
        self.dims = [sum(cx.dims[n] for cx in parts) for n in range(n_max + 1)]

    @property
    def diffs(self) -> list[np.ndarray]:
        return [d for cx in self.parts for d in cx.diffs]


def _normalized_factors(c: SubCoalgebra, blocks: np.ndarray):
    """The coaction and the coproduct restricted to Cbar = ker(epsilon).

    C = k.1 + Cbar, with Cbar spanned by the RREF basis e_1..e_t of
    ker(epsilon), t = s - 1.  The Cbar-part b_a - epsilon(b_a).1 of b_a lies
    in ker(epsilon), so its coordinates are its entries at the pivots: no
    inverse is needed.
    Returns rho_bar, shape (m*t, m), whose row (j, r) holds the e_r-component
    of the coaction, delta_bar, shape (t*t, t), the reduced coproduct
    Delta(e_k) - e_k (x) 1 - 1 (x) e_k = sum delta_bar[r*t+u, k] e_r (x) e_u,
    and the e_r in C's basis, shape (t, s).
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
    return rho_bar, z.transpose(1, 0, 2).reshape(t * t, t), kbar.basis


def _row_codes(rows: np.ndarray, codes: np.ndarray):
    """The code shared by the support of each row, or None if a row mixes codes."""
    r, k = rows.nonzero()
    out = np.zeros(len(rows), dtype=np.int64)
    out[r] = codes[k]
    return out if (out[r] == codes[k]).all() else None


def _unit_block(c: SubCoalgebra, limits: Limits) -> SubCoalgebra:
    """C0, the span of C's basis vectors in the unit's block: C itself when
    that is all of C or when a basis vector mixes blocks."""
    g = c.group
    blocks = _row_codes(c.space.basis, np.array([g.block(x) for x in c.monos], dtype=np.int64))
    if blocks is None or not blocks.any():
        return c
    rows = c.space.basis[blocks == 0]
    cols = np.flatnonzero(rows.any(axis=0))
    return SubCoalgebra(g, [c.monos[k] for k in cols],
                        Subspace.from_rows(rows[:, cols], len(cols), g.p), limits)


def _module_codes(blocks: np.ndarray, code_b: np.ndarray):
    """Weight codes of M's basis with wt(i) = wt(j) + wt(b_a) at every nonzero
    F^a[j, i], each connected piece of M started at 0; None on a conflict."""
    mm = blocks.shape[1]
    nbrs: list[list] = [[] for _ in range(mm)]
    a, j, i = np.nonzero(blocks)
    for u, v, w in zip(j.tolist(), i.tolist(), code_b[a].tolist()):
        nbrs[u].append((v, w))
        nbrs[v].append((u, -w))
    wt = [None] * mm
    for start in range(mm):
        if wt[start] is None:
            wt[start], stack = 0, [start]
            while stack:
                u = stack.pop()
                for v, w in nbrs[u]:
                    if wt[v] is None:
                        wt[v] = wt[u] + w
                        stack.append(v)
                    elif wt[v] != wt[u] + w:
                        return None
    return np.array(wt, dtype=np.int64)


def _weight_codes(c: SubCoalgebra, blocks: np.ndarray, terms: int):
    """Torus-weight codes of M's basis and of C's basis b_a.

    A weight w is coded as sum_k w_k R^k, which adds as w does.  M's weights
    come from a walk of at most m - 1 steps of C's, so every sum of one
    weight of M and `terms` weights of C's basis vectors has |w_k| < R/2,
    and the code is injective there.  When a basis vector of C mixes weights
    or M's walk is inconsistent, every code is 0: one weight class.
    """
    mm = blocks.shape[1]
    mono_w = np.array([c.group.weight(x) for x in c.monos], dtype=np.int64)
    radix = 2 * (mm - 1 + terms) * int(np.abs(mono_w).max(initial=0)) + 1
    code_m = code_b = None
    if radix ** mono_w.shape[1] < 2 ** 62:
        code_b = _row_codes(c.space.basis, mono_w @ radix ** np.arange(mono_w.shape[1]))
        code_m = None if code_b is None else _module_codes(blocks, code_b)
    if code_m is None:
        return np.zeros(mm, dtype=np.int64), np.zeros(c.dim, dtype=np.int64)
    return code_m, code_b


def _kron_triples(left: int, a: np.ndarray, right: int, sign: int):
    """(rows, cols, vals) of sign * (I_left (x) a (x) I_right) at a's nonzeros."""
    ar, ac = a.shape
    r, c = np.nonzero(a)
    outer = np.arange(left)[:, None, None]
    inner = np.arange(right)
    rows = (outer * ar + r[:, None]) * right + inner
    cols = (outer * ac + c[:, None]) * right + inner
    vals = np.broadcast_to(sign * a[r, c][:, None], rows.shape)
    return rows.ravel(), cols.ravel(), vals.ravel()


def cobar_complex(c: SubCoalgebra, m: Comodule, n_max: int,
                  limits: Limits | None = None) -> BlockComplex:
    """The normalized CH^0..CH^(n_max) over C0 and M_{C0}, with all
    differentials (including d^(n_max)), one ChainComplex per weight block.

    CH^n = M (x) Cbar^(x n) and d^n = rho_bar (x) I + sum_{i=1}^{n} (-1)^i
    I (x) delta_bar (x) I, emitted as (row, col, value) triples; every entry
    must join two basis vectors of equal weight.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    limits = limits or Limits()
    p = c.group.p
    blocks = c.coefficient_blocks(m)
    # the ceiling stays on the full complex's top dimension m s^(n_max+1), so
    # a job is accepted or refused regardless of which complex is built
    check_limit(m.dim * c.dim ** (n_max + 1), limits.max_chain_dim, "chain-group dimension")
    c0 = _unit_block(c, limits)
    if c0 is not c:
        blocks = c0.coefficient_blocks(restrict(m, c0).comodule)
    rho_bar, delta_bar, kbar = _normalized_factors(c0, blocks)
    mm, t = blocks.shape[1], c0.dim - 1
    # a basis vector of CH^(n_max+1) has one weight of M and n_max + 1 of Cbar
    code_m, code_b = _weight_codes(c0, blocks, n_max + 1)
    code_e = _row_codes(kbar, code_b)
    if code_e is None:
        code_m, code_e = np.zeros(mm, dtype=np.int64), np.zeros(t, dtype=np.int64)
    codes = [code_m]  # the weight code of each basis vector of CH^n
    for _ in range(n_max + 1):
        codes.append((codes[-1][:, None] + code_e).ravel())
    # block label of each basis vector, its position in its block, block sizes
    keys, label = np.unique(np.concatenate(codes), return_inverse=True)
    label = np.split(label, np.cumsum([len(x) for x in codes])[:-1])
    sizes = [np.bincount(x, minlength=len(keys)) for x in label]
    local = []
    for x, size in zip(label, sizes):
        order = np.argsort(x, kind="stable")
        pos = np.empty_like(x)
        pos[order] = np.arange(len(x)) - (np.cumsum(size) - size)[x[order]]
        local.append(pos)
    diffs = []
    for n in range(n_max + 1):
        terms = [_kron_triples(1, rho_bar, t ** n, 1)] + [
            _kron_triples(mm * t ** (i - 1), delta_bar, t ** (n - i), (-1) ** i)
            for i in range(1, n + 1)]
        rows, cols, vals = (np.concatenate(x) for x in zip(*terms))
        blk = label[n][cols]
        if np.any(label[n + 1][rows] != blk):
            raise InternalInvariantError(
                f"d^{n} joins basis vectors of unequal torus weight")
        # block b of d^n fills cells offset[b] .. offset[b] + cells[b] of one buffer
        cells = sizes[n + 1] * sizes[n]
        offset = np.cumsum(cells) - cells
        flat = np.zeros(int(cells.sum()), dtype=np.int64)
        np.add.at(flat, offset[blk] + local[n + 1][rows] * sizes[n][blk] + local[n][cols], vals)
        flat %= p
        diffs.append([flat[o:o + size].reshape(nr, nc) for o, size, nr, nc
                      in zip(offset, cells, sizes[n + 1], sizes[n])])
    parts = [ChainComplex(p, [int(sizes[n][b]) for n in range(n_max + 1)],
                          [diffs[n][b] for n in range(n_max + 1)])
             for b in range(len(keys)) if any(sizes[n][b] for n in range(n_max + 1))]
    return BlockComplex(p, n_max, parts)


def cohomology_dims(cx) -> list[int]:
    """dim H^n for n = 0..n_max (exact: d^(n_max) is materialized), summed
    over the parts of a BlockComplex."""
    out = [0] * (cx.n_max + 1)
    for part in getattr(cx, "parts", [cx]):
        prev_rank = 0
        for n in range(cx.n_max + 1):
            rank = matrank(part.diffs[n], cx.p)
            out[n] += part.dims[n] - rank - prev_rank
            prev_rank = rank
    return out


def _stage1_triples(blocks: np.ndarray, lam: np.ndarray):
    """The stage-1 system of all c at once, as (rows, cols, vals) triples.

    Row (c, k, j), column (a, i) holds delta_ak F^c[j, i] - lambda^k_{ac}
    delta_ji.  With rows taken as (k, c, j) that is I_s (x) F - L (x) I_m,
    F = blocks.reshape(s*m, m) and L[(k, c), a] = lambda^k_{ac} =
    lam[a*s+c, k], emitted by `_kron_triples`; the rows are then renumbered
    back to (c, k, j).  The two terms meet only on the keys with a = k and
    j = i; `sparse_kernel` sums them there.
    """
    s, mm = blocks.shape[:2]
    lk = lam.reshape(s, s, s).transpose(2, 1, 0).reshape(s * s, s)
    rows, cols, vals = (np.concatenate(x) for x in zip(
        _kron_triples(s, blocks.reshape(s * mm, mm), 1, 1), _kron_triples(1, lk, mm, -1)))
    k, c, j = np.unravel_index(rows, (s, s, mm))
    return (c * s + k) * mm + j, cols, vals


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
    # stage 2: a retraction sends m_j (x) b_a to psi_j(b_a), psi_j = sum_u
    # X[u, j] phi_u in W, and needs sum_{j,a} F^a[j, i] psi_j(b_a) = m_i:
    # unknown (u, j) is X[u, j], equation (r, i) the m_r-coordinate of m_i's
    # image.  Every structure map has weight 0, so the weight-0 part of a
    # retraction is one: keep the unknowns with wt(phi_u) = wt(m_j) and the
    # equations with wt(m_r) = wt(m_i); the others join unequal weights
    code_m, code_b = _weight_codes(c, blocks, 1)
    # W's RREF basis is weight-homogeneous: phi_u has the weight
    # wt(m_i) - wt(b_a) of its pivot column (a, i)
    code_u = (code_m - code_b[:, None]).ravel()[list(w.pivots)]
    u, j = np.nonzero(code_u[:, None] == code_m)
    # P[k, r, i] = sum_a phi_u(b_a)[r] F^a[j, i] for the kept unknown k = (u, j)
    phis = w.basis.reshape(t, s, mm).transpose(0, 2, 1)                 # [u, r, a]
    prod = stacked_matmul_mod(phis[u], blocks.transpose(1, 0, 2)[j], p)  # [k, r, i]
    prod = prod.reshape(len(u), mm * mm)
    kept = (code_m[:, None] == code_m).ravel()
    if prod[:, ~kept].any():
        raise InternalInvariantError(
            f"stage 2 of the retraction solve: an equation joining unequal torus "
            f"weights is nonzero on a kept unknown (level dimension {mm})")
    return solvable(prod[:, kept].T, np.eye(mm, dtype=np.int64).reshape(-1)[kept], p)


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
