"""Cobar complexes of finite-dimensional sub-coalgebras and injectivity tests.

Cohomology is computed on the normalized cobar complex CH^n(C, M) =
M (x) Cbar^(x n), where Cbar = C/k.1 is the unit coideal.  Its differential
is d^n = rho_bar (x) I + sum_{i=1}^{n} (-1)^i I (x) delta_bar (x) I: rho_bar
is the coaction followed by the projection C -> Cbar, delta_bar the reduced
coproduct Delta(x) - x (x) 1 - 1 (x) x on the i-th tensor factor, both read
off F's and D's entries.  There is no unit face.  It has dimension m (s-1)^n
instead of the m s^n of the full complex M (x) C^(x n), and computes the
same Ext_C(k, M) (Ravenel, Complex Cobordism and Stable Homotopy Groups of
Spheres, App. A1).  Two identities
cut it into small pieces.  Delta keeps each monomial's block degree, so C is
the direct sum of its blocks, and Ext_C(k, M) = Ext_{C0}(k, M_{C0}) with C0
the unit's block and M_{C0} = restrict(M, C0).  Delta, epsilon and the
coaction add torus weights, so every d^n is block diagonal by total weight.
`cobar_complex` checks, in order: that M is a C-comodule (over the whole
level), the chain-dimension ceiling (on the full complex), that C's basis
vectors are block-homogeneous (else C0 = C), and that C0's basis vectors
are weight-homogeneous and M's weights, read off its coaction, are
consistent (else one weight class).  Either fallback gives the same ranks.
Each d^n is kept as its summed (row, col, value) triples, which must join
basis vectors of equal weight; d o d = 0 is checked by joining the triples
of d^(n+1) and d^n on the middle index, and each rank is taken by one row
peel and a sparse elimination of the core it leaves, which never mixes two
weight classes.

Injectivity of a C-comodule M is decided by solvability of the retraction
system for the canonical embedding M -> M^{triv} (x) C, solved in two
stages.  Stage 1 finds the space W of comodule maps C -> M: its equations
are I_s (x) F - L (x) I_m, from the coaction blocks F and the structure
constants L, emitted as (row, col, value) triples by `_kron_triples` as the
cobar differentials are, and `sparse_kernel` peels the rows that force one
unknown to 0 before it eliminates the sparse core that remains.
Stage 2 solves the normalization sum_a S^a F^a = I inside W, as one
(m^2, t m) system for t = dim W.  Its triples join the nonzeros (u, a, r) of
W's basis with those (a, j, i) of F on a, each product reduced mod p, and
`sparse_solvable` decides them with `sparse_kernel`'s peel and one sparse
elimination of the core it leaves.  Every canonical level O(G)_{<=d} is a
sub-coalgebra, so it is its own closure, and its basis is a prefix of every
higher level's.  The injectivity profile builds one SubCoalgebra, the highest
level within the sub-coalgebra ceiling, and slices each level C_d from it
with the certificate the `closure` ladder uses (`filtration._prefix_level`:
C_d's monomials are exactly those of degree <= d, and its structure
constants have no leg outside it); a level that fails it is an
InternalInvariantError.  `restrict(M, C_d)` is the level's one split of M,
and the solve reads its blocks.  A level whose closed-form dimension passes
the ceiling is refused before it is sliced.

Over a unipotent group (Ga, U(N)) the profile solves nothing.  O(G) has
coradical k.1 (Waterhouse, Introduction to Affine Group Schemes, 8.3), so
every level C = O(G)_{<=d} is a connected coalgebra: k is its only simple
comodule, and C is the injective hull of k.  A finite-dimensional
C-comodule N is an essential extension of its socle N^C, so it embeds in
the injective hull N^C (x) C of that socle, and it is injective iff the
embedding is onto (Jantzen, Representations of Algebraic Groups, I.3):
iff dim N = dim N^C dim C.  For N = M_{<=d}, N^C = M^G = M_{<=0}, since
every invariant lies in every level.  So level d is injective iff
dim M_{<=d} = dim M_{<=0} filtration_dim(d), two dimensions `restrict`
gives, with no `SubCoalgebra`, no M_X comodule and no retraction solve,
so the sub-coalgebra ceiling does not apply there.
"""

from __future__ import annotations

import numpy as np

from .comodules import Comodule, StreamModule
from .config import Limits, check_limit
from .coordalg import Group, UnsupportedOperation
from .filtration import (CanonicalLevel, ExplicitSubspace, InternalInvariantError,
                         RestrictResult, _part, _prefix_level, _split, coaction, restrict,
                         structure_constants)
# kernel and matrank stay bound here: bench/test_bench.py checks the tracer wraps them
from .linalg import (Subspace, eliminate, join, kernel, matrank,  # noqa: F401
                     peel, sparse_kernel, sparse_solvable, sum_duplicates)


class NotACComoduleError(ValueError):
    pass


class SubCoalgebra(ExplicitSubspace):
    """A finite-dimensional sub-coalgebra C of O(G), with structure constants.

    It is its own filtration level X: `restrict(m, c)` gives M_C.  Stores the
    nonzero structure constants (a, b, k, lambda^k_{ab}) of Delta(b_k) = sum
    lambda^k_{ab} b_a (x) b_b, and the coordinates of the unit 1 in the
    basis: a standard basis vector, as 1 is a monomial.
    """

    def __init__(self, group: Group, monos, space: Subspace, limits: Limits = Limits()):
        check_limit(space.dim, limits.max_coalgebra_dim, "sub-coalgebra dimension")
        super().__init__(group, monos, space)
        self._set_constants(structure_constants(group, self.monos, space))

    @classmethod
    def _with_constants(cls, group: Group, monos, space: Subspace, delta_matrix):
        """A sub-coalgebra whose structure constants the caller already holds."""
        c = cls.__new__(cls)
        ExplicitSubspace.__init__(c, group, monos, space)
        c._set_constants(delta_matrix)
        return c

    def _set_constants(self, delta_matrix):
        self.index = {m: i for i, m in enumerate(self.monos)}
        self.dim = self.space.dim
        self.delta_matrix = delta_matrix
        if self.delta_matrix is None:
            raise ValueError("the given subspace is not a sub-coalgebra")
        self.unit = self.unit_coords()
        if self.unit is None:
            raise UnsupportedOperation("sub-coalgebra does not contain the unit")

    @staticmethod
    def canonical(group: Group, d: int, limits: Limits = Limits()) -> "SubCoalgebra":
        """The level O(G)_{<=d}, refused before its basis is built when its
        closed-form dimension passes the sub-coalgebra ceiling."""
        check_limit(group.filtration_dim(d), limits.max_coalgebra_dim, "sub-coalgebra dimension")
        monos = group.filtration_basis(d)
        return SubCoalgebra(group, monos, Subspace.full(len(monos), group.p), limits)

    def coefficient_blocks(self, m: Comodule):
        """The nonzero entries (a, j, i, value) of the F^a, sorted by (a, j, i),
        with Delta_M(m_i) = sum_{j,a} F^a[j,i] m_j (x) b_a.

        One split of M's coaction against C: F^a holds the coefficients of
        b_a's pivot monomial.  A coefficient outside C is reported at the
        first f_{ji} in `m.coeffs` order.
        """
        inside, (r, i, _) = _split(self.group, coaction(m), self, m.dim)
        if r.size:
            bad = set(zip((r % m.dim).tolist(), i.tolist()))
            j, i = next(k for k in m.coeffs if k in bad)
            f = m.coeffs[(j, i)]
            stray = [self.group.mono_str(h) for h in f.coeffs if h not in self.index]
            raise NotACComoduleError(
                f"coefficient f[{j},{i}] = {f} is not in the sub-coalgebra"
                + (f" (monomial {stray[0]} outside the span)" if stray else ""))
        f = np.stack([inside.leg, inside.row, inside.col, inside.val])
        return f[:, np.lexsort(f[2::-1])]


class ChainComplex:
    """Degrees 0..n_max of a cochain complex over F_p, with d^0 .. d^(n_max).

    codes[n] is the weight class of each basis vector of CH^n, up to
    n_max + 1, and diffs[n] the (row, col, value) triples of d^n, kept summed
    mod p as one (3, nnz) array sorted by row, then column.  Every entry must
    join basis vectors of one class, and d^(n+1) d^n = 0: its products,
    joined on the middle index, must sum to nothing.
    """

    def __init__(self, p: int, codes: list[np.ndarray], diffs):
        self.p, self.codes, self.diffs = p, codes, []
        self.dims = [len(x) for x in codes[:-1]]  # dims of CH^0 .. CH^(n_max)
        width = [max(dim, 1) for dim in self.dims]
        for n, (rows, cols, vals) in enumerate(diffs):
            key, vals = sum_duplicates(np.asarray(rows) * width[n] + cols, vals, p)
            rows, cols = np.divmod(key, width[n])
            if np.any(codes[n + 1][rows] != codes[n][cols]):
                raise InternalInvariantError(
                    f"d^{n} joins basis vectors of unequal torus weight")
            self.diffs.append(np.stack([rows, cols, vals]))
        for n, ((rows, mid, vals), (mid0, cols, vals0)) in enumerate(
                zip(self.diffs[1:], self.diffs)):
            x, y = join(mid, mid0)
            if sum_duplicates(rows[x] * width[n] + cols[y], vals[x] * vals0[y] % p, p)[0].size:
                raise InternalInvariantError(f"d^{n + 1} after d^{n} is nonzero")


def _normalized_factors(c: SubCoalgebra, f, mm: int):
    """The entries (row, col, value) of rho_bar, shape (m*t, m), and of
    delta_bar, shape (t*t, t), over Cbar = C/k.1 with t = s - 1, and u.

    The unit is C's RREF basis vector b_u: 1 is a monomial, so its column is
    a pivot and the row pivoted there is 1 itself.  The other b_a, in order,
    are Cbar's basis e_0..e_{t-1}, and C -> Cbar drops b_u.  Row (j, r) of
    rho_bar, the e_r-component of the coaction, is F's entries (a, j, i)
    off a = u, and delta_bar[r*t+w, k], the coefficient of e_r (x) e_w in
    Delta_bar(e_k), D's entries off u: that drops b_k (x) 1 and 1 (x) b_k.
    """
    u, t = int(np.flatnonzero(c.unit)[0]), c.dim - 1
    bar = np.arange(c.dim)  # the image of b_a, a != u, is e_{bar[a]}
    bar[u + 1:] -= 1
    fa, fj, fi, fv = f
    a, b, k, v = c.delta_matrix
    on, off = fa != u, (a != u) & (b != u) & (k != u)
    return (((fj * t + bar[fa])[on], fi[on], fv[on]),
            ((bar[a] * t + bar[b])[off], bar[k][off], v[off]), u)


def _row_codes(rows: np.ndarray, codes: np.ndarray):
    """The code shared by the support of each row, or None if a row mixes codes."""
    r, k = rows.nonzero()
    out = np.zeros(len(rows), dtype=np.int64)
    out[r] = codes[k]
    return out if (out[r] == codes[k]).all() else None


def _unit_block(c: SubCoalgebra, limits: Limits) -> SubCoalgebra:
    """C0, the span of C's basis vectors in the unit's block: C itself when
    that is all of C or when a basis vector mixes blocks.  Delta keeps the
    block, so a coproduct leg outside it is an InternalInvariantError."""
    blocks = _row_codes(c.space.basis, np.array([c.group.block(h) for h in c.monos], np.int64))
    if blocks is None or not blocks.any():
        return c
    check_limit(int((blocks == 0).sum()), limits.max_coalgebra_dim, "sub-coalgebra dimension")
    if (part := _part(c, c.delta_matrix, blocks == 0)) is None:
        raise InternalInvariantError("the coproduct of the unit block leaves it")
    return SubCoalgebra._with_constants(c.group, *part)


def _module_codes(f, mm: int, code_b: np.ndarray):
    """Weight codes of M's basis with wt(i) = wt(j) + wt(b_a) at every entry
    (a, j, i, value) of F, each connected piece of M started at 0; None on a
    conflict."""
    nbrs: list[list] = [[] for _ in range(mm)]
    a, j, i, _ = f
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


def _weight_codes(c: SubCoalgebra, f, mm: int, terms: int):
    """Torus-weight codes of M's basis and of C's basis b_a, from F's entries.

    A weight w is coded as sum_k w_k R^k, which adds as w does.  M's weights
    come from a walk of at most m - 1 steps of C's, so every sum of one
    weight of M and `terms` weights of C's basis vectors has |w_k| < R/2,
    and the code is injective there.  When a basis vector of C mixes weights
    or M's walk is inconsistent, every code is 0: one weight class.
    """
    mono_w = np.array([c.group.weight(x) for x in c.monos], dtype=np.int64)
    radix = 2 * (mm - 1 + terms) * int(np.abs(mono_w).max(initial=0)) + 1
    code_m = code_b = None
    if radix ** mono_w.shape[1] < 2 ** 62:
        code_b = _row_codes(c.space.basis, mono_w @ radix ** np.arange(mono_w.shape[1]))
        code_m = None if code_b is None else _module_codes(f, mm, code_b)
    if code_m is None:
        return np.zeros(mm, dtype=np.int64), np.zeros(c.dim, dtype=np.int64)
    return code_m, code_b


def _kron_triples(left: int, shape, entries, right: int, sign: int):
    """(rows, cols, vals) of sign * (I_left (x) a (x) I_right), for the matrix
    a of the given shape with the nonzero entries (row, col, value)."""
    ar, ac = shape
    r, c, v = entries
    outer = np.arange(left)[:, None, None]
    inner = np.arange(right)
    rows = (outer * ar + r[:, None]) * right + inner
    cols = (outer * ac + c[:, None]) * right + inner
    vals = np.zeros(rows.shape, dtype=np.int64) + sign * v[:, None]
    return rows.ravel(), cols.ravel(), vals.ravel()


def cobar_complex(c: SubCoalgebra, m: Comodule, n_max: int,
                  limits: Limits = Limits()) -> ChainComplex:
    """The normalized CH^0..CH^(n_max) over C0 and M_{C0}, with all
    differentials (including d^(n_max)), each basis vector coded by weight.

    CH^n = M (x) Cbar^(x n) and d^n = rho_bar (x) I + sum_{i=1}^{n} (-1)^i
    I (x) delta_bar (x) I, emitted as (row, col, value) triples; every entry
    must join two basis vectors of equal weight.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p = c.group.p
    f = c.coefficient_blocks(m)
    # the ceiling stays on the full complex's top dimension m s^(n_max+1), so
    # a job is accepted or refused regardless of which complex is built
    check_limit(m.dim * c.dim ** (n_max + 1), limits.max_chain_dim, "chain-group dimension")
    c0 = _unit_block(c, limits)
    if c0 is not c:
        f = (m := restrict(m, c0)).blocks
    mm, t = m.dim, c0.dim - 1
    rho, delta, u = _normalized_factors(c0, f, mm)
    # a basis vector of CH^(n_max+1) has one weight of M and n_max + 1 of Cbar
    code_m, code_b = _weight_codes(c0, f, mm, n_max + 1)
    code_e = np.delete(code_b, u)
    codes = [code_m]  # the weight code of each basis vector of CH^n
    for _ in range(n_max + 1):
        codes.append((codes[-1][:, None] + code_e).ravel())
    diffs = []
    for n in range(n_max + 1):
        terms = [_kron_triples(1, (mm * t, mm), rho, t ** n, 1)] + [
            _kron_triples(mm * t ** (i - 1), (t * t, t), delta, t ** (n - i), (-1) ** i)
            for i in range(1, n + 1)]
        diffs.append([np.concatenate(x) for x in zip(*terms)])
    return ChainComplex(p, codes, diffs)


def cohomology_dims(cx: ChainComplex) -> list[int]:
    """dim H^n for n = 0..n_max (exact: d^(n_max) is kept).  rank d^n is the
    number of columns that `peel` kills plus the pivots of the sparse
    elimination of the core it leaves; d^n joins basis vectors of one weight
    class only, so no elimination step mixes two classes."""
    ranks = []
    for n, (rows, cols, vals) in enumerate(cx.diffs):
        core, live = peel(rows, cols, vals, cx.dims[n], cx.p)
        ranks.append(cx.dims[n] - live.size + len(eliminate(*core, cx.p)))
    return [dim - rank - prev for dim, rank, prev in zip(cx.dims, ranks, [0] + ranks)]


def _stage1_triples(f, mm: int, lam, s: int):
    """The stage-1 system of all c at once, as (rows, cols, vals) triples,
    from F's entries (a, j, i, value) and the entries (a, c, k, value) of
    the structure constants lambda^k_{ac} of C, s = dim C.

    Row (c, k, j), column (a, i) holds delta_ak F^c[j, i] - lambda^k_{ac}
    delta_ji.  With rows taken as (k, c, j) that is I_s (x) F - L (x) I_m,
    F the (s*m, m) stack of the F^a, and L[(k, c), a] = lambda^k_{ac},
    emitted by `_kron_triples`; the rows are then renumbered back to
    (c, k, j).  The two terms meet only on the keys with a = k and j = i;
    `sparse_kernel` sums them there.
    """
    a, j, i, v = f
    la, lc, lk, lv = lam
    rows, cols, vals = (np.concatenate(x) for x in zip(
        _kron_triples(s, (s * mm, mm), (a * mm + j, i, v), 1, 1),
        _kron_triples(1, (s * s, s), (lk * s + lc, la, lv), mm, -1)))
    k, c, j = np.unravel_index(rows, (s, s, mm))
    return (c * s + k) * mm + j, cols, vals


def _stage2_terms(basis: np.ndarray, f, mm: int, p: int):
    """Every product phi_u(b_a)[r] F^a[j, i] of a nonzero basis[u, a*m + r]
    of W's basis and a nonzero of F on the same a, reduced mod p, as
    (u*m + j, r*m + i, value).  F's entries (a, j, i, value) are sorted by a."""
    fa, fj, fi, fv = f
    wu, wc = basis.nonzero()
    wa, wr = np.divmod(wc, mm)
    x, y = join(wa, fa)
    return ((wu * mm)[x] + fj[y], (wr * mm)[x] + fi[y],
            basis[wu, wc][x] * fv[y] % p)


def injective_test(c: SubCoalgebra, m, limits: Limits = Limits()) -> bool:
    """Does the embedding Delta_M: M -> M^triv (x) C split by a comodule map?
    M is a Comodule or a RestrictResult whose `blocks` are over C's basis."""
    p = c.group.p
    s = c.dim
    mm = m.dim
    if mm == 0:
        return True
    check_limit(s * mm, limits.max_solver_unknowns, "retraction system unknowns")
    f = m.blocks if isinstance(m, RestrictResult) else c.coefficient_blocks(m)
    # stage 1: the space W of comodule maps phi: C -> M,
    # phi(b_k) = v^k with F^c v^k = sum_a lambda^k_{ac} v^a for all c, k
    w = sparse_kernel(*_stage1_triples(f, mm, c.delta_matrix, s), s * mm, p)
    t = w.dim
    if t == 0:
        return False
    check_limit(t * mm, limits.max_solver_unknowns, "retraction system unknowns")
    # stage 2: a retraction sends m_j (x) b_a to psi_j(b_a), psi_j = sum_u
    # X[u, j] phi_u in W, and needs sum_{j,a} F^a[j, i] psi_j(b_a) = m_i:
    # unknown (u, j), numbered u*m + j, is X[u, j], and equation (r, i),
    # numbered r*m + i, the m_r-coordinate of m_i's image.  The coefficient
    # of X[u, j] in equation (r, i) is the sum over a of the terms
    # phi_u(b_a)[r] F^a[j, i]; the peel sums them
    k, e, v = _stage2_terms(w.basis, f, mm, p)
    # [A | -b], with b = 1 on the equations (i, i)
    return sparse_solvable(np.concatenate([e, np.arange(mm) * (mm + 1)]),
                           np.concatenate([k, [t * mm] * mm]),
                           np.concatenate([v, [p - 1] * mm]), t * mm + 1, p)


def injectivity_profile(g: Group, m, d_max: int, limits: Limits = Limits()) -> list[bool]:
    """Levelwise injectivity of M_{<=d} over C_d = O(G)_{<=d}, its own closure.

    Over a unipotent group it is read off the filtration ladder: M_{<=d} is
    injective iff dim M_{<=d} = dim M_{<=0} * dim C_d, with M_{<=0} = M^G
    taken once per generation read; that path builds no SubCoalgebra, so
    the sub-coalgebra ceiling does not apply to it.  Over any other group
    each level is refused at that ceiling in turn, and C_d is sliced from one
    SubCoalgebra, the highest level within the ceiling, by the certificate
    of `filtration._prefix_level` (a failure is an InternalInvariantError),
    and solved by `injective_test` on the blocks of `restrict(M, C_d)`.
    `restrict` validates M.
    """
    stream, ceiling = isinstance(m, StreamModule), limits.max_coalgebra_dim
    out, invariants, top = [], {}, None  # generation -> dim of its M^G
    for d in range(d_max + 1):
        if not g.unipotent:  # the one path that builds a SubCoalgebra
            check_limit(g.filtration_dim(d), ceiling, "sub-coalgebra dimension")
        n = m.sufficiency(d) if stream else 0
        target = m.generate(n) if stream else m
        if not g.unipotent:
            if top is None:
                top = SubCoalgebra.canonical(g, max(
                    e for e in range(d_max + 1) if g.filtration_dim(e) <= ceiling), limits)
                degrees = np.array([g.degree(h) for h in top.monos], dtype=np.int64)
            if (part := _prefix_level(top, top.delta_matrix, degrees, d)) is None:
                raise InternalInvariantError(
                    f"level {d} is not a prefix of the top level closed under the coproduct")
            c = SubCoalgebra._with_constants(g, *part)
            out.append(injective_test(c, restrict(target, c), limits=limits))
            continue
        level = restrict(target, CanonicalLevel(g, d))
        if n not in invariants:
            invariants[n] = (level if d == 0 else restrict(target, CanonicalLevel(g, 0))).dim
        out.append(level.dim == invariants[n] * g.filtration_dim(d))
    return out
