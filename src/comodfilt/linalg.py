"""Exact linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  Subspaces are
kept in reduced row echelon form, which makes them canonical: two subspaces
are equal as sets iff their basis arrays are equal entrywise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


class DimensionMismatch(ValueError):
    pass


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def elimination_exact(p: int) -> bool:
    """Whether `rref` is exact mod p: it multiplies two entries in [0, p) in
    int64, so (p-1)^2 must stay below 2^63, that is p <= 3037000500."""
    return exact_dtype(1, p) is not object


@functools.cache
def check_prime(p: int) -> int:
    """p, once it is known to be a prime that elimination handles exactly;
    memoized, since trial division at p near 2^31 takes milliseconds.  A bad
    modulus raises on every call: exceptions are not cached."""
    if not elimination_exact(p):
        raise ValueError(f"modulus {p} is too large for exact elimination "
                         f"((p-1)^2 must be below 2^63)")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


def as_matrix(rows, cols: int, p: int) -> np.ndarray:
    m = np.asarray(rows, dtype=np.int64).reshape(-1, cols)
    return np.mod(m, p)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p.  Returns (nonzero rows, pivot columns)."""
    a = np.ascontiguousarray(np.mod(np.asarray(mat, dtype=np.int64), p))
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            a[[r, i]] = a[[i, r]]
        lead = int(a[r, c])
        if lead != 1:
            a[r] = (a[r] * inv_mod(lead, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        rows_to_fix = col.nonzero()[0]
        if rows_to_fix.size:
            a[rows_to_fix] = (a[rows_to_fix] - col[rows_to_fix, None] * a[r]) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def matrank(mat: np.ndarray, p: int) -> int:
    return rref(mat, p)[0].shape[0]


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^n given by an RREF basis (rows of `basis`)."""

    ambient_dim: int
    p: int
    basis: np.ndarray  # (dim, ambient_dim), in RREF
    pivots: tuple[int, ...] = field(default=())

    @staticmethod
    def from_rows(rows, ambient_dim: int, p: int) -> "Subspace":
        check_prime(p)
        m = as_matrix(rows, ambient_dim, p) if len(rows) else np.zeros((0, ambient_dim), dtype=np.int64)
        b, piv = rref(m, p)
        return Subspace(ambient_dim, p, b, tuple(piv))

    @staticmethod
    def zero(ambient_dim: int, p: int) -> "Subspace":
        return Subspace(ambient_dim, p, np.zeros((0, ambient_dim), dtype=np.int64), ())

    @staticmethod
    def full(ambient_dim: int, p: int) -> "Subspace":
        return Subspace(ambient_dim, p, np.eye(ambient_dim, dtype=np.int64),
                        tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.p == other.p
                and self.basis.shape == other.basis.shape
                and bool(np.array_equal(self.basis, other.basis)))

    def __hash__(self):
        return hash((self.ambient_dim, self.p, self.basis.tobytes()))

    def contains(self, vec) -> bool:
        return self.coords(vec) is not None

    def residual(self, ys: np.ndarray) -> np.ndarray:
        """The columns of ys (n, k), entries in [0, p), modulo the subspace V:
        ys[off] - V[:, off]^T ys[pivots], with `off` the coordinates that are
        not V's pivots.

        A vector y lies in V iff y = V^T y[pivots], because V's RREF basis is
        the identity in its pivot columns; so column c of ys lies in V iff
        column c of the residual is zero.
        """
        piv = list(self.pivots)
        off = np.ones(self.ambient_dim, dtype=bool)
        off[piv] = False
        return (ys[off] - matmul_mod(self.basis[:, off].T, ys[piv], self.p)) % self.p

    def coords(self, vec) -> np.ndarray | None:
        """Coordinates of vec in the RREF basis, or None if not a member."""
        v = np.mod(np.asarray(vec, dtype=np.int64), self.p)
        if np.any(self.residual(v[:, None])):
            return None
        return v[list(self.pivots)]

    def contains_space(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return not np.any(self.residual(other.basis.T))

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.p != other.p:
            raise DimensionMismatch(
                f"ambient mismatch: ({self.ambient_dim},p={self.p}) vs "
                f"({other.ambient_dim},p={other.p})")

    def add(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        rows = np.vstack([self.basis, other.basis])
        return Subspace.from_rows(rows, self.ambient_dim, self.p)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The intersection with other: the members of self whose residual
        modulo other is zero."""
        self._check_ambient(other)
        return self.lift(kernel(other.residual(self.basis.T), self.p))

    def lift(self, sub: "Subspace") -> "Subspace":
        """The subspace of self whose coordinates in self's basis form `sub`.

        Both bases are in RREF, so their product is too: row r of the product
        equals row r of sub.basis in self's pivot columns, and is zero before
        the pivot of self's row at sub's leading entry.
        """
        if sub.ambient_dim != self.dim or sub.p != self.p:
            raise DimensionMismatch(
                f"coordinates in F_{sub.p}^{sub.ambient_dim} for a subspace of "
                f"dim {self.dim} over F_{self.p}")
        if sub.dim == self.dim:
            return self
        rows = matmul_mod(sub.basis, self.basis, self.p)
        return Subspace(self.ambient_dim, self.p, rows,
                        tuple(self.pivots[c] for c in sub.pivots))

    def vectors(self):
        """Iterate over all vectors of the subspace (small fields/dims only)."""
        from itertools import product

        for cs in product(range(self.p), repeat=self.dim):
            yield matmul_mod(np.array([cs], dtype=np.int64), self.basis, self.p)[0]


def kernel(mat: np.ndarray, p: int) -> Subspace:
    """Null space {x : mat @ x = 0} of an (m, n) matrix, as a subspace of F_p^n.

    One elimination, of mat with its columns reversed: read back in order,
    each row of that RREF ends at its pivot, so the null vector of each free
    column has its leading 1 there, and together they are already in RREF.
    """
    check_prime(p)
    a = np.mod(np.asarray(mat, dtype=np.int64), p)
    ncols = a.shape[1]
    red, piv = rref(a[a.any(axis=1), ::-1], p)
    red, piv = red[:, ::-1], ncols - 1 - np.array(piv, dtype=np.int64)
    free = np.ones(ncols, dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)
    # one row per free column c: x_c = 1 and x_pc = -red[r, c] at pivot pc
    rows = np.zeros((free.size, ncols), dtype=np.int64)
    rows[np.arange(free.size), free] = 1
    rows[:, piv] = (-red[:, free].T) % p
    return Subspace(ncols, p, rows, tuple(free.tolist()))


def sum_duplicates(key, vals, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, sorted, each with the sum mod p of the values that
    share it; keys whose sum is 0 mod p are dropped."""
    key = np.asarray(key, dtype=np.int64)
    order = key.argsort(kind="stable")
    key = key[order]
    first = np.empty(key.size, dtype=bool)
    first[:1], first[1:] = True, key[1:] != key[:-1]
    first = first.nonzero()[0]
    vals = np.add.reduceat(np.mod(np.asarray(vals, dtype=np.int64)[order], p), first) % p
    nonzero = vals != 0
    return key[first[nonzero]], vals[nonzero]


def join(left, right_sorted) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of positions (x, y) with left[x] == right_sorted[y], in
    increasing order of x and, within one x, of y: the index join behind each
    sparse product (Gustavson, ACM TOMS 4(3), 1978).  left[x] meets the reps[x]
    entries of right_sorted from start[x] on."""
    start = right_sorted.searchsorted(left)
    reps = right_sorted.searchsorted(left, "right") - start
    x = np.arange(reps.size).repeat(reps)
    return x, np.arange(x.size) + (start - reps.cumsum() + reps).repeat(reps)


def peel(rows, cols, vals, ncols: int, p: int):
    """The entries of the core of the matrix given as (row, col, value)
    triples (rows >= 0), and its live columns in increasing order.

    Entries sharing a (row, col) key are summed mod p, and zero sums dropped.
    A row with exactly one nonzero entry among the live columns forces that
    column to 0 in every null vector, so the column dies; rows are peeled
    until none is left with a single live entry (structured Gaussian
    elimination, LaMacchia and Odlyzko, CRYPTO '90).  The core is the rows
    with live entries, restricted to the live columns, their ids kept and
    sorted by row, then column: a vector is a null vector of the matrix iff
    it is 0 on the dead columns and a null vector of the core on the live
    ones, and the matrix has rank the number of dead columns plus the core's.
    The core stays entries: `eliminate` reduces it without making it dense.
    """
    key = np.asarray(rows, dtype=np.int64) * ncols + np.asarray(cols, dtype=np.int64)
    key, vals = sum_duplicates(key, vals, p)
    # the keys are sorted, so each row's entries are consecutive
    rows, cols = np.divmod(key, ncols)
    step = np.zeros(rows.size, dtype=bool)
    step[1:] = rows[1:] != rows[:-1]
    rid = step.cumsum()
    live = np.ones(ncols, dtype=bool)
    while True:
        on = live[cols]
        row_live = np.bincount(rid[on], minlength=rows.size)[rid]
        dead = cols[on & (row_live == 1)]
        if dead.size == 0:
            break
        live[dead] = False
    core = on & (row_live > 1)
    return (rows[core], cols[core], vals[core]), live.nonzero()[0]


def eliminate(rows, cols, vals, p: int) -> dict[int, dict[int, int]]:
    """Sparse Gauss-Jordan elimination mod p of the matrix whose nonzero
    entries are given as (row, col, value) triples, one per key, pivoting on
    its columns from the highest down.  Returns the row of each pivot column
    as {col: value}, reduced to 1 there and to 0 in every other pivot
    column.  A column is a pivot iff it is not in the span of the columns
    above it.

    Each row is a dict, and an index lists the rows that hold each column,
    so a step touches only those rows.  The pivot row is the candidate with
    the fewest entries (Markowitz, Management Science 3, 1957), which keeps
    the fill-in of a sparse core small; the result does not depend on it.
    """
    mat, at = {}, {}  # row -> {col: value}, col -> the rows that hold it
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        mat.setdefault(r, {})[c] = v
        at.setdefault(c, set()).add(r)
    pivots, used = {}, set()
    for c in sorted(at, reverse=True):
        held = at[c]
        cand = [r for r in held if r not in used]
        if not cand:
            continue
        r0 = min(cand, key=lambda r: (len(mat[r]), r))
        row, inv = mat[r0], inv_mod(mat[r0][c], p)
        for k in row:
            row[k] = row[k] * inv % p
        for r in [r for r in held if r != r0]:
            other = mat[r]
            f = other[c]
            for k, v in row.items():
                x = (other.get(k, 0) - f * v) % p
                if x:
                    if k not in other:
                        at[k].add(r)
                    other[k] = x
                else:
                    del other[k]
                    at[k].discard(r)
        used.add(r0)
        pivots[c] = row
    return pivots


def sparse_kernel(rows, cols, vals, ncols: int, p: int) -> Subspace:
    """Null space of the matrix whose entries are given as (row, col, value)
    triples, as a subspace of F_p^ncols; the same `Subspace` as `kernel` of
    the dense matrix.  The core that `peel` leaves is eliminated from its
    highest column down, so each reduced row ends at its pivot pc and is
    otherwise on free live columns below it: the null vector of a free live
    column f, x_f = 1 and x_pc = -row_pc[f], has its leading 1 at f, and
    these vectors, zero in the dead columns, are `kernel`'s RREF basis.
    """
    if len(rows) == 0:
        return Subspace.full(ncols, p)
    core, live_cols = peel(rows, cols, vals, ncols, p)
    pivots = eliminate(*core, p)
    free = np.delete(live_cols, live_cols.searchsorted(list(pivots)))
    out = [(f, pc, -v % p) for pc, row in pivots.items() for f, v in row.items() if f != pc]
    f, pc, v = np.array(out, dtype=np.int64).reshape(-1, 3).T
    basis = np.zeros((free.size, ncols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[free.searchsorted(f), pc] = v
    return Subspace(ncols, p, basis, tuple(free.tolist()))


def sparse_solvable(rows, cols, vals, ncols: int, p: int) -> bool:
    """Whether A x = b has a solution, for [A | -b] given as (row, col, value)
    triples, -b in its last column ncols - 1: whether it has a null vector
    with last coordinate 1.  It has none if `peel` kills that column, and
    otherwise one iff the column, eliminated last, is no pivot of the core:
    the core's columns are reversed, so -b is column 0."""
    core, live_cols = peel(rows, cols, vals, ncols, p)
    if live_cols.size == 0 or live_cols[-1] != ncols - 1:
        return False
    return 0 not in eliminate(core[0], ncols - 1 - core[1], core[2], p)


def preimage(mat: np.ndarray, target: Subspace) -> Subspace:
    """{x : mat @ x in target}, for mat mapping F_p^n -> F_p^m with target in F_p^m."""
    a = np.mod(np.asarray(mat, dtype=np.int64), target.p)
    m = a.shape[0]
    if m != target.ambient_dim:
        raise DimensionMismatch(f"map has codomain dim {m}, target ambient {target.ambient_dim}")
    # mat @ x lies in target iff its residual, which is linear in x, is zero
    return kernel(target.residual(a), target.p)


def exact_dtype(inner: int, p: int):
    """The cheapest dtype whose dot products of `inner` entries in [0, p) are exact.

    Every partial sum is at most (p-1)^2 * inner.  float64 holds integers below
    2^53 exactly, int64 below 2^63, and Python integers (`object`) never
    overflow.
    """
    bound = (p - 1) ** 2 * inner
    if bound < 1 << 53:
        return np.float64
    if bound < 1 << 63:
        return np.int64
    return object


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact a @ b mod p for two matrices with entries in [0, p), in the
    dtype `exact_dtype` picks.

    Large float64 products go through BLAS; small ones stay in int64, where the
    conversions would cost more than they save.
    """
    inner = a.shape[-1]
    dtype = exact_dtype(inner, p)
    if dtype is np.float64 and a.size * b.shape[-1] < 1 << 17:
        dtype = np.int64
    prod = np.matmul(a.astype(dtype, copy=False), b.astype(dtype, copy=False))
    if dtype is np.float64:
        prod = prod.astype(np.int64)  # exact: every entry is an integer below 2^53
    return (prod % p).astype(np.int64, copy=False)


class IncrementalRREF:
    """Row-space accumulator for systems too large to materialize at once.

    Each block is reduced against the stored rows it touches with one matrix
    product; its remainder is put in RREF, then so are the stored rows
    stacked over it.  Library API: no engine code calls it since the
    retraction solve moved to `sparse_kernel`; the tests use it as an oracle
    and the benchmark's tracer wraps `add_rows`.
    """

    def __init__(self, ncols: int, p: int):
        self.ncols = ncols
        self.p = check_prime(p)
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return self.rows.shape[0]

    def add_rows(self, block: np.ndarray):
        b = self.reduce(block)
        extra, _ = rref(b[b.any(axis=1)], self.p)
        if extra.shape[0]:
            self.rows, self.pivots = rref(np.vstack([self.rows, extra]), self.p)

    def reduce(self, block: np.ndarray) -> np.ndarray:
        """Residue of the given rows modulo the accumulated row space."""
        b = np.mod(np.asarray(block, dtype=np.int64).reshape(-1, self.ncols), self.p)
        coeff = b[:, self.pivots]
        touched = np.flatnonzero(coeff.any(axis=0))
        used = self.rows[touched]
        cols = np.flatnonzero(used.any(axis=0))  # the product skips the other columns
        b[:, cols] = (b[:, cols] - matmul_mod(coeff[:, touched], used[:, cols], self.p)) % self.p
        return b
