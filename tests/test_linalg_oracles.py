"""Oracle tests for linalg against sympy's DomainMatrix over GF(p).

Skipped where hypothesis or sympy is not installed; CI installs both.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import example, given, settings, strategies as st  # noqa: E402
from sympy import GF  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from comodfilt.cobar import ChainComplex, cohomology_dims  # noqa: E402
from comodfilt.linalg import (Subspace, kernel, preimage, sparse_kernel,  # noqa: E402
                              sparse_solvable)
from oracles import solve  # noqa: E402

# sympy's DomainMatrix over GF(p) shares no code with linalg

ORACLE_PRIMES = (2, 3, 65521, 2 ** 31 - 1)
oracle_settings = settings(derandomize=True, max_examples=60, deadline=None)


def sympy_matrix(rows, ncols, p):
    field = GF(p)
    return DomainMatrix([[field(int(x)) for x in row] for row in rows],
                        (len(rows), ncols), field)


def sympy_rowspace(rows, ncols, p):
    """The RREF basis of the row space, zero rows dropped, as Python lists."""
    if not len(rows):
        return []
    red, _ = sympy_matrix(rows, ncols, p).rref()
    return [r for r in ([int(x) % p for x in row] for row in red.to_list()) if any(r)]


def sympy_nullspace(rows, ncols, p):
    """The RREF basis of {x : rows @ x = 0}."""
    null = sympy_matrix(rows, ncols, p).nullspace().to_list()
    return sympy_rowspace([[int(x) % p for x in row] for row in null], ncols, p)


def python_product(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


@st.composite
def matrices(draw, p, nrows, ncols):
    """An (nrows, ncols) matrix mod p as Python lists: random, with zero rows,
    sparse, or of full rank min(nrows, ncols)."""
    entry = st.integers(0, p - 1)
    kind = draw(st.sampled_from(["random", "zero_rows", "sparse", "full_rank"]))
    if kind == "full_rank" and nrows and ncols:
        r, wide = min(nrows, ncols), max(nrows, ncols)
        # [I_r | R] with permuted columns, rows mixed by a unit lower triangle
        cols = draw(st.permutations(range(wide)))
        echelon = [[0] * wide for _ in range(r)]
        for i in range(r):
            echelon[i][cols[i]] = 1
            for c in cols[r:]:
                echelon[i][c] = draw(entry)
        lower = [[1 if i == j else (draw(entry) if j < i else 0) for j in range(r)]
                 for i in range(r)]
        m = python_product(lower, echelon, p)
        return m if nrows <= ncols else [list(col) for col in zip(*m)]
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "zero_rows":
        rows = [row if draw(st.booleans()) else [0] * ncols for row in rows]
    elif kind == "sparse":
        rows = [[x if draw(st.integers(0, 3)) == 0 else 0 for x in row] for row in rows]
    return rows


@st.composite
def oracle_case(draw, max_rows=6, max_cols=6):
    p = draw(st.sampled_from(ORACLE_PRIMES))
    ncols = draw(st.integers(1, max_cols))
    return p, ncols, draw(matrices(p, draw(st.integers(0, max_rows)), ncols))


def as_array(rows, ncols):
    return np.array(rows, dtype=np.int64).reshape(-1, ncols)


@oracle_settings
@given(oracle_case())
def test_kernel_matches_sympy(case):
    p, ncols, rows = case
    ker = kernel(as_array(rows, ncols), p)
    assert ker.basis.tolist() == sympy_nullspace(rows, ncols, p)
    assert list(ker.pivots) == [row.index(1) for row in ker.basis.tolist()]


@oracle_settings
@given(oracle_case(), st.data())
def test_intersect_matches_sympy(case, data):
    p, ncols, rows_u = case
    rows_v = data.draw(matrices(p, data.draw(st.integers(0, 6)), ncols))
    u = Subspace.from_rows(as_array(rows_u, ncols), ncols, p)
    v = Subspace.from_rows(as_array(rows_v, ncols), ncols, p)
    assert u.basis.tolist() == sympy_rowspace(rows_u, ncols, p)
    # U n V is the annihilator of ann(U) + ann(V)
    annihilators = sympy_nullspace(rows_u, ncols, p) + sympy_nullspace(rows_v, ncols, p)
    want = sympy_nullspace(annihilators, ncols, p)
    got = u.intersect(v)
    assert got.basis.tolist() == want and got == Subspace.from_rows(
        as_array(want, ncols), ncols, p)


@oracle_settings
@given(oracle_case(), st.data())
def test_preimage_matches_sympy(case, data):
    p, m, rows_t = case
    n = data.draw(st.integers(1, 6))
    mat = data.draw(matrices(p, m, n))
    target = Subspace.from_rows(as_array(rows_t, m), m, p)
    # x is in the preimage iff (x, y) solves mat x = T^T y for some y
    t_rows = sympy_rowspace(rows_t, m, p)
    joint = [list(mat[i]) + [(-row[i]) % p for row in t_rows] for i in range(m)]
    solutions = sympy_nullspace(joint, n + len(t_rows), p)
    want = sympy_rowspace([row[:n] for row in solutions], n, p)
    assert preimage(as_array(mat, n), target).basis.tolist() == want


@oracle_settings
@given(oracle_case(), st.data())
def test_coords_matches_sympy(case, data):
    p, ncols, rows = case
    space = Subspace.from_rows(as_array(rows, ncols), ncols, p)
    # a combination of the given rows, sometimes pushed off the space
    combo = [data.draw(st.integers(0, p - 1)) for _ in rows]
    vec = [sum(c * row[j] for c, row in zip(combo, rows)) % p for j in range(ncols)]
    if data.draw(st.booleans()):
        vec = [(x + data.draw(st.integers(0, p - 1))) % p for x in vec]
    basis = sympy_rowspace(rows, ncols, p)
    # solve basis^T c = vec: consistent iff the last column is not a pivot
    aug = [[row[j] for row in basis] + [vec[j]] for j in range(ncols)]
    red, pivots = sympy_matrix(aug, len(basis) + 1, p).rref()
    got = space.coords(vec)
    if len(basis) in pivots:
        assert got is None and not space.contains(vec)
    else:
        want = [int(red.to_list()[r][len(basis)]) % p for r in range(len(basis))]
        assert got is not None and got.tolist() == want and space.contains(vec)


def drawn_triples(data, rows, p):
    """(rows, cols, vals) of a matrix: each nonzero entry as one triple or as
    two that sum to it, plus pairs that cancel, in a drawn order."""
    triples = []
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if x and data.draw(st.booleans()):
                part = data.draw(st.integers(0, p - 1))
                triples += [(r, c, part), (r, c, x - part)]
            elif x:
                triples.append((r, c, x))
            if data.draw(st.integers(0, 7)) == 0:
                v = data.draw(st.integers(1, p - 1))
                triples += [(r, c, v), (r, c, p - v)]
    triples = data.draw(st.permutations(triples))
    return (list(t) for t in zip(*triples)) if triples else ([], [], [])


@oracle_settings
@given(oracle_case(max_rows=8, max_cols=8), st.data())
def test_sparse_kernel_matches_sympy(case, data):
    p, ncols, rows = case
    got = sparse_kernel(*drawn_triples(data, rows, p), ncols, p)
    assert got.basis.tolist() == sympy_nullspace(rows, ncols, p)
    assert list(got.pivots) == [row.index(1) for row in got.basis.tolist()]


@oracle_settings
@given(oracle_case(), st.data())
def test_residual_vanishes_exactly_on_members(case, data):
    p, ncols, rows = case
    space = Subspace.from_rows(as_array(rows, ncols), ncols, p)
    # columns that are combinations of the given rows, some pushed off the space
    ys = []
    for _ in range(data.draw(st.integers(1, 4))):
        combo = [data.draw(st.integers(0, p - 1)) for _ in rows]
        y = [sum(c * row[j] for c, row in zip(combo, rows)) % p for j in range(ncols)]
        if data.draw(st.booleans()):
            y = [(x + data.draw(st.integers(0, p - 1))) % p for x in y]
        ys.append(y)
    res = space.residual(np.array(ys, dtype=np.int64).T)
    assert res.shape == (ncols - space.dim, len(ys))
    rank = len(sympy_rowspace(rows, ncols, p))
    for c, y in enumerate(ys):
        member = len(sympy_rowspace(rows + [y], ncols, p)) == rank
        assert (not res[:, c].any()) == member == (space.coords(y) is not None)


@st.composite
def linear_systems(draw):
    """(p, n, A, b) with A from `oracle_case` and b zero, a combination of A's
    columns, random, or 1 on an added zero row of A: that row's only entry is
    then b's, so the peel kills the right-hand column."""
    p, n, rows = draw(oracle_case(max_rows=8, max_cols=8))
    entry = st.integers(0, p - 1)
    kind = draw(st.sampled_from(["zero", "consistent", "random", "killed"]))
    if kind == "consistent":
        x = [draw(entry) for _ in range(n)]
        return p, n, rows, [sum(a * y for a, y in zip(row, x)) % p for row in rows]
    if kind == "killed":
        return p, n, rows + [[0] * n], [draw(entry) for _ in rows] + [1]
    return p, n, rows, [draw(entry) if kind == "random" else 0 for _ in rows]


@oracle_settings
@given(linear_systems(), st.data())
# x0 = 0 peels first, which leaves b's entry alone in row 1: the right-hand
# column dies although no row of A is zero
@example((3, 2, [[1, 0], [2, 0], [0, 1], [0, 1]], [0, 1, 2, 2]), None)
@example((2, 2, [[1, 1], [1, 1]], [1, 0]), None)  # inconsistent
@example((65521, 3, [[1, 2, 3], [0, 1, 1]], [0, 0]), None)  # b = 0
@example((2 ** 31 - 1, 0, [], []), None)  # no equations
@example((2 ** 31 - 1, 0, [[], []], [0, 5]), None)  # no unknowns
def test_sparse_solvable_matches_the_dense_solve(system, data):
    p, n, rows, b = system
    aug = [row + [(-y) % p] for row, y in zip(rows, b)]
    if data is None:  # an explicit example: each nonzero entry once
        entries = [(r, c, x) for r, row in enumerate(aug) for c, x in enumerate(row) if x]
        triples = [list(t) for t in zip(*entries)] if entries else ([], [], [])
    else:
        triples = drawn_triples(data, aug, p)
    want = solve(np.array(rows, dtype=np.int64).reshape(len(rows), n), b, p) is not None
    # sympy: consistent iff the last column of rref([A | -b]) is not a pivot
    assert want == (not aug or n not in sympy_matrix(aug, n + 1, p).rref()[1])
    assert sparse_solvable(*triples, n + 1, p) == want


@st.composite
def block_diagonal(draw):
    """(p, row classes, column classes, rows): a matrix from `matrices` kept
    only where row and column share a class, so each row's entries lie in
    the columns of one class."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    nrows, ncols = draw(st.integers(0, 10)), draw(st.integers(1, 10))
    code = st.sampled_from((-5, 0, 7)[:draw(st.integers(1, 3))])
    row_code = [draw(code) for _ in range(nrows)]
    col_code = [draw(code) for _ in range(ncols)]
    rows = [[x if r == c else 0 for x, c in zip(row, col_code)]
            for row, r in zip(draw(matrices(p, nrows, ncols)), row_code)]
    return p, row_code, col_code, rows


@oracle_settings
@given(block_diagonal(), st.data())
def test_peeled_rank_by_class_matches_the_dense_rank(case, data):
    # a one-step complex CH^0 -> CH^1: H^0 = dim CH^0 - rank, with the rank
    # taken as the columns the peel kills plus the rank of each class's core;
    # cancelling pairs may join unequal classes, but sum to nothing
    p, row_code, col_code, rows = case
    triples = [np.array(t, dtype=np.int64) for t in drawn_triples(data, rows, p)]
    cx = ChainComplex(p, [np.array(col_code), np.array(row_code)], [triples])
    rank = len(sympy_rowspace(rows, len(col_code), p))
    assert cohomology_dims(cx) == [len(col_code) - rank]
