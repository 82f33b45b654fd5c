"""Exact mod-p linear algebra: RREF canonicity, kernels, preimages, solvers."""

import random

import numpy as np
import pytest

from comodfilt.linalg import (IncrementalRREF, Subspace, as_matrix, exact_dtype,
                              inv_mod, is_prime, kernel, matmul_mod, matrank,
                              preimage, rref, solvable, solve)


def random_matrix(rng, rows, cols, p):
    return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.int64)


def test_is_prime_and_inv_mod():
    assert [q for q in range(20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]
    for p in (2, 3, 5, 7, 13):
        for a in range(1, p):
            assert (a * inv_mod(a, p)) % p == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 5)


def test_rref_known_example():
    m = as_matrix([[1, 0, 1], [0, 1, 1], [1, 1, 0]], 3, 2)
    red, piv = rref(m, 2)
    assert piv == [0, 1]
    assert red.tolist() == [[1, 0, 1], [0, 1, 1]]
    assert matrank(m, 2) == 2


def test_rref_idempotent_and_shuffle_invariant():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(25):
            m = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6), p)
            red, piv = rref(m, p)
            again, piv2 = rref(red, p)
            assert np.array_equal(red, again) and piv == piv2
            perm = list(range(m.shape[0]))
            rng.shuffle(perm)
            red3, piv3 = rref(m[perm], p)
            assert np.array_equal(red, red3) and piv == piv3


def test_subspace_canonical_equality_and_membership():
    s1 = Subspace.from_rows([[1, 1, 0], [0, 1, 1]], 3, 2)
    s2 = Subspace.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]], 3, 2)
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1.dim == 2
    assert s1.contains([1, 0, 1]) and not s1.contains([1, 0, 0])
    cs = s1.coords([1, 0, 1])
    assert np.array_equal((cs @ s1.basis) % 2, [1, 0, 1])
    assert s1.coords([0, 0, 1]) is None
    assert len(list(s1.vectors())) == 4


def test_sum_intersection_dimension_formula():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(30):
            n = rng.randrange(1, 6)
            u = Subspace.from_rows(random_matrix(rng, rng.randrange(4), n, p), n, p)
            v = Subspace.from_rows(random_matrix(rng, rng.randrange(4), n, p), n, p)
            s, i = u.add(v), u.intersect(v)
            assert s.dim + i.dim == u.dim + v.dim
            assert s.contains_space(u) and s.contains_space(v)
            assert u.contains_space(i) and v.contains_space(i)


def test_kernel_rank_nullity_and_annihilation():
    rng = random.Random(7)
    for p in (2, 3):
        for _ in range(30):
            m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 6), p)
            ker = kernel(m, p)
            assert ker.dim == m.shape[1] - matrank(m, p)
            assert not np.any((m @ ker.basis.T) % p)


def test_preimage_characterization():
    rng = random.Random(3)
    p = 2
    target = Subspace.from_rows([[1, 0]], 2, p)
    pre = preimage(as_matrix([[1, 1], [0, 1]], 2, p), target)
    assert pre == Subspace.from_rows([[1, 0]], 2, p)
    for _ in range(25):
        m = random_matrix(rng, 3, 4, p)
        t = Subspace.from_rows(random_matrix(rng, 2, 3, p), 3, p)
        pre = preimage(m, t)
        # membership of every vector on a small ambient, by brute force
        good = {tuple(v) for v in Subspace.full(4, p).vectors()
                if t.contains((m @ v) % p)}
        assert {tuple(v) for v in pre.vectors()} == good


def test_solve_and_solvable():
    rng = random.Random(13)
    for p in (2, 5):
        for _ in range(30):
            m = random_matrix(rng, 4, 3, p)
            x0 = np.array([rng.randrange(p) for _ in range(3)], dtype=np.int64)
            rhs = (m @ x0) % p
            x = solve(m, rhs, p)
            assert x is not None and not np.any((m @ x - rhs) % p)
    assert not solvable(as_matrix([[1, 1], [1, 1]], 2, 2), [1, 0], 2)


def python_matmul_mod(a, b, p):
    """Reference product in Python integers, which never overflow."""
    cols = list(zip(*b.tolist()))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols]
            for row in a.tolist()]


def test_matmul_mod_matches_exact_product():
    rng = np.random.default_rng(0)
    # shapes on either side of the BLAS threshold; p = 2^31 - 1 and
    # 4294967311 > 2^32 overflow int64 sums, p = 65521 does not reach 2^53
    for p in (2, 97, 65521, 2 ** 31 - 1, 4294967311):
        for rows, inner, cols in ((3, 1, 3), (3, 8, 3), (70, 80, 60)):
            a = rng.integers(0, p, size=(rows, inner), dtype=np.int64)
            b = rng.integers(0, p, size=(inner, cols), dtype=np.int64)
            got = matmul_mod(a, b, p)
            assert got.dtype == np.int64
            assert got.tolist() == python_matmul_mod(a, b, p), (p, rows, inner, cols)
    assert 70 * 80 * 60 >= 1 << 17  # exercises the BLAS path where it is exact
    assert exact_dtype(80, 97) is np.float64
    assert exact_dtype(1, 2 ** 31 - 1) is np.int64
    assert exact_dtype(8, 2 ** 31 - 1) is object


def test_incremental_rref_matches_dense():
    rng = random.Random(17)
    for p in (2, 3):
        for _ in range(15):
            ncols = rng.randrange(2, 8)
            blocks = [random_matrix(rng, rng.randrange(1, 5), ncols, p)
                      for _ in range(3)]
            acc = IncrementalRREF(ncols, p)
            for b in blocks:
                acc.add_rows(b)
            stacked = np.vstack(blocks)
            red, piv = rref(stacked, p)
            assert np.array_equal(acc.rows, red) and acc.pivots == piv
            # rows already in the span reduce to zero
            assert not np.any(acc.reduce(stacked))


def sparse_block(rng, rows, ncols, p, support):
    """Random rows whose nonzero entries lie in a few columns of `support`."""
    b = np.zeros((rows, ncols), dtype=np.int64)
    for r in range(rows):
        for c in rng.sample(support, min(len(support), rng.randrange(1, 4))):
            b[r, c] = rng.randrange(1, p)
    return b


def test_incremental_rref_matches_dense_on_sparse_blocks():
    rng = random.Random(23)
    for p in (2, 3, 65521):
        for _ in range(10):
            ncols = rng.randrange(40, 90)
            acc = IncrementalRREF(ncols, p)
            blocks = []
            for kind in ("sparse", "zero", "off_pivots", "sparse", "off_pivots"):
                rows = rng.randrange(1, 12)
                if kind == "zero":
                    b = np.zeros((rows, ncols), dtype=np.int64)
                elif kind == "sparse":
                    b = sparse_block(rng, rows, ncols, p,
                                     rng.sample(range(ncols), ncols // 4))
                else:
                    free = [c for c in range(ncols) if c not in acc.pivots]
                    b = sparse_block(rng, rows, ncols, p, free)
                    # no stored pivot is touched, so the residue is the block
                    assert np.array_equal(acc.reduce(b), b)
                acc.add_rows(b)
                blocks.append(b)
            stacked = np.vstack(blocks)
            red, piv = rref(stacked, p)
            assert np.array_equal(acc.rows, red) and acc.pivots == piv
            assert not np.any(acc.reduce(stacked))
