"""Exact mod-p linear algebra: RREF canonicity, kernels, preimages, solvers."""

import random

import numpy as np
import pytest

from comodfilt import linalg
from comodfilt.linalg import (IncrementalRREF, Subspace, as_matrix, elimination_exact,
                              exact_dtype, inv_mod, is_prime, kernel, matmul_mod,
                              matrank, preimage, rref, sparse_kernel, sparse_solvable)
from oracles import solve


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


def test_intersect_and_preimage_with_the_zero_and_the_full_subspace():
    rng = random.Random(11)
    for p in (2, 3):
        for n in (1, 3, 4):
            zero, full = Subspace.zero(n, p), Subspace.full(n, p)
            for u in (zero, full, Subspace.from_rows(random_matrix(rng, 2, n, p), n, p)):
                assert u.intersect(zero) == zero.intersect(u) == zero
                assert u.intersect(full) == full.intersect(u) == u
                assert u.intersect(u) == u
            m = random_matrix(rng, n, 3, p)
            assert preimage(m, full) == Subspace.full(3, p)
            assert preimage(m, zero) == kernel(m, p)
            with pytest.raises(linalg.DimensionMismatch):
                preimage(m, Subspace.zero(n + 1, p))
            with pytest.raises(linalg.DimensionMismatch):
                full.intersect(Subspace.full(n + 1, p))


def test_solve_and_solvable():
    rng = random.Random(13)
    for p in (2, 5):
        for _ in range(30):
            m = random_matrix(rng, 4, 3, p)
            x0 = np.array([rng.randrange(p) for _ in range(3)], dtype=np.int64)
            rhs = (m @ x0) % p
            x = solve(m, rhs, p)
            assert x is not None and not np.any((m @ x - rhs) % p)
            assert solvable_from_triples(m, rhs, p)
    inconsistent = as_matrix([[1, 1], [1, 1]], 2, 2), [1, 0]
    assert solve(*inconsistent, 2) is None and not solvable_from_triples(*inconsistent, 2)


def solvable_from_triples(mat, rhs, p):
    """`sparse_solvable` of the nonzero entries of [mat | -rhs]."""
    aug = np.hstack([mat, -np.asarray(rhs, dtype=np.int64).reshape(-1, 1)]) % p
    rows, cols = np.nonzero(aug)
    return sparse_solvable(rows, cols, aug[rows, cols], aug.shape[1], p)


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


def test_kernel_and_every_result_built_on_it_eliminate_once(monkeypatch):
    calls = []

    def counted(mat, p):
        calls.append(np.shape(mat))
        return rref(mat, p)

    monkeypatch.setattr(linalg, "rref", counted)
    rng = random.Random(41)
    for p in (2, 3, 65521):
        for _ in range(10):
            nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 9)
            mat = random_matrix(rng, nrows, ncols, p)
            mat[0, rng.randrange(ncols)] = 1  # at least one triple
            rows, cols = np.nonzero(mat)
            target = Subspace.from_rows(random_matrix(rng, 2, nrows, p), nrows, p)
            u, v = (Subspace.from_rows(random_matrix(rng, 3, ncols, p), ncols, p)
                    for _ in range(2))
            for result in (lambda: kernel(mat, p),
                           lambda: sparse_kernel(rows, cols, mat[rows, cols], ncols, p),
                           lambda: preimage(mat, target),
                           lambda: u.intersect(v)):
                calls.clear()
                result()
                assert len(calls) == 1, calls


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


def test_membership_is_exact_at_p_2_31_minus_1():
    # int64 sums of three products of entries near 2^31 overflow
    rng = random.Random(29)
    p = 2 ** 31 - 1
    for _ in range(100):
        rows = [[rng.randrange(p) for _ in range(7)] for _ in range(rng.randrange(3, 6))]
        space = Subspace.from_rows(rows, 7, p)
        combo = [rng.randrange(p) for _ in rows]
        vec = [sum(c * row[j] for c, row in zip(combo, rows)) % p for j in range(7)]
        cs = space.coords(vec)
        assert cs is not None
        assert python_matmul_mod(cs[None, :], space.basis, p) == [vec]


def test_large_primes_are_rejected_before_elimination():
    p = 2 ** 31 - 1
    assert Subspace.from_rows([[p - 1, p - 2]], 2, p).basis.tolist() == [[1, 2]]
    assert elimination_exact(p) and elimination_exact(3037000493)
    assert not elimination_exact(4294967311)
    with pytest.raises(ValueError, match="too large"):
        Subspace.from_rows([[4294967310, 4294967309]], 2, 4294967311)
    with pytest.raises(ValueError, match="too large"):
        IncrementalRREF(2, 4294967311)



def test_check_prime_runs_trial_division_once_per_prime(monkeypatch):
    calls = []

    def counting_is_prime(q):
        calls.append(q)
        return is_prime(q)

    monkeypatch.setattr(linalg, "is_prime", counting_is_prime)
    linalg.check_prime.cache_clear()
    p = 2 ** 31 - 1
    for _ in range(4):
        assert Subspace.from_rows([[1, p - 1]], 2, p).basis.tolist() == [[1, p - 1]]
    assert calls == [p]
    # a bad modulus is refused on every call, not remembered as good
    for k in range(3):
        with pytest.raises(ValueError, match="not prime"):
            Subspace.from_rows([[1, 2]], 2, 4)
        assert calls == [p] + [4] * (k + 1)

def dense_of_triples(triples, nrows, ncols, p):
    """The matrix of (row, col, value) triples, duplicates summed in Python
    integers, mod p."""
    out = [[0] * ncols for _ in range(nrows)]
    for r, c, v in triples:
        out[r][c] += v
    return np.array([[x % p for x in row] for row in out], dtype=np.int64).reshape(nrows, ncols)


def assert_sparse_kernel_matches(triples, nrows, ncols, p):
    rows, cols, vals = (list(t) for t in zip(*triples)) if triples else ([], [], [])
    got = sparse_kernel(rows, cols, vals, ncols, p)
    want = kernel(dense_of_triples(triples, nrows, ncols, p), p)
    assert got == want and got.pivots == want.pivots, (p, triples)
    return got


def test_sparse_kernel_matches_the_dense_kernel():
    for p in (2, 3, 65521, 2 ** 31 - 1):
        # no entries: the whole space
        assert assert_sparse_kernel_matches([], 0, 4, p) == Subspace.full(4, p)
        # all-zero columns 1 and 3 stay free
        assert_sparse_kernel_matches([(0, 0, 1), (0, 2, 1), (1, 2, p - 1), (1, 4, 2)], 2, 5, p)
        # duplicates summing to 0 mod p: row 0 vanishes and x1 stays free; in
        # row 1 the pair on column 0 cancels, leaving a singleton on column 2
        ker = assert_sparse_kernel_matches(
            [(0, 1, p - 1), (0, 1, 1), (1, 0, 1), (1, 2, 1), (1, 0, p - 1), (2, 3, 1),
             (2, 4, p - 1), (2, 3, 2 * p)], 3, 5, p)
        assert ker.dim == 3 and not ker.basis[:, 2].any()
        # values outside [0, p), summed past 2p before the reduction
        assert_sparse_kernel_matches([(0, 0, -1), (0, 1, p - 1), (0, 1, p - 1),
                                      (0, 1, p - 1), (1, 1, 3 * p + 1), (1, 2, -p)], 2, 3, p)
        # only singleton rows: their columns die, the others stay free
        ker = assert_sparse_kernel_matches([(0, 3, 5), (1, 0, 1), (2, 3, p - 1)], 3, 5, p)
        assert ker.pivots == (1, 2, 4)
        # a chain: only the singleton x0 = 0 peels at first, then x0 + x1 = 0
        # leaves x1, and so on down to x3; x4 - x5 = 0 is the core
        chain = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (2, 1, 1), (2, 2, p - 1),
                 (3, 2, 1), (3, 3, 1), (4, 3, 1), (4, 4, 1), (4, 5, p - 1),
                 (5, 4, 1), (5, 5, p - 1)]
        ker = assert_sparse_kernel_matches(chain, 6, 6, p)
        assert ker.basis.tolist() == [[0, 0, 0, 0, 1, 1]]
    rng = random.Random(31)
    for trial in range(240):
        p = (2, 3, 65521, 2 ** 31 - 1)[trial % 4]
        nrows, ncols = rng.randrange(0, 9), rng.randrange(1, 10)
        triples = []
        for r in range(nrows):
            # mostly one or two entries per row, sometimes repeated keys
            for _ in range(rng.choice((1, 1, 2, 2, 3, 5))):
                c = rng.randrange(ncols)
                v = rng.randrange(-2 * p, 2 * p)
                triples.append((r, c, v))
                if rng.random() < 0.3:
                    triples.append((r, c, rng.choice((-v, p - v, rng.randrange(p)))))
        rng.shuffle(triples)
        assert_sparse_kernel_matches(triples, nrows, ncols, p)
