"""Cobar complexes, cohomology ranks, and the injectivity decision."""

import tracemalloc

import numpy as np
import pytest

from comodfilt import cobar, filtration, linalg
from comodfilt.cobar import (ChainComplex, NotACComoduleError, SubCoalgebra,
                             _normalized_factors, _stage1_triples, _stage2_terms,
                             _weight_codes,
                             cobar_complex, cohomology_dims, injective_test,
                             injectivity_profile)
from comodfilt.comodules import (Comodule, StreamModule, build_module,
                                 direct_sum, regular, regular_stream,
                                 translationinvariants, trivial)
from comodfilt.config import Limits, ResourceLimitError
from comodfilt.coordalg import UnsupportedOperation, group_from_spec
from comodfilt.filtration import (CanonicalLevel, ExplicitSubspace,
                                  InternalInvariantError, coaction,
                                  coalgebra_closure, restrict, structure_constants)
from comodfilt.linalg import (IncrementalRREF, Subspace, kernel, matmul_mod, matrank,
                              sparse_kernel)
from oracles import DenseComplex, solve

GA2 = group_from_spec("Ga@p=2")
GM3 = group_from_spec("Gm@p=3")


def entries(a):
    """The nonzero entries of an array: their index along each axis, in
    C order, then their values."""
    idx = a.nonzero()
    return (*idx, a[idx])


def dense_blocks(c, m):
    """The F^a of `coefficient_blocks(m)`, made dense: an (s, m, m) array."""
    blocks = np.zeros((c.dim, m.dim, m.dim), dtype=np.int64)
    a, j, i, v = c.coefficient_blocks(m)
    blocks[a, j, i] = v
    return blocks


def dense_delta(c):
    """The structure constants of c as a dense (s*s, s) lambda, with
    Delta(b_k) = sum_{a,b} lambda[a*s+b, k] b_a (x) b_b: every dense read of
    them in the oracles goes through here."""
    s = c.dim
    lam = np.zeros((s, s, s), dtype=np.int64)
    a, b, k, v = c.delta_matrix
    lam[a, b, k] = v
    return lam.reshape(s * s, s)


def weight_classes(cx):
    """The number of weight classes that CH^0 .. CH^(n_max) meet."""
    return np.unique(np.concatenate(cx.codes[:-1])).size


def reference_cobar_complex(c, m, n_max):
    """Oracle: the full cobar complex M (x) C^(x n), with the unit face.

    d^n = sum_{i=0}^{n+1} (-1)^i d_i: d_0 inserts the coaction, d_i applies
    Delta_C to the i-th tensor factor and d_{n+1} appends the unit.  Built
    densely from Kronecker products; it shares only `coefficient_blocks`,
    `delta_matrix` and `unit` with the engine, and is ranked densely.
    """
    p = c.group.p
    s = c.dim
    mm = m.dim
    blocks = dense_blocks(c, m)
    # F_op: M -> M (x) C, shape (mm*s, mm)
    f_op = np.zeros((mm * s, mm), dtype=np.int64)
    for a, blk in enumerate(blocks):
        f_op[a::s, :] = blk  # row (j, a) = j*s + a
    unit_col = c.unit.reshape(s, 1)
    dims = [mm * s ** n for n in range(n_max + 2)]
    diffs = []
    for n in range(n_max + 1):
        d = np.kron(f_op, np.eye(s ** n, dtype=np.int64))
        sign = -1
        for i in range(1, n + 1):
            term = np.kron(np.kron(np.eye(mm * s ** (i - 1), dtype=np.int64),
                                   dense_delta(c)),
                           np.eye(s ** (n - i), dtype=np.int64))
            d = d + sign * term
            sign = -sign
        d = d + sign * np.kron(np.eye(mm * s ** n, dtype=np.int64), unit_col)
        diffs.append(d % p)
    return DenseComplex(p, dims[: n_max + 1], diffs)


def _add_kron(d, left, a, right, sign):
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


def kernel_epsilon_factors(c, m):
    """rho_bar, shape (m*t, m), and delta_bar, shape (t*t, t), dense, over
    Cbar = ker(epsilon) rather than the engine's C/k.1.

    Cbar is spanned by the RREF basis e_1..e_t of ker(epsilon), t = s - 1.
    The Cbar-part b_a - epsilon(b_a).1 of b_a lies in ker(epsilon), so its
    coordinates are its entries at that basis's pivots, column a of `to_bar`:
    no inverse is needed.  Row (j, r) of rho_bar holds the e_r-component of
    the coaction; Delta_bar(e_k) = sum delta_bar[r*t+w, k] e_r (x) e_w.
    """
    p, s, mm = c.group.p, c.dim, m.dim
    counit = np.array([c.group.counit_mono(mono) % p for mono in c.monos], dtype=np.int64)
    eps = matmul_mod(c.space.basis, counit[:, None], p)[:, 0]
    kbar = kernel(eps[None, :], p)
    t, piv = kbar.dim, list(kbar.pivots)
    to_bar = (np.eye(s, dtype=np.int64)[piv] - np.outer(c.unit[piv], eps)) % p
    rho = matmul_mod(to_bar, dense_blocks(c, m).reshape(s, mm * mm), p)   # [r, j, i]
    rho = rho.reshape(t, mm, mm).transpose(1, 0, 2).reshape(mm * t, mm)
    x = matmul_mod(dense_delta(c), kbar.basis.T, p)                  # [a, b, k]
    y = matmul_mod(to_bar, x.reshape(s, s * t), p)                   # [r, b, k]
    y = y.reshape(t, s, t).transpose(1, 0, 2).reshape(s, t * t)      # [b, r, k]
    z = matmul_mod(to_bar, y, p).reshape(t, t, t)                    # [w, r, k]
    return rho, z.transpose(1, 0, 2).reshape(t * t, t)


def reference_normalized_complex(c, m, n_max):
    """Oracle: the normalized complex M (x) Cbar^(x n) over all of C, on
    Cbar = ker(epsilon) (`kernel_epsilon_factors`), with no block or weight
    split, each d^n written into one dense array and ranked densely.

    d^n = rho_bar (x) I + sum_{i=1}^{n} (-1)^i I (x) delta_bar (x) I.
    """
    p = c.group.p
    mm, t = m.dim, c.dim - 1
    rho_bar, delta_bar = kernel_epsilon_factors(c, m)
    dims = [mm * t ** n for n in range(n_max + 2)]
    diffs = []
    for n in range(n_max + 1):
        d = np.zeros((dims[n + 1], dims[n]), dtype=np.int64)
        _add_kron(d, 1, rho_bar, t ** n, 1)
        for i in range(1, n + 1):
            _add_kron(d, mm * t ** (i - 1), delta_bar, t ** (n - i), (-1) ** i)
        diffs.append(d % p)
    return DenseComplex(p, dims[: n_max + 1], diffs)


def primitive_rank(g, d):
    """Independent oracle: rank of {f in O(G)_<=d : Delta(f) = f(x)1 + 1(x)f}."""
    basis = g.filtration_basis(d)
    index = {m: i for i, m in enumerate(basis)}
    pairs = {}
    rows = []
    for col, m in enumerate(basis):
        lin = dict(g.coproduct_mono(m))
        one = g.one_mono()
        lin[(m, one)] = lin.get((m, one), 0) - 1
        lin[(one, m)] = lin.get((one, m), 0) - 1
        for key, c in lin.items():
            if c % g.p:
                pairs.setdefault(key, len(pairs))
                rows.append((pairs[key], col, c % g.p))
    mat = np.zeros((len(pairs), len(basis)), dtype=np.int64)
    for r, c, v in rows:
        mat[r, c] = v
    return len(basis) - matrank(mat, g.p)


def test_subcoalgebra_structure_constants():
    c = SubCoalgebra.canonical(GA2, 3)
    assert c.dim == 4
    assert c.unit.tolist() == [1, 0, 0, 0]
    # Delta(t) = t(x)1 + 1(x)t: the entries (a, b, k) = (0, 1, 1) and (1, 0, 1)
    a, b, k, v = c.delta_matrix
    assert sorted(zip(a[k == 1].tolist(), b[k == 1].tolist(), v[k == 1].tolist())) == [
        (0, 1, 1), (1, 0, 1)]


def test_subcoalgebra_rejects_bad_subspaces():
    # span{1, t^3} is not a sub-coalgebra over F_2
    monos = [0, 1, 2, 3]
    rows = np.zeros((2, 4), dtype=np.int64)
    rows[0, 0] = rows[1, 3] = 1
    with pytest.raises(ValueError):
        SubCoalgebra(GA2, monos, Subspace.from_rows(rows, 4, 2))
    # the grouplike line span{t} over Gm is a sub-coalgebra without the unit
    with pytest.raises(UnsupportedOperation):
        SubCoalgebra(GM3, [0, 1], Subspace.from_rows([[0, 1]], 2, 3))


def test_coefficient_blocks_reject_escaping_coefficients():
    c = SubCoalgebra.canonical(GA2, 1)
    with pytest.raises(NotACComoduleError):
        c.coefficient_blocks(regular(GA2, 2))
    blocks = dense_blocks(c, regular(GA2, 1))
    assert blocks[0].tolist() == [[1, 0], [0, 1]]
    assert blocks[1].tolist() == [[0, 1], [0, 0]]


def reference_coefficient_blocks(c, m):
    """Oracle: F^a one coefficient f_{ji} at a time, one `coords` call each,
    failing at the first f_{ji} in `m.coeffs` order that is not in C."""
    p = c.group.p
    blocks = [np.zeros((m.dim, m.dim), dtype=np.int64) for _ in range(c.dim)]
    for (j, i), f in m.coeffs.items():
        vec = np.zeros(len(c.monos), dtype=np.int64)
        for mono, coef in f.coeffs.items():
            if mono not in c.index:
                raise NotACComoduleError(
                    f"coefficient f[{j},{i}] = {f} is not in the sub-coalgebra "
                    f"(monomial {c.group.mono_str(mono)} outside the span)")
            vec[c.index[mono]] = coef % p
        coords = c.space.coords(vec)
        if coords is None:
            raise NotACComoduleError(
                f"coefficient f[{j},{i}] = {f} is not in the sub-coalgebra")
        for a in np.nonzero(coords)[0]:
            blocks[int(a)][j, i] = int(coords[a])
    return blocks


def reversed_basis(m):
    """m with its basis in reverse order: each column lists rows last to first."""
    n = m.dim
    return Comodule(m.group, m.basis_labels[::-1],
                    [{n - 1 - j: f for j, f in m.column(n - 1 - i).items()}
                     for i in range(n)])


def blocks_or_message(fn, *args):
    try:
        return [b.tolist() for b in fn(*args)]
    except NotACComoduleError as exc:
        return str(exc)


def test_coefficient_blocks_match_the_per_entry_reference():
    cases = [(SubCoalgebra.canonical(group_from_spec(spec), d),
              build_module(text, group_from_spec(spec)))
             for spec, text, d, _ in COBAR_CASES]
    cases += [(c, level) for _, _, _, c, level in injectivity_oracle_levels()]
    # C = span{1, t + t^2} over F_2: t + t^2 is primitive, and t^2 is a
    # non-pivot column of C's basis
    x = ExplicitSubspace.from_elements(GA2, [GA2.one(), GA2.element({1: 1, 2: 1})])
    cx = SubCoalgebra(x.group, x.monos, x.space)
    assert cx.space.pivots == (0, 1)
    level = restrict(regular(GA2, 2), x).comodule
    assert level.dim == 2 and level.coefficient(0, 1) == GA2.element({1: 1, 2: 1})
    cases.append((cx, level))
    # failures: the first bad entry in m.coeffs order is neither the least
    # (j, i) nor, in the last case, the first row that falls outside C
    gl = group_from_spec("GL:2@p=2")
    t, t3 = GA2.element({1: 1}), GA2.element({3: 1})
    failing = [(cx, regular(GA2, 1)), (SubCoalgebra.canonical(GA2, 1), regular(GA2, 2)),
               (SubCoalgebra.canonical(GA2, 2), regular(GA2, 3)),
               (SubCoalgebra.canonical(GA2, 1), reversed_basis(regular(GA2, 3))),
               (SubCoalgebra.canonical(gl, 1), build_module("detpow(-1)", gl)),
               (cx, Comodule(GA2, ["a", "b"], [{0: t, 1: t3}, {1: GA2.one()}]))]
    for c, m in cases + failing:
        want = blocks_or_message(reference_coefficient_blocks, c, m)
        assert blocks_or_message(dense_blocks, c, m) == want, (c.monos, m)
    # the entries are nonzero and sorted by (a, j, i)
    for c, m in cases:
        a, j, i, v = c.coefficient_blocks(m)
        assert (np.diff((a * m.dim + j) * m.dim + i) > 0).all() and v.all()
    messages = [blocks_or_message(reference_coefficient_blocks, c, m) for c, m in failing]
    assert all(isinstance(msg, str) for msg in messages)
    assert messages[0] == "coefficient f[0,1] = t^1 is not in the sub-coalgebra"
    assert messages[3] == ("coefficient f[3,0] = t^3 is not in the sub-coalgebra "
                           "(monomial t^3 outside the span)")
    assert messages[5] == "coefficient f[0,0] = t^1 is not in the sub-coalgebra"


def test_differential_kills_primitives_in_degree_one():
    c = SubCoalgebra.canonical(GA2, 2)
    cx = reference_cobar_complex(c, trivial(GA2), 2)
    # CH^1 = C with basis 1, t, t^2; t and t^2 are primitive, so d^1 kills them
    assert not np.any(cx.diffs[1][:, 1]) and not np.any(cx.diffs[1][:, 2])
    # d^2 after d^1 is checked at construction; spot-check the shapes too
    assert cx.dims == [1, 3, 9]
    assert cx.diffs[2].shape == (27, 9)


def test_h0_equals_fixed_points():
    cases = [(GA2, "regular(2)", 2), (GM3, "regular(1)", 1),
             (group_from_spec("U:2@p=2"), "natural", 1),
             (GM3, "dual(regular(2))", 2)]
    for g, text, d in cases:
        m = build_module(text, g)
        c = SubCoalgebra.canonical(g, d)
        h = cohomology_dims(cobar_complex(c, m, 2))
        assert h[0] == restrict(m, CanonicalLevel(g, 0)).dim


def test_h1_of_trivial_matches_primitive_rank():
    want = {1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 8: 4}
    for d, expected in want.items():
        assert primitive_rank(GA2, d) == expected
        c = SubCoalgebra.canonical(GA2, d)
        h = cohomology_dims(cobar_complex(c, trivial(GA2), 2))
        assert h[1] == expected


def test_h1_nondecreasing_along_levels():
    h1 = []
    for d in range(1, 7):
        c = SubCoalgebra.canonical(GA2, d)
        h1.append(cohomology_dims(cobar_complex(c, trivial(GA2), 1))[1])
    assert all(a <= b for a, b in zip(h1, h1[1:]))


def test_level_inclusions_are_chain_maps():
    small = SubCoalgebra.canonical(GA2, 2)
    big = SubCoalgebra.canonical(GA2, 4)
    cx_s = reference_cobar_complex(small, trivial(GA2), 2)
    cx_b = reference_cobar_complex(big, trivial(GA2), 2)
    inc = np.zeros((big.dim, small.dim), dtype=np.int64)
    for i, m in enumerate(small.monos):
        inc[big.index[m], i] = 1
    for n in range(2):
        inc_n = np.eye(1, dtype=np.int64)
        for _ in range(n):
            inc_n = np.kron(inc_n, inc)
        inc_n1 = np.kron(inc_n, inc)
        assert not np.any((cx_b.diffs[n] @ inc_n - inc_n1 @ cx_s.diffs[n]) % 2)


def test_normalized_complex_of_the_trivial_module():
    c = SubCoalgebra.canonical(GA2, 2)
    cx = reference_normalized_complex(c, trivial(GA2), 2)
    # CH^n = Cbar^(x n) with Cbar = span{t, t^2}, both primitive: d^1 = 0
    assert cx.dims == [1, 2, 4]
    assert not np.any(cx.diffs[1])
    assert cx.diffs[2].shape == (8, 4)


# (group, module, d, n_max): the cobar cases of the tests, the demos and the
# benchmark, then a point level, a large prime, a deep complex, p = 3 and a
# level whose counit is nonzero on several basis monomials
COBAR_CASES = [
    ("Ga@p=2", "regular(2)", 2, 2), ("Gm@p=3", "regular(1)", 1, 2),
    ("U:2@p=2", "natural", 1, 2), ("Gm@p=3", "dual(regular(2))", 2, 2),
    ("Ga@p=2", "sum(triv,regular(1))", 1, 2), ("Gm@p=3", "regular(2)", 2, 1),
    *[("Ga@p=2", "triv", d, 2) for d in (1, 2, 3, 4, 5, 6, 8)],
    ("Gm@p=3", "dual(regular(2))", 2, 3), ("Ga@p=2", "regular(2)", 4, 3),
    ("U:3@p=2", "natural", 2, 2), ("GL:2@p=2", "natural", 1, 3),
    ("Ga@p=2", "triv", 0, 2), ("SL:2@p=65521", "natural", 1, 3),
    ("Ga@p=2", "triv", 3, 5), ("U:3@p=3", "natural", 1, 3),
    ("SL:2@p=3", "sym(2,natural)", 2, 2),
]


def test_normalized_and_full_complexes_have_equal_cohomology():
    # the engine's complex on C/k.1 and the oracle's on ker(epsilon) share no
    # factor code; both must rank as the full complex does
    def both(c, m, n):
        cx = reference_normalized_complex(c, m, n)
        assert cx.dims == [m.dim * (c.dim - 1) ** k for k in range(n + 1)]
        normalized = cx.cohomology_dims()
        assert cohomology_dims(cobar_complex(c, m, n)) == normalized
        return normalized, reference_cobar_complex(c, m, n).cohomology_dims()

    for spec, text, d, n in COBAR_CASES:
        g = group_from_spec(spec)
        normalized, full = both(SubCoalgebra.canonical(g, d), build_module(text, g), n)
        assert normalized == full, (spec, text, d, n)
    # the closures of the injectivity oracle below, and proper sub-coalgebras:
    # span{1, t^2}, and span{1, t + t^2}, whose basis vector t + t^2 mixes
    # the weights 1 and 2, so the engine falls back to one block
    for spec, text, d, c, level in injectivity_oracle_levels():
        normalized, full = both(c, level, 1)
        assert normalized == full, (spec, text, d)
    for top, parts in (({2: 1}, 5), ({1: 1, 2: 1}, 1)):
        x = ExplicitSubspace.from_elements(GA2, [GA2.one(), GA2.element(top)])
        c = SubCoalgebra(x.group, x.monos, x.space)
        level = restrict(regular(GA2, 2), x).comodule
        normalized, full = both(c, level, 3)
        assert normalized == full, top
        assert weight_classes(cobar_complex(c, level, 3)) == parts, top


def test_the_normalized_factors_eliminate_and_multiply_nothing(monkeypatch):
    # the unit is a basis vector of C, so rho_bar and delta_bar are entries
    # of F and D: no kernel of epsilon, no elimination and no matrix product
    def called(*args, **kw):
        raise AssertionError("a dense kernel, rref or product was taken")

    cases = []
    for spec, text, d, _ in COBAR_CASES:
        g = group_from_spec(spec)
        c = SubCoalgebra.canonical(g, d)
        m = build_module(text, g)
        cases.append((c, c.coefficient_blocks(m), m.dim))
    for module, name in [(linalg, "rref"), (linalg, "kernel"), (linalg, "matmul_mod"),
                         (cobar, "kernel")]:
        monkeypatch.setattr(module, name, called)
    for c, f, mm in cases:
        assert c.unit[_normalized_factors(c, f, mm)[2]] == 1


def test_a_unit_off_the_first_basis_vector():
    # monomials out of mono_key order put 1 at b_1 of Ga's level 2, at b_4 of
    # GL(2)'s level 1 and at b_9 of U(3)'s level 2, which is its own unit
    # block: the unit is still a standard basis vector, and the complex on
    # C/k.1 drops that index, not the first
    gl, u3 = group_from_spec("GL:2@p=2"), group_from_spec("U:3@p=2")
    cases = [(GA2, [2, 0, 1], "regular(2)", 1), (GA2, [2, 0, 1], "triv", 3),
             (gl, gl.filtration_basis(1)[::-1], "natural", 3),
             (gl, gl.filtration_basis(1)[::-1], "triv", 2),
             (u3, u3.filtration_basis(2)[::-1], "natural", 2)]
    for g, monos, text, n in cases:
        c = SubCoalgebra(g, monos, Subspace.full(len(monos), g.p))
        m = build_module(text, g)
        u = monos.index(g.one_mono())
        assert u > 0 and c.unit.tolist() == np.eye(c.dim, dtype=np.int64)[u].tolist()
        want = reference_cobar_complex(c, m, n).cohomology_dims()
        assert cohomology_dims(cobar_complex(c, m, n)) == want, (monos, text)
        assert reference_normalized_complex(c, m, n).cohomology_dims() == want


def tampered(cx, n, k):
    """The engine's differentials with the value of entry k of d^n flipped
    over F_2."""
    diffs = [d.copy() for d in cx.diffs]
    diffs[n][2, k] ^= 1
    return diffs


def test_tampered_differential_fails_the_square_check():
    cx = cobar_complex(SubCoalgebra.canonical(GA2, 8), trivial(GA2), 2)
    d1, d2 = cx.diffs[1], cx.diffs[2]
    # an entry of d^2 in a column where d^1 is nonzero
    k = int(np.flatnonzero(np.isin(d2[1], d1[0]))[0])
    with pytest.raises(InternalInvariantError, match=r"d\^2 after d\^1 is nonzero"):
        ChainComplex(2, cx.codes, tampered(cx, 2, k))


def test_tampered_weight_block_fails_the_square_check():
    cx = cobar_complex(SubCoalgebra.canonical(GA2, 8), trivial(GA2), 2)
    # one class per total t-degree 1..24 of CH^0..CH^2 (degree 0 is CH^0)
    assert weight_classes(cx) == 17 and cx.dims == [1, 8, 64]
    d1, d2 = cx.diffs[1], cx.diffs[2]
    # an entry of d^1, inside one weight class, in a row where d^2 is nonzero
    k = int(np.flatnonzero(np.isin(d1[0], d2[1]))[0])
    assert cx.codes[2][d1[0, k]] == cx.codes[1][d1[1, k]]
    with pytest.raises(InternalInvariantError, match=r"d\^2 after d\^1 is nonzero"):
        ChainComplex(2, cx.codes, tampered(cx, 1, k))


def test_cobar_ranks_build_no_dense_weight_block():
    # U(3) regular(2) d2 n3: the dense weight blocks of d^0..d^3 held 11.5 M
    # cells, and the ranks peaked at 102 MiB
    g = group_from_spec("U:3@p=2")
    c, m = SubCoalgebra.canonical(g, 2), build_module("regular(2)", g)
    assert cohomology_dims(cobar_complex(c, m, 3)) == [1, 0, 0, 0]
    tracemalloc.start()
    try:
        assert cohomology_dims(cobar_complex(c, m, 3)) == [1, 0, 0, 0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_cobar_of_gl2_level_four_builds_no_dense_structure_constants():
    # GL(2) regular(2) d4 n2, with s = 85: the level's dense (s^2, s)
    # constants alone took 4.8 MiB, and the whole job peaked there
    g = group_from_spec("GL:2@p=2")
    limits = Limits(max_coalgebra_dim=85, max_chain_dim=10 ** 8)
    m = build_module("regular(2)", g)

    def job():
        c = SubCoalgebra.canonical(g, 4, limits)
        assert c.dim == 85
        return cohomology_dims(cobar_complex(c, m, 2, limits))

    assert job() == [1, 0, 0]
    tracemalloc.start()
    try:
        assert job() == [1, 0, 0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_the_engine_splits_by_the_unit_block_and_by_weight():
    def parts(spec, text, d, n):
        g = group_from_spec(spec)
        cx = cobar_complex(SubCoalgebra.canonical(g, d), build_module(text, g), n)
        return cx.dims, weight_classes(cx)

    # C0 = k: H^0 = M_{C0}, no higher chain groups
    assert parts("GL:2@p=2", "natural", 1, 3) == ([0, 0, 0, 0], 0)
    assert parts("Gm@p=3", "dual(regular(2))", 2, 3) == ([1, 0, 0, 0], 1)
    # SL(2) at d = 2: C0 is 1 and the nine even monomials of degree 2
    assert parts("SL:2@p=2", "triv", 2, 2) == ([1, 9, 81], 9)
    # U(3): one block, split by weight alone
    assert parts("U:3@p=2", "natural", 2, 2)[0] == [3, 27, 243]


def test_the_unit_block_is_read_off_cs_rref_rows(monkeypatch):
    # C0's rows are C's RREF rows in the unit's block, restricted to the
    # columns they touch: the same Subspace, pivots included, as a fresh
    # row reduction of them gives, found with no rref
    cases = []
    for spec, text, d, _ in COBAR_CASES:
        g = group_from_spec(spec)
        c = SubCoalgebra.canonical(g, d)
        rows = np.array([row for row in c.space.basis
                         if all(g.block(c.monos[k]) == 0 for k in row.nonzero()[0])])
        cols = np.flatnonzero(rows.any(axis=0))
        cases.append((c, [c.monos[k] for k in cols],
                      Subspace.from_rows(rows[:, cols], len(cols), g.p)))
    assert any(len(monos) < c.dim for c, monos, _ in cases)

    def called(*args, **kw):
        raise AssertionError("a dense rref was taken")

    monkeypatch.setattr(linalg, "rref", called)
    for c, monos, want in cases:
        c0 = cobar._unit_block(c, Limits())
        assert c0.monos == monos
        assert c0.space == want and c0.space.pivots == want.pivots


def test_the_unit_blocks_constants_are_sliced_from_cs():
    # C0's structure constants are C's entries whose b_k lies in the unit
    # block, renumbered: the same (4, nnz) array, order included, as
    # `structure_constants` gives on C0 itself, with no second coproduct
    cases = []
    for spec, text, d, _ in COBAR_CASES:
        c = SubCoalgebra.canonical(group_from_spec(spec), d)
        c0 = cobar._unit_block(c, Limits())
        if c0 is not c:
            cases.append((c, c0))
    assert len(cases) >= 5
    for c, c0 in cases:
        want = filtration.structure_constants(c.group, c0.monos, c0.space)
        assert np.array_equal(c0.delta_matrix, want), (c.group, c.dim)
        assert np.array_equal(c0.unit, c0.unit_coords()) and c0.index == {
            m: i for i, m in enumerate(c0.monos)}


def test_a_unit_block_constant_with_a_leg_outside_it_is_an_internal_invariant_error():
    # GL(2) at d = 1: C0 = k.1, and Delta(1) given the leg x11 besides 1 (x) 1
    c = SubCoalgebra.canonical(group_from_spec("GL:2@p=2"), 1)
    u = int(np.flatnonzero(c.unit)[0])
    x = next(a for a in range(c.dim) if a != u)
    c.delta_matrix = np.concatenate([c.delta_matrix, [[x], [u], [u], [1]]], axis=1)
    with pytest.raises(InternalInvariantError, match="unit block leaves it"):
        cobar._unit_block(c, Limits())


def test_a_subcoalgebra_is_its_own_filtration_level():
    # restrict(m, c) reads C as the explicit level X = span(C) it is
    cases = [(SubCoalgebra.canonical(group_from_spec(spec), d), text)
             for spec in ("GL:2@p=2", "U:3@p=2") for d in range(3)
             for text in ("natural", "regular(2)")]
    # C0 of `cobar GL:2@p=2 regular(2) d2`
    c = SubCoalgebra.canonical(group_from_spec("GL:2@p=2"), 2)
    c0 = cobar._unit_block(c, Limits())
    assert c0.dim < c.dim
    cases.append((c0, "regular(2)"))
    # span{1, t^2} and span{1, t + t^2}: t^2 is a non-pivot monomial of the second
    cases += [(c, "regular(3)") for c, _ in proper_subcoalgebra_levels()]
    dims = []
    for c, text in cases:
        m = build_module(text, c.group)
        got = restrict(m, c)
        want = restrict(m, ExplicitSubspace(c.group, c.monos, c.space))
        assert got.subspace == want.subspace and got.comodule == want.comodule
        # the blocks `restrict` keeps are the split of the comodule it builds
        assert np.array_equal(got.blocks, c.coefficient_blocks(got.comodule))
        dims.append((got.dim, m.dim))
    assert any(0 < d < n for d, n in dims) and dims[-3][0] < dims[-3][1]
    assert all(0 < d < n for d, n in dims[-2:])


def test_an_entry_joining_unequal_weights_is_an_internal_invariant_error(monkeypatch):
    # t^a given weight a^2: each basis is homogeneous and the walk consistent,
    # but Delta(t^3) = t (x) t^2 + t^2 (x) t joins weight 9 to weight 5
    monkeypatch.setattr(type(GA2), "weight", lambda self, mono: (mono * mono,))
    c = SubCoalgebra.canonical(GA2, 3)
    with pytest.raises(InternalInvariantError, match="unequal torus weight"):
        cobar_complex(c, trivial(GA2), 2)


# ---------------------------------------------------------------------------
# injectivity

def kronecker_rows(f, lam_c, p):
    """The stage-1 block as Kronecker products, reduced, without zero rows."""
    s, mm = lam_c.shape[0], f.shape[0]
    blk = (np.kron(np.eye(s, dtype=np.int64), f)
           - np.kron(lam_c.T, np.eye(mm, dtype=np.int64))) % p
    return blk[blk.any(axis=1)]


def densify(triples, nrows, ncols, p):
    """The matrix of (rows, cols, vals) triples, duplicate keys summed, mod p."""
    rows, cols, vals = triples
    out = np.zeros((nrows, ncols), dtype=np.int64)
    np.add.at(out, (rows, cols), vals)
    return out % p


def stacked_kronecker_rows(blocks, lam, p):
    s = blocks.shape[0]
    return np.vstack([kronecker_rows(blocks[cc], lam[cc::s], p) for cc in range(s)])


def test_stage1_rows_are_the_nonzero_kronecker_rows():
    for spec, text, d in [("Ga@p=2", "regular(2)", 2), ("Gm@p=3", "dual(regular(2))", 2),
                          ("U:3@p=3", "regular(2)", 2), ("GL:2@p=2", "natural", 1),
                          ("SL:2@p=2", "regular(2)", 2), ("Ga@p=2", "triv", 3)]:
        g = group_from_spec(spec)
        c = SubCoalgebra.canonical(g, d)
        m = build_module(text, g)
        blocks = dense_blocks(c, m)
        s, mm = c.dim, m.dim
        got = densify(_stage1_triples(c.coefficient_blocks(m), mm, c.delta_matrix, s),
                      s * s * mm, s * mm, g.p)
        assert np.array_equal(got[got.any(axis=1)],
                              stacked_kronecker_rows(blocks, dense_delta(c), g.p))
    rng = np.random.default_rng(7)
    for trial in range(60):
        p = (2, 3, 65521)[trial % 3]
        s, mm = (int(v) for v in rng.integers(1, 8, size=2))
        blocks = rng.integers(0, p, size=(s, mm, mm)) * (rng.random((s, mm, mm)) < 0.2)
        lam = rng.integers(0, p, size=(s * s, s)) * (rng.random((s * s, s)) < 0.2)
        if trial % 4 == 0:
            # diagonal entries F^c[j, j] - lambda^k_{kc} that cancel to zero
            for cc in range(s):
                np.fill_diagonal(blocks[cc], 1)
                np.fill_diagonal(lam[cc::s], 1)
        got = densify(_stage1_triples(entries(blocks), mm, entries(lam.reshape(s, s, s)), s),
                      s * s * mm, s * mm, p)
        assert np.array_equal(got[got.any(axis=1)], stacked_kronecker_rows(blocks, lam, p))


def reference_stage1_rows(f, lam_c):
    """The nonzero rows of I_s (x) F^c - lambda_c^T (x) I_m, written by index
    into a zeroed (k, j, a, i) array, with lam_c[a, k] = lambda^k_{ac}."""
    s, mm = lam_c.shape[0], f.shape[0]
    ks, js = np.arange(s), np.arange(mm)
    blk = np.zeros((s, mm, s, mm), dtype=np.int64)
    blk[ks, :, ks, :] = f
    blk[:, js, :, js] -= lam_c.T
    blk = blk.reshape(s * mm, s * mm)
    return blk[blk.any(axis=1)]


def reference_stage1_kernel(c, blocks):
    """Oracle: the space of comodule maps C -> M, with the stage-1 rows of each
    c fed densely to an `IncrementalRREF`."""
    p, s, mm = c.group.p, c.dim, blocks.shape[1]
    acc, lam = IncrementalRREF(s * mm, p), dense_delta(c)
    for cc in range(s):
        acc.add_rows(reference_stage1_rows(blocks[cc], lam[cc::s]))
    return kernel(acc.rows, p) if acc.rank else Subspace.full(s * mm, p)


def test_stage1_kernel_matches_the_row_by_row_reference():
    cases = [(SubCoalgebra.canonical(group_from_spec(spec), d),
              build_module(text, group_from_spec(spec)))
             for spec, text, d, _ in COBAR_CASES]
    cases += [(c, level) for _, _, _, c, level in injectivity_oracle_levels()]
    # the top level of `inject SL:2@p=2 regular(3) d3`, and levels of GL:2 and
    # SL:2 at p = 2^31 - 1
    for spec, text, d in [("SL:2@p=2", "regular(3)", 3),
                          ("GL:2@p=2147483647", "regular(2)", 2),
                          ("SL:2@p=2147483647", "regular(2)", 2)]:
        g = group_from_spec(spec)
        x = coalgebra_closure(g, CanonicalLevel(g, d)).subspace
        c = SubCoalgebra(x.group, x.monos, x.space)
        cases.append((c, restrict(build_module(text, g), CanonicalLevel(g, d)).comodule))
    assert len(cases) == len(COBAR_CASES) + 78 + 3
    assert cases[-3][0].dim * cases[-3][1].dim == 900
    for c, m in cases:
        want = reference_stage1_kernel(c, dense_blocks(c, m))
        got = sparse_kernel(*_stage1_triples(c.coefficient_blocks(m), m.dim, c.delta_matrix,
                                             c.dim), c.dim * m.dim, c.group.p)
        assert got == want and got.pivots == want.pivots, (c.monos, m.basis_labels)


def reference_injective_test(c, m):
    """Oracle: the two-stage retraction solve from dense matrices.  Stage 1
    feeds the dense rows of each c to an `IncrementalRREF`
    (`reference_stage1_kernel`); stage 2 is the (m^2, t m) system over all of
    W, built by one product and solved by the dense `solve`."""
    p, s, mm = c.group.p, c.dim, m.dim
    if mm == 0:
        return True
    blocks = dense_blocks(c, m)
    w = reference_stage1_kernel(c, blocks)
    t = w.dim
    if t == 0:
        return False
    # P[u, r, j, i] = sum_a phi_u(b_a)[r] F^a[j, i]; equation (r, i), unknown (u, j)
    phis = w.basis.reshape(t, s, mm).transpose(0, 2, 1).reshape(t * mm, s)
    prod = matmul_mod(phis, blocks.reshape(s, mm * mm), p)
    mat = prod.reshape(t, mm, mm, mm).transpose(1, 3, 0, 2).reshape(mm * mm, t * mm)
    return solve(mat, np.eye(mm, dtype=np.int64).reshape(-1), p) is not None


def proper_subcoalgebra_levels():
    """(C, M_C) for span{1, t^2} and span{1, t + t^2} over F_2, M = regular(2):
    the basis vector t + t^2 mixes the weights 1 and 2."""
    for top in ({2: 1}, {1: 1, 2: 1}):
        x = ExplicitSubspace.from_elements(GA2, [GA2.one(), GA2.element(top)])
        yield SubCoalgebra(x.group, x.monos, x.space), restrict(regular(GA2, 2), x).comodule


def test_the_sparse_solve_matches_the_dense_reference():
    cases = [(SubCoalgebra.canonical(group_from_spec(spec), d),
              build_module(text, group_from_spec(spec)))
             for spec, text, d, _ in COBAR_CASES]
    cases += [(c, level) for _, _, _, c, level in injectivity_oracle_levels()]
    cases += list(proper_subcoalgebra_levels())
    for spec, text, d in [("GL:2@p=2147483647", "regular(2)", 2),
                          ("SL:2@p=2147483647", "regular(2)", 2),
                          ("GL:2@p=2147483647", "natural", 1),
                          ("U:3@p=2", "regular(2)", 2), ("SL:2@p=3", "regular(2)", 2)]:
        g = group_from_spec(spec)
        cases.append((SubCoalgebra.canonical(g, d),
                      restrict(build_module(text, g), CanonicalLevel(g, d)).comodule))
    verdicts = []
    for c, m in cases:
        verdict = injective_test(c, m)
        assert verdict == reference_injective_test(c, m), (c.monos, m.basis_labels)
        verdicts.append(verdict)
    assert len(cases) == len(COBAR_CASES) + 78 + 2 + 5
    assert 0 < sum(verdicts) < len(verdicts)


def stage2_shapes(monkeypatch, spec, text, d):
    """The shape of the stage-2 system A x = b that `injective_test` hands to
    `sparse_solvable`, as the triples of [A | -b], at the level O(G)_{<=d}
    of a module, and its verdict.  The last equation, (m-1, m-1), holds b's
    last 1, so the largest row gives the number of equations."""
    shapes = []

    def recorded(rows, cols, vals, ncols, p):
        shapes.append((int(np.max(rows)) + 1, ncols - 1))
        return linalg.sparse_solvable(rows, cols, vals, ncols, p)

    monkeypatch.setattr(cobar, "sparse_solvable", recorded)
    g = group_from_spec(spec)
    level = restrict(build_module(text, g), CanonicalLevel(g, d)).comodule
    return shapes, injective_test(SubCoalgebra.canonical(g, d), level)


def test_stage2_is_the_whole_system_the_ceiling_counts(monkeypatch):
    # stage 2 is the m^2 x t m system: t = m = 30 at the top level of
    # `inject SL:2@p=2 regular(3) d3`, t = m = 20 for U(3) at p = 3, and
    # t = m = 5 for Gm
    assert stage2_shapes(monkeypatch, "SL:2@p=2", "regular(3)", 3) == ([(900, 900)], True)
    assert stage2_shapes(monkeypatch, "U:3@p=3", "regular(3)", 3) == ([(400, 400)], True)
    assert stage2_shapes(monkeypatch, "Gm@p=3", "regular(2)", 2) == ([(25, 25)], True)


def test_the_solver_ceiling_refuses_a_level_by_its_stage2_unknowns():
    # level 2 of Ga's regular(2) + regular(2): s = 3, m = 6 and t = 6, so the
    # ceiling on the t m = 36 unknowns solved refuses the job, not s m = 18
    c = SubCoalgebra.canonical(GA2, 2)
    level = restrict(build_module("sum(regular(2),regular(2))", GA2),
                     CanonicalLevel(GA2, 2)).comodule
    with pytest.raises(ResourceLimitError, match="retraction system unknowns = 36"):
        injective_test(c, level, Limits(max_solver_unknowns=35))
    assert injective_test(c, level, Limits(max_solver_unknowns=36))


def test_the_stage2_solve_eliminates_no_all_zero_column(monkeypatch):
    # the top level of `inject SL:2@p=2 regular(3) d3`: the peel leaves a
    # core of 107 rows and 106 columns, 434 entries, of the 900 x 901
    # system.  The elimination holds the core as rows of entries, so it
    # meets only those rows and columns, and it takes no dense `rref`
    systems, cores, dense = [], [], []
    monkeypatch.setattr(cobar, "sparse_solvable",
                        lambda *args: systems.append(args) or linalg.sparse_solvable(*args))
    g = group_from_spec("SL:2@p=2")
    level = restrict(build_module("regular(3)", g), CanonicalLevel(g, 3)).comodule
    assert injective_test(SubCoalgebra.canonical(g, 3), level)
    eliminate, rref = linalg.eliminate, linalg.rref
    monkeypatch.setattr(linalg, "eliminate",
                        lambda *args, **kw: cores.append(args[:2]) or eliminate(*args, **kw))
    monkeypatch.setattr(linalg, "rref", lambda mat, p: dense.append(mat) or rref(mat, p))
    assert [linalg.sparse_solvable(*args) for args in systems] == [True]
    assert [(len(set(r.tolist())), len(set(c.tolist())), len(r)) for r, c in cores] == [
        (107, 106, 434)]
    assert dense == []


def test_cobar_ranks_take_no_dense_rref(monkeypatch):
    # each core the peel leaves is eliminated as rows of entries
    calls, entries = [], []
    rref, eliminate = linalg.rref, cobar.eliminate
    monkeypatch.setattr(linalg, "rref", lambda mat, p: calls.append(mat) or rref(mat, p))
    monkeypatch.setattr(cobar, "eliminate",
                        lambda *args, **kw: entries.append(len(args[0])) or eliminate(*args, **kw))
    for spec, text, d, n in COBAR_CASES:
        g = group_from_spec(spec)
        cx = cobar_complex(SubCoalgebra.canonical(g, d), build_module(text, g), n)
        calls.clear()
        cohomology_dims(cx)
        assert calls == [], (spec, text, d, n)
    assert max(entries) > 0


def reference_stage2_products(basis, blocks):
    """Oracle: every product W[u, a*m + r] F^a[j, i] of two nonzeros, in
    Python integers and not reduced, as (u*m + j, r*m + i, product)."""
    mm = blocks.shape[1]
    f_on = [[(j, i, int(blocks[a, j, i])) for j, i in zip(*np.nonzero(blocks[a]))]
            for a in range(blocks.shape[0])]
    return [(u * mm + j, r * mm + i, x * y)
            for u, row in enumerate(basis.tolist()) for col, x in enumerate(row) if x
            for a, r in [divmod(col, mm)] for j, i, y in f_on[a]]


def test_stage2_terms_are_every_product_on_a_shared_index_reduced():
    # the top level of `inject SL:2@p=2 regular(3) d3`, whose W and F hold 109
    # and 115 nonzeros, and levels at p = 2^31 - 1, where products pass p
    counts = []
    for spec, text, d in [("SL:2@p=2", "regular(3)", 3), ("U:3@p=3", "regular(3)", 2),
                          ("Ga@p=2147483647", "dual(regular(3))", 3),
                          ("SL:2@p=2147483647", "dual(sym(2,natural))", 2)]:
        g = group_from_spec(spec)
        c = SubCoalgebra.canonical(g, d)
        level = restrict(build_module(text, g), CanonicalLevel(g, d)).comodule
        f, mm = c.coefficient_blocks(level), level.dim
        w = sparse_kernel(*_stage1_triples(f, mm, c.delta_matrix, c.dim), c.dim * mm, g.p)
        got = sorted(zip(*(x.tolist() for x in _stage2_terms(w.basis, f, mm, g.p))))
        products = reference_stage2_products(w.basis, dense_blocks(c, level))
        assert got == sorted((k, e, x % g.p) for k, e, x in products), spec
        counts.append(len(products))
        if g.p > 3:
            assert max(x for _, _, x in products) >= g.p
    assert counts[0] == 436


def test_stage2_allocates_no_stacked_product():
    # the top level of `inject SL:2@p=2 regular(3) d3`: stage 2 once multiplied
    # 230 stacked 30 x 30 blocks, and the whole test peaked at 8.3 MiB
    g = group_from_spec("SL:2@p=2")
    c = SubCoalgebra.canonical(g, 3)
    level = restrict(build_module("regular(3)", g), CanonicalLevel(g, 3)).comodule
    assert injective_test(c, level)
    tracemalloc.start()
    try:
        assert injective_test(c, level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("spec", ["GL:2@p=2", "GL:2@p=3"])
def test_the_sparse_solve_matches_the_dense_reference_past_the_default_ceiling(spec):
    # level 3 of GL(2) has dimension 40, so s m = 1,600 for regular(3); the
    # default ceiling of 30 refuses it
    limits = Limits(max_coalgebra_dim=40)
    g = group_from_spec(spec)
    c = SubCoalgebra.canonical(g, 3, limits)
    level = restrict(build_module("regular(3)", g), CanonicalLevel(g, 3)).comodule
    assert c.dim * level.dim == 1600
    assert injective_test(c, level, limits) == reference_injective_test(c, level)


def test_regular_comodule_is_self_injective():
    for spec, d in [("Ga@p=2", 3), ("Gm@p=3", 2), ("U:2@p=2", 2)]:
        g = group_from_spec(spec)
        c = SubCoalgebra.canonical(g, d)
        assert injective_test(c, regular(g, d))


def test_trivial_module_is_not_injective_at_positive_levels():
    for d in (1, 2, 3):
        c = SubCoalgebra.canonical(GA2, d)
        assert not injective_test(c, trivial(GA2))
    assert injective_test(SubCoalgebra.canonical(GA2, 0), trivial(GA2))


def test_injectivity_respects_direct_sums():
    c = SubCoalgebra.canonical(GA2, 2)
    m, n = regular(GA2, 2), trivial(GA2)
    assert injective_test(c, direct_sum(m, m))
    assert not injective_test(c, direct_sum(m, n))


def test_injectivity_profile_of_regular_stream():
    assert injectivity_profile(GA2, regular_stream(GA2), 3) == [True] * 4


def test_injectivity_profile_detects_mock_injectivity():
    profile = injectivity_profile(GA2, translationinvariants(GA2), 4)
    assert profile[0] is True
    assert not all(profile)


# d <= 2 for the groups with 6 or 9 variables
LEVEL_CASES = ([(f"{kind}@p={p}", 3) for kind in ("Ga", "Gm", "M:1", "M:2", "U:2", "U:3",
                                                 "GL:1", "GL:2", "SL:1", "SL:2")
                for p in (2, 3)]
               + [(f"{kind}@p={p}", 2) for kind in ("M:3", "U:4", "GL:3", "SL:3")
                  for p in (2, 3)]
               + [("GL:2@p=65521", 3), ("SL:2@p=65521", 3)])


@pytest.mark.parametrize("spec, d_max", LEVEL_CASES)
def test_every_canonical_level_is_its_own_closure(spec, d_max):
    # what lets injectivity_profile test each level itself, without a closure
    g = group_from_spec(spec)
    for d in range(d_max + 1):
        closure = coalgebra_closure(g, CanonicalLevel(g, d))
        level = SubCoalgebra.canonical(g, d, limits=Limits(max_coalgebra_dim=10 ** 6))
        assert closure.subspace.monos == level.monos, (spec, d)
        assert closure.subspace.space == level.space, (spec, d)
        assert np.array_equal(closure.delta_matrix, level.delta_matrix), (spec, d)


def test_injectivity_profile_builds_each_coaction_once_and_no_closure(monkeypatch):
    built = []

    def counted(m):
        if m._coaction is None:
            built.append(m)
        return coaction(m)

    def no_closure(*args):
        raise AssertionError("injectivity_profile computed a closure")

    for module in (filtration, cobar):
        monkeypatch.setattr(module, "coaction", counted)
    monkeypatch.setattr(filtration, "coalgebra_closure", no_closure)
    monkeypatch.setattr(cobar, "coalgebra_closure", no_closure, raising=False)
    # over Ga the verdict is read off dimensions, so no M_X is built: a
    # finite module's coaction is built once for all five levels
    m = regular(GA2, 3)
    assert injectivity_profile(GA2, m, 4) == [True] * 4 + [False]
    assert built == [m]
    # a stream: once per generation (0, 0, 1, 1, 2, 2, 2, 2, 3 for d <= 8)
    built.clear()
    stream = build_module("primitives", GA2)
    assert injectivity_profile(GA2, stream, 8) == [True] + [False] * 8
    assert built == [stream.generate(n) for n in range(4)]
    # the retraction solve over Gm reads each level's F^a off `restrict`, so
    # no M_X comodule is built: M once for all four levels
    built.clear()
    m = regular(GM3, 2)
    assert injectivity_profile(GM3, m, 3) == [True] * 4
    assert built == [m]


def test_injectivity_over_a_proper_subcoalgebra():
    # span{1, t^2} and span{1, t + t^2} over F_2 are genuine sub-coalgebras;
    # the induced level of the regular comodule is injective over each, and
    # the trivial module is not.  The basis vector t + t^2 mixes weights, so
    # `cobar_complex` reads all of that level as one weight class
    (c2, level2), (c12, level12) = proper_subcoalgebra_levels()
    assert _weight_codes(c2, c2.coefficient_blocks(level2), level2.dim, 1)[1].tolist() == [0, 2]
    assert not any(x.any() for x in _weight_codes(
        c12, c12.coefficient_blocks(level12), level12.dim, 1))
    for c, level in ((c2, level2), (c12, level12)):
        assert injective_test(c, level) and reference_injective_test(c, level)
        assert not injective_test(c, trivial(GA2))
        assert not reference_injective_test(c, trivial(GA2))


INJECTIVITY_ORACLE_CASES = [
    ("Ga@p=2", ["triv", "regular(2)", "regular(3)",
                "sum(regular(1),twist(1,regular(1)))", "dual(regular(2))",
                "translationinvariants", "primitives"], 4),
    ("Ga@p=3", ["triv", "regular(2)", "primitives"], 4),
    ("U:3@p=2", ["triv", "natural", "regular(2)", "dual(natural)"], 3),
    ("U:2@p=3", ["triv", "natural", "regular(2)"], 3),
]


def injectivity_oracle_levels():
    """(spec, text, d, C, M_X) for the 78 levels of INJECTIVITY_ORACLE_CASES:
    C is the closure of X = O(G)_{<=d}."""
    for spec, texts, d_max in INJECTIVITY_ORACLE_CASES:
        g = group_from_spec(spec)
        for d in range(d_max + 1):
            x = coalgebra_closure(g, CanonicalLevel(g, d)).subspace
            c = SubCoalgebra(x.group, x.monos, x.space)
            for text in texts:
                m = build_module(text, g)
                target = m.generate(m.sufficiency(d)) if isinstance(m, StreamModule) else m
                yield spec, text, d, c, restrict(target, CanonicalLevel(g, d)).comodule


# the two inject jobs of the benchmark over unipotent groups, U(4) and p = 5
PROFILE_CASES = INJECTIVITY_ORACLE_CASES + [
    ("U:3@p=3", ["regular(3)"], 3), ("Ga@p=2", ["translationinvariants"], 8),
    ("U:4@p=2", ["triv", "natural", "regular(2)", "dual(natural)"], 2),
    ("Ga@p=5", ["triv", "regular(3)", "twist(1,regular(2))", "primitives",
                "translationinvariants"], 5),
]


def test_the_dimension_criterion_matches_the_retraction_solve():
    # over Ga and U, level d is injective iff dim M_{<=d} = dim M^G dim C_d;
    # the retraction solve of each level must give the same verdict
    levels = 0
    for spec, texts, d_max in PROFILE_CASES:
        g = group_from_spec(spec)
        for text in texts:
            m = build_module(text, g)
            want = []
            for d in range(d_max + 1):
                target = m.generate(m.sufficiency(d)) if isinstance(m, StreamModule) else m
                level = restrict(target, CanonicalLevel(g, d)).comodule
                want.append(injective_test(SubCoalgebra.canonical(g, d), level))
            assert injectivity_profile(g, m, d_max) == want, (spec, text)
            levels += len(want)
    assert levels == 78 + 4 + 9 + 4 * 3 + 5 * 6


def test_the_profile_solves_only_over_groups_that_are_not_unipotent(monkeypatch):
    calls = []

    def counted(c, m, limits=Limits()):
        calls.append(c.dim)
        return injective_test(c, m, limits)

    def refused(*args, **kw):
        raise AssertionError("a sub-coalgebra was built")

    monkeypatch.setattr(cobar, "injective_test", counted)
    monkeypatch.setattr(cobar, "SubCoalgebra", refused)
    for spec, text, d_max in [("Ga@p=2", "regular(3)", 4), ("Ga@p=3", "primitives", 9),
                              ("U:3@p=2", "regular(2)", 3)]:
        g = group_from_spec(spec)
        injectivity_profile(g, build_module(text, g), d_max)
    assert calls == []
    # one solve per level, and one SubCoalgebra built per profile: the top
    # level, from which every level's constants are sliced.  Each level
    # splits M once, in `restrict`, and the top level's coproduct is split
    # once; no M_X is split again by `coefficient_blocks`
    built, splits = [], []

    class Counted(SubCoalgebra):
        def __init__(self, *args, **kw):
            built.append(args[2].dim)
            super().__init__(*args, **kw)

        def coefficient_blocks(self, m):
            raise AssertionError("a level's M_X was split again")

    split = filtration._split
    monkeypatch.setattr(filtration, "_split", lambda *a: splits.append(a) or split(*a))
    monkeypatch.setattr(cobar, "SubCoalgebra", Counted)
    for spec, text, d_max in [("GL:2@p=2", "regular(2)", 2), ("SL:2@p=2", "natural", 2),
                              ("Gm@p=3", "regular(2)", 3)]:
        g = group_from_spec(spec)
        calls.clear()
        built.clear()
        splits.clear()
        injectivity_profile(g, build_module(text, g), d_max)
        assert calls == [g.filtration_dim(d) for d in range(d_max + 1)], spec
        assert built == [g.filtration_dim(d_max)], spec
        assert len(splits) == 1 + d_max + 1, spec
    # below a ceiling that falls inside d_max, the top level is the highest
    # within it, and the levels below the first one over it are solved:
    # SL(2) levels 0..3 have dimensions 1, 5, 14, 30
    g = group_from_spec("SL:2@p=2")
    built.clear()
    with pytest.raises(ResourceLimitError, match="sub-coalgebra dimension = 30"):
        injectivity_profile(g, build_module("regular(3)", g), 3, Limits(max_coalgebra_dim=20))
    assert built == [14] and calls[-3:] == [1, 5, 14]



def test_a_level_sliced_off_a_basis_not_sorted_by_degree_is_refused(monkeypatch):
    # the top level's basis reversed: its first basis vector, level 0's
    # slice, is of degree 2, so the slice is not O(G)_{<=0}
    g = group_from_spec("GL:2@p=2")
    basis = g.filtration_basis
    monkeypatch.setattr(g, "filtration_basis", lambda d: basis(d)[::-1])
    with pytest.raises(InternalInvariantError, match="level 0 is not a prefix"):
        injectivity_profile(g, build_module("natural", g), 2)


# the retraction solve's path: groups that are not unipotent, each level's
# constants sliced from one top-level build and its F read off `restrict`
SOLVED_ORACLE_CASES = [
    ("GL:2@p=2", ["triv", "natural", "regular(2)", "twiststream(1)"], 2),
    ("GL:2@p=3", ["natural", "dual(natural)", "tensor(natural,dual(natural))"], 2),
    ("SL:2@p=2", ["natural", "regular(2)", "sum(regular(3),triv)"], 3),
    ("SL:2@p=3", ["triv", "sym(2,natural)", "regular(2)"], 3),
    ("Gm@p=3", ["regular(2)", "dual(regular(2))", "sum(regular(1),triv)"], 3),
    ("M:2@p=2", ["triv", "natural", "regular(2)"], 2),
]


def test_the_solved_profile_matches_the_dense_oracle_level_by_level(monkeypatch):
    seen = []

    def recorded(c, m, limits=Limits()):
        seen.append((c, m))
        return injective_test(c, m, limits)

    monkeypatch.setattr(cobar, "injective_test", recorded)
    profiles = {}
    for spec, texts, d_max in SOLVED_ORACLE_CASES:
        g = group_from_spec(spec)
        for text in texts:
            m = build_module(text, g)
            seen.clear()
            profiles[spec, text] = profile = injectivity_profile(g, m, d_max)
            assert len(seen) == len(profile) == d_max + 1
            for d, ((c, level), verdict) in enumerate(zip(seen, profile)):
                # the sliced level is the one built on its own, constants in order
                monos = g.filtration_basis(d)
                assert c.monos == monos and c.space == Subspace.full(len(monos), g.p)
                assert np.array_equal(c.delta_matrix, structure_constants(g, monos, c.space))
                # F from `restrict` against C_d is the split of the comodule
                # induced on the canonical level, entry for entry
                target = m.generate(m.sufficiency(d)) if isinstance(m, StreamModule) else m
                canonical = restrict(target, CanonicalLevel(g, d))
                blocks = c.coefficient_blocks(canonical.comodule)
                assert np.array_equal(level.blocks, blocks), (spec, text, d)
                assert level.comodule == canonical.comodule
                assert verdict == reference_injective_test(c, canonical.comodule), (spec, text, d)
    verdicts = [v for profile in profiles.values() for v in profile]
    assert len(verdicts) == 4 * 3 + 3 * 3 + 3 * 4 + 3 * 4 + 3 * 4 + 3 * 3
    assert profiles["SL:2@p=2", "sum(regular(3),triv)"] == [True, True, False, False]
    assert 0 < sum(verdicts) < len(verdicts)


def test_injectivity_matches_vanishing_h1_over_unipotent_groups():
    # every level C of a unipotent group is pointed irreducible, so M is
    # injective over C iff H^1(C, M) = Ext^1_C(k, M) = 0: cobar ranks decide
    # it without the retraction solve
    verdicts = []
    for spec, text, d, c, level in injectivity_oracle_levels():
        h1 = cohomology_dims(cobar_complex(c, level, 1))[1]
        verdict = injective_test(c, level)
        assert verdict == (h1 == 0), (spec, text, d, h1)
        verdicts.append(verdict)
    assert len(verdicts) == 78 and 0 < sum(verdicts) < 78


def test_resource_ceilings():
    tight = Limits(max_coalgebra_dim=2)
    with pytest.raises(ResourceLimitError):
        SubCoalgebra.canonical(GA2, 4, limits=tight)
    c = SubCoalgebra.canonical(GA2, 3)
    with pytest.raises(ResourceLimitError):
        cobar_complex(c, trivial(GA2), 2, limits=Limits(max_chain_dim=10))
    with pytest.raises(ResourceLimitError):
        injective_test(c, regular(GA2, 3), limits=Limits(max_solver_unknowns=3))


def test_library_calls_without_limits_refuse_at_the_default_ceilings():
    with pytest.raises(ResourceLimitError, match="sub-coalgebra dimension = 31"):
        SubCoalgebra.canonical(GA2, 30)
    with pytest.raises(ResourceLimitError, match="sub-coalgebra dimension = 31"):
        SubCoalgebra(GA2, GA2.filtration_basis(30), Subspace.full(31, 2))
    assert SubCoalgebra.canonical(GA2, 29).dim == 30
    # the profile over Ga builds no sub-coalgebra and still refuses level 30
    with pytest.raises(ResourceLimitError, match="sub-coalgebra dimension = 31"):
        injectivity_profile(GA2, trivial(GA2), 30)
    c = SubCoalgebra.canonical(GA2, 9)
    with pytest.raises(ResourceLimitError, match="chain-group dimension = 300000"):
        cobar_complex(c, regular(GA2, 2), 4)
