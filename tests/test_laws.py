"""The laws of the filtration functor M -> M_X stated in the paper's abstract,
as property tests over random subspaces X of O(G)_{<=d}, d <= 3:

(a) M_X = M_{O(G)_X}, with O(G)_X the coalgebra closure of X, which is a
    sub-coalgebra of O(G) inside X and holds every sub-coalgebra inside X;
(b) X <= Y implies M_X <= M_Y, and M_X restricted to X is all of M_X: its
    coefficients lie in X, which is checked by plain membership as well;
(c) (M + N)_X = M_X + N_X;
(d) M_{O(G)_{<=d}} = M once d reaches the largest coefficient degree of M;
(e) N_X = N cap M_X for a subcomodule N <= M;
(f) f(M_X) <= N_X for a comodule map f: M -> N, here the coaction
    Delta: M -> M^triv (x) O(G)_{<=D}, which is the direct sum over j of the
    maps m_i -> f_ji into regular(D); so Delta(M_X) <= sum_j regular(D)_X.

Skipped where hypothesis is not installed; CI installs it.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from comodfilt.comodules import ModuleExprError, build_module, direct_sum  # noqa: E402
from comodfilt.coordalg import TensorElement, group_from_spec  # noqa: E402
from comodfilt.filtration import (CanonicalLevel, ExplicitSubspace,  # noqa: E402
                                  coalgebra_closure, restrict)
from comodfilt.linalg import Subspace  # noqa: E402

GROUPS = [group_from_spec(spec)
          for spec in ("Ga@p=2", "Ga@p=3", "U:3@p=2", "GL:2@p=3", "SL:2@p=2")]
D_MAX = 3


def catalog(g):
    """The catalog modules defined over g."""
    out = []
    for text in ("regular(2)", "natural", "dual(natural)", "sym(2,natural)"):
        try:
            out.append(build_module(text, g))
        except ModuleExprError:
            pass  # natural is not defined over Ga
    return out


MODULES = {g: catalog(g) for g in GROUPS}

law_settings = settings(derandomize=True, max_examples=40, deadline=None)


def random_rows(rng, k, n, p):
    """k random vectors of F_p^n: unit vectors (monomials), sparse
    combinations or dense ones, so that X often holds whole coefficient
    spaces and sometimes only mixtures of them."""
    kind = rng.integers(3)
    if kind == 0:
        rows = np.zeros((k, n), dtype=np.int64)
        rows[np.arange(k), rng.choice(n, size=k, replace=False)] = 1
        return rows
    rows = rng.integers(0, p, size=(k, n), dtype=np.int64)
    if kind == 1:
        rows[rng.random((k, n)) < 0.7] = 0
    return rows


def random_level(rng, g, d):
    """A random X <= O(G)_{<=d}, over the monomial basis of that level: a
    lower level O(G)_{<=e}, e < d, or nothing, plus random vectors."""
    monos = g.filtration_basis(d)
    n = len(monos)
    e = int(rng.integers(-1, d))
    # the basis is sorted by degree first: O(G)_{<=e} is its first monomials
    low = len(g.filtration_basis(e)) if e >= 0 else 0
    rows = np.vstack([np.eye(n, dtype=np.int64)[:low],
                      random_rows(rng, int(rng.integers(0, n - low + 1)), n, g.p)])
    return ExplicitSubspace(g, monos, Subspace.from_rows(rows, n, g.p))


def coproduct(g, f):
    """Delta(f), from the coproduct of single monomials."""
    delta: dict = {}
    for h, c in f.coeffs.items():
        for legs, cc in g.coproduct_mono(h).items():
            delta[legs] = delta.get(legs, 0) + c * cc
    return TensorElement(g, delta)  # reduced mod p, zeros dropped


def slices_lie_in(x, delta):
    """Whether Delta(b) lies in X (x) X: D (x) D = (D (x) O(G)) cap (O(G) (x) D),
    so every slice of Delta(b) at a fixed right or left leg must lie in X."""
    slices: dict = {}
    for (left, right), c in delta.coeffs.items():
        slices.setdefault(("right", right), {})[left] = c
        slices.setdefault(("left", left), {})[right] = c
    return all(lies_in(x, x.group.element(f)) for f in slices.values())


def lies_in(x, f):
    """Whether the element f lies in X: a membership test of its coefficient
    vector over X's monomials, which shares no code with the fixpoint."""
    index = {h: i for i, h in enumerate(x.monos)}
    if any(h not in index for h in f.coeffs):
        return False
    vec = np.zeros(len(x.monos), dtype=np.int64)
    for h, c in f.coeffs.items():
        vec[index[h]] = c
    return x.space.contains(vec)


@st.composite
def levels(draw):
    """(group, a catalog module over it, a random X <= O(G)_{<=d}, rng)."""
    g = draw(st.sampled_from(GROUPS))
    m = draw(st.sampled_from(MODULES[g]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return g, m, random_level(rng, g, draw(st.integers(0, D_MAX))), rng


GA3 = group_from_spec("Ga@p=3")


@law_settings
@given(levels())
# span{1, t + t^3} over Ga@p=3 is a sub-coalgebra, t and t^3 being primitive,
# in which t^3 is not a pivot: it is its own closure only if t^3's residual
# B_{t^3} - B_t is taken with the right sign
@example((GA3, build_module("regular(3)", GA3), ExplicitSubspace(
    GA3, GA3.filtration_basis(3), Subspace.from_rows([[1, 0, 0, 0], [0, 1, 0, 1]], 4, 3)),
    None))
def test_a_m_x_is_m_of_the_closure_of_x(case):
    g, m, x, _ = case
    result = coalgebra_closure(g, x)
    closure = result.subspace
    assert x.space.contains_space(closure.space)
    assert restrict(m, x).subspace == restrict(m, closure).subspace
    # O(G)_X = D is a sub-coalgebra, Delta(D) <= D (x) D, checked by
    # membership from the coproduct of single monomials; it is the greatest
    # one inside X, so X is its own closure when X is one
    basis = closure.elements()
    deltas = [coproduct(g, b) for b in basis]
    assert all(slices_lie_in(closure, delta) for delta in deltas)
    if all(slices_lie_in(x, coproduct(g, f)) for f in x.elements()):
        assert closure.space == x.space
    # and the structure constants the closure reports give each Delta(b_k)
    assert result.is_subcoalgebra
    constants = result.delta_matrix
    for k, delta in enumerate(deltas):
        rebuilt: dict = {}
        for a, b, _, value in constants.T[constants[2] == k].tolist():
            for left, cl in basis[a].coeffs.items():
                for right, cr in basis[b].coeffs.items():
                    rebuilt[left, right] = rebuilt.get((left, right), 0) + value * cl * cr
        assert TensorElement(g, rebuilt) == delta


@law_settings
@given(levels())
def test_b_m_x_grows_with_x_and_lands_in_x(case):
    g, m, x, rng = case
    n = len(x.monos)
    extra = random_rows(rng, int(rng.integers(0, n + 1)), n, g.p)
    y = ExplicitSubspace(g, x.monos, Subspace.from_rows(
        np.vstack([x.space.basis, extra]), n, g.p))
    mx = restrict(m, x)
    assert restrict(m, y).subspace.contains_space(mx.subspace)
    assert restrict(mx.comodule, x).dim == mx.dim
    assert all(lies_in(x, f) for f in mx.comodule.coeffs.values())


@law_settings
@given(levels(), st.data())
def test_c_m_x_of_a_sum_is_the_sum_of_the_m_x(case, data):
    g, m, x, _ = case
    n = data.draw(st.sampled_from(MODULES[g]))
    mx, nx = restrict(m, x).subspace, restrict(n, x).subspace
    rows = np.zeros((mx.dim + nx.dim, m.dim + n.dim), dtype=np.int64)
    rows[:mx.dim, :m.dim] = mx.basis
    rows[mx.dim:, m.dim:] = nx.basis
    want = Subspace.from_rows(rows, m.dim + n.dim, g.p)
    assert restrict(direct_sum(m, n), x).subspace == want


@pytest.mark.parametrize("g", GROUPS, ids=str)
def test_d_m_of_a_level_past_the_coefficient_degrees_is_m(g):
    for m in MODULES[g]:
        top = max(g.degree(h) for f in m.coeffs.values() for h in f.coeffs)
        assert top <= D_MAX
        for d in range(top, D_MAX + 1):
            assert restrict(m, CanonicalLevel(g, d)).dim == m.dim
            level = ExplicitSubspace.canonical(g, d)
            assert restrict(m, level).subspace == Subspace.full(m.dim, g.p)


@law_settings
@given(levels(), st.integers(1, D_MAX))
def test_e_n_x_of_a_subcomodule_is_n_cap_m_x(case, d):
    # N = regular(d - 1) <= M = regular(d): the filtration basis of N is the
    # first dim N vectors of that of M
    g, _, x, _ = case
    n, m = build_module(f"regular({d - 1})", g), build_module(f"regular({d})", g)
    nx = restrict(n, x).subspace
    rows = np.zeros((nx.dim, m.dim), dtype=np.int64)
    rows[:, :n.dim] = nx.basis
    prefix = Subspace.from_rows(np.eye(m.dim, dtype=np.int64)[:n.dim], m.dim, g.p)
    assert Subspace.from_rows(rows, m.dim, g.p) == restrict(m, x).subspace.intersect(prefix)


@law_settings
@given(levels())
def test_f_the_coaction_carries_m_x_into_the_x_part_of_the_regular_comodule(case):
    g, m, x, _ = case
    regular = build_module(f"regular({D_MAX})", g)
    index = {h: k for k, h in enumerate(g.filtration_basis(D_MAX))}
    # delta[j] is the matrix of m_i -> f_ji, into regular(D_MAX)'s basis
    delta = np.zeros((m.dim, regular.dim, m.dim), dtype=np.int64)
    for (j, i), f in m.coeffs.items():
        for h, c in f.coeffs.items():
            delta[j, index[h], i] = c % g.p
    mx, rx = restrict(m, x).subspace, restrict(regular, x).subspace
    for j in range(m.dim):
        assert all(rx.contains(delta[j] @ v) for v in mx.basis)


def test_a_failing_property_is_reported_as_a_failure(tmp_path):
    # on failure hypothesis imports libcst, whose import warns; under this
    # project's warning filters that must not abort the session
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(derandomize=True, database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n")
    config = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "pyproject.toml")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", config, "--rootdir", str(tmp_path), "test_fails.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
