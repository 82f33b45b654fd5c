"""Oracle tests for the GL and SL normal forms against sympy's polynomial
division over GF(p).

Skipped where sympy is not installed; CI installs it.
"""

import random

import pytest

pytest.importorskip("sympy")

from sympy import Matrix, reduced, symbols  # noqa: E402

from comodfilt.coordalg import group_from_spec  # noqa: E402

# The oracle writes the raw products and coproducts of x^e * det^{-j} in
# sympy and divides their difference from the engine's normal form by the
# ideal of relations.  For GL(N) that ideal is (s*det(x) - 1, t*det(y) - 1),
# s and t standing for det^{-1} on the two tensor legs; for SL(N) it is
# (det(x) - 1, det(y) - 1).  Under grevlex the leading monomials of the two
# generators lie in disjoint variables, so they are coprime and the two
# generators form a Groebner basis: a difference lies in the ideal exactly
# when its remainder is 0.

ORACLE_CASES = [("SL:2@p=2", 4), ("GL:2@p=2", 4), ("SL:2@p=3", 4), ("GL:2@p=5", 4),
                ("SL:3@p=2", 3), ("GL:3@p=3", 3), ("GL:2@p=2147483647", 4)]


class Ring:
    """sympy variables for O(G) (x, s) and O(G) (x) O(G) (x, s, y, t)."""

    def __init__(self, g):
        n = g.N
        self.g = g
        self.x = Matrix(n, n, symbols(f"x:{n}:{n}"))
        self.y = Matrix(n, n, symbols(f"y:{n}:{n}"))
        self.s, self.t = symbols("s t")

    def mono(self, mono, var, inv):
        """x^e * det^{-j} in the variables `var`, with `inv` for det^{-1}."""
        e, j = mono if self.g.kind == "GL" else (mono, 0)
        out = inv ** j
        for k, exp in enumerate(e):
            out *= var[k] ** exp
        return out

    def relations(self, var, inv):
        det = var.det()
        return [inv * det - 1] if self.g.kind == "GL" else [det - 1]

    def gens(self, legs):
        left = list(self.x) + ([self.s] if self.g.kind == "GL" else [])
        right = list(self.y) + ([self.t] if self.g.kind == "GL" else [])
        return left + right if legs == 2 else left

    def in_ideal(self, f, legs):
        ideal = self.relations(self.x, self.s)
        if legs == 2:
            ideal += self.relations(self.y, self.t)
        _, rem = reduced(f.expand(), ideal, *self.gens(legs),
                         modulus=self.g.p, order="grevlex")
        return rem == 0

    def raw_coproduct(self, mono):
        """Delta(x^e det^{-j}) = prod (x y)_{ab}^{e_ab} * (s t)^j, unreduced."""
        n = self.g.N
        prod_xy = self.x * self.y
        e, j = mono if self.g.kind == "GL" else (mono, 0)
        out = (self.s * self.t) ** j
        for k, exp in enumerate(e):
            out *= prod_xy[k // n, k % n] ** exp
        return out


def assert_normal_forms(g, monos):
    for m in monos:
        assert m in set(g.filtration_basis(g.degree(m))), m


@pytest.mark.parametrize("spec,dmax", ORACLE_CASES)
def test_coproducts_and_products_agree_with_sympy_division(spec, dmax):
    g = group_from_spec(spec)
    ring = Ring(g)
    rng = random.Random(spec + " sympy")
    basis = g.filtration_basis(dmax)
    for _ in range(4):
        m = rng.choice(basis)
        cop = g.coproduct_mono(m)
        assert_normal_forms(g, [a for a, _ in cop] + [b for _, b in cop])
        engine = sum(c * ring.mono(a, ring.x, ring.s) * ring.mono(b, ring.y, ring.t)
                     for (a, b), c in cop.items())
        assert ring.in_ideal(ring.raw_coproduct(m) - engine, legs=2), m

        m1 = rng.choice(basis)
        m2 = rng.choice(g.filtration_basis(max(0, dmax - g.degree(m1))))
        prod = g.product(g.element({m1: 1}), g.element({m2: 1})).coeffs
        assert_normal_forms(g, prod)
        engine = sum(c * ring.mono(a, ring.x, ring.s) for a, c in prod.items())
        raw = ring.mono(m1, ring.x, ring.s) * ring.mono(m2, ring.x, ring.s)
        assert ring.in_ideal(raw - engine, legs=1), (m1, m2)


def is_normal(g, mono):
    """Normal form: no reduced part is a multiple of x11*x22*...*xNN."""
    e, j = mono if g.kind == "GL" else (mono, 0)
    return (g.kind == "GL" and j == 0) or not all(e[k * g.N + k] for k in range(g.N))


@pytest.mark.parametrize("spec,k,j", [("SL:2@p=2", 32, 0), ("SL:2@p=2", 64, 0),
                                      ("SL:2@p=3", 27, 0), ("GL:2@p=2", 32, 1)])
def test_deep_products_agree_with_sympy_division(spec, k, j):
    # (x11*x22)^k * (x12*x21)^k * det^-j, of degree 4k: the division by det
    # runs k steps deep, far past the degrees of the random cases above
    g = group_from_spec(spec)
    ring = Ring(g)
    m1, m2 = (k, 0, 0, k), (0, k, k, 0)
    if g.kind == "GL":
        m1, m2 = (m1, j), (m2, 0)
    prod = g.product(g.element({m1: 1}), g.element({m2: 1})).coeffs
    assert prod and all(is_normal(g, m) for m in prod)
    engine = sum(c * ring.mono(a, ring.x, ring.s) for a, c in prod.items())
    raw = ring.mono(m1, ring.x, ring.s) * ring.mono(m2, ring.x, ring.s)
    assert ring.in_ideal(raw - engine, legs=1)
