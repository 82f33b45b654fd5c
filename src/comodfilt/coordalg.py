"""Coordinate Hopf algebras of the catalog groups, with exact structure maps.

Catalog: additive group Ga, multiplicative group Gm, GL(N), SL(N), the
unitriangular group U(N), and the matrix monoid M(N), all over a prime field
F_p.  Elements are sparse dicts {monomial: coefficient}; monomials are small
hashable tuples whose shape depends on the group:

    Ga     int a >= 0                       (power of t)
    Gm     int n  (signed)                  (power of t)
    M(N)   tuple of N*N exponents           (row-major x_{i,j})
    U(N)   tuple of N(N-1)/2 exponents      (x_{i,j}, i<j, row-major)
    GL(N)  (tuple of N*N exponents, j>=0)   (x-part times det(x)^{-j})
    SL(N)  tuple of N*N exponents           (normal form modulo det-1)

Products and Frobenius powers of monomials are single monomials before normal
form; `reduce_dict` is the one normalization, the identity where there are no
relations.  GL(N) and SL(N) share one normal form: a polynomial part is
divided by det, whose lex-largest monomial (descending lex on row-major
exponent tuples) is the diagonal x11*x22*...*xNN, so the remainder lies on
the monomials with some diagonal exponent 0.  A single polynomial is a
Groebner basis of the ideal it generates, so the remainder is unique; and
since LM(det*q) = x11*...*xNN * LM(q), those monomials are in each degree d
the complement of the leading monomials of det * O(M)_{d-N}.  GL(N) reduces
the parts over det^{-j}, j >= 1, moving det*q over det^{-j} to q over
det^{-(j-1)}; SL(N) reduces every part, using det*q = q.

Every group keeps a table of Delta(m) for each monomial m it was asked for,
and GL(N) and SL(N) keep a second table of the normal form NF(m) of each
single monomial, filled one monomial at a time by one division step,
x^e = det*x^q - (det - x11*...*xNN)*x^q, from the table entries of the
monomials on its right.  Normal form is linear, so an element reduces to
sum c*NF(m) and a tensor, in both legs, to sum c*NF(a)(x)NF(b).  A coproduct
over GL(N) or SL(N) is expanded over the leg codes of its polynomial part
(below), and a leg table keeps, per radix B and det power j, the normal form
NF(x^leg * det^{-j}) of each leg code met, so a leg is decoded and reduced
once, not once per term it occurs in.  The tables live as long as the group,
which `group_from_spec` shares per process, as does the antipode of each
generator; nothing is computed ahead of a request.

Delta(x^e) over the polynomial groups is expanded over integer leg codes
sum e_k*B^k, radix B = deg(x^e) + 1, so a product of legs is one addition.
Delta(f^p) is Delta(f) with both legs raised to the p-th power, so only the
digits e_k % p are expanded factor by factor.  Ga keeps Lucas's theorem:
factor by factor, digits near a large p would cost quadratic time.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from math import comb

from .linalg import check_prime, elimination_exact, inv_mod, is_prime


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero when the top argument is negative."""
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


def _tabled(coproduct):
    """`coproduct_mono` from a from-scratch coproduct: Delta(mono) is computed
    once per group instance and kept in the instance's table `_delta`."""

    def coproduct_mono(self, mono) -> dict:
        """Delta of a canonical monomial: dict (mono, mono) -> coeff, legs
        canonical.  Shared with the group's table: do not mutate."""
        delta = self._delta.get(mono)
        if delta is None:
            delta = self._delta[mono] = coproduct(self, mono)
        return delta

    return coproduct_mono


class UnsupportedOperation(ValueError):
    pass


class GroupSpecError(ValueError):
    pass


# ---------------------------------------------------------------------------
# elements

class _SparseVector:
    """Sparse vector over F_p: dict key -> coefficient in [1, p)."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: "Group", coeffs: dict):
        self.group = group
        self.coeffs = {m: c % group.p for m, c in coeffs.items() if c % group.p}

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (type(other) is type(self) and self.group == other.group
                and self.coeffs == other.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return type(self)(self.group, out)

    def __neg__(self):
        return type(self)(self.group, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + -other


class Element(_SparseVector):
    """Sparse algebra element: dict monomial -> coefficient in [1, p)."""

    __slots__ = ()

    def __hash__(self):
        return hash((self.group, tuple(sorted(self.coeffs.items(), key=lambda kv: self.group.mono_key(kv[0])))))

    def scale(self, a: int) -> "Element":
        return Element(self.group, {m: c * a for m, c in self.coeffs.items()})

    def __mul__(self, other):
        return self.group.product(self, other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not defined on generic elements")
        result = self.group.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def degree(self) -> int:
        """Filtration degree: max monomial degree (0 for the zero element)."""
        g = self.group
        return max((g.degree(m) for m in self.coeffs), default=0)

    def __repr__(self):
        g = self.group
        if not self.coeffs:
            return "0"
        terms = sorted(self.coeffs.items(), key=lambda kv: g.mono_key(kv[0]))
        return " + ".join(f"{c}*{g.mono_str(m)}" if c != 1 or g.degree(m) == 0 and m == g.one_mono()
                          else g.mono_str(m) for m, c in terms)


class TensorElement(_SparseVector):
    """Sparse element of O(G) tensor O(G): dict (mono, mono) -> coefficient.
    Unhashable, like the dict it wraps."""

    __slots__ = ()

    def __mul__(self, other):
        g = self.group
        acc: dict = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                key = (g._mono_product(a1, a2), g._mono_product(b1, b2))
                acc[key] = acc.get(key, 0) + c1 * c2
        return TensorElement(g, g._reduce_tensor(acc))

    def __repr__(self):
        g = self.group
        if not self.coeffs:
            return "0"
        terms = sorted(self.coeffs.items(), key=lambda kv: (g.mono_key(kv[0][0]), g.mono_key(kv[0][1])))
        return " + ".join(f"{c}*{g.mono_str(a)}(x){g.mono_str(b)}" for (a, b), c in terms)


# ---------------------------------------------------------------------------
# the group catalog

class Group:
    """A catalog coordinate algebra O(G) over F_p.

    Each monomial has a block degree and a torus weight, both kept by Delta.
    `block`: 0 over Ga and U, the exponent over Gm, |e| over M(N), |e| - N*j
    on x^e*det^{-j} over GL(N), |e| mod N over SL(N); both legs of each term
    of Delta(m) lie in m's block.  `weight`: (a,) for t^a over Ga, () over Gm,
    sum_k e_k*(eps_i - eps_j) over the generators x_{i,j} of M, U, GL and SL,
    where det has weight 0; it adds over the legs of Delta(m), the counit
    vanishes off weight 0, and the GL/SL normal form keeps it.
    `unipotent`: O(G) has coradical k.1, so every sub-coalgebra containing 1
    is connected (Ga and U).
    """

    kind = "?"
    has_antipode = True
    unipotent = False

    def __init__(self, p: int, N: int = 1):
        self.p = check_prime(p)
        self.N = N
        self._delta: dict = {}  # monomial -> Delta(monomial), see `_tabled`

    # --- monomial protocol, overridden per group -------------------------
    def one_mono(self):
        raise NotImplementedError

    def degree(self, mono) -> int:
        raise NotImplementedError

    def mono_key(self, mono):
        """Total order: (filtration degree, graded-lex tiebreak)."""
        raise NotImplementedError

    def mono_str(self, mono) -> str:
        raise NotImplementedError

    def _mono_product(self, m1, m2):
        """Product of two canonical monomials: one monomial, before normal form."""
        raise NotImplementedError

    def coproduct_mono(self, mono) -> dict:
        """Delta of a canonical monomial: dict (mono, mono) -> coeff, legs
        canonical.  Subclasses define it under `_tabled`: the dict is shared
        with the group's table, do not mutate."""
        raise NotImplementedError

    def counit_mono(self, mono) -> int:
        raise NotImplementedError

    def block(self, mono) -> int:
        raise NotImplementedError

    def weight(self, mono) -> tuple:
        raise NotImplementedError

    def antipode_mono(self, mono) -> dict:
        raise NotImplementedError

    def frobenius_mono(self, mono, q: int):
        """mono^q for q a power of p: one monomial, before normal form."""
        raise NotImplementedError

    def reduce_dict(self, coeffs: dict) -> dict:
        """Normal form of {mono: coeff}: the identity where there are no
        relations.  Products and Frobenius powers pass here once."""
        return coeffs

    def _reduce_tensor(self, coeffs: dict) -> dict:
        """Normal form of {(mono, mono): coeff} in both legs."""
        return coeffs

    def filtration_monomials(self, d: int) -> list:
        """Canonical ordered basis of O(G)_{<=d}."""
        raise NotImplementedError

    def filtration_dim(self, d: int) -> int:
        """dim O(G)_{<=d} by closed formula; cross-checked against enumeration."""
        raise NotImplementedError

    # --- generic element-level operations --------------------------------
    def one(self) -> Element:
        return Element(self, {self.one_mono(): 1})

    def zero(self) -> Element:
        return Element(self, {})

    def element(self, coeffs: dict) -> Element:
        return Element(self, coeffs)

    def product(self, f1: Element, f2: Element) -> Element:
        acc: dict = {}
        for m1, c1 in f1.coeffs.items():
            for m2, c2 in f2.coeffs.items():
                m = self._mono_product(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return Element(self, self.reduce_dict(acc))

    def coproduct(self, f: Element) -> TensorElement:
        acc: dict = {}
        for m, c in f.coeffs.items():
            for mm, cc in self.coproduct_mono(m).items():
                acc[mm] = acc.get(mm, 0) + c * cc
        return TensorElement(self, acc)

    def counit(self, f: Element) -> int:
        return sum(c * self.counit_mono(m) for m, c in f.coeffs.items()) % self.p

    def antipode(self, f: Element) -> Element:
        if not self.has_antipode:
            raise UnsupportedOperation(f"{self.kind} is a monoid, no antipode")
        acc: dict = {}
        for m, c in f.coeffs.items():
            for m2, c2 in self.antipode_mono(m).items():
                acc[m2] = acc.get(m2, 0) + c * c2
        return Element(self, acc)

    def filtration_basis(self, d: int) -> list:
        if d < 0:
            raise ValueError("filtration level must be >= 0")
        monos = self.filtration_monomials(d)
        return sorted(monos, key=self.mono_key)

    def spec(self) -> str:
        return f"{self.kind}:{self.N}@p={self.p}"

    def __repr__(self):
        return f"Group({self.spec()})"

    def __eq__(self, other):
        return isinstance(other, Group) and self.spec() == other.spec()

    def __hash__(self):
        return hash(self.spec())


class _OneVariable(Group):
    """O(G) in one variable t: the monomial t^a is the integer a."""

    def spec(self) -> str:
        return f"{self.kind}@p={self.p}"

    def one_mono(self):
        return 0

    def mono_str(self, mono):
        return "1" if mono == 0 else f"t^{mono}"

    def _mono_product(self, m1, m2):
        return m1 + m2

    def frobenius_mono(self, mono, q):
        return mono * q


class Ga(_OneVariable):
    """Additive group: O(Ga) = k[t], t primitive, degree 1 (unitriangular coordinate)."""

    kind = "Ga"
    unipotent = True

    def degree(self, mono):
        return mono

    def mono_key(self, mono):
        return (mono, mono)

    @_tabled
    def coproduct_mono(self, mono):
        # (t(x)1 + 1(x)t)^a.  By Lucas's theorem C(a, i) mod p is the product
        # of C(a_k, i_k) over the base-p digits, nonzero iff every i_k <= a_k:
        # such i are built most significant digit first, so they increase
        p, digits, rest = self.p, [], mono
        while rest:
            rest, a_k = divmod(rest, p)
            digits.append(a_k)
        terms = {0: 1}
        for a_k in reversed(digits):
            terms = {i * p + i_k: c * binom(a_k, i_k) % p
                     for i, c in terms.items() for i_k in range(a_k + 1)}
        return {(i, mono - i): c for i, c in terms.items()}

    def counit_mono(self, mono):
        return 1 if mono == 0 else 0

    def block(self, mono):
        return 0

    def weight(self, mono):
        return (mono,)

    def antipode_mono(self, mono):
        return {mono: (-1) ** mono % self.p}

    def filtration_monomials(self, d):
        return list(range(d + 1))

    def filtration_dim(self, d):
        return d + 1


class Gm(_OneVariable):
    """Multiplicative group: O(Gm) = k[t, t^-1], grouplike t, realized as GL(1)."""

    kind = "Gm"

    def degree(self, mono):
        return abs(mono)

    def mono_key(self, mono):
        return (abs(mono), -mono)

    @_tabled
    def coproduct_mono(self, mono):
        return {(mono, mono): 1}

    def counit_mono(self, mono):
        return 1

    def block(self, mono):
        return mono

    def weight(self, mono):
        return ()

    def antipode_mono(self, mono):
        return {-mono: 1}

    def filtration_monomials(self, d):
        return list(range(-d, d + 1))

    def filtration_dim(self, d):
        return 2 * d + 1


def _exp_tuples(nvars: int, total: int):
    """All exponent tuples of the given total degree."""
    if nvars == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _exp_tuples(nvars - 1, total - first):
            yield (first,) + rest


class _PolynomialGroup(Group):
    """A polynomial coordinate algebra: one variable x_{i,j} per entry in `gens`.

    Monomials are exponent tuples in the order of `gens`; subclasses supply
    `coproduct_gen` and `counit_mono`.  `_codes` keeps, per radix B, each
    Delta(x_k) as (left code, right code, coeff) triples, which GL and SL
    expand through too.  `_legs` keeps, per radix B, a code -> exponent tuple
    table, so legs repeated across a degree share one tuple.
    """

    def __init__(self, p, N, gens):
        super().__init__(p, N)
        self.gens = gens
        self.gen_index = {pr: k for k, pr in enumerate(gens)}
        self.nvars = len(gens)
        self._codes: dict = {}  # radix B -> coded Delta(x_k) per generator
        self._legs: dict = {}  # radix B -> {leg code: exponent tuple}

    def one_mono(self):
        return (0,) * self.nvars

    def degree(self, mono):
        return sum(mono)

    def mono_key(self, mono):
        return (sum(mono), mono)

    def mono_str(self, mono):
        parts = [f"x{i + 1}{j + 1}^{e}" if e > 1 else f"x{i + 1}{j + 1}"
                 for (i, j), e in zip(self.gens, mono) if e]
        return "*".join(parts) if parts else "1"

    def gen_mono(self, i, j):
        m = [0] * self.nvars
        m[self.gen_index[(i, j)]] = 1
        return tuple(m)

    def _mono_product(self, m1, m2):
        return tuple(a + b for a, b in zip(m1, m2))

    def weight(self, mono):
        # x_{i,j} has weight eps_i - eps_j under conjugation by the diagonal torus
        w = [0] * self.N
        for (i, j), e in zip(self.gens, mono):
            w[i] += e
            w[j] -= e
        return tuple(w)

    def coproduct_gen(self, i, j) -> dict:
        raise NotImplementedError

    def _expand_coproduct(self, mono) -> tuple[int, dict]:
        """Delta of a monomial, expanded over leg codes of radix B = deg(mono)
        + 1: (B, {(left code, right code): coeff})."""
        p, base = self.p, sum(mono) + 1
        gens = self._codes.get(base)
        if gens is None:
            def code(m):
                return sum(e * base ** k for k, e in enumerate(m))
            gens = self._codes[base] = [[(code(a), code(b), c) for (a, b), c in self.coproduct_gen(*pr).items()]
                                        for pr in self.gens]

        def expand(e):
            # Delta(x^e) = F(Delta(x^(e // p))) * prod_k Delta(x_k)^(e_k % p), F = p-th power
            acc = ({(a * p, b * p): c for (a, b), c in expand([x // p for x in e]).items()}
                   if max(e) >= p else {(0, 0): 1})
            for legs, x in zip(gens, e):
                for _ in range(x % p):
                    nxt: dict = {}
                    for (a, b), c in acc.items():
                        for ga, gb, gc in legs:
                            key = (a + ga, b + gb)
                            nxt[key] = (nxt.get(key, 0) + c * gc) % p
                    acc = {k: v for k, v in nxt.items() if v}
            return acc
        return base, expand(mono)

    def _decode(self, base: int, code: int) -> tuple:
        """The exponent tuple of a leg code of radix `base`."""
        return tuple(code // base ** k % base for k in range(self.nvars))

    @_tabled
    def coproduct_mono(self, mono):
        base, acc = self._expand_coproduct(mono)
        legs = self._legs.setdefault(base, {})
        for leg in {leg for pair in acc for leg in pair} - legs.keys():
            legs[leg] = self._decode(base, leg)
        return {(legs[a], legs[b]): c for (a, b), c in acc.items()}

    def frobenius_mono(self, mono, q):
        return tuple(e * q for e in mono)

    def filtration_monomials(self, d):
        return [m for deg in range(d + 1) for m in _exp_tuples(self.nvars, deg)]

    def filtration_dim(self, d):
        return binom(d + self.nvars, self.nvars)


class MatMonoid(_PolynomialGroup):
    """The monoid of N x N matrices: polynomial coordinates, no antipode."""

    kind = "M"
    has_antipode = False

    def __init__(self, p, N):
        super().__init__(p, N, [(i, j) for i in range(N) for j in range(N)])

    def coproduct_gen(self, i, j) -> dict:
        return {(self.gen_mono(i, ell), self.gen_mono(ell, j)): 1 for ell in range(self.N)}

    def block(self, mono):
        return sum(mono)

    def counit_mono(self, mono):
        # epsilon(x_{i,j}) = delta_{i,j}
        for (i, j), e in zip(self.gens, mono):
            if e and i != j:
                return 0
        return 1

    def minor_element(self, drop_row: int | None = None,
                      drop_col: int | None = None) -> Element:
        """Determinant of the submatrix omitting the given row and column; of
        the whole matrix when none is given."""
        rows = [i for i in range(self.N) if i != drop_row]
        cols = [j for j in range(self.N) if j != drop_col]
        coeffs: dict = {}
        for perm in itertools.permutations(range(len(cols))):
            m = [0] * self.nvars
            for a, b in enumerate(perm):
                m[rows[a] * self.N + cols[b]] += 1
            coeffs[tuple(m)] = _perm_sign(perm)
        return Element(self, coeffs)

    def det_element(self) -> Element:
        return self.minor_element()


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class Unitriangular(_PolynomialGroup):
    """Upper unitriangular group U(N): coordinates x_{i,j}, i<j, each of degree 1."""

    kind = "U"
    unipotent = True

    def __init__(self, p, N):
        if N < 2:
            raise GroupSpecError("U(N) requires N >= 2")
        super().__init__(p, N, [(i, j) for i in range(N) for j in range(i + 1, N)])

    def coproduct_gen(self, i, j) -> dict:
        cop = {(self.gen_mono(i, j), self.one_mono()): 1,
               (self.one_mono(), self.gen_mono(i, j)): 1}
        for ell in range(i + 1, j):
            cop[(self.gen_mono(i, ell), self.gen_mono(ell, j))] = 1
        return cop

    def counit_mono(self, mono):
        return 1 if not any(mono) else 0

    def block(self, mono):
        return 0

    @cached_property
    def _antipode_gens(self):
        # Cramer's rule, as for GL and SL: sigma(x_{i,j}) = (-1)^{i+j} *
        # minor_{j,i}(x), read on U, where det = 1, x_{a,a} = 1 and x_{a,b} = 0
        # for a > b
        mat = MatMonoid(self.p, self.N)
        sig = {}
        for i, j in self.gens:
            acc: dict = {}
            for m, c in mat.minor_element(j, i).coeffs.items():
                if not any(e for (a, b), e in zip(mat.gens, m) if a > b):
                    u = tuple(m[a * self.N + b] for a, b in self.gens)
                    acc[u] = acc.get(u, 0) + (-1) ** (i + j) * c
            sig[(i, j)] = self.element(acc)
        return sig

    def antipode_mono(self, mono):
        result = self.one()
        sig = self._antipode_gens
        for pr, e in zip(self.gens, mono):
            if e:
                result = result * (sig[pr] ** e)
        return result.coeffs


class _DeterminantGroup(Group):
    """GL(N) and SL(N): O(M(N)) with the determinant inverted, or set to 1.

    A monomial is written as a polynomial exponent tuple e over a power
    det^{-j}; `_split` and `_join` convert, and SL, where det^{-1} = 1, always
    has j = 0.  Products, coproducts and antipodes are computed on the
    polynomial parts and pushed into normal form through the table `_nf` of
    single-monomial normal forms, which `_normal_forms` fills one monomial
    at a time by division by det.  Its leading monomial is the diagonal
    x11*...*xNN, so a reduced part is in normal form exactly when no monomial
    is a multiple of the diagonal (`_reducible`).  A coproduct reads M(N)'s
    expansion of x^e over leg codes of radix B through the leg table
    `_legs[(B, j)]`, code -> the `_nf` entry of its leg over det^{-j}.
    """

    # homogeneous parts over det^{-j} are reduced for j >= _reduced_from
    _reduced_from: int

    def __init__(self, p, N):
        super().__init__(p, N)
        self.mat = MatMonoid(p, N)
        self.nvars = N * N
        # x11*...*xNN, the lex-largest monomial of det
        self._lead = tuple(int(i == j) for i in range(N) for j in range(N))
        self._nf: dict = {}  # monomial -> its normal form, as (mono, coeff) pairs
        self._legs: dict = {}  # (radix B, j) -> {leg code: NF(x^leg det^{-j})}

    @cached_property
    def _tail(self) -> list:
        """det - x11*...*xNN, as (exponent tuple, coefficient) pairs: its N! - 1
        terms are expanded on the first division by det, not when the group
        is built."""
        return [(t, c) for t, c in self.mat.det_element().coeffs.items() if t != self._lead]

    def _reducible(self, e) -> bool:
        """Whether x^e is a multiple of det's leading monomial x11*...*xNN."""
        return all(a >= b for a, b in zip(e, self._lead))

    def _split(self, mono) -> tuple:
        raise NotImplementedError

    def _join(self, e: tuple, j: int):
        raise NotImplementedError

    def _normal_forms(self, monos) -> dict:
        """The table NF, with an entry for each of `monos`.

        One monomial x^e det^{-j} at a time: it is its own normal form unless
        j >= `_reduced_from` and x^e = x^q * x11*...*xNN.  Then x^e =
        det*x^q - tail*x^q, tail = det - x11*...*xNN, so NF(x^e det^{-j}) =
        NF(x^q det^{-(j-1)}) - sum_t c_t NF(x^(q+t) det^{-j}), where `_join`
        turns det^{-(j-1)} into det^0 for SL (det*q = q there).  x^q has a
        lower degree or det power, and each x^(q+t) is lex-smaller than x^e in
        the same degree, so the recursion ends; its result, on monomials that
        are not `_reducible`, is the unique remainder of the division.  The
        entries it needs are filled first, through an explicit stack: a
        quotient chain is as long as the det power.
        """
        nf = self._nf
        p = self.p
        stack = list(monos)
        while stack:
            m = stack[-1]
            if m in nf:
                stack.pop()
                continue
            e, j = self._split(m)
            if j < self._reduced_from or not self._reducible(e):
                nf[stack.pop()] = ((m, 1),)
                continue
            q = tuple(a - b for a, b in zip(e, self._lead))
            terms = [(self._join(q, j - 1), 1)] + [
                (self._join(tuple(a + b for a, b in zip(q, t)), j), -c) for t, c in self._tail]
            pending = [m2 for m2, _ in terms if m2 not in nf]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            form: dict = {}
            for m2, c in terms:
                for m3, c3 in nf[m2]:
                    form[m3] = form.get(m3, 0) + c * c3
            nf[m] = tuple((m3, r) for m3, c in form.items() if (r := c % p))
        return nf

    def reduce_dict(self, coeffs: dict) -> dict:
        nf = self._normal_forms(coeffs)
        acc: dict = {}
        for m, c in coeffs.items():
            for m2, c2 in nf[m]:
                acc[m2] = acc.get(m2, 0) + c * c2
        p = self.p
        return {m: r for m, c in acc.items() if (r := c % p)}

    def one_mono(self):
        return self._join(self.mat.one_mono(), 0)

    def degree(self, mono):
        e, j = self._split(mono)
        return sum(e) + self.N * j

    def mono_key(self, mono):
        e, j = self._split(mono)
        return (self.degree(mono), e + (j,))

    def mono_str(self, mono):
        e, j = self._split(mono)
        s = self.mat.mono_str(e)
        if j:
            s = f"{s}*det^-{j}" if s != "1" else f"det^-{j}"
        return s

    def gen_mono(self, i, j):
        return self._join(self.mat.gen_mono(i, j), 0)

    def _mono_product(self, m1, m2):
        (e1, j1), (e2, j2) = self._split(m1), self._split(m2)
        return self._join(tuple(a + b for a, b in zip(e1, e2)), j1 + j2)

    @_tabled
    def coproduct_mono(self, mono):
        e, j = self._split(mono)
        base, acc = self.mat._expand_coproduct(e)
        legs = self._legs.setdefault((base, j), {})
        new = {self._join(self.mat._decode(base, leg), j): leg
               for leg in {leg for pair in acc for leg in pair} - legs.keys()}
        if new:
            nf = self._normal_forms(new)
            for m, leg in new.items():
                legs[leg] = nf[m]
        return self._tensor_forms(acc, legs)

    def _reduce_tensor(self, acc: dict) -> dict:
        return self._tensor_forms(acc, self._normal_forms({m: None for pair in acc for m in pair}))

    def _tensor_forms(self, acc: dict, forms) -> dict:
        """sum c * forms[a] (x) forms[b] over the terms (a, b): c of acc, each
        form a tuple of (mono, coeff) pairs: normal form is linear in each leg."""
        out: dict = {}
        for (a, b), c in acc.items():
            right = forms[b]
            for a2, ca in forms[a]:
                for b2, cb in right:
                    key = (a2, b2)
                    out[key] = out.get(key, 0) + c * ca * cb
        p = self.p
        return {k: r for k, c in out.items() if (r := c % p)}

    def counit_mono(self, mono):
        return self.mat.counit_mono(self._split(mono)[0])

    def weight(self, mono):
        return self.mat.weight(self._split(mono)[0])  # det has weight 0

    def det_element(self) -> Element:
        return Element(self, self.reduce_dict(
            {self._join(m, 0): c for m, c in self.mat.det_element().coeffs.items()}))

    @cached_property
    def _antipode_gens(self):
        # Cramer's rule: sigma(x_{i,j}) = (-1)^{i+j} * minor_{j,i}(x) * det^{-1}
        sig = {}
        for i in range(self.N):
            for j in range(self.N):
                minor = self.mat.minor_element(j, i)
                sign = (-1) ** (i + j)
                sig[(i, j)] = Element(self, self.reduce_dict(
                    {self._join(m, 1): sign * c for m, c in minor.coeffs.items()}))
        return sig

    def antipode_mono(self, mono):
        e, j = self._split(mono)
        sig = self._antipode_gens
        result = self.det_element() ** j if j else self.one()  # sigma(det^-1) = det
        for pr, exp in zip(self.mat.gens, e):
            if exp:
                result = result * (sig[pr] ** exp)
        return result.coeffs

    def frobenius_mono(self, mono, q):
        e, j = self._split(mono)
        return self._join(tuple(x * q for x in e), j * q)


class GL(_DeterminantGroup):
    """General linear group GL(N): O(M)[det^{-1}] with det^{-1} of degree N."""

    kind = "GL"
    _reduced_from = 1  # det^0 parts are plain polynomials

    def _split(self, mono):
        return mono

    def _join(self, e, j):
        return (e, j)

    def detinv_mono(self):
        return ((0,) * self.nvars, 1)

    def block(self, mono):
        return sum(mono[0]) - self.N * mono[1]

    def filtration_monomials(self, d):
        monos = [(e, 0) for deg in range(d + 1) for e in _exp_tuples(self.nvars, deg)]
        for j in range(1, d // self.N + 1):
            for deg in range(d - j * self.N + 1):
                monos.extend((e, j) for e in _exp_tuples(self.nvars, deg)
                             if not self._reducible(e))
        return monos

    def filtration_dim(self, d):
        n2 = self.nvars
        return binom(d + n2, n2) + binom(d - self.N + n2, n2)


class SL(_DeterminantGroup):
    """Special linear group SL(N): O(M)/(det - 1) in degreewise normal form."""

    kind = "SL"
    _reduced_from = 0

    def _split(self, mono):
        return mono, 0

    def _join(self, e, j):
        return e  # det^{-j} = 1

    def block(self, mono):
        return sum(mono) % self.N

    def filtration_monomials(self, d):
        return [e for deg in range(d + 1) for e in _exp_tuples(self.nvars, deg)
                if not self._reducible(e)]

    def filtration_dim(self, d):
        n2 = self.nvars
        return binom(d + n2, n2) - binom(d - self.N + n2, n2)


# ---------------------------------------------------------------------------
# group specification grammar: Ga@p=2, Gm@p=3, GL:2@p=5, SL:3@p=2, U:2@p=3, M:2@p=5

_SPEC_RE = re.compile(r"^\s*(Ga|Gm|GL|SL|U|M)(?::(\d+))?\s*@\s*p\s*=\s*(\d+)\s*$")

_KINDS = {"Ga": Ga, "Gm": Gm, "GL": GL, "SL": SL, "U": Unitriangular, "M": MatMonoid}

_group_cache: dict[tuple, Group] = {}


def group_from_spec(spec: str) -> Group:
    m = _SPEC_RE.match(spec)
    if not m:
        raise GroupSpecError(
            f"bad group spec {spec!r}; expected e.g. Ga@p=2, GL:2@p=5, U:3@p=3")
    kind, n_str, p_str = m.groups()
    p = int(p_str)
    # the size test first: trial division of a huge p would not end
    if not elimination_exact(p):
        raise GroupSpecError(f"p={p} is too large in spec {spec!r}: exact "
                             f"elimination needs (p-1)^2 < 2^63")
    if not is_prime(p):
        raise GroupSpecError(f"p={p} is not prime in spec {spec!r}")
    one_variable = issubclass(_KINDS[kind], _OneVariable)
    if one_variable and n_str is not None:
        raise GroupSpecError(f"{kind} takes no size parameter (got {spec!r})")
    if not one_variable and n_str is None:
        raise GroupSpecError(f"{kind} needs a size, e.g. {kind}:2@p={p}")
    n = int(n_str or 1)
    if n < 1:
        raise GroupSpecError(f"N must be >= 1 in {spec!r}")
    key = (kind, n, p)
    if key not in _group_cache:
        _group_cache[key] = _KINDS[kind](p, n)
    return _group_cache[key]


# ---------------------------------------------------------------------------
# truncated exponential degree bound

def truncated_exponential_degree(N: int, p: int) -> int:
    """Max t-degree over the entries of I + tY + ... + t^{p-1} Y^{p-1}/(p-1)!
    for a generic N x N matrix Y over F_p.  Division by k! is exact mod p."""
    check_prime(p)
    mat = MatMonoid(p, N)
    # entries of Y^k as elements of O(M); start with Y^0 = I
    power = [[mat.one() if i == j else mat.zero() for j in range(N)] for i in range(N)]
    Y = [[mat.element({mat.gen_mono(i, j): 1}) for j in range(N)] for i in range(N)]
    max_tdeg = 0
    fact = 1
    for k in range(1, p):
        nxt = [[mat.zero() for _ in range(N)] for _ in range(N)]
        for i in range(N):
            for j in range(N):
                s = mat.zero()
                for ell in range(N):
                    s = s + power[i][ell] * Y[ell][j]
                nxt[i][j] = s
        power = nxt
        fact = (fact * k) % p
        coeff = inv_mod(fact, p)
        if any(power[i][j].scale(coeff) for i in range(N) for j in range(N)):
            max_tdeg = k
    return max_tdeg
