"""Finite-dimensional comodules, the module-expression language, and streams.

A Comodule stores a coaction Delta(m_i) = sum_j m_j (x) f_{ji} as a sparse
dict of coordinate-algebra elements.  The expression language builds the
catalog modules (trivial, natural, determinant powers, regular truncations)
and combines them by tensor, sum, dual, Frobenius twist, and symmetric
powers.  Stream constructors produce nested finite truncations of infinite
comodules together with a sufficiency bound n(d) guaranteeing that the
filtration at level d is already computed correctly at generation n(d).
"""

from __future__ import annotations

import itertools
import re

from .coordalg import (GL, SL, Element, Ga, Group, MatMonoid, Unitriangular,
                       UnsupportedOperation, _exp_tuples, binom)


class ModuleExprError(ValueError):
    """Parse or compatibility error in a module expression, with byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def frobenius_element(f: Element, r: int) -> Element:
    """f^(p^r) for f in a commutative algebra over F_p: monomialwise power."""
    g = f.group
    if r == 0:
        return f
    q = g.p ** r
    acc: dict = {}
    for m, c in f.coeffs.items():
        # c^q = c in F_p; the monomial powers are reduced together
        m2 = g.frobenius_mono(m, q)
        acc[m2] = acc.get(m2, 0) + c
    return Element(g, g.reduce_dict(acc))


class ValidationReport:
    """Outcome of the comodule axiom checks."""

    def __init__(self, ok: bool, failures: list[str]):
        self.ok = ok
        self.failures = failures

    def __repr__(self):
        return "valid" if self.ok else f"invalid: {self.failures[0]}"


class Comodule:
    """Right O(G)-comodule: Delta(m_i) = sum_j m_j (x) coefficient(j, i).

    `prefix`, if given, is a comodule whose basis vectors and columns are the
    first of this one's (a stream's generation below it): its columns are
    shared, and `validate` takes its report and scans only the later columns.
    """

    def __init__(self, group: Group, basis_labels, coaction, prefix=None):
        self.group = group
        self.basis_labels = list(basis_labels)
        self._prefix = prefix
        start = prefix.dim if prefix else 0
        # coaction: per column i, a dict {j: Element}
        new = [{j: el for j, el in col.items() if el} for col in coaction[start:]]
        self._columns = prefix._columns + new if prefix else new
        self.coeffs = dict(prefix.coeffs) if prefix else {}
        self.coeffs.update(((j, i), el) for i, col in enumerate(new, start)
                           for j, el in col.items())
        self._coaction = None  # its array form, built once by filtration.coaction
        self._report = None  # the axiom scan's outcome, kept by validate

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    def coefficient(self, j: int, i: int) -> Element:
        return self.coeffs.get((j, i), self.group.zero())

    def column(self, i: int) -> dict:
        """{j: f_{ji}}, shared with the comodule: do not mutate."""
        return self._columns[i]

    def support_monomials(self) -> list:
        monos = {m for f in self.coeffs.values() for m in f.coeffs}
        return sorted(monos, key=self.group.mono_key)

    def __eq__(self, other):
        return (isinstance(other, Comodule) and self.group == other.group
                and self.basis_labels == other.basis_labels
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"Comodule({self.group.spec()}, dim={self.dim})"

    def validate(self) -> ValidationReport:
        """Check the counit and coassociativity axioms; report first failures.

        Both checks run over the support only: an absent f_{ji} has counit 0
        and coproduct 0, so a basis index i can fail only at a row j (counit)
        or l (coassociativity) where column i or some f_{lj} with j in
        column i is nonzero.  Indices are scanned in increasing order, as a
        dense scan would.  A prefix's columns name only its rows, so they
        read only its columns and its report stands for them: the scan
        resumes after it and keeps each first failure the prefix has.  The
        report is kept on the comodule, as its coaction is, so each column
        is scanned once.
        """
        chain = []  # this comodule and the prefixes below it not yet scanned
        m = self
        while m is not None and m._report is None:
            chain.append(m)
            m = m._prefix
        for m in reversed(chain):
            done = m._prefix._report.failures if m._prefix else []
            new = range(m._prefix.dim if m._prefix else 0, m.dim)
            failures = ([f for f in done if f.startswith("counit")] or m._counit(new)) + \
                ([f for f in done if f.startswith("coassoc")] or m._coassociativity(new))
            m._report = ValidationReport(not failures, failures)
        return self._report

    def _counit(self, new: range) -> list[str]:
        g = self.group
        for i in new:
            col = self.column(i)
            bad = [j for j, f in col.items() if g.counit(f) != int(i == j)]
            if i not in col:
                bad.append(i)
            if bad:
                j = min(bad)
                return [f"counit axiom at basis index {i} "
                        f"(epsilon(f[{j},{i}]) != {int(i == j)})"]
        return []

    def _coassociativity(self, new: range) -> list[str]:
        """The first i in `new` with sum_j f_{lj} (x) f_{ji} != Delta(f_{li}) at some l.

        Each monomial of the columns read, and each leg of the coproducts
        read from the group's table, gets a small integer code once per
        scan, so a row l and a pair of legs (a, b) are one integer key
        (l*K + a)*K + b, K the number of codes.
        """
        g, cols = self.group, self._columns
        codes: dict = {}
        coded = {j: {ell: [(codes.setdefault(m, len(codes)), c) for m, c in f.coeffs.items()]
                     for ell, f in cols[j].items()}
                 for j in {j for i in new for j in cols[i]}.union(new)}
        pairs: dict = {}
        for i in new:
            for f in cols[i].values():
                for m in f.coeffs:
                    if m not in pairs:
                        pairs[m] = [(codes.setdefault(a, len(codes)),
                                     codes.setdefault(b, len(codes)), c)
                                    for (a, b), c in g.coproduct_mono(m).items()]
        k = len(codes)
        delta = {codes[m]: [(a * k + b, c) for a, b, c in ab] for m, ab in pairs.items()}
        for i in new:
            diff: dict = {}  # sum_j f_{lj} (x) f_{ji} - Delta(f_{li}), over j in column i
            get = diff.get
            for j, right in coded[i].items():
                for ell, left in coded[j].items():
                    for a, ca in left:
                        base = (ell * k + a) * k
                        for b, cb in right:
                            diff[base + b] = get(base + b, 0) + ca * cb
            for ell, f in coded[i].items():
                base = ell * k * k
                for m, c in f:
                    for ab, cc in delta[m]:
                        diff[base + ab] = get(base + ab, 0) - c * cc
            bad = [key for key, c in diff.items() if c % g.p]
            if bad:
                return [f"coassociativity at basis index {i} (row {min(bad) // (k * k)})"]
        return []


# ---------------------------------------------------------------------------
# constructors

def trivial(g: Group) -> Comodule:
    return Comodule(g, ["1"], [{0: g.one()}])


def natural(g: Group) -> Comodule:
    """The defining N-dimensional representation of GL/SL/M/U."""
    if not isinstance(g, (GL, SL, MatMonoid, Unitriangular)):
        raise UnsupportedOperation(f"natural is not defined over {g.spec()}")
    N = g.N
    labels = [f"e{j + 1}" for j in range(N)]
    coaction = []
    for j in range(N):
        col: dict = {}
        if isinstance(g, Unitriangular):
            col[j] = g.one()
            for i in range(j):
                col[i] = g.element({g.gen_mono(i, j): 1})
        else:
            # x_{i,j} is not in normal form over SL(1), where x_{1,1} = 1
            for i in range(N):
                col[i] = g.element(g.reduce_dict({g.gen_mono(i, j): 1}))
        coaction.append(col)
    return Comodule(g, labels, coaction)


def detpow(g: Group, s: int) -> Comodule:
    """One-dimensional determinant-power module over GL(N)."""
    if not isinstance(g, GL):
        raise UnsupportedOperation(f"detpow is not defined over {g.spec()}")
    if s >= 0:
        f = g.det_element() ** s
    else:
        f = g.element({g.detinv_mono(): 1}) ** -s
    return Comodule(g, [f"det^{s}"], [{0: f}])


def regular(g: Group, n: int) -> Comodule:
    """The right regular comodule truncated to O(G)_{<=n}, coaction Delta."""
    return Comodule(g, *_regular_part(g, n, 0))


def _regular_part(g: Group, n: int, start: int):
    """Labels and columns of O(G)_{<=n}'s filtration basis from index `start` on."""
    if n < 0:
        raise ValueError("regular truncation level must be >= 0")
    basis = g.filtration_basis(n)
    index = {m: i for i, m in enumerate(basis)}
    coaction = []
    for m in basis[start:]:
        col: dict = {}  # row j -> {right leg: coefficient}; the legs of a row are distinct
        for (a, b), c in g.coproduct_mono(m).items():
            if a not in index:
                raise AssertionError(
                    f"filtration level {n} of {g.spec()} is not a sub-coalgebra "
                    f"(left leg {g.mono_str(a)} escapes)")
            col.setdefault(index[a], {})[b] = c
        coaction.append({j: Element(g, f) for j, f in col.items()})
    return [g.mono_str(m) for m in basis[start:]], coaction


def tensor(m: Comodule, n: Comodule) -> Comodule:
    if m.group != n.group:
        raise ValueError("tensor factors live over different groups")
    labels = [f"{a}*{b}" for a in m.basis_labels for b in n.basis_labels]
    # (j1, j2) -> j1 * dim N + j2 is one to one, so each product is the whole
    # coefficient; Comodule drops the ones that vanish
    coaction = [{j1 * n.dim + j2: f1 * f2 for j1, f1 in m.column(i1).items()
                 for j2, f2 in n.column(i2).items()}
                for i1 in range(m.dim) for i2 in range(n.dim)]
    return Comodule(m.group, labels, coaction)


def direct_sum(*modules: Comodule) -> Comodule:
    g = modules[0].group
    if any(m.group != g for m in modules):
        raise ValueError("summands live over different groups")
    labels, coaction = [], []
    for m in modules:
        offset = len(labels)
        labels += m.basis_labels
        coaction += [{j + offset: f for j, f in m.column(i).items()} for i in range(m.dim)]
    return Comodule(g, labels, coaction)


def dual(m: Comodule) -> Comodule:
    """Dual comodule: Delta(m^i) = sum_j m^j (x) antipode(f_{ij})."""
    g = m.group
    # `coeffs` runs over the columns in order, so each column fills by j
    coaction: list[dict] = [{} for _ in range(m.dim)]
    for (i, j), f in m.coeffs.items():
        coaction[i][j] = g.antipode(f)
    return Comodule(g, [f"{a}^*" for a in m.basis_labels], coaction)


def frobenius_twist(m: Comodule, r: int) -> Comodule:
    """Raise every coaction coefficient to the p^r power."""
    if r < 0:
        raise ValueError("twist order must be >= 0")
    if r == 0:
        return m
    g = m.group
    labels = [f"{a}({r})" for a in m.basis_labels]
    coaction = [{j: frobenius_element(f, r) for j, f in m.column(i).items()}
                for i in range(m.dim)]
    return Comodule(g, labels, coaction)


def sym_power(n: int, m: Comodule) -> Comodule:
    """Quotient symmetric power S^n(M): basis = degree-n monomials in the basis."""
    if n < 0:
        raise ValueError("symmetric power must be >= 0")
    g = m.group
    combos = list(itertools.combinations_with_replacement(range(m.dim), n))
    index = {c: i for i, c in enumerate(combos)}
    labels = ["*".join(m.basis_labels[i] for i in c) if c else "1" for c in combos]
    coaction = []
    for combo in combos:
        # expand prod_k (sum_j m_j (x) f_{j, combo_k}) and collect by multiset
        acc: dict = {(): g.one()}
        for i in combo:
            col = m.column(i)
            nxt: dict = {}
            for part, f in acc.items():
                for j, fji in col.items():
                    key = tuple(sorted(part + (j,)))
                    prod = f * fji
                    if prod:
                        nxt[key] = nxt.get(key, g.zero()) + prod
            acc = {k: v for k, v in nxt.items() if v}
        coaction.append({index[part]: f for part, f in acc.items()})
    return Comodule(g, labels, coaction)


# ---------------------------------------------------------------------------
# streams

class StreamModule:
    """Nested truncations M(0) <= M(1) <= ... with a filtration sufficiency bound.

    Every constructor keeps one contract: generation n is the first basis
    vectors of generation n+1, with the same columns.  So a constructor
    states only what is new at generation n: `new_fn(n, start)` returns the
    labels and columns of basis vectors start, start+1, ..., with row
    indices global, and is called once per generation, in order, so it may
    keep what it built for the generations below.  `generate` appends them
    and hands the largest generation already built below n to the new
    Comodule as its prefix, so each column is built once and scanned once.
    """

    def __init__(self, group: Group, name: str, new_fn, sufficiency_fn):
        self.group = group
        self.name = name
        self._new = new_fn
        self._sufficiency = sufficiency_fn
        self._labels: list = []
        self._columns: list = []
        self._dims: list[int] = []  # dim of generation n, for each n already stated
        self._cache: dict[int, Comodule] = {}

    def generate(self, n: int) -> Comodule:
        if n < 0:
            raise ValueError("generation index must be >= 0")
        while len(self._dims) <= n:
            labels, columns = self._new(len(self._dims), len(self._labels))
            self._labels += labels
            self._columns += columns
            dim = len(self._labels)
            if any(j >= dim for col in columns for j in col):
                raise AssertionError(f"{self!r} generation {len(self._dims)} names a row "
                                     f"past its dimension {dim}")
            self._dims.append(dim)
        if n not in self._cache:
            below = [k for k in self._cache if k < n]
            dim = self._dims[n]
            self._cache[n] = Comodule(self.group, self._labels[:dim], self._columns[:dim],
                                      self._cache[max(below)] if below else None)
        return self._cache[n]

    def sufficiency(self, d: int) -> int:
        """Smallest generation whose filtration at level d is already exact."""
        return self._sufficiency(d)

    def __repr__(self):
        return f"StreamModule({self.name} over {self.group.spec()})"


def _log_floor(base: int, d: int) -> int:
    r = 0
    while base ** (r + 1) <= d:
        r += 1
    return r


def polyaffine(g: Group, m: int) -> StreamModule:
    """Functions on affine m-space with Ga translating every coordinate."""
    if not isinstance(g, Ga):
        raise UnsupportedOperation("polyaffine is only defined over Ga")
    if m < 1:
        raise ValueError("polyaffine needs at least one coordinate")
    index: dict = {}  # exponent tuple -> its basis index, through the last generation

    def new(n: int, start: int):
        basis = list(_exp_tuples(m, n))  # the monomials of degree n
        index.update((e, i) for i, e in enumerate(basis, start))
        coaction = []
        for alpha in basis:
            # per coordinate, the b <= a with binom(a, b) nonzero mod p; a
            # product of nonzero factors is nonzero, and each beta is one row
            factors = [[(b, c) for b in range(a + 1) if (c := binom(a, b) % g.p)]
                       for a in alpha]
            col: dict = {}
            for pick in itertools.product(*factors):
                beta = tuple(b for b, _ in pick)
                c = 1
                for _, f in pick:
                    c = c * f % g.p
                col[index[beta]] = Element(g, {n - sum(beta): c})
            coaction.append(col)
        return [_poly_label(e) for e in basis], coaction

    return StreamModule(g, f"polyaffine({m})", new, lambda d: d)


def _poly_label(e) -> str:
    parts = [f"x{i + 1}^{a}" if a > 1 else f"x{i + 1}" for i, a in enumerate(e) if a]
    return "*".join(parts) if parts else "1"


def primitives(g: Group) -> StreamModule:
    """The span of 1 and the higher primitives t^(p^i), i >= 1, inside k[t].

    The subspace of primitive elements alone is not closed under the
    coaction (Delta(t^(p^i)) has the leg 1 (x) t^(p^i)); adjoining the unit
    gives the smallest subcomodule containing them, whose filtration
    dimensions are exactly floor(log_p d) + 1 for d >= 1.
    """
    if not isinstance(g, Ga):
        raise UnsupportedOperation("primitives is only defined over Ga")

    def new(n: int, start: int):
        if n == 0:
            return ["1"], [{0: g.one()}]
        return [f"t^{g.p ** n}"], [{n: g.one(), 0: g.element({g.p ** n: 1})}]

    return StreamModule(g, "primitives", new, lambda d: _log_floor(g.p, max(d, 1)))


def translationinvariants(g: Group) -> StreamModule:
    """The translation-invariant functions k[u], u = t^p - t, inside k[t]."""
    if not isinstance(g, Ga):
        raise UnsupportedOperation("translationinvariants is only defined over Ga")
    u = g.element({g.p: 1, 1: -1})
    upow = [g.one()]  # u^0, u^1, ..., through the last generation

    def new(n: int, start: int):
        if n:
            upow.append(upow[-1] * u)
        # u is primitive, so Delta(u^n) = sum_i C(n,i) u^i (x) u^(n-i)
        return [f"u^{n}" if n else "1"], [{i: upow[n - i].scale(c) for i in range(n + 1)
                                           if (c := binom(n, i) % g.p)}]

    return StreamModule(g, "translationinvariants", new, lambda d: d // g.p)


def twiststream(g: Group, e: int) -> StreamModule:
    """sum_r (natural twisted r times)^(p^(r^e)) over GL(N)."""
    if not isinstance(g, GL):
        raise UnsupportedOperation("twiststream is only defined over GL")
    if e < 1:
        raise ValueError("twiststream exponent must be >= 1")
    nat = natural(g)

    def new(n: int, start: int):
        block = direct_sum(*[frobenius_twist(nat, n)] * g.p ** (n ** e))
        return block.basis_labels, [{j + start: f for j, f in block.column(i).items()}
                                    for i in range(block.dim)]

    return StreamModule(g, f"twiststream({e})", new, lambda d: _log_floor(g.p, max(d, 1)))


def regular_stream(g: Group) -> StreamModule:
    """The full right regular comodule as a stream of filtration truncations."""
    return StreamModule(g, "regular", lambda n, start: _regular_part(g, n, start), lambda d: d)


# ---------------------------------------------------------------------------
# the module-expression language

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[a-z]+)|(?P<int>-?\d+)|(?P<sym>[(),]))")

# name -> (argument kinds, builder): the builder takes the group and the
# arguments, each "expr" argument already built as a finite Comodule
_CONSTRUCTORS = {
    "triv": ((), trivial),
    "natural": ((), natural),
    "detpow": (("int",), detpow),
    "regular": (("int",), regular),
    "dual": (("expr",), lambda g, m: dual(m)),
    "twist": (("int", "expr"), lambda g, r, m: frobenius_twist(m, r)),
    "sym": (("int", "expr"), lambda g, n, m: sym_power(n, m)),
    "tensor": (("expr", "expr"), lambda g, m, n: tensor(m, n)),
    "sum": (("expr", "expr"), lambda g, m, n: direct_sum(m, n)),
    "polyaffine": (("int",), polyaffine),
    "primitives": ((), primitives),
    "translationinvariants": ((), translationinvariants),
    "twiststream": (("int",), twiststream),
}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ModuleExprError(f"unexpected character {stripped[0]!r}", off)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def parse_module_expr(text: str):
    """Parse a module expression into a nested tuple AST."""
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else (None, None, len(text))

    def expect(kind, what):
        nonlocal idx
        tk, val, off = peek()
        if tk != kind:
            raise ModuleExprError(f"expected {what}, found {val!r}" if tk
                                  else f"expected {what}, found end of input", off)
        idx += 1
        return val, off

    def expr():
        nonlocal idx
        name, off = expect("name", "a constructor name")
        if name not in _CONSTRUCTORS:
            raise ModuleExprError(f"unknown constructor {name!r}", off)
        kinds = _CONSTRUCTORS[name][0]
        args = []
        if kinds:
            expect("sym", "'('")
            for k, want in enumerate(kinds):
                if k:
                    tk, val, off2 = peek()
                    if (tk, val) != ("sym", ","):
                        raise ModuleExprError("expected ','", off2)
                    idx += 1
                if want == "int":
                    val, _ = expect("int", "an integer")
                    args.append(int(val))
                else:
                    args.append(expr())
            tk, val, off2 = peek()
            if (tk, val) != ("sym", ")"):
                raise ModuleExprError("expected ')'", off2)
            idx += 1
        return (name, *args)

    try:
        tree = expr()
    except RecursionError:
        raise ModuleExprError("expression nested too deeply", peek()[2]) from None
    tk, val, off = peek()
    if tk is not None:
        raise ModuleExprError(f"trailing input {val!r}", off)
    return tree


def build_module(expr, g: Group):
    """Build a Comodule or StreamModule from an expression text or AST."""
    if isinstance(expr, str):
        expr = parse_module_expr(expr)
    try:
        return _build(expr, g)
    except RecursionError:
        raise ModuleExprError("expression nested too deeply", 0) from None


def _build(expr, g: Group):
    head, *args = expr
    if head not in _CONSTRUCTORS:
        raise ModuleExprError(f"unknown constructor {head!r}", 0)
    kinds, build = _CONSTRUCTORS[head]
    if len(args) != len(kinds) or not all(
            isinstance(a, tuple if kind == "expr" else int) for kind, a in zip(kinds, args)):
        raise ModuleExprError(f"{head}({', '.join(kinds)}) cannot take the arguments "
                              f"{tuple(args)!r}", 0)
    try:
        args = [_finite(_build(a, g), head) if kind == "expr" else a
                for kind, a in zip(kinds, args)]
        return build(g, *args)
    except UnsupportedOperation as exc:
        raise ModuleExprError(str(exc), 0) from exc


def _finite(m, ctor: str) -> Comodule:
    if isinstance(m, StreamModule):
        raise ModuleExprError(f"{ctor} cannot be applied to a stream module", 0)
    return m
