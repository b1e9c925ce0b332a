"""Exact arithmetic in k = F_p(t_1, ..., t_r) and its towers of p-power roots.

The ground field is the rational function field over the prime field F_p in
finitely many indeterminates.  Such a field is imperfect as soon as r >= 1,
and everything downstream (splitting levels, residue fields at infinity,
Picard data) hinges on deciding p-th power membership exactly.  Polynomials
are sparse maps from exponent vectors to nonzero residues mod p; rational
functions are kept in a canonical reduced form so that equality is
structural.

The root tower k^(1/p^N) is read through Frobenius: its q-th power map,
q = p^N, carries it onto k, and a subfield k(S^(1/p^N)) onto k^q(S).  So k
over k^q, free of rank p^(r*N) on the monomials t^e with 0 <= e_j < q,
gives exact linear algebra for the compositum degrees that the Frobenius
chain bounds leave open, in plain polynomial arithmetic over k.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import add
from typing import Optional, Sequence

from .linalg import RowSpace

DEFAULT_BASIS_CAP = 4096
BASIS_CAP_ENV = "UNIPIC_BASIS_CAP"


class FieldMismatch(ValueError):
    """Operands live over different field descriptions."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial or rational function."""


class UnknownVariable(ValueError):
    """A variable name is not declared by the field."""


class ZeroInput(ValueError):
    """Zero was passed where a nonzero element is required."""


class BasisTooLarge(ValueError):
    """The dense tower basis p^(r*N) exceeds the configured cap."""


def basis_cap() -> int:
    """Dense-basis bound for tower linear algebra, overridable by env var."""
    raw = os.environ.get(BASIS_CAP_ENV)
    if raw is None:
        return DEFAULT_BASIS_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BASIS_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise ValueError(f"{BASIS_CAP_ENV} must be positive, got {cap}")
    return cap


def is_prime(p: int) -> bool:
    """Trial division, which would crawl from 2^31 up: there it raises ValueError."""
    if p >= 2 ** 31:
        raise ValueError(f"characteristic {p} is too large; it must be below 2^31")
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldDesc:
    """Description of k = F_p(vars); r = 0 gives the prime field itself."""

    p: int
    vars: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"characteristic must be prime, got {self.p}")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"duplicate variable names in {self.vars}")
        for v in self.vars:
            if not v:
                raise ValueError("empty variable name")

    @property
    def r(self) -> int:
        return len(self.vars)

    def var_index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise UnknownVariable(f"{name!r} is not a variable of {self}") from None

    def zero(self) -> "RatFunc":
        return RatFunc.from_poly(MPoly.zero(self))

    def one(self) -> "RatFunc":
        return RatFunc.from_poly(MPoly.one(self))

    def const(self, c: int) -> "RatFunc":
        return RatFunc.from_poly(MPoly.const(self, c))

    def var(self, name: str) -> "RatFunc":
        return RatFunc.from_poly(MPoly.var(self, name))

    def generators(self) -> tuple["RatFunc", ...]:
        return tuple(self.var(v) for v in self.vars)

    def __str__(self) -> str:
        if not self.vars:
            return f"GF({self.p})"
        return f"GF({self.p})({', '.join(self.vars)})"


def _grlex_key(e: tuple[int, ...]) -> tuple:
    return (sum(e), e)


# -- term-dict kernel: {exponent tuple: residue in [1, p-1]}, shared with the parser


def _add_terms(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = (out.get(e, 0) + c) % p
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def _mul_terms(a: dict, b: dict, p: int) -> dict:
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:  # a monomial shifts b's exponents one to one, and p is prime
        (ea, ca), = a.items()
        return {tuple(map(add, ea, eb)): ca * cb % p for eb, cb in b.items()}
    out: dict = {}
    get = out.get  # sums stay unreduced; reduce and drop zeros once at the end
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + ca * cb
    return {e: s for e, c in out.items() if (s := c % p)}


def _pow_terms(a: dict, n: int, p: int, r: int) -> dict:
    """a^n, n >= 0, by base-p digits: f^(sum d_i p^i) = prod (f^(d_i))^(p^i), as
    Frobenius fixes F_p; square-and-multiply runs within one digit d_i < p."""
    if len(a) == 1:
        (e, c), = a.items()
        return {tuple(x * n for x in e): pow(c, n, p)}
    out = None  # the first factor is taken as is, not times one
    while n:
        n, d = divmod(n, p)
        base = a
        while d:
            if d & 1:
                out = base if out is None else _mul_terms(out, base, p)
            d >>= 1
            if d:
                base = _mul_terms(base, base, p)
        if n:
            a = {tuple(x * p for x in e): c for e, c in a.items()}
    return {(0,) * r: 1} if out is None else out


class MPoly:
    """Sparse multivariate polynomial over F_p.

    terms maps exponent tuples (length = field.r) to residues in [1, p-1].
    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: FieldDesc, terms: dict):
        self.field = field
        self.terms = terms

    # -- construction ---------------------------------------------------

    @classmethod
    def make(cls, field: FieldDesc, raw: dict) -> "MPoly":
        p = field.p
        terms = {}
        for e, c in raw.items():
            c %= p
            if c:
                terms[e] = c
        return cls(field, terms)

    @classmethod
    def zero(cls, field: FieldDesc) -> "MPoly":
        return cls(field, {})

    @classmethod
    def one(cls, field: FieldDesc) -> "MPoly":
        return cls(field, {(0,) * field.r: 1})

    @classmethod
    def const(cls, field: FieldDesc, c: int) -> "MPoly":
        c %= field.p
        if c == 0:
            return cls.zero(field)
        return cls(field, {(0,) * field.r: c})

    @classmethod
    def var(cls, field: FieldDesc, name: str) -> "MPoly":
        i = field.var_index(name)
        e = tuple(1 if j == i else 0 for j in range(field.r))
        return cls(field, {e: 1})

    # -- predicates -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.field.r: 1}

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.field.r in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    # -- basic queries --------------------------------------------------

    def degree_in(self, v: int) -> int:
        if not self.terms:
            return -1
        return max(e[v] for e in self.terms)

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Leading (exponent, coeff) under graded lex on the variable order."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    # -- ring operations ------------------------------------------------

    def _check(self, other: "MPoly") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        return MPoly(self.field, _add_terms(self.terms, other.terms, self.field.p))

    def __neg__(self) -> "MPoly":
        p = self.field.p
        return MPoly(self.field, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        return MPoly(self.field, _mul_terms(self.terms, other.terms, self.field.p))

    def scale(self, c: int) -> "MPoly":
        c %= self.field.p
        if c == 0:
            return MPoly.zero(self.field)
        if c == 1:
            return self
        p = self.field.p
        return MPoly(self.field, {e: (c * k) % p for e, k in self.terms.items()})

    def mul_monomial(self, exp: tuple[int, ...], c: int = 1) -> "MPoly":
        p = self.field.p
        c %= p
        return MPoly(self.field, _mul_terms(self.terms, {exp: c}, p) if c else {})

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return MPoly(self.field, _pow_terms(self.terms, n, self.field.p, self.field.r))

    # -- char-p structure ----------------------------------------------

    def scale_exponents(self, k: int) -> "MPoly":
        """Raise to the p^j-th power, phrased as exponent scaling (k = p^j)."""
        if k == 1:
            return self
        return MPoly(self.field, {tuple(x * k for x in e): c for e, c in self.terms.items()})

    def frobenius(self, j: int = 1) -> "MPoly":
        return self.scale_exponents(self.field.p ** j)

    def pth_root(self) -> Optional["MPoly"]:
        """Inverse of Frobenius when it exists: divide all exponents by p.

        Coefficients in F_p are fixed by Frobenius, so only the exponent
        divisibility can obstruct.
        """
        p = self.field.p
        out = {}
        for e, c in self.terms.items():
            if any(x % p for x in e):
                return None
            out[tuple(x // p for x in e)] = c
        return MPoly(self.field, out)

    def partial(self, v: int) -> "MPoly":
        p = self.field.p  # lowering e[v] >= 1 by one is one to one, so no terms merge
        return MPoly(self.field, {e[:v] + (e[v] - 1,) + e[v + 1:]: cc
                                  for e, c in self.terms.items() if (cc := c * e[v] % p)})

    def embed(self, target: FieldDesc, var_images: Sequence[tuple[int, int]]) -> "MPoly":
        """Monomial substitution t_i -> (target var at index j)^s.

        var_images[i] = (j, s).  Serves field enlargement, as for the
        generic fiber over k(T).
        """
        if len(var_images) != self.field.r:
            raise ValueError("need one image per source variable")
        out = {}
        for e, c in self.terms.items():
            img = [0] * target.r
            for i, x in enumerate(e):
                j, s = var_images[i]
                img[j] += x * s
            key = tuple(img)
            cc = (out.get(key, 0) + c) % target.p
            if cc:
                out[key] = cc
            elif key in out:
                del out[key]
        return MPoly(target, out)

    # -- division and gcd ----------------------------------------------

    def exact_div(self, d: "MPoly") -> "MPoly":
        """Quotient self/d, assuming the division is exact."""
        self._check(d)
        if not d:
            raise DivisionByZero("division by the zero polynomial")
        p = self.field.p
        if d.is_monomial():
            (ed, cd), = d.terms.items()
            inv = pow(cd, -1, p)
            out = {}
            for e, c in self.terms.items():
                q = tuple(a - b for a, b in zip(e, ed))
                if any(x < 0 for x in q):
                    raise ValueError("inexact monomial division")
                out[q] = (c * inv) % p
            return MPoly(self.field, out)
        ed, cd = d.leading()
        inv = pow(cd, -1, p)
        rem = self
        quot: dict = {}
        while rem:
            er, cr = rem.leading()
            q = tuple(a - b for a, b in zip(er, ed))
            if any(x < 0 for x in q):
                raise ValueError("inexact division")
            cq = (cr * inv) % p
            quot[q] = cq
            rem = rem - d.mul_monomial(q, cq)
        return MPoly(self.field, quot)

    def monic(self) -> "MPoly":
        if not self.terms:
            return self
        _, c = self.leading()
        return self.scale(pow(c, -1, self.field.p))

    def _coeffs_in(self, v: int) -> dict[int, "MPoly"]:
        """Split into coefficients of powers of variable v (v cleared)."""
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            k = e[v]
            e2 = tuple(x if i != v else 0 for i, x in enumerate(e))
            buckets.setdefault(k, {})[e2] = c
        return {k: MPoly(self.field, t) for k, t in buckets.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.field, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(self.field.vars, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MPoly({self})"


def _gcd_list(polys: list[MPoly], v: int) -> MPoly:
    field = polys[0].field
    g = MPoly.zero(field)
    for f in polys:
        g = _gcd_rec(g, f, v)
        if g.is_one():
            break
    return g


def _pseudo_rem(f: MPoly, g: MPoly, v: int) -> MPoly:
    """Pseudo-remainder of f by g as univariate polynomials in variable v."""
    dg = g.degree_in(v)
    gc = g._coeffs_in(v)
    lg = gc[dg]
    while f and f.degree_in(v) >= dg:
        df = f.degree_in(v)
        fc = f._coeffs_in(v)
        lf = fc[df]
        shift = tuple(df - dg if i == v else 0 for i in range(f.field.r))
        f = f * lg - g * lf.mul_monomial(shift)
    return f


def _primitive(f: MPoly, v: int) -> MPoly:
    if not f:
        return f
    cont = _gcd_list(list(f._coeffs_in(v).values()), v - 1)
    if cont.is_one():
        return f
    return f.exact_div(cont)


def _gcd_rec(f: MPoly, g: MPoly, v: int) -> MPoly:
    if not f:
        return g.monic()
    if not g:
        return f.monic()
    if f.is_monomial() or g.is_monomial():
        exps = [min(e[i] for e in f.terms) for i in range(f.field.r)]
        exps2 = [min(e[i] for e in g.terms) for i in range(g.field.r)]
        return MPoly(f.field, {tuple(min(a, b) for a, b in zip(exps, exps2)): 1})
    while v >= 0 and f.degree_in(v) == 0 and g.degree_in(v) == 0:
        v -= 1
    if v < 0:
        return MPoly.one(f.field)
    fc = list(f._coeffs_in(v).values())
    gc = list(g._coeffs_in(v).values())
    cont_f = _gcd_list(fc, v - 1)
    cont_g = _gcd_list(gc, v - 1)
    c = _gcd_rec(cont_f, cont_g, v - 1)
    a = f.exact_div(cont_f)
    b = g.exact_div(cont_g)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b, v)
        a, b = b, _primitive(r, v)
    return (c * _primitive(a, v)).monic()


def poly_gcd(f: MPoly, g: MPoly) -> MPoly:
    """Monic gcd via recursion over the last variable with content extraction."""
    if f.field != g.field:
        raise FieldMismatch(f"{f.field} vs {g.field}")
    return _gcd_rec(f, g, f.field.r - 1)


def _monic_den(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    """num and den scaled so that den has leading coefficient 1."""
    inv = pow(den.leading()[1], -1, den.field.p)
    return num.scale(inv), den.scale(inv)


def _cancel(x: MPoly, y: MPoly) -> tuple[MPoly, MPoly]:
    """x and y divided by their gcd, which is not taken when a side is constant."""
    if x.is_constant() or y.is_constant():
        return x, y
    g = poly_gcd(x, y)
    if g.is_one():
        return x, y
    return x.exact_div(g), y.exact_div(g)


class RatFunc:
    """Canonical rational function num/den over F_p(vars).

    Canonical form: gcd(num, den) = 1 and the graded-lex leading coefficient
    of den is 1.  Equality and hashing are structural.

    Arithmetic on reduced a/b and c/d takes no gcd of a full cross product
    (Henrici; Knuth, TAOCP 4.5.1).  x + 0 is x; (a + c b)/b is coprime as
    gcd(a, b) = 1; with g = gcd(b, d) = 1, (a d + c b)/(b d) is too, else
    only gcd(t, g) with t = a (d/g) + c (b/g) can cancel.  Products and
    quotients divide out the cross gcds, gcd(a, d) and gcd(c, b) (gcd(a, c)
    and gcd(d, b) for a quotient), skipped when a side is constant.  The
    canonical form is unique, so each result equals the constructor's.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly, reduced: bool = False):
        if num.field != den.field:
            raise FieldMismatch(f"{num.field} vs {den.field}")
        if not den:
            raise DivisionByZero("zero denominator")
        if not reduced:
            if not num:
                den = MPoly.one(num.field)
            elif not den.is_one():
                g = poly_gcd(num, den)
                if not g.is_one():
                    num = num.exact_div(g)
                    den = den.exact_div(g)
                num, den = _monic_den(num, den)
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_poly(cls, f: MPoly) -> "RatFunc":
        return cls(f, MPoly.one(f.field), reduced=True)

    @property
    def field(self) -> FieldDesc:
        return self.num.field

    # -- predicates -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> Optional["RatFunc"]:
        if isinstance(other, RatFunc):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.const(other)
        return None

    def __add__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        (a, b), (c, d) = (self.num, self.den), (o.num, o.den)
        if b.is_one() and d.is_one():
            return RatFunc(a + c, b, reduced=True)
        if d.is_one():
            return RatFunc(a + c * b, b, reduced=True)
        if b.is_one() or (g := poly_gcd(b, d)).is_one():
            return RatFunc(a * d + c * b, b * d, reduced=True)
        b1, d1 = b.exact_div(g), d.exact_div(g)
        t = a * d1 + c * b1
        h = poly_gcd(t, g)  # t = 0 only when b = d = g, and then h = g leaves 0/1
        if not h.is_one():
            t, d = t.exact_div(h), d.exact_div(h)
        return RatFunc(t, b1 * d, reduced=True)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, reduced=True)

    def __sub__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.is_one() and o.den.is_one():
            return RatFunc(self.num * o.num, self.den, reduced=True)
        if not self.num or not o.num:
            return self.field.zero()
        a, d = _cancel(self.num, o.den)
        c, b = _cancel(o.num, self.den)
        return RatFunc(a * c, b * d, reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise DivisionByZero("division by zero rational function")
        if not self.num:
            return self
        a, c = _cancel(self.num, o.num)
        d, b = _cancel(o.den, self.den)
        return RatFunc(*_monic_den(a * d, b * c), reduced=True)

    def __rtruediv__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "RatFunc":
        if not self.num:
            raise DivisionByZero("inverse of zero")
        return RatFunc(*_monic_den(self.den, self.num), reduced=True)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc(self.num ** n, self.den ** n, reduced=True)  # coprime, den stays monic

    # -- char-p structure ----------------------------------------------

    def frobenius(self, j: int = 1) -> "RatFunc":
        """p^j-th power, computed by exponent scaling."""
        if j == 0:
            return self
        k = self.field.p ** j
        return RatFunc(self.num.scale_exponents(k), self.den.scale_exponents(k), reduced=True)

    def pth_root(self) -> Optional["RatFunc"]:
        """The unique p-th root when self lies in k^p, else None.

        A reduced fraction is a p-th power iff numerator and denominator
        both are, and that reduces to exponent divisibility.
        """
        rn = self.num.pth_root()
        if rn is None:
            return None
        rd = self.den.pth_root()
        if rd is None:
            return None
        return RatFunc(rn, rd, reduced=True)

    def partial(self, name: str) -> "RatFunc":
        v = self.field.var_index(name)
        n = self.num.partial(v) * self.den - self.num * self.den.partial(v)
        return RatFunc(n, self.den * self.den)

    def embed(self, target: FieldDesc, var_images: Sequence[tuple[int, int]]) -> "RatFunc":
        return RatFunc(self.num.embed(target, var_images), self.den.embed(target, var_images))

    # -- equality / display --------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.field.const(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        ns = str(self.num)
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        ds = str(self.den)
        if len(self.den.terms) > 1 or not self.den.is_monomial():
            ds = f"({ds})"
        elif not self.den.is_constant() and ("*" in ds):
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def power_level(a: RatFunc, n: int) -> tuple[int, RatFunc]:
    """(v, b) with a = b^(p^v) and v <= n as large as possible.

    The one Frobenius ladder of the library: every question of how far
    down k > k^p > k^(p^2) > ... an element sits is answered here, one
    p-th root at a time.  Zero lies in every k^(p^v) and gives (n, 0).
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    v, b = 0, a
    while v < n and (root := b.pth_root()) is not None:
        v, b = v + 1, root
    return v, b


# -- the root tower, read through Frobenius -----------------------------


def _coords(f: MPoly, q: int) -> dict[int, RatFunc]:
    """Coordinates of f over k^q in the basis {t^e : 0 <= e_j < q}, each read as its q-th root.

    Exponents split as q*d + (e mod q), with e mod q read in base q as the
    index; the coordinate sum of c*t^(q*d) is the q-th power of sum of c*t^d.
    """
    coords: dict[int, dict] = {}
    for e, c in f.terms.items():
        idx = 0
        for d in e:
            idx = idx * q + d % q
        coords.setdefault(idx, {})[tuple(d // q for d in e)] = c
    return {idx: RatFunc.from_poly(MPoly(f.field, terms)) for idx, terms in coords.items()}


def _check_basis(base: FieldDesc, level: int, cap: int) -> None:
    """Refuse a dense tower basis of size p^(r*level) above cap."""
    size = base.p ** (base.r * level)
    if size > cap:
        raise BasisTooLarge(f"dense tower basis p^(r*N) = {size} exceeds cap {cap}")


def _span_space(base: FieldDesc, q: int, ladder: Sequence[tuple[MPoly, int]]) -> RowSpace:
    """Echelon basis of k^q(ladder) in the coordinates of `_coords`.

    It is spanned by the products of generators with exponents below each
    one's ladder level.
    """
    one = MPoly.one(base)
    products = [one]
    for x, e in ladder:
        powers = [one]
        for _ in range(base.p ** e - 1):
            powers.append(powers[-1] * x)
        products = [acc * pw for acc in products for pw in powers]
    space = RowSpace()
    for prod in products:
        space.insert(_coords(prod, q))
    return space


def _degree_bounds(roots: Sequence[tuple[RatFunc, int]]) -> tuple[int, int]:
    """lo <= [k':k] <= hi for k' = k(b_i^(1/p^(e_i))), each b_i outside k^p and e_i >= 1.

    Let S_j = {b_i : e_i >= j} and k_j = k(b_i^(1/p^min(j, e_i))), so k' is
    k_e, e = max e_i.  F^(j-1) carries step j, [k_j : k_(j-1)], onto
    [M(S_j^(1/p)) : M] for a field M in k, so the step is at least
    [k(S_j^(1/p)) : k] = p^rank J(S_j), J the Jacobian (db/dt_v) over k
    (Matsumura, Commutative Ring Theory, section 26); step 1 is exactly
    that.  A step adjoins |S_j| p-th roots to a field of p-degree r, so it
    is at most p^min(r, |S_j|).  And k' lies in k(t_v^(1/p^(eps_v))), eps_v
    the largest e_i over the b_i whose num or den involves t_v.  The bounds
    free of J come first; when they meet at p^e no Jacobian is formed.
    """
    base = roots[0][0].field
    p, r = base.p, base.r
    roots = sorted(roots, key=lambda root: -root[1])
    e = roots[0][1]
    sizes = [sum(1 for _, ei in roots if ei >= j) for j in range(1, e + 1)]
    eps = [max((ei for b, ei in roots if b.num.degree_in(v) > 0 or b.den.degree_in(v) > 0),
               default=0) for v in range(r)]
    top = min(sum(min(r, s) for s in sizes), sum(eps))
    if top == e:
        return p ** e, p ** e
    space, ranks, done = RowSpace(), [], 0
    for size in reversed(sizes):  # S_e in ... in S_1, so one echelon pass gives every rank
        for b, _ in roots[done:size]:
            space.insert({v: b.partial(name) for v, name in enumerate(base.vars)})
        done = size
        ranks.append(space.rank)
    return p ** sum(ranks), p ** min(top, ranks[-1] + sum(min(r, s) for s in sizes[1:]))


def compositum_degree(pairs: Sequence[tuple[RatFunc, int]]) -> int:
    """Degree [k' : k] of k' = k(a_1^(1/p^(n_1)), ..., a_s^(1/p^(n_s))).

    Write a_i = b_i^(p^(v_i)) with (v_i, b_i) = `power_level(a_i, n_i)`, so
    the i-th root is b_i^(1/p^(e_i)) with e_i = n_i - v_i.  One chain of
    Frobenius bounds, `_degree_bounds`, gives lo <= [k':k] <= hi, and they
    meet on most inputs: always for r = 1, a single root, or e_i <= 1, and
    whenever the b_i with the largest e_i form a p-basis of k.  Only when
    lo < hi is the dense root-tower basis built, and it is refused above
    `basis_cap()`.
    """
    for a, _ in pairs:
        if not a:
            raise ZeroInput("cannot adjoin roots of zero")
        if a.field != pairs[0][0].field:
            raise FieldMismatch("generators over different fields")
    roots = []
    for a, n in pairs:
        v, b = power_level(a, n)
        if v < n:
            roots.append((b, n - v))
    if not roots:
        return 1
    lo, hi = _degree_bounds(roots)
    return lo if lo == hi else _dense_degree(pairs)


def _dense_degree(pairs: Sequence[tuple[RatFunc, int]]) -> int:
    """[k' : k] by linear algebra over k^q, q = p^N, in the basis of size p^(r*N).

    The q-th power map carries k' onto k^q(a_i^(s_i)) with s_i = p^(N - n_i),
    and for a_i = num/den the polynomial x_i = num^(s_i) * den^(q - s_i)
    = a_i^(s_i) * den^q generates the same field over k^q.  As
    k^q(x) = k^q(1/x), the side of larger total degree takes the num role,
    which keeps the power of the other small.  Each generator contributes
    p^e, e its inseparability exponent over the field built so far.
    """
    base = pairs[0][0].field
    level = max(n for _, n in pairs)
    if level == 0:
        return 1
    _check_basis(base, level, basis_cap())
    q = base.p ** level
    ladder: list[tuple[MPoly, int]] = []
    degree = 1
    space = _span_space(base, q, ladder)
    for a, n in pairs:
        num, den = a.num, a.den
        if sum(den.leading()[0]) > sum(num.leading()[0]):
            num, den = den, num
        x = (num * den ** (base.p ** n - 1)).scale_exponents(q // base.p ** n)
        # e = n always stops the loop: x^(p^n) lies in k^q, and the span holds 1
        for e in range(n + 1):
            if space.reduces_to_zero(_coords(x.frobenius(e), q)):
                break
        if e:
            ladder.append((x, e))
            degree *= base.p ** e
            space = _span_space(base, q, ladder)
    return degree
