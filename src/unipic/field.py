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

import functools
from collections import namedtuple
from itertools import zip_longest
from operator import add, sub
from typing import Optional, Sequence

BASIS_CAP = 4096  # largest dense tower basis p^(r*N) that `_dense_degree` builds


class FieldMismatch(ValueError):
    """Operands live over different field descriptions."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial or rational function."""


class UnknownVariable(ValueError):
    """A variable name is not declared by the field."""


class ZeroInput(ValueError):
    """Zero was passed where a nonzero element is required."""


class BasisTooLarge(ValueError):
    """The dense tower basis p^(r*N), N the largest root exponent e_i, exceeds `BASIS_CAP`."""


@functools.lru_cache(maxsize=64)  # one trial division per characteristic for a spec and its field
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


class FieldDesc(namedtuple("FieldDesc", "p vars")):
    """Description of k = F_p(vars); r = 0 gives the prime field itself."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks

    def __new__(cls, p: int, vars: tuple[str, ...] = ()):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if len(set(vars)) != len(vars):
            raise ValueError(f"duplicate variable names in {vars}")
        for v in vars:
            if not v:
                raise ValueError("empty variable name")
        self = super().__new__(cls, p, tuple(vars))
        if self not in _SHARED:  # once per field: MPoly and RatFunc are never changed in place
            r = len(vars)
            origin, units = (0,) * r, {v: tuple(int(i == j) for j in range(r)) for i, v in enumerate(vars)}
            one = MPoly(self, {origin: 1})
            _SHARED[self] = _Shared(origin, units, RatFunc(MPoly(self, {}), one, reduced=True),
                                    RatFunc(one, one, reduced=True))
        return self

    @property
    def r(self) -> int:
        return len(self.vars)

    def var_index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise UnknownVariable(f"{name!r} is not a variable of {self}") from None

    def zero(self) -> "RatFunc":
        return _SHARED[self].zero

    def one(self) -> "RatFunc":
        return _SHARED[self].one

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


# per field: the exponent (0, ..., 0), each variable's unit exponent, zero and one
_Shared = namedtuple("_Shared", "origin units zero one")
_SHARED: dict = {}


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
    Instances are immutable, so each field's zero and one are shared.
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
        return _SHARED[field].zero.num

    @classmethod
    def one(cls, field: FieldDesc) -> "MPoly":
        return _SHARED[field].one.num

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
        t = self.terms
        return len(t) == 1 and t.get(_SHARED[self.field].origin) == 1

    def is_constant(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and _SHARED[self.field].origin in t)

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
        p, terms = self.field.p, self.terms
        for e in terms:  # every exponent is tested before any root is built
            for x in e:
                if x % p:
                    return None
        return MPoly(self.field, {tuple([x // p for x in e]): c for e, c in terms.items()})

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
        out: dict = {}
        for e, c in self.terms.items():
            img = [0] * target.r
            for (j, s), x in zip(var_images, e):
                img[j] += x * s
            out[tuple(img)] = out.get(tuple(img), 0) + c
        return MPoly.make(target, out)

    # -- equality / display --------------------------------------------

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


# -- gcd on recursive dense lists: a polynomial in t_0..t_v is the list of its
# coefficients in t_v, lowest degree first, each a polynomial in t_0..t_(v-1),
# and at v = 0 a list of residues mod p.  Zero is [] and no list ends in zero.


def _to_dense(terms: dict, v: int) -> list:
    out: list = []
    for e, c in terms.items():
        node = out
        for i in range(v, 0, -1):
            node.extend([] for _ in range(e[i] + 1 - len(node)))
            node = node[e[i]]
        node.extend([0] * (e[0] + 1 - len(node)))
        node[e[0]] = c
    return out


def _from_dense(a: list, v: int, tail: tuple):
    for i, x in enumerate(a):
        if x and v:
            yield from _from_dense(x, v - 1, (i,) + tail)
        elif x:
            yield (i,) + tail, x


def _add(a: list, b: list, v: int, p: int, s: int = 1) -> list:
    """a + s*b, s = 1 or -1."""
    if v:
        out = [_add(x, y, v - 1, p, s) for x, y in zip_longest(a, b, fillvalue=[])]
    else:
        out = [(x + s * y) % p for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _mul(a: list, b: list, v: int, p: int) -> list:
    if not a or not b:
        return []
    out = [[] if v else 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            if v:
                out[j] = _add(out[j], _mul(x, y, v - 1, p), v - 1, p)
            else:
                out[j] += x * y
    return out if v else [c % p for c in out]


def _div(a: list, b: list, v: int, p: int) -> list:
    """a / b by long division from the top, where b divides a."""
    n, a = len(b) - 1, list(a)
    q = [[] if v else 0] * (len(a) - n)
    for k in reversed(range(len(q))):
        if not v:
            c = q[k] = a[k + n] * pow(b[-1], -1, p) % p
            a[k:k + n] = [x - c * y for x, y in zip(a[k:k + n], b)]
        elif a[k + n]:
            c = q[k] = _div(a[k + n], b[-1], v - 1, p)
            a[k:k + n] = [_add(x, _mul(c, y, v - 1, p), v - 1, p, -1) for x, y in zip(a[k:k + n], b)]
    return q


def _is_unit(a: list, v: int) -> bool:
    return len(a) == 1 and (not v or _is_unit(a[0], v - 1))


def _primitive(a: list, v: int, p: int) -> tuple[list, list]:
    """(content, primitive part) of a in t_v, up to a unit."""
    c: list = []
    for x in a:
        c = _gcd_dense(c, x, v - 1, p)
        if _is_unit(c, v - 1):
            return c, a
    return c, [_div(x, c, v - 1, p) for x in a]


def _gcd_dense(a: list, b: list, v: int, p: int) -> list:
    """A gcd of a and b up to a unit: Euclid over F_p at v = 0, and above it
    a primitive PRS in t_v over F_p[t_0..t_(v-1)] (Brown 1971; Knuth, TAOCP
    4.6.1) times the gcd of the contents, taken one level down."""
    if not a or not b:
        return a or b
    if not v:
        a, b = list(a), list(b)  # Euclid rewrites a in place
        while b:
            inv = pow(b[-1], -1, p)
            while len(a) >= len(b):  # a -= (a[-1] / b[-1]) x^s b clears a's top term
                c, s = a[-1] * inv, len(a) - len(b)
                a[s:] = [(x - c * y) % p for x, y in zip(a[s:], b)]
                while a and not a[-1]:
                    a.pop()
            a, b = b, a
        return a
    (ca, a), (cb, b) = _primitive(a, v, p), _primitive(b, v, p)
    if len(a) < len(b):
        a, b = b, a
    while b:
        lb, n = b[-1], len(b) - 1
        while len(a) > n:  # a lb - a[-1] t_v^s b, s = deg a - deg b, clears a's top term
            la, s = a[-1], len(a) - 1 - n
            a = [_mul(x, lb, v - 1, p) for x in a[:-1]]
            a[s:] = [_add(x, _mul(la, y, v - 1, p), v - 1, p, -1) for x, y in zip(a[s:], b)]
            while a and not a[-1]:
                a.pop()
        a, b = b, _primitive(a, v, p)[1]
    c = _gcd_dense(ca, cb, v - 1, p)
    return a if _is_unit(c, v - 1) else [_mul(c, x, v - 1, p) for x in a]


def _cancel(x: MPoly, y: MPoly) -> tuple[MPoly, MPoly, MPoly]:
    """(g, x/g, y/g) for g = gcd(x, y) made monic: the library's one gcd-and-divide.

    A monomial side makes g the monomial of the least exponents (1 when
    either has a constant term) and each quotient an exponent shift; else
    both go once to the dense lists in the last variable either involves,
    where the gcd and, by `_div`, both quotients are taken.
    """
    field = x.field
    if x.is_monomial() or y.is_monomial():
        o = _SHARED[field].origin
        s = o if o in x.terms or o in y.terms else tuple(map(min, zip(*x.terms, *y.terms)))
        if not any(s):
            return _SHARED[field].one.num, x, y
        out = [MPoly(field, {s: 1})]
        for f in (x, y):
            out.append(MPoly(field, {tuple(map(sub, e, s)): c for e, c in f.terms.items()}))
        return tuple(out)
    p, r = field.p, field.r
    v = max(i for e in (*x.terms, *y.terms) for i, k in enumerate(e) if k)
    a, b = _to_dense(x.terms, v), _to_dense(y.terms, v)
    d = _gcd_dense(a, b, v, p)
    if _is_unit(d, v):
        return _SHARED[field].one.num, x, y
    tail = (0,) * (r - 1 - v)
    g = dict(_from_dense(d, v, tail))
    c = g[max(g, key=_grlex_key)]
    inv = pow(c, -1, p)
    out = [MPoly(field, {e: k * inv % p for e, k in g.items()})]
    for f in (a, b):  # x/g with g monic is c times x/d
        q = _from_dense(_div(f, d, v, p), v, tail)
        out.append(MPoly(field, {e: k * c % p for e, k in q}))
    return tuple(out)


def _monic_den(num: MPoly, den: MPoly) -> tuple[MPoly, MPoly]:
    """num and den scaled so that den has leading coefficient 1."""
    inv = pow(den.leading()[1], -1, den.field.p)
    return num.scale(inv), den.scale(inv)


class RatFunc:
    """Canonical rational function num/den over F_p(vars).

    Canonical form: gcd(num, den) = 1 and the graded-lex leading coefficient
    of den is 1.  Equality and hashing are structural.

    Arithmetic on reduced a/b and c/d takes no gcd of a full cross product
    (Henrici; Knuth, TAOCP 4.5.1).  x + 0 is x; (a + c b)/b is coprime as
    gcd(a, b) = 1; with g = gcd(b, d) = 1, (a d + c b)/(b d) is too, else
    only h = gcd(t, g) with t = a (d/g) + c (b/g) can cancel, and the
    denominator is (b/g) (d/g) (g/h).  Products and quotients divide out
    the cross gcds, gcd(a, d) and gcd(c, b) (gcd(a, c) and gcd(d, b) for a
    quotient).  Every gcd and its cofactors come from one `_cancel` call.
    The canonical form is unique, so each result equals the constructor's.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly, reduced: bool = False):
        if num.field != den.field:
            raise FieldMismatch(f"{num.field} vs {den.field}")
        if not den:
            raise DivisionByZero("zero denominator")
        if not reduced and not den.is_one():
            if not num:
                den = MPoly.one(num.field)
            else:
                num, den = _monic_den(*_cancel(num, den)[1:])
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_poly(cls, f: MPoly) -> "RatFunc":
        return cls(f, _SHARED[f.field].one.num, reduced=True)

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
        g, b1, d1 = _cancel(b, d)
        if g.is_one():
            return RatFunc(a * d + c * b, b * d, reduced=True)
        h, t, g1 = _cancel(a * d1 + c * b1, g)  # t = 0 only when b = d = g, and h = g leaves 0/1
        return RatFunc(t, b1 * (d if h.is_one() else d1 * g1), reduced=True)

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
        _, a, d = _cancel(self.num, o.den)
        _, c, b = _cancel(o.num, self.den)
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
        _, a, c = _cancel(self.num, o.num)
        _, d, b = _cancel(o.den, self.den)
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
        if len(self.den.terms) > 1 or "*" in ds:
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


def _coords(f: MPoly, q: int) -> dict[int, dict]:
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
    return coords


def _reduce(pivots: dict[int, dict], row: dict[int, dict], field: FieldDesc) -> dict[int, dict]:
    """row reduced fraction-free against `pivots`: the library's one elimination.

    Rows map columns to nonzero polynomial entries on term dicts; `pivots`
    maps each stored row's lead, its least column, to the row.  A row whose
    lead meets a pivot becomes (piv[lead]/g)*row - (row[lead]/g)*piv, g the
    gcd of the two leads, from one `_cancel`: a nonzero multiple of row less
    one of piv, so the span is kept and no `RatFunc` is built.  The result
    is empty when row lies in the span, else its lead is free.
    """
    p = field.p
    while row and (piv := pivots.get(lead := min(row))) is not None:
        _, a, c = _cancel(MPoly(field, piv[lead]), MPoly(field, row[lead]))
        a, c = a.terms, {e: p - x for e, x in c.terms.items()}
        row = {v: t for v in row.keys() | piv.keys() if v != lead and (t := _add_terms(
            _mul_terms(a, row.get(v, {}), p), _mul_terms(c, piv.get(v, {}), p), p))}
    return row


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

    J is echeloned by `_reduce` on rows den_i^2 * grad b_i, whose entries
    are polynomials, as a unit factor leaves the rank over k alone; a row
    has at most r columns, so it is reduced at most r times.
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
    pivots, ranks, done = {}, [], 0
    for size in reversed(sizes):  # S_e in ... in S_1, so one echelon pass gives every rank
        for b, _ in roots[done:size]:
            num, den = b.num, b.den
            grad = (num.partial(v) if den.is_one() else num.partial(v) * den - num * den.partial(v)
                    for v in range(r))
            if row := _reduce(pivots, {v: g.terms for v, g in enumerate(grad) if g}, base):
                pivots[min(row)] = row
        done = size
        ranks.append(len(pivots))
    return p ** sum(ranks), p ** min(top, ranks[-1] + sum(min(r, s) for s in sizes[1:]))


def compositum_degree(pairs: Sequence[tuple[RatFunc, int]]) -> int:
    """Degree [k' : k] of k' = k(a_1^(1/p^(n_1)), ..., a_s^(1/p^(n_s))).

    Write a_i = b_i^(p^(v_i)) with (v_i, b_i) = `power_level(a_i, n_i)`, so
    the i-th root is b_i^(1/p^(e_i)) with e_i = n_i - v_i.  One chain of
    Frobenius bounds, `_degree_bounds`, gives lo <= [k':k] <= hi, and they
    meet on most inputs: always for r = 1, a single root, or e_i <= 1, and
    whenever the b_i with the largest e_i form a p-basis of k.  Only when
    lo < hi is the dense root-tower basis built, on the roots (b_i, e_i):
    its size p^(r*max e_i) is refused above `BASIS_CAP` with `BasisTooLarge`.
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
    return lo if lo == hi else _dense_degree(roots)


def _dense_degree(roots: Sequence[tuple[RatFunc, int]]) -> int:
    """[k' : k] by linear algebra over k^q, q = p^N, in the basis of size p^(r*N).

    k' = k(b_i^(1/p^(e_i))) with e_i >= 1 and N = max e_i.  The q-th power
    map carries k' onto k^q(b_i^(s_i)) with s_i = p^(N - e_i), and for
    b_i = num/den the polynomial x_i = num^(s_i) * den^(q - s_i)
    = b_i^(s_i) * den^q generates the same field over k^q.  As
    k^q(x) = k^q(1/x), the side of larger total degree takes the num role,
    which keeps the power of the other small.  Each generator contributes
    p^e, e its inseparability exponent over the field built so far.  The
    span is built once, in one echelon of `_reduce`: the products of the
    generators so far are a basis of the field built so far, a generator x
    of exponent e adds each of them times x, ..., x^(p^e - 1), and each
    product is reduced in once, so the degree is the number of products.
    A new pivot row is divided by the gcd of its entries, which keeps the
    leads that later rows meet small.
    """
    base = roots[0][0].field
    level = max(ei for _, ei in roots)
    size = base.p ** (base.r * level)
    if size > BASIS_CAP:
        raise BasisTooLarge(f"dense tower basis p^(r*N) = {size} exceeds cap {BASIS_CAP}")
    q = base.p ** level
    products, pivots = [MPoly.one(base)], {0: {0: {_SHARED[base].origin: 1}}}  # the row of 1
    for b, ei in roots:
        num, den = b.num, b.den
        if sum(den.leading()[0]) > sum(num.leading()[0]):
            num, den = den, num
        x = (num * den ** (base.p ** ei - 1)).scale_exponents(q // base.p ** ei)
        # e = ei always stops the loop: x^(p^ei) lies in k^q, and the span holds 1
        for e in range(ei + 1):
            if not _reduce(pivots, _coords(x.frobenius(e), q), base):
                break
        for acc in products[:]:  # each product, then its multiples: the order sets the cost
            for _ in range(base.p ** e - 1):
                products.append(acc := acc * x)
                row = _reduce(pivots, _coords(acc, q), base)
                g, quots = MPoly.zero(base), {}  # the gcd g of row's entries so far, each over g
                for v, t in row.items():
                    g, a, c = _cancel(g, MPoly(base, t))
                    if g.is_constant():
                        break
                    quots = {w: y * a for w, y in quots.items()} | {v: c}
                else:
                    row = {v: y.terms for v, y in quots.items()}
                pivots[min(row)] = row
    return len(products)
