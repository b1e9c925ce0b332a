"""Forms of the additive group and their torsors, with splitting invariants.

A presentation is a level n, the coefficients (1, a_1, ..., a_m) of
tau = 1 + a_1 F + ... + a_m F^m in the skew polynomial ring k{F}, and a
translation term b in k; it describes the smooth affine curve

    y^(p^n) = b + x + a_1 x^p + ... + a_m x^(p^m).

With b = 0 this is a group, over an imperfect field usually a nontrivial
form of G_a; with b != 0 it is a torsor under that group.  Both are one
record, `FormPresentation`; a torsor's group is X._replace(b=X.field.zero()).
Two levels are attached to a form X: the smallest Frobenius twist that
trivializes the group, and the smallest twist that makes the function
field rational.  Both are reported as exact values with certificates when
a sound criterion applies and as honest upper bounds otherwise.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import product
from math import gcd
from typing import NamedTuple, Optional

from .field import (
    FieldDesc,
    FieldMismatch,
    MPoly,
    RatFunc,
    _cancel,
    power_level,
)


class NotSeparable(ValueError):
    """The skew presentation has no unit constant coefficient."""


class VariableClash(ValueError):
    """A requested fresh variable name is already in use."""


class InvalidSubstitution(ValueError):
    """Plane-model substitution parameters are out of range."""


class NValue(namedtuple("NValue", "kind value certificate")):
    """An integer invariant together with its epistemic status.

    kind is "exact" (with a certificate naming the criterion that proved
    it) or "upper_bound" (no certificate).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks

    def __new__(cls, kind: str, value: int, certificate: Optional[str] = None):
        if kind not in ("exact", "upper_bound"):
            raise ValueError(f"bad kind {kind!r}")
        if kind == "exact" and certificate is None:
            raise ValueError("exact values must carry a certificate")
        if value < 0:
            raise ValueError("levels are nonnegative")
        return super().__new__(cls, kind, value, certificate)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def __str__(self) -> str:
        if self.is_exact:
            return f"{self.value} (exact: {self.certificate})"
        return f"<= {self.value} (bound)"


class FormPresentation(namedtuple("FormPresentation", "field n coeffs b")):
    """The equation y^(p^n) = b + tau(x), tau = sum coeffs[i] x^(p^i).

    coeffs is the dense tuple (1, a_1, ..., a_m) of tau, a_m nonzero.  With
    b = 0, the default, it is a form of the additive group; with b != 0 it
    is a torsor under that form.
    """

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the checks

    def __new__(cls, field: FieldDesc, n: int, coeffs, b: Optional[RatFunc] = None):
        coeffs = tuple(coeffs)  # hashable, and equal to make_form's
        if n < 0:
            raise ValueError("twist level n must be nonnegative")
        if any(c.field != field for c in coeffs):
            raise FieldMismatch("a coefficient of tau lives over a different field")
        if not coeffs or not coeffs[0].is_one():
            raise NotSeparable("presentation must be normalized with constant coefficient 1")
        if not coeffs[-1]:
            raise ValueError("the last coefficient of tau must be nonzero")
        b = field.zero() if b is None else b
        if b.field != field:
            raise FieldMismatch("translation term over a different field")
        return super().__new__(cls, field, n, coeffs, b)

    @property
    def m(self) -> int:
        return len(self.coeffs) - 1

    def twist_coeffs(self) -> list[tuple[int, RatFunc]]:
        """Nonzero coefficients a_i with i >= 1."""
        return [(i, c) for i, c in enumerate(self.coeffs) if i >= 1 and c]

    @cached_property
    def ladders(self) -> dict[int, tuple[int, RatFunc]]:
        """i -> (v_i, b_i) = `power_level(a_i, n)` for each nonzero a_i, i >= 1.

        Walked once per presentation; n, n', r and [k':k] all read it.
        """
        return {i: power_level(c, self.n) for i, c in self.twist_coeffs()}

    @property
    def generic_fiber(self) -> bool:
        """Whether b is a variable T of k that no a_i involves: then X is the
        generic fiber of (x, y) -> y^(p^n) - tau(x) over F_p(the other
        variables), a localization of the plane, and Pic(X) = 0."""
        b = self.b
        if len(b.num.terms) != 1 or not b.den.is_one():
            return False
        (e, c), = b.num.terms.items()
        if c != 1 or sum(e) != 1:
            return False
        j = e.index(1)
        return not any(d[j] for a in self.coeffs for f in (a.num, a.den) for d in f.terms)

    def __str__(self) -> str:
        p, b = self.field.p, self.b
        parts = []
        if b:
            parts.append(str(b) if b.is_polynomial() and len(b.num.terms) == 1 else f"({b})")
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            xp = "x" if i == 0 else f"x^{p ** i}"
            if c.is_one():
                parts.append(xp)
            else:
                parts.append(f"{_coeff_str(c)}*{xp}")
        lhs = "y" if self.n == 0 else f"y^{p ** self.n}"
        return f"{lhs} = {' + '.join(parts)}"


def _coeff_str(c: RatFunc) -> str:
    s = str(c)
    if "+" in s or (s.count("*") and "/" in s):
        return f"({s})"
    return s


def make_form(n: int, coeffs, b: Optional[RatFunc] = None) -> FormPresentation:
    """The presentation y^(p^n) = b + sum coeffs[i] x^(p^i), normalized so a_0 = 1.

    Trailing zeros are dropped and the field is read off the coefficients;
    b defaults to zero, a form.  Rescaling x by the inverse unit is an
    isomorphism that keeps b, sending a_i to a_i * c^(-p^i) for c the
    original constant coefficient.
    """
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    if not cs or not cs[0]:
        raise NotSeparable("constant coefficient of tau vanishes; the presentation is not separable in x")
    if not cs[0].is_one():
        mu = cs[0].inverse()
        cs = [c * mu.frobenius(i) if c else c for i, c in enumerate(cs)]
    return FormPresentation(cs[0].field, n, cs, b)


def generic_fiber_torsor(G: FormPresentation) -> FormPresentation:
    """The torsor y^(p^n) = T + tau(x) over k(T), T a fresh indeterminate.

    It keeps G's n and tau.  This is the generic fiber of the projection
    (x, y) -> y^(p^n) - tau(x), so its Picard group vanishes by construction.
    """
    base = G.field
    if "T" in base.vars:
        raise VariableClash("'T' is already a field variable")
    ext = FieldDesc(base.p, base.vars + ("T",))
    images = [(i, 1) for i in range(base.r)]
    return FormPresentation(ext, G.n, [c.embed(ext, images) for c in G.coeffs], ext.var("T"))


def splitting_level(G: FormPresentation) -> NValue:
    """The level of the smallest Frobenius twist trivializing the group.

    It reads the power level v_i <= n of every a_i off `G.ladders`.  The
    presentation is split, certified level 0, when every v_i = n, so every
    a_i is a p^n-th power: k' = k(a_i^(1/p^n)) equals k exactly then, and
    no root tower is built.  If some v_i = 0, so a_i is not a p-th power,
    the supplied n is minimal over every presentation: any presentation at
    level n0 forces the minimal splitting field inside k^(1/p^n0), and
    here that field has exponent exactly n.  Otherwise the supplied n is
    only an upper bound and is reported as such.
    """
    levels = [v for v, _ in G.ladders.values()]
    if all(v == G.n for v in levels):
        return NValue("exact", 0, "split")
    if 0 in levels:
        return NValue("exact", G.n, "coefficient-not-pth-power")
    return NValue("upper_bound", G.n)


# -- the rationality level ----------------------------------------------


def rationality_level(G: FormPresentation) -> NValue:
    """The smallest twist level at which the function field becomes rational.

    For odd p this equals the group splitting level whenever that level is
    exact, read off the same ladders.  For p = 2 a chain of Frobenius
    twists is walked: over each k^(1/2^j) the presentation is reduced by
    level-lowering moves, each a group isomorphism over the current field,
    and the walk stops at the first level whose reduced presentation is
    rational -- either trivial, or the smooth conic n = m = 1 whose
    completion is a form of the projective line with a rational point.
    Every fully reduced non-terminal presentation has a completion of
    positive genus, so the first detection is the true level.  The moves:
      * absorb the top coefficient when a_m is a p^n-th power and m >= n,
        via y -> y + c x^(p^(m-n)) with c^(p^n) = -a_m;
      * when every a_i (i >= 1) is a p-th power, pass to the presentation
        (n-1, a_i^(1/p)) via the additive substitution w = y^(p^(n-1)) - g(x),
        g the p-th root of the twisted part.

    The twist stays inside k: read through k^(1/2) = k, u -> t, base change
    to k^(1/2) followed by the square-root move is (n, a_i) -> (n - 1, a_i),
    and the absorb tests at level n on a_i^2 are those at level n - 1 on a_i.
    So the chain runs on integer depths: after s square-root moves a_i sits
    at depth v_i - s.  As n + s <= G.n throughout, the ladders' depths,
    capped at G.n, decide every test, and as n drops once per twist, the
    walk ends by n = 0, at j <= G.n.
    """
    if G.field.p != 2:
        nv = splitting_level(G)
        if nv.is_exact:
            return NValue("exact", nv.value, "odd-characteristic-equality")
        return NValue("upper_bound", G.n)
    depth = {i: v for i, (v, _) in G.ladders.items()}
    n, s, j = G.n, 0, 0
    while True:
        while depth and n:
            m = max(depth)
            if m >= n and depth[m] - s >= n:
                del depth[m]
            elif min(depth.values()) > s:
                n, s = n - 1, s + 1
            else:
                break
        if not depth or n == 0:
            return NValue("exact", j, "split" if j == 0 else "twist-chain")
        if n == 1 and max(depth) == 1:
            return NValue("exact", j, "conic" if j == 0 else "twist-chain")
        j, n = j + 1, n - 1


# -- rational points ----------------------------------------------------


@lru_cache(maxsize=64)  # a constant bound; the engine, its witness and later calls share a table
def _monomials_up_to(r: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of total degree <= d, sorted by (degree, exponents)."""
    return tuple(sorted((e for e in product(range(d + 1), repeat=r) if sum(e) <= d),
                        key=lambda e: (sum(e), e)))


def _rhs_at(T, x: RatFunc) -> RatFunc:
    """b + sum_i a_i x^(p^i), summed in `RatFunc` on T's own coefficients, never on the
    search engine's B, C_i or L, so a witness is re-checked by field arithmetic alone."""
    rhs = T.b
    for i, a in enumerate(T.coeffs):
        if a:
            rhs = rhs + a * x.frobenius(i)
    return rhs


def equation_holds(T, x: RatFunc, y: RatFunc) -> bool:
    """Check y^(p^n) = b + tau(x) exactly, by field arithmetic on T's own coefficients."""
    return y.frobenius(T.n) == _rhs_at(T, x)


def _clear_denominators(field, coeffs, b, k: int):
    """The lcm L of the denominators, and B = b L^k and C_i = a_i L^k, one product each but for
    a zero: one `_cancel` per distinct den, the lcm step's, yields L/den, grown as L grows, and
    L^k/den = L^(k-1) (L/den) is formed once per den, so no division touches the sparse L^k."""
    fs, L, quo = [b, *coeffs], MPoly.one(field), {}  # den -> L/den
    for den in dict.fromkeys(f.den for f in fs if f and not f.den.is_one()):
        _, Lg, grow = _cancel(L, den)
        quo = {d: Q * grow for d, Q in quo.items()}
        quo[den], L = Lg, L * grow
    quo[MPoly.one(field)] = L  # a_0 = 1 has den 1
    Lk1 = L ** (k - 1)
    Lk = {d: Lk1 * Q for d, Q in quo.items()}
    B, *C = [f.num * Lk[f.den] if f else f.num for f in fs]
    return L, B, C


def _digits(keys, idx: int, p: int) -> dict:
    """{key: digit} for the nonzero base-p digits of idx, keys[0] the least significant."""
    out = {}
    for e in keys:
        idx, d = divmod(idx, p)
        if d:
            out[e] = d
    return out


def _least_solution(rows, K: int, p: int) -> Optional[int]:
    """Least base-p index of x in F_p^K solving every row, or None.

    A row is K coefficients followed by its right-hand side.  Each echelon
    row pivots at its lowest unknown, so it ties that unknown to higher
    ones only; setting every free unknown to 0 and back-substituting from
    the highest pivot down then gives the least solution when the highest
    unknown is the most significant digit.
    """
    pivots: dict[int, list[int]] = {}
    for row in rows:
        row = [v % p for v in row]
        for k in range(K):
            c = row[k]
            if not c:
                continue
            piv = pivots.get(k)
            if piv is None:
                inv = pow(c, p - 2, p)
                pivots[k] = [v * inv % p for v in row]
                break
            row = [(v - c * w) % p for v, w in zip(row, piv)]
        else:
            if row[K]:
                return None
    x = [0] * K
    for k in sorted(pivots, reverse=True):
        piv = pivots[k]
        x[k] = (piv[K] - sum(piv[j] * x[j] for j in range(k + 1, K))) % p
    return sum(d * p ** k for k, d in enumerate(x))


def _pmul(f: dict, g: dict, p: int) -> dict:
    """Product of two polynomials over F_p whose exponents are packed ints."""
    out: dict = {}
    for e, c in f.items():
        for d, c2 in g.items():
            out[e + d] = out.get(e + d, 0) + c * c2
    return {e: v for e, c in out.items() if (v := c % p)}


def _search(T, max_deg: int) -> Optional[tuple[int, int]]:
    """First (gidx, hidx) in counting order whose x = g/h is a point, or None.

    With L the common denominator, b = B/L and a_i = C_i/L, the point
    equation holds at x = g/h exactly when N D^(q-1) is a q-th power, q = p^n,
    where N = B h^(p^m) + sum_i C_i g^(p^i) h^(p^m - p^i) and D = L h^(p^m).
    A nonzero q-th power factor never changes that, so with B = b L^q and
    C_i = a_i L^q, each one product, and P = p^max(m, n), the test is on
    N E = B h^P + sum_i C_i h^(P - p^i) g^(p^i).  Over F_p a polynomial is
    a q-th power iff no exponent is off the lattice q*Z^r, and g -> g^(p^i)
    is additive and fixes F_p, so for fixed monic h the test is one affine
    system over F_p in the K base-p digits of g.  As q divides P, h^P is a
    q-th power: the constant rows are pi(B) h^P, pi keeping the off-lattice
    terms, so pi(B) = 0 makes x = 0 a point; and a column with i >= n is
    pi(C_i) h^(P - p^i) in every digit.

    Exponents are packed as sum_j e_j S^j, so a monomial product is one
    addition and h^(p^i) multiplies each exponent by p^i.  No coordinate
    formed exceeds the top coordinate of B and the C_i plus P * max_deg,
    and S is the next multiple of q above that: no sum carries into the
    next slot, and (e // S^j) % q is the residue of coordinate j itself.
    Each monomial is packed once, and h^(p-1) is formed by square-and-multiply.

    For n > m, a prime pi outside Bp = num(a_m) L, with pi^s exactly dividing
    h for a reduced x = g/h, gives a_m x^(p^m) a valuation -p^m s that no other
    term reaches, so p^(n - m) | s: h stripped of Bp's primes (divided by
    f = gcd(h, Bp), then by the gcd of what is left and the last f, until
    that is 1) is a p^(n - m)-th power, or h is skipped.  A
    common factor f of g and h puts (g/f, h/f) earlier, so no witness changes.
    """
    field, n, b, m = T.field, T.n, T.b, T.m
    p, r, M = field.p, field.r, max(m, n)
    q, P = p ** n, p ** M
    L, B, C = _clear_denominators(field, T.coeffs, b, q)  # L^(q-1) is the L-part of E
    if n > m:  # only then can a denominator be skipped
        Bp, lift = T.coeffs[m].num * L, p ** (n - m)
    deg = max((x for f in [B] + C for e in f.terms for x in e), default=0)
    pows = [((deg + P * max_deg) // q * q + q) ** j for j in range(r)]

    def res(e: int) -> tuple:
        return tuple([e // s % q for s in pows])

    def pack(e: tuple) -> int:
        return sum([x * s for x, s in zip(e, pows)])

    B = {pack(e): c for e, c in B.terms.items() if any(x % q for x in e)}  # the off-lattice terms
    if not B:
        return 0, 1  # b is a q-th power: x = 0 over h = 1
    C = [{pack(e): c for e, c in f.terms.items() if i < n or any(x % q for x in e)}
         for i, f in enumerate(C)]
    monos = _monomials_up_to(r, max_deg)
    K, base = len(monos), [pack(e) for e in monos]
    # the packed exponent of each monomial raised to the p^i, with its digit
    shifts = [[(k, s * p ** i) for k, s in enumerate(base)] for i in range(m + 1)]
    cols: dict = {}  # (i, residue) -> the columns (k, shift) that leave the q-lattice

    for top in range(K):
        # monic h: leading digit 1 at position top, anything below
        for hidx in range(p ** top, 2 * p ** top):
            if n > m:  # strip h of Bp's primes: each one left in core divides the last gcd f
                f, core, _ = _cancel(MPoly(field, _digits(monos, hidx, p)), Bp)
                while not f.is_one():
                    f, core, _ = _cancel(core, f)
                if any(x % lift for e in core.terms for x in e):
                    continue
            h = hp1 = _digits(base, hidx, p)
            for bit in bin(p - 1)[3:]:  # h^(p-1) by square-and-multiply, past the leading bit
                hp1 = _pmul(hp1, hp1, p)
                if bit == "1":
                    hp1 = _pmul(hp1, h, p)
            # one equation per off-lattice exponent: K digit coefficients, then the right side
            rows = {e: [0] * K + [-c] for e, c in _pmul(B, {e * P: c for e, c in h.items()}, p).items()}
            R = {0: 1}  # h^(P - p^i), for i from M down to 0
            for i in range(M, -1, -1):
                if i < M:
                    R = _pmul(R, {e * p ** i: c for e, c in hp1.items()}, p)
                if i > m or not C[i]:
                    continue
                # column k gets C_i h^(P - p^i) times monos[k]^(p^i)
                split: dict = {}
                for e, c in _pmul(C[i], R, p).items():
                    split.setdefault(res(e), []).append((e, c))
                for rs, terms in split.items():
                    if (i, rs) not in cols:
                        cols[i, rs] = [(k, s) for k, s in shifts[i]
                                       if any((x + y) % q for x, y in zip(rs, res(s)))]
                    for k, s in cols[i, rs]:
                        for e, c in terms:
                            row = rows.get(e + s)
                            if row is None:
                                row = rows[e + s] = [0] * (K + 1)
                            row[k] += c
            gidx = _least_solution(rows.values(), K, p)
            if gidx is not None:
                return gidx, hidx
    return None


def find_rational_point(T: FormPresentation, max_deg: int) -> Optional[tuple[RatFunc, RatFunc]]:
    """Search y^(p^n) = b + tau(x) for a point x = g/h of total degrees <= max_deg.

    Candidates are ordered denominators outer, numerators inner, both in
    base-p counting order over the graded monomial list, with h monic.
    For each h the numerators that give a point form an affine subspace
    over F_p, so one linear system, built on packed integer exponents,
    returns the least such g without enumerating the p^K numerators; for
    n > m only the denominators a reduced x can have are tried.  A form
    (b = 0) has x = y = 0, its group identity, with no search, so every
    form has a point.  A torsor (b != 0) with a `local_obstruction` has no
    point of degree prime to p, so None is returned with no search.  A
    point gives m(X) = 1, so M = m(X)Z/p^rZ is Z/p^rZ, and Pic(X) = M when
    Pic0(C) = 0.  When b is a nonzero p^n-th power, x = 0 is returned
    before any h.  The witness, the first candidate in that order, is
    re-checked by field arithmetic on T's own coefficients, not the
    engine's, and y is a p^n-th root.
    """
    if max_deg < 0:
        raise ValueError("max_deg must be nonnegative")
    if not T.b:
        zero = T.field.zero()
        return zero, zero
    if local_obstruction(T):
        return None
    hit = _search(T, max_deg)
    if hit is None:
        return None
    field, n = T.field, T.n
    monos = _monomials_up_to(field.r, max_deg)
    x = RatFunc(*(MPoly(field, _digits(monos, i, field.p)) for i in hit))
    v, y = power_level(rhs := _rhs_at(T, x), n)
    if v < n or y.frobenius(n) != rhs:
        raise AssertionError("search engine returned a bogus candidate")
    return x, y


def local_obstruction(T) -> Optional[str]:
    """A place t_j = 0 or oo of k where T has no point of degree prime to p.

    Returns the place as a string such as "t = oo", or None (always for a
    form, which has x = 0).  Over L/k of degree prime to p, some place of
    L above t_j = 0 (or oo) has ramification e and residue degree f prime
    to p, so its residue field is separable over kappa = F_p(the other
    variables): its q-th powers (q = p^n) meet kappa in kappa^q, and the
    valuation w(x) lies in (1/e)Z, inside Z_(p).  At an L-point of
    y^q = b + sum_i a_i x^(p^i) with x != 0 the least of beta = v(b),
    alpha_i + p^i w(x) (alpha_i = v(a_i)) and q w(y) is reached twice.
    So w(x) is a breakpoint of the lower envelope of those lines, lying in
    Z_(p), or the one dominant term ties with y^q.  For b, or a_i with
    i >= n, that makes it a q-th power to leading order: q divides its
    valuation and its leading coefficient lies in kappa^q (the unit between
    the uniformizers enters as a q-th power), that is, q divides every
    exponent of num and den of the lead once their common factor is gone.
    For i < n it needs p^i | alpha_i, counted as feasible.  x = 0 needs the
    test of b.  When every piece fails, every closed point has degree
    divisible by p.  The slopes p^m > ... > p > 1 > 0 make the envelope one
    convex-hull pass.
    """
    field, n, coeffs, b = T.field, T.n, T.coeffs, T.b
    if not b or n == 0:
        return None
    p, q = field.p, field.p ** n
    twist = [(i, c) for i, c in enumerate(coeffs) if c][::-1]  # steepest line first
    for (j, name), inf in product(enumerate(field.vars), (False, True)):
        def edge(g: MPoly) -> int:  # the lowest t_j-degree of g, at infinity the highest
            return (max if inf else min)(e[j] for e in g.terms)

        def val(f: RatFunc) -> int:
            d = edge(f.num) - edge(f.den)
            return -d if inf else d

        def lead(g: MPoly) -> MPoly:
            d = edge(g)
            return MPoly(field, {e[:j] + (0,) + e[j + 1:]: c for e, c in g.terms.items() if e[j] == d})

        def fits(c: int, i: int) -> bool:
            """Whether the term of line i (b for -1) can tie with y^q on its segment."""
            if 0 <= i < n:
                return c % p ** i == 0
            if c % q:  # the lead test only once q | c
                return False
            f = b if i < 0 else coeffs[i]
            num, den = _cancel(lead(f.num), lead(f.den))[1:]
            return not any(x % q for e in [*num.terms, *den.terms] for x in e)

        beta = val(b)
        if fits(beta, -1):
            continue
        hull: list = []  # (intercept, slope, i) on the lower envelope, left to right
        for line in [(val(c), p ** i, i) for i, c in twist] + [(beta, 0, -1)]:
            while len(hull) > 1 and ((line[0] - hull[-2][0]) * (hull[-2][1] - hull[-1][1])
                                     <= (hull[-1][0] - hull[-2][0]) * (hull[-2][1] - line[1])):
                hull.pop()
            hull.append(line)
        # a breakpoint xi = num/den lies in Z_(p) iff den / gcd(num, den) is prime to p
        if any((s1 - s2) // gcd(c2 - c1, s1 - s2) % p for (c1, s1, _), (c2, s2, _) in zip(hull, hull[1:])):
            continue
        if not any(fits(c, i) for c, _, i in hull[:-1]):
            return f"{name} = {'oo' if inf else 0}"
    return None


# -- plane models -------------------------------------------------------


class PlaneModel(NamedTuple):
    """Bivariate identity 0 = const + sum w_i w^(p^i) + sum y_j y^(p^j).

    Produced from the equation `source` by the substitution
    w = alpha*x - y^(p^s); const is the b of source, and the coefficient
    maps are kept sparse and exact.
    """

    source: FormPresentation
    wcoeffs: tuple[tuple[int, RatFunc], ...]
    ycoeffs: tuple[tuple[int, RatFunc], ...]
    alpha: RatFunc
    s: int
    degenerate: bool


def rewrite_plane_model(T, alpha: RatFunc, s: int) -> PlaneModel:
    """Eliminate x through w = alpha*x - y^(p^s).

    Substituting x = (w + y^(p^s))/alpha into y^(p^n) = b + tau(x) and
    using additivity of p-th powers yields a plane identity whose terms in
    w and y are collected separately.  The y^(p^n) terms may cancel; the
    model is flagged degenerate if either variable disappears entirely.
    """
    if not alpha:
        raise InvalidSubstitution("alpha must be a unit")
    if s < 0:
        raise InvalidSubstitution("s must be nonnegative")
    inv = alpha.inverse()
    wc = {i: c * inv.frobenius(i) for i, c in enumerate(T.coeffs) if c}
    yc = {s + i: c for i, c in wc.items()}
    yc[T.n] = yc.get(T.n, T.field.zero()) - T.field.one()
    wt = tuple(sorted(wc.items()))
    yt = tuple((j, c) for j, c in sorted(yc.items()) if c)
    return PlaneModel(T, wt, yt, alpha, s, degenerate=not wt or not yt)


def plane_model_residual(model: PlaneModel) -> dict:
    """Substitute w = alpha*x - y^(p^s) back and reduce modulo the equation.

    Every term stays a monomial in x or in y alone because p-th powers are
    additive; powers y^(p^j) with j >= n are rewritten through
    y^(p^n) = b + tau(x).  The result maps basis monomials to coefficients
    and is empty exactly when the model vanishes on its source curve.
    """
    T = model.source
    n, b = T.n, T.b
    # keys: ("x", i) for x^(p^i), ("y", j) for y^(p^j), ("1", 0) for constants
    acc: dict = {}

    def bump(key, c) -> None:
        if not c:
            return
        nxt = acc[key] + c if key in acc else c
        if nxt:
            acc[key] = nxt
        elif key in acc:
            del acc[key]

    bump(("1", 0), b)
    for j, c in model.ycoeffs:
        bump(("y", j), c)
    for i, c in model.wcoeffs:
        # w^(p^i) = alpha^(p^i) x^(p^i) - y^(p^(s+i))
        bump(("x", i), c * model.alpha.frobenius(i))
        bump(("y", model.s + i), -c)
    # reduce y-powers of level >= n
    while True:
        high = [j for (kind, j) in acc if kind == "y" and j >= n]
        if not high:
            break
        j = max(high)
        c = acc.pop(("y", j))
        d = j - n
        bump(("1", 0), c * b.frobenius(d))
        for i, a in enumerate(T.coeffs):
            if a:
                bump(("x", i + d), c * a.frobenius(d))
    return acc
