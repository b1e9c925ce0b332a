"""References for the rational point search `unipic.forms._search` and
for the right side b + tau(x) that its witness is re-checked against.

`brute_force_search` tests every candidate x = g/h in turn and shares no
code with `unipic.forms._search`; only the counting order and the monic
rule for h are the same.  `linear_search_reference` is the earlier form
of the linear engine, kept as it was.  It shares `_clear_denominators`
and `_least_solution` with the engine, but works on exponent tuples and
`MPoly` products, and unless m >= n and L is a q-th power it multiplies
by the whole of D^(q-1) = (L h^(p^m))^(q-1) for every h.  The engine
instead packs exponents into integers, multiplies by L^(q-1) and
h^(P - p^m) only, P = p^max(m, n), and keeps only the off-lattice terms
of B, and of the C_i with i >= n; so the two agree only if that
reduction is sound.  Both references try every monic h: for n > m the
engine skips the denominators no reduced point can have, so they agree
only if that rule is sound too.

`rhs_one_denominator_reference` is the earlier witness check: it forms
b + tau(x) over one denominator and reduces it by one gcd, where the
library sums `RatFunc` terms.
"""

from functools import partial, reduce
from itertools import product
from operator import add
from typing import Optional

from unipic import MPoly, RatFunc
from unipic.field import _add_terms, _mul_terms, _pow_terms
from unipic.forms import _clear_denominators, _least_solution, _monomials_up_to

from gcd_reference import exact_div_reference


def _poly_at(field, monos, idx):
    terms = {}
    for e in monos:
        idx, d = divmod(idx, field.p)
        if d:
            terms[e] = d
    return MPoly(field, terms)


def _key(e):
    return (sum(e), e)


def _corners(f):
    """Extreme exponents of f under graded lex and under each variable's
    degree, lex breaking ties; for each of these orders the extreme terms
    of a product are the products of the factors' extreme terms."""
    keys = [_key] + [lambda e, j=j: (e[j], e) for j in range(f.field.r)]
    return [pick(f.terms, key=k) for k in keys for pick in (min, max)]


def _is_qth_power(N, D, n):
    """Whether N/D lies in k^(p^n), one p-th root at a time.

    The variables are a p-basis of k = F_p(t_1, ..., t_r), so f lies in k^p
    exactly when every partial derivative of f vanishes; for f = N/D that
    reads N_j D = N D_j.  The p-th root of N/D is (N D^(p-1))^(1/p) / D.
    """
    p = N.field.p
    for level in range(n):
        if level:
            N = (N * D ** (p - 1)).pth_root()
        if any(N.partial(v) * D != N * D.partial(v) for v in range(N.field.r)):
            return False
    return True


def brute_force_search(T, max_deg):
    """First (gidx, hidx) with b + tau(g/h) a p^n-th power, or None.

    Denominators run outer and numerators inner, both counted in base p
    over the monomials of total degree <= max_deg in graded order, the
    last monomial being the most significant digit; h must be monic.

    With L the product of the denominators of b and the a_i, b + tau(g/h)
    is N/D with D = L h^(p^m).  It is a q-th power exactly when the
    polynomial N D^(q-1) is, i.e. when q divides all its exponents.  Most
    g fail already at a corner of that product, the sum of the factors'
    corners, so it is never multiplied out; `_is_qth_power` settles the rest.
    """
    field, n, coeffs, b = T.field, T.n, T.coeffs, T.b
    p, q, pm = field.p, field.p ** n, field.p ** T.m
    L = MPoly.one(field)
    for f in [b, *coeffs]:
        L = L * f.den
    B = b.num * exact_div_reference(L, b.den)
    C = [c.num * exact_div_reference(L, c.den) for c in coeffs]
    monos = sorted((e for e in product(range(max_deg + 1), repeat=field.r) if sum(e) <= max_deg),
                   key=_key)
    total = p ** len(monos)
    for hidx in range(1, total):
        h = _poly_at(field, monos, hidx)
        if h.leading()[1] != 1:
            continue
        D = L * h ** pm
        E_corners = [tuple((q - 1) * x for x in c) for c in _corners(D)]
        base = B * h ** pm
        parts = [c * h ** (pm - p ** i) for i, c in enumerate(C)]
        for gidx in range(total):
            g = _poly_at(field, monos, gidx)
            N = base
            for i, part in enumerate(parts):
                N = N + g.frobenius(i) * part
            if N and any((x + y) % q for a, c in zip(_corners(N), E_corners) for x, y in zip(a, c)):
                continue
            if _is_qth_power(N, D, n):
                return gidx, hidx
    return None


def linear_search_reference(T, max_deg) -> Optional[tuple[int, int]]:
    """First (gidx, hidx) in counting order whose x = g/h is a point, or None.

    With L the common denominator, b = B/L and a_i = C_i/L, the point
    equation holds at x = g/h exactly when N * E is a p^n-th power, where
    N = B h^(p^m) + sum_i C_i g^(p^i) h^(p^m - p^i) and E = (L h^(p^m))^(q-1)
    (E = 1 when L h^(p^m) is already a q-th power).  Over F_p a polynomial
    is a q-th power iff no exponent is off the lattice q*Z^r, and
    g -> g^(p^i) is additive and fixes F_p, so for fixed monic h the test
    is one affine system over F_p in the K base-p digits of g.
    """
    field, n, coeffs, b = T.field, T.n, T.coeffs, T.b
    if not b:
        return 0, 1  # x = 0 lies on every form
    p = field.p
    m = T.m
    q = p ** n
    L, B, C = _clear_denominators(field, coeffs, b, 1)
    monos = _monomials_up_to(field.r, max_deg)
    K = len(monos)
    one = MPoly.one(field)
    L_perfect = m >= n and all(x % q == 0 for e in L.terms for x in e)
    Lq = one if L_perfect else L ** (q - 1)

    def split(f: MPoly) -> dict:
        """Terms of f grouped by their exponent residue mod q."""
        out: dict = {}
        for e, c in f.terms.items():
            out.setdefault(tuple(x % q for x in e), []).append((e, c))
        return out

    def shift(e: tuple[int, ...], i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Residue mod q and exponent of the monomial e^(p^i)."""
        e = tuple(p ** i * x for x in e)
        return tuple(x % q for x in e), e

    shifts = [[shift(e, i) for e in monos] for i in range(m + 1)]
    good = (0,) * field.r

    for top in range(K):
        # monic h: leading digit 1 at position top, anything below
        for hidx in range(p ** top, 2 * p ** top):
            h = _poly_at(field, monos, hidx)
            hp1 = h ** (p - 1)
            E = Lq
            if not L_perfect:
                for j in range(m, m + n):
                    E = E * hp1.frobenius(j)
            const = split(B * h.frobenius(m) * E)
            const.pop(good, None)
            if not const:
                return 0, hidx
            # one equation per bad exponent: K digit coefficients, then the right side
            rows = {e: [0] * K + [-c] for terms in const.values() for e, c in terms}
            R = one  # h^(p^m - p^i), for i from m down to 0
            for i in range(m, -1, -1):
                if i < m:
                    R = R * hp1.frobenius(i)
                if not C[i]:
                    continue
                # column k gets C_i h^(p^m - p^i) E times monos[k]^(p^i)
                for res, terms in split(C[i] * R * E).items():
                    for k, (s_res, s) in enumerate(shifts[i]):
                        if all((x + y) % q == 0 for x, y in zip(res, s_res)):
                            continue
                        for e, c in terms:
                            e = tuple(map(add, e, s))
                            row = rows.get(e)
                            if row is None:
                                row = rows[e] = [0] * (K + 1)
                            row[k] += c
            gidx = _least_solution(rows.values(), K, p)
            if gidx is not None:
                return gidx, hidx
    return None


def rhs_one_denominator_reference(T, x):
    """b + tau(x) at x = g/h as one fraction over D h^(p^m), D the product of
    the distinct denominators of b and the a_i: a_i x^(p^i) has numerator
    num(a_i) (D / den(a_i)) g^(p^i) h^(p^m - p^i), b has num(b) (D / den(b))
    h^(p^m).  Each product leaves out its factors of one: h^0, g^0 for b, and
    every power of h = 1.  The sum is reduced once, by the `RatFunc` constructor's gcd."""
    field, g, h = T.field, x.num.terms, x.den.terms
    p, r, pm = field.p, field.r, field.p ** T.m
    fs = [(f, p ** i) for i, f in enumerate(T.coeffs) if f] + [(T.b, 0)]  # b takes no power of x
    dens = [d.terms for d in dict.fromkeys(f.den for f, _ in fs) if not d.is_one()]
    hk = {} if x.den.is_one() else {pm - k: _pow_terms(h, pm - k, p, r) for _, k in fs if k < pm}
    mul, N = partial(_mul_terms, p=p), {}
    for f, k in fs:
        gk = {tuple(v * k for v in e): c for e, c in g.items()} if k else None
        factors = [f.num.terms, *(d for d in dens if d != f.den.terms), gk, hk.get(pm - k)]
        N = _add_terms(N, reduce(mul, [t for t in factors if t is not None]), p)
    D = [t for t in (hk.get(pm), *dens) if t is not None]
    return RatFunc(MPoly(field, N), MPoly(field, reduce(mul, D) if D else {(0,) * r: 1}))
