"""References for the rational point search `unipic.forms._search` and
its witness check `unipic.forms._rhs_at`.

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

`rhs_reference` is the earlier witness check, a sum of `RatFunc` terms.
"""

from itertools import product
from operator import add
from typing import Optional

from unipic import MPoly
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


def rhs_reference(T, x):
    """The right side b + tau(x) of the equation of T at x, summed term by term."""
    rhs = T.b
    for i, c in enumerate(T.coeffs):
        if c:
            rhs = rhs + c * x.frobenius(i)
    return rhs
