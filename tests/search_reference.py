"""Brute-force rational point search: the reference for the linear engine.

It tests every candidate x = g/h in turn and shares no code with
`unipic.forms._search`; only the counting order and the monic rule for h
are the same.
"""

from itertools import product

from unipic import MPoly
from unipic.forms import _unpack


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


def brute_force_search(T, max_deg):
    """First (gidx, hidx) with b + tau(g/h) a p^n-th power, or None.

    Denominators run outer and numerators inner, both counted in base p
    over the monomials of total degree <= max_deg in graded order, the
    last monomial being the most significant digit; h must be monic.

    With L the product of the denominators of b and the a_i, b + tau(g/h)
    is N/D with D = L h^(p^m).  It is a q-th power exactly when the
    polynomial N D^(q-1) is, i.e. when q divides all its exponents.  Most
    g fail already at a corner of that product, which is found without
    multiplying out.
    """
    field, n, coeffs, b = _unpack(T)
    p, q, pm = field.p, field.p ** n, field.p ** (len(coeffs) - 1)
    L = MPoly.one(field)
    for f in [b] + coeffs:
        L = L * f.den
    B = b.num * L.exact_div(b.den)
    C = [c.num * L.exact_div(c.den) for c in coeffs]
    monos = sorted((e for e in product(range(max_deg + 1), repeat=field.r) if sum(e) <= max_deg),
                   key=_key)
    total = p ** len(monos)
    for hidx in range(1, total):
        h = _poly_at(field, monos, hidx)
        if h.leading()[1] != 1:
            continue
        E = (L * h ** pm) ** (q - 1)
        E_corners = _corners(E)
        base = B * h ** pm
        parts = [c * h ** (pm - p ** i) for i, c in enumerate(C)]
        for gidx in range(total):
            g = _poly_at(field, monos, gidx)
            N = base
            for i, part in enumerate(parts):
                N = N + g.frobenius(i) * part
            if N and any((x + y) % q for a, c in zip(_corners(N), E_corners) for x, y in zip(a, c)):
                continue
            if all(x % q == 0 for e in (N * E).terms for x in e):
                return gidx, hidx
    return None
