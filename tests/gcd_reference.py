"""The library's gcd as tests call it, and references for it and for the
library's division: the primitive PRS at every level, and sparse long
division.

`poly_gcd(f, g)` is the monic gcd, the first result of
`unipic.field._cancel`, the one gcd in the library.  It runs plain Euclid
over F_p once its recursion reaches one variable.  Before that it took the
same recursion as `prs_gcd_reference` all the way down: split off the
contents in the last variable v, take pseudo-remainders in v of the
primitive parts, and recurse on the contents in the variables before v,
to the constants.  The reference runs on `MPoly` objects throughout,
where `_cancel` converts each operand once to recursive dense lists.
`prs_gcd_reference(f, g)` should equal `poly_gcd(f, g)`.

The library divides only in `unipic.field._cancel(x, y)`, which returns
the monic gcd g with the cofactors x/g and y/g, long divisions on the
same dense lists as the gcd (exponent shifts when a side is a monomial).
`exact_div_reference(f, d)` is the sparse long division that was
`MPoly.exact_div`, kept unchanged as the oracle for those cofactors: it
works on term dicts from the graded-lex leading term down, and raises
`ValueError` when d does not divide f.  The library has no division on
its own, outside a gcd: on a sparse dividend of high degree, such as a
Frobenius power, dense division is 40 to 100 times slower than this one.
"""

from unipic import DivisionByZero, MPoly
from unipic.field import _cancel, _mul_terms


def poly_gcd(f, g):
    """Monic gcd, the first of `_cancel`'s results (0 when f = g = 0)."""
    f._check(g)
    return _cancel(f, g)[0] if f or g else f


def exact_div_reference(f, d):
    """Quotient f/d, which must be exact."""
    f._check(d)
    if not d:
        raise DivisionByZero("division by the zero polynomial")
    p = f.field.p
    if d.is_monomial():
        (ed, cd), = d.terms.items()
        inv = pow(cd, -1, p)
        out = {}
        for e, c in f.terms.items():
            q = tuple(a - b for a, b in zip(e, ed))
            if any(x < 0 for x in q):
                raise ValueError("inexact monomial division")
            out[q] = (c * inv) % p
        return MPoly(f.field, out)
    ed, cd = d.leading()
    inv = pow(cd, -1, p)
    rem = f
    quot: dict = {}
    while rem:
        er, cr = rem.leading()
        q = tuple(a - b for a, b in zip(er, ed))
        if any(x < 0 for x in q):
            raise ValueError("inexact division")
        cq = (cr * inv) % p
        quot[q] = cq
        rem = rem - MPoly(f.field, _mul_terms(d.terms, {q: cq}, p))
    return MPoly(f.field, quot)


def _coeffs_in(f, v):
    """Split f into its coefficients of the powers of variable v (v cleared)."""
    buckets = {}
    for e, c in f.terms.items():
        buckets.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1:]] = c
    return {k: MPoly(f.field, t) for k, t in buckets.items()}


def _pseudo_rem(f, g, v):
    dg = g.degree_in(v)
    lg = _coeffs_in(g, v)[dg]
    while f and f.degree_in(v) >= dg:
        df = f.degree_in(v)
        lf = _coeffs_in(f, v)[df]
        shift = tuple(df - dg if i == v else 0 for i in range(f.field.r))
        f = f * lg - g * lf * MPoly(f.field, {shift: 1})
    return f


def _content(f, v):
    g = MPoly.zero(f.field)
    for c in _coeffs_in(f, v).values():
        g = _gcd(g, c, v - 1)
        if g.is_one():
            break
    return g


def _primitive(f, v):
    return exact_div_reference(f, _content(f, v)) if f else f


def _monic(f):
    return f.scale(pow(f.leading()[1], -1, f.field.p)) if f else f


def _gcd(f, g, v):
    if not f:
        return _monic(g)
    if not g:
        return _monic(f)
    if f.is_monomial() or g.is_monomial():
        exps = [min(e[i] for e in f.terms) for i in range(f.field.r)]
        exps2 = [min(e[i] for e in g.terms) for i in range(g.field.r)]
        return MPoly(f.field, {tuple(min(a, b) for a, b in zip(exps, exps2)): 1})
    while v >= 0 and f.degree_in(v) == 0 and g.degree_in(v) == 0:
        v -= 1
    if v < 0:
        return MPoly.one(f.field)
    cont_f, cont_g = _content(f, v), _content(g, v)
    a, b = exact_div_reference(f, cont_f), exact_div_reference(g, cont_g)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b, v), v)
    return _monic(_gcd(cont_f, cont_g, v - 1) * _primitive(a, v))


def prs_gcd_reference(f, g):
    return _gcd(f, g, f.field.r - 1)
