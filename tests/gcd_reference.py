"""Reference for `unipic.poly_gcd`: the primitive PRS at every level.

`poly_gcd` runs plain Euclid over F_p once its recursion reaches one
variable.  Before that it took the same recursion as `prs_gcd_reference`
all the way down: split off the contents in the last variable v, take
pseudo-remainders in v of the primitive parts, and recurse on the
contents in the variables before v, to the constants.
It runs on `MPoly` objects throughout, where `poly_gcd` converts each
operand once to recursive dense lists.  `prs_gcd_reference(f, g)` should
equal `poly_gcd(f, g)`.
"""

from unipic import MPoly


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
    return f.exact_div(_content(f, v)) if f else f


def _gcd(f, g, v):
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
    cont_f, cont_g = _content(f, v), _content(g, v)
    a, b = f.exact_div(cont_f), g.exact_div(cont_g)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b, v), v)
    return (_gcd(cont_f, cont_g, v - 1) * _primitive(a, v)).monic()


def prs_gcd_reference(f, g):
    return _gcd(f, g, f.field.r - 1)
