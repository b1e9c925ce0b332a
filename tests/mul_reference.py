"""References for `unipic.MPoly.__mul__` and `unipic.MPoly.__pow__`.

The term-by-term product reduces every partial sum mod p as it goes and
deletes a term as soon as its coefficient cancels to zero, so the stored
terms are nonzero at every step.  `mul_reference(f, g).terms` should equal
`(f * g).terms`.  The power is binary square-and-multiply, which forms the
dense powers f^(2^j) that base-p digits avoid; `pow_reference(f, n).terms`
should equal `(f ** n).terms`.
"""

from unipic import MPoly


def mul_reference(f, g):
    p = f.field.p
    if not f.terms or not g.terms:
        return MPoly.zero(f.field)
    a, b = f.terms, g.terms
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = (out.get(e, 0) + ca * cb) % p
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return MPoly(f.field, out)


def pow_reference(f, n):
    result, base = None, f  # the first factor is taken as is, not times one
    while n:
        if n & 1:
            result = base if result is None else result * base
        base = base * base if n > 1 else base
        n >>= 1
    return MPoly.one(f.field) if result is None else result
