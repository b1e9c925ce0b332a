"""Term-by-term polynomial product: the reference for `unipic.MPoly.__mul__`.

It reduces every partial sum mod p as it goes and deletes a term as soon
as its coefficient cancels to zero, so the stored terms are nonzero at
every step.  `mul_reference(f, g).terms` should equal `(f * g).terms`.
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
