"""Monomial count: the reference for `unipic.wproj.hilbert_dim`.

It enumerates the monomials x^i y^j z^l of weighted degree delta*a in
k[x, y, z] with weights (1, a, 1), one by one: for each j and each
i <= delta*a - a*j the exponent l is forced.  Its cost is quadratic in
delta*a, so it serves small cells only.
"""


def hilbert_count_reference(a: int, delta: int) -> int:
    d = delta * a
    return sum(1 for j in range(d // a + 1) for _ in range(d - a * j + 1))
