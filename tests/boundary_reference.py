"""The boundary ring of a naive completion read in its affine chart, as a test oracle.

`unipic.wproj.is_regular_at_infinity` reads the ring off the Frobenius
ladder the presentation already holds.  This module forms the chart's
element itself, a_m in the chart x = 1 (n <= m) and 1/a_m in the chart
y = 1 (n > m), and walks that element's own ladder.  It shares no code
with `unipic.wproj` beyond `InfinityData`.
"""

from unipic import InfinityData, power_level


def boundary_reference(C):
    """InfinityData of the boundary ring k[s]/(s^(p^e) - u) of the curve C."""
    n, m = C.source.n, C.source.m
    am = C.source.coeffs[m]
    if n <= m:
        # chart x = 1: residue ring k[y]/(y^(p^n) - a_m)
        e, u = n, am
    else:
        # chart y = 1: residue ring k[x]/(x^(p^m) - 1/a_m)
        e, u = m, am.inverse()
    v, _ = power_level(u, e)
    if e == 0 or v == 0:
        return InfinityData(True, u.field.p ** e, e)
    return InfinityData(False, u.field.p ** e, e - v)
