"""Transport of structure along an automorphism of k = F_p(t_1, ..., t_r).

`transport(f, images)` is f with the j-th variable replaced by images[j],
by plain `RatFunc` arithmetic.  When the images are those of an
automorphism sigma of k, such as t -> t + 1, t -> 1/t, t -> c*t, t <-> u
or t -> t + u, every invariant of a form or torsor is the same on X and on
X^sigma, though the library reaches it by routes that sigma does not
respect; so the two sides check each other with no copy of any rule.
"""

from typing import Sequence

from unipic.field import MPoly, RatFunc


def _substitute(f: MPoly, images: Sequence[RatFunc]) -> RatFunc:
    out = images[0].field.zero()
    for e, c in f.terms.items():
        term = out.field.const(c)
        for x, k in zip(images, e):
            term = term * x ** k
        out = out + term
    return out


def transport(f: RatFunc, images: Sequence[RatFunc]) -> RatFunc:
    """f(images[0], ..., images[r-1]), images over the field of f."""
    return _substitute(f.num, images) / _substitute(f.den, images)
