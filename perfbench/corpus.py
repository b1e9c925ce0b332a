"""Seeded input corpora for the three benchmark workloads.

Nothing here imports unipic.  Inputs are plain strings for
`unipic analyze --json`, so the same seed always yields byte-identical
argument lists.

A workload is a fixed list of slots.  Every slot is one input shape
(prime, number of field generators, levels, coefficient density, search
bound, hit or miss) and holds a few concrete variants.  The variants and
their expected invariants are the golden table, built once by
`make_golden.py` from the generators below.  A run draws one variant per
slot from `--seed` and shuffles the order, so a second seed changes the
equations but keeps the class mix and the amount of work per shape.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Iterator, Optional

GOLDEN = Path(__file__).resolve().with_name("golden.json")
WORKLOADS = ("forms", "torsors", "oracle")
SLOTS_PER_WORKLOAD = 120
VARIANTS_PER_SLOT = 4
VARS = {1: ("t",), 2: ("t", "u")}


@dataclass(frozen=True)
class Case:
    """One `analyze` call of a corpus."""

    slot: str
    cls: str
    field: str
    eq: str
    bound: int
    oracle: bool

    def argv(self) -> list[str]:
        argv = ["analyze", "--json", "--field", self.field, "--eq", self.eq,
                "--search-bound", str(self.bound)]
        return argv + ["--oracle"] if self.oracle else argv


# -- polynomials as exponent dicts, in the point search's counting order --


def monomials(r: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= d, sorted by (degree, exponents)."""
    out = [e for e in product(range(d + 1), repeat=r) if sum(e) <= d]
    return sorted(out, key=lambda e: (sum(e), e))


def poly_of_index(idx: int, p: int, monos: list) -> dict:
    """The polynomial whose base-p digits over `monos` spell idx."""
    out = {}
    k = 0
    while idx:
        idx, c = divmod(idx, p)
        if c:
            out[monos[k]] = c
        k += 1
    return out


def index_of_poly(terms: dict, p: int, monos: list) -> int:
    return sum(c * p ** monos.index(e) for e, c in terms.items())


def monic_before(h: int, p: int) -> int:
    """How many h' in [1, h) have leading base-p digit 1."""
    if h <= 1:
        return 0
    top = len(_digits(h, p)) - 1
    below = sum(p ** j for j in range(top))
    lead = h // p ** top
    return below + (p ** top if lead > 1 else h - p ** top)


def _digits(x: int, p: int) -> list[int]:
    out = []
    while x:
        x, c = divmod(x, p)
        out.append(c)
    return out


def search_space(p: int, r: int, bound: int) -> tuple[int, int]:
    """(numerators, monic denominators) enumerated by a full search."""
    k = len(monomials(r, bound))
    return p ** k, monic_before(p ** k, p)


def fmt_poly(terms: dict, names: tuple) -> str:
    parts = []
    for e in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        c = terms[e]
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
        if not factors:
            parts.append(str(c))
        else:
            parts.append("*".join(([str(c)] if c != 1 else []) + factors))
    return " + ".join(parts) if parts else "0"


# -- coefficient shapes ---------------------------------------------------


def _mono(rng: random.Random, p: int, names: tuple, negative: bool = True) -> str:
    """c * t^i * u^j, a monomial fraction when an exponent is negative."""
    top = _top(names)
    while True:
        e = tuple(rng.randint(-top if negative else 0, top) for _ in names)
        if any(e):
            break
    c = rng.randint(1, p - 1)
    num = fmt_poly({tuple(max(x, 0) for x in e): c}, names)
    if min(e) >= 0:
        return num
    return f"{num}/({fmt_poly({tuple(max(-x, 0) for x in e): 1}, names)})"


def _top(names: tuple) -> int:
    """Largest exponent: 4 in one variable and 2 in two, so that both
    fields offer a dozen distinct coefficients of each shape."""
    return 4 if len(names) == 1 else 2


def _poly(rng: random.Random, p: int, names: tuple, k: int, const: bool) -> str:
    """k distinct nonconstant monomials, plus 1 if const."""
    top = _top(names)
    monos = [e for e in monomials(len(names), top * len(names)) if any(e) and max(e) <= top]
    terms = {e: rng.randint(1, p - 1) for e in rng.sample(monos, k)}
    if const:
        terms[(0,) * len(names)] = 1
    return fmt_poly(terms, names)


def coefficient(rng: random.Random, p: int, names: tuple, dens: str) -> str:
    if dens == "mono":
        return _mono(rng, p, names)
    if dens == "binom":
        return f"({_poly(rng, p, names, 2, False)})"
    return f"({_poly(rng, p, names, 2, False)})/({_poly(rng, p, names, 1, True)})"


def equation(p: int, n: int, coeffs: dict, b: Optional[str] = None) -> str:
    lhs = "y" if n == 0 else f"y^{p ** n}"
    terms = ["x"] + [f"{c}*x^{p ** i}" for i, c in sorted(coeffs.items())]
    if b is not None:
        terms.append(b)
    return f"{lhs} = " + " + ".join(terms)


def field_spec(p: int, r: int) -> str:
    return f"GF({p})({','.join(VARS[r])})"


# -- slot families --------------------------------------------------------
#
# Each slot yields an endless, fixed stream of attempts; make_golden.py
# picks the slot's variants from its first MAX_ATTEMPTS.


@dataclass(frozen=True)
class Slot:
    name: str
    cls: str
    p: int
    r: int
    n: int
    m: int
    dens: str
    bound: int = 2
    oracle: bool = False
    dep: bool = False
    # torsors only: "hit" plants a point whose denominator has index h0,
    # "miss" keeps inputs whose search exhausts the space
    want: Optional[str] = None
    h0: int = 1

    def attempts(self) -> Iterator[Case]:
        rng = random.Random(f"unipic-bench:{self.name}")
        while True:
            yield self._attempt(rng)

    def _attempt(self, rng: random.Random) -> Case:
        p, names = self.p, VARS[self.r]
        # p-dependent slots over GF(p)(t,u) keep every coefficient in GF(p)(t)
        cnames = names[:1] if self.dep else names
        coeffs = {self.m: coefficient(rng, p, cnames, self.dens)}
        if self.dens != "frac":
            for i in range(1, self.m):
                if rng.random() < 0.5:
                    dens = "mono" if self.dens == "mono" else rng.choice(("mono", "binom"))
                    coeffs[i] = coefficient(rng, p, cnames, dens)
        if self.dep and len(coeffs) < 2:
            coeffs[1] = coefficient(rng, p, cnames, "mono")
        b = None
        if self.want == "hit":
            b = self._planted_b(rng, coeffs)
        elif self.want == "miss":
            b = coefficient(rng, p, names, rng.choice(("mono", "binom")))
        return Case(self.name, self.cls, field_spec(p, self.r),
                    equation(p, self.n, coeffs, b), self.bound, self.oracle)

    def _planted_b(self, rng: random.Random, coeffs: dict) -> str:
        """b = y0^(p^n) - tau(x0) for x0 = g0/h0 inside the search space."""
        p, names = self.p, VARS[self.r]
        monos = monomials(self.r, self.bound)
        g0 = fmt_poly(poly_of_index(rng.randrange(1, p ** len(monos)), p, monos), names)
        h0 = fmt_poly(poly_of_index(self.h0, p, monos), names)
        x0 = f"(({g0})/({h0}))"
        y0 = _mono(rng, p, names, negative=False)
        parts = [f"({y0})^{p ** self.n}", f"-{x0}"]
        parts += [f"-({c})*{x0}^{p ** i}" for i, c in coeffs.items()]
        return "(" + " ".join(parts) + ")"


def _forms_slots() -> list[Slot]:
    """b = 0: towers and the p = 2 twist chain carry the time."""
    out = []
    for p, r, n, m, dens in product((2, 3), (1, 2), (1, 2, 3), (1, 2, 3), ("mono", "binom", "frac")):
        if p == 3 and r == 2 and n == 3:
            continue  # dense basis 3^6 = 729: minutes per input
        if p == 3 and r == 1 and n == 3 and dens == "frac":
            continue  # 1-3 s each, and twice as dear from one variant to the next
        out.append((p, r, n, m, dens, False))
        if r == 2 and m >= 2 and dens != "frac":
            out.append((p, r, n, m, dens, True))
    return [Slot(f"forms/p{p}r{r}n{n}m{m}/{dens}{'/dep' if dep else ''}",
                 f"p{p}r{r}/{dens}" + ("/dep" if dep else ""), p, r, n, m, dens, dep=dep)
            for p, r, n, m, dens, dep in out]


# (p, r, bound, want, h0, slots): a hit plants a point x0 = g0/h0 with h0
# the first (1) or the second (t or u) monic denominator, so the search
# stops within the first two blocks of numerators; a miss exhausts the
# space.  Full searches of GF(5)(t) at bound 3 and of GF(3)(t,u) or
# GF(5)(t,u) at bound 2 take 10 s to minutes each and are left out.
_TORSOR_SHAPES = [
    (2, 1, 1, "hit", 1, 6), (2, 1, 2, "hit", 2, 6), (2, 1, 3, "hit", 2, 6),
    (2, 1, 2, "miss", 0, 4), (2, 1, 3, "miss", 0, 4),
    (2, 2, 1, "hit", 1, 6), (2, 2, 2, "hit", 1, 5), (2, 2, 2, "hit", 2, 5),
    (2, 2, 1, "miss", 0, 4), (2, 2, 2, "miss", 0, 5),
    (3, 1, 1, "hit", 1, 5), (3, 1, 2, "hit", 1, 5), (3, 1, 2, "hit", 3, 4),
    (3, 1, 3, "hit", 3, 4), (3, 1, 2, "miss", 0, 5), (3, 1, 3, "miss", 0, 2),
    (3, 2, 1, "hit", 1, 5), (3, 2, 1, "hit", 3, 4), (3, 2, 1, "miss", 0, 5),
    (5, 1, 1, "hit", 1, 5), (5, 1, 2, "hit", 5, 5), (5, 1, 3, "hit", 5, 3),
    (5, 1, 1, "miss", 0, 5), (5, 1, 2, "miss", 0, 2),
    (5, 2, 1, "hit", 1, 5), (5, 2, 1, "hit", 5, 4), (5, 2, 1, "miss", 0, 1),
]


def _torsors_slots() -> list[Slot]:
    """b != 0: the bounded point search carries the time."""
    out = []
    for p, r, bound, want, h0, count in _TORSOR_SHAPES:
        for j in range(count):
            # p = 2 misses need n = 2: at n = 1 most b have points;
            # x^25 terms make p = 5 searches ten times dearer, so m = 1 there
            n, m = (2, 1) if (p, want) == (2, "miss") else (1, 1 if p == 5 else 1 + j % 2)
            i = len(out)
            out.append(Slot(f"torsors/{i:03d}/p{p}r{r}b{bound}/{want}", f"p{p}r{r}/b{bound}/{want}",
                            p, r, n, m, "mono", bound=bound, want=want, h0=h0))
    return out


def _oracle_slots() -> list[Slot]:
    """--oracle on forms: the truncated Cech H^1 carries the time."""
    shapes = [(2, n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
    shapes += [(3, n, m) for n in (1, 2) for m in (1, 2)] + [(3, 1, 3), (3, 3, 3)]
    out = []
    for i in range(SLOTS_PER_WORKLOAD):
        p, n, m = shapes[i % len(shapes)]
        # GF(3)(t,u) at n = 3 needs the 729-element tower basis
        r = 1 if (p, n) == (3, 3) else 1 + (i // len(shapes)) % 2
        dens = ("mono", "binom")[(i // (2 * len(shapes))) % 2]
        branch = "n<=m" if n <= m else "n>m"
        out.append(Slot(f"oracle/{i:03d}/p{p}r{r}n{n}m{m}/{dens}", f"p{p}/{branch}",
                        p, r, n, m, dens, oracle=True))
    return out


def slots(workload: str) -> list[Slot]:
    if workload == "forms":
        return _forms_slots()
    if workload == "torsors":
        return _torsors_slots()
    if workload == "oracle":
        return _oracle_slots()
    raise ValueError(f"unknown workload {workload!r}")


# -- selection ------------------------------------------------------------


def load_golden(path: Path = GOLDEN) -> dict:
    with open(path) as fh:
        return json.load(fh)


def select(golden: dict, workload: str, seed: int) -> list[tuple[Case, dict]]:
    """One variant per slot, drawn and shuffled by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for slot in golden["workloads"][workload]:
        v = slot["variants"][rng.randrange(len(slot["variants"]))]
        out.append((Case(slot["slot"], slot["class"], v["field"], v["eq"], v["bound"], v["oracle"]),
                    v["expect"]))
    rng.shuffle(out)
    return out
