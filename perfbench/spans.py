"""Span recording for the traced run, by rebinding unipic's public functions.

`Tracer.install()` replaces each function named in LAYERS, in every
loaded unipic module that holds it, with a wrapper that records a span
(name, start, end, parent) and the layer's work counter.  A counter
that raises leaves work = -1 on its span and a message in
`Tracer.errors`; the call itself still counts as a success.  `uninstall()`
puts the originals back, so untraced passes run unwrapped code.  Spans
nest along the call stack, so a function that one report calls several
times shows up as several spans.
"""

from __future__ import annotations

import json
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Optional

from corpus import index_of_poly, monic_before, monomials, search_space

# (module, function) pairs wrapped in the traced run
LAYERS = (
    ("unipic.cli", "parse_form_equation"),
    ("unipic.cli", "report_to_dict"),
    ("unipic.picard", "invariant_report"),
    ("unipic.field", "compositum_degree"),
    ("unipic.forms", "rationality_level"),
    ("unipic.forms", "find_rational_point"),
    ("unipic.wproj", "naive_completion"),
    ("unipic.wproj", "is_regular_at_infinity"),
    ("unipic.wproj", "residue_from_plane_model"),
    ("unipic.wproj", "cech_h1_dim"),
)

clock = time.thread_time


@dataclass
class Span:
    name: str
    start: float
    parent: Optional["Span"]
    end: float = 0.0
    work: int = 0
    flag: Optional[bool] = None  # search hit / Cech stabilised

    def inside(self, names: frozenset) -> bool:
        """Whether an enclosing span carries one of `names`."""
        s = self.parent
        while s is not None:
            if s.name in names:
                return True
            s = s.parent
        return False


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # counters that raised
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def reset(self) -> list:
        out, self.spans = self.spans, []
        return out

    def install(self) -> None:
        for modname, fname in LAYERS:
            original = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(fname, original, _COUNTERS.get(fname))
            for mod in [m for k, m in sys.modules.items() if k == "unipic" or k.startswith("unipic.")]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        # JSON encoding of the report happens inline in the analyze command
        cli = sys.modules["unipic.cli"]
        self._saved.append((cli, "json", cli.json))
        cli.json = types.SimpleNamespace(
            dumps=self._wrap("json.dumps", json.dumps, None), loads=json.loads)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        tracer, stack = self, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else None)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                tracer.spans.append(span)
            if counter is not None:
                # a broken counter is the benchmark's fault, not a failed call
                try:
                    span.work, span.flag = counter(args, kwargs, result)
                except Exception as exc:
                    span.work = -1
                    tracer.errors.append(f"{name} counter: {exc!r}")
            return result

        wrapper.__wrapped__ = fn
        return wrapper


# -- work counters ----------------------------------------------------------


def _tower_basis(args, kwargs, result):
    """Dense basis size p^(r*N) of one compositum_degree call (0 if none)."""
    pairs = list(args[0]) if args else list(kwargs["pairs"])
    level = max((n for _, n in pairs), default=0)
    if level == 0:
        return 0, None
    k = pairs[0][0].field
    return k.p ** (k.r * level), None


def _search_candidates(args, kwargs, result):
    """(g, h) pairs the brute-force order visits up to the witness.

    Denominators h run outer and must be monic, numerators g inner, both
    counted in base p over the graded monomial list.  A miss visits the
    whole space.
    """
    target = args[0]
    bound = args[1] if len(args) > 1 else kwargs["max_deg"]
    k = target.field
    numerators, denominators = search_space(k.p, k.r, bound)
    if result is None:
        return numerators * denominators, False
    x = result[0]
    monos = monomials(k.r, bound)
    g = index_of_poly(x.num.terms, k.p, monos)
    h = index_of_poly(x.den.terms, k.p, monos)
    return monic_before(h, k.p) * numerators + g + 1, True


def _cech_cols(args, kwargs, result):
    """Columns (2N+1) p^n of the two truncation windows N = P-1 and P."""
    curve = args[0]
    bound = args[1] if len(args) > 1 else kwargs.get("pole_bound")
    if bound is None:
        bound = 2 * curve.degree
    pn = curve.field.p ** curve.source.n
    return (4 * bound) * pn, bool(result[1])


_COUNTERS = {
    "compositum_degree": _tower_basis,
    "find_rational_point": _search_candidates,
    "cech_h1_dim": _cech_cols,
}


# -- per-report aggregation -------------------------------------------------

# metric -> functions whose outermost spans it sums
GROUPS = {
    "cli.parse_ref": ("parse_form_equation",),
    "cli.format_ref": ("report_to_dict", "json.dumps"),
    "picard.report_ref": ("invariant_report",),
    "field.tower_ref": ("compositum_degree",),
    "forms.rationality_ref": ("rationality_level",),
    "forms.search_ref": ("find_rational_point",),
    "wproj.completion_ref": ("naive_completion", "is_regular_at_infinity", "residue_from_plane_model"),
    "wproj.cech_ref": ("cech_h1_dim",),
}
# layer shares of invariant_report time, for the layer-share check
SHARES = {
    "share.tower_rationality": ("compositum_degree", "rationality_level"),
    "share.search": ("find_rational_point",),
    "share.cech": ("cech_h1_dim",),
}
REPEATED = ("compositum_degree", "naive_completion")


def covered(spans: list, names) -> float:
    """Seconds inside spans of `names`, counting nested ones once."""
    names = frozenset(names)
    return sum(s.end - s.start for s in spans if s.name in names and not s.inside(names))


def summarise(spans: list) -> dict:
    """Times and counters of one report's spans."""
    out = {metric: covered(spans, names) for metric, names in GROUPS.items()}
    out.update({metric: covered(spans, names) for metric, names in SHARES.items()})
    out["repeat_calls"] = sum(1 for s in spans if s.name in REPEATED)
    out["tower_basis"] = sum(s.work for s in spans if s.name == "compositum_degree" and s.work > 0)
    search = [s for s in spans if s.name == "find_rational_point"]
    out["searches"] = len(search)
    out["search_hits"] = sum(1 for s in search if s.flag)
    out["search_candidates"] = sum(s.work for s in search if s.work > 0)
    cech = [s for s in spans if s.name == "cech_h1_dim"]
    out["cech_calls"] = len(cech)
    out["cech_stable"] = sum(1 for s in cech if s.flag)
    out["cech_cols"] = sum(s.work for s in cech if s.work > 0)
    return out
