"""Output check of one `analyze --json` document against the golden table.

An exact value must stay equal; a bound may only tighten, or turn exact
within the bound.  Every reported point must satisfy the curve equation,
and on exact values n >= max(n', r) and m(X) | p^r must hold.
"""

from __future__ import annotations

from typing import Optional

LEVELS = ("n", "n_prime", "r", "m_X", "genus")


def expectation(doc: dict) -> dict:
    """The golden record of one report: what later reports are held to."""
    oracle = doc["genus"].get("oracle")
    return {
        **{k: [doc[k]["value"], doc[k]["kind"]] for k in LEVELS},
        "splitting_degree": doc["splitting_degree"],
        "point": doc["exact_sequence"]["point"] is not None,
        "oracle": None if oracle is None else [oracle["value"], oracle["stabilized"]],
    }


def problems(case, doc: Optional[dict], expect: dict, unipic_cli) -> list[str]:
    """Every way `doc` breaks the golden record or an invariant relation."""
    if doc is None:
        return ["no JSON report"]
    out = []
    for k in LEVELS:
        value, kind = doc[k]["value"], doc[k]["kind"]
        want, want_kind = expect[k]
        if want_kind == "exact" and (kind, value) != ("exact", want):
            out.append(f"{k}: exact {want} became {kind} {value}")
        elif want_kind == "bound" and value > want:
            out.append(f"{k}: bound {want} loosened to {value}")
    if doc["splitting_degree"] != expect["splitting_degree"]:
        out.append(f"splitting degree {expect['splitting_degree']} became {doc['splitting_degree']}")
    oracle = doc["genus"].get("oracle")
    if expect["oracle"] is not None and (
        oracle is None or [oracle["value"], oracle["stabilized"]] != expect["oracle"]
    ):
        out.append(f"oracle {expect['oracle']} became {oracle}")
    point = doc["exact_sequence"]["point"]
    if expect["point"] and point is None:
        out.append("rational point lost")
    exact = {k: doc[k]["value"] for k in LEVELS if doc[k]["kind"] == "exact"}
    if "n" in exact and any(exact[k] > exact["n"] for k in ("n_prime", "r") if k in exact):
        out.append("n < max(n', r) on exact values")
    p = int(case.field[3:case.field.index(")")])
    if "m_X" in exact and "r" in exact and p ** exact["r"] % exact["m_X"]:
        out.append("m(X) does not divide p^r")
    if point is not None and not point_holds(case, point, unipic_cli):
        out.append(f"point {point} is not on the curve")
    return out


def point_holds(case, point: dict, unipic_cli) -> bool:
    spec = unipic_cli.parse_field_spec(case.field)
    target = unipic_cli.parse_form_equation(case.eq, spec).build()

    def value(s: str):
        # a constant term of a throwaway equation parses s in the field
        return unipic_cli.parse_form_equation(f"y = x + ({s})", spec).b

    from unipic import equation_holds

    return equation_holds(target, value(point["x"]), value(point["y"]))
