"""Reference for `unipic.cli.render_report_json`: the dict-then-writer path.

`report_to_dict_reference(rep)` builds the `analyze --json` document as a
dict, key by key, and `to_json_reference(v)` writes any JSON value as
`json.dumps(v, indent=2, sort_keys=True)` does.  `analyze --json` printed
`to_json_reference(report_to_dict_reference(rep))` until the one-pass
writer replaced both; the writer's output should equal it byte for byte.
"""

import json

_quote = json.encoder.encode_basestring_ascii


def _nv(v):
    return {"value": v.value, "kind": "exact" if v.is_exact else "bound"}


def report_to_dict_reference(rep):
    point = None
    if rep.point is not None:
        point = {"x": str(rep.point[0]), "y": str(rep.point[1])}
    genus_entry = _nv(rep.genus)
    if rep.genus_oracle is not None:
        genus_entry = dict(genus_entry)
        genus_entry["oracle"] = {
            "value": rep.genus_oracle[0],
            "stabilized": rep.genus_oracle[1],
        }
    return {
        "field": str(rep.target.field),
        "equation": str(rep.target),
        "n": _nv(rep.n),
        "n_prime": _nv(rep.n_prime),
        "r": _nv(rep.r),
        "m_X": _nv(rep.m_X),
        "splitting_degree": rep.splitting_degree,
        "genus": genus_entry,
        "torsion_bound": {
            "value": rep.torsion_bound,
            "kind": "exact" if rep.n.is_exact else "bound",
        },
        "exact_sequence": {
            "r": _nv(rep.r),
            "m_X": _nv(rep.m_X),
            "pic0_dim": _nv(rep.genus),
            "quotient": rep.quotient_desc,
            "assembled_group": rep.pic_group,
            "point": point,
        },
        "assertions": [[stmt, tag] for stmt, tag in rep.assertions],
        "flags": list(rep.flags),
    }


def to_json_reference(v, indent=""):
    """json.dumps(v, indent=2, sort_keys=True) for str, int, bool, None, list,
    tuple and dict with str keys; any other type raises TypeError."""
    if isinstance(v, str):
        return _quote(v)
    if v is None or isinstance(v, bool):
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    inner = indent + "  "
    if isinstance(v, dict):
        items, ends = [f"{_quote(k)}: {to_json_reference(x, inner)}" for k, x in sorted(v.items())], "{}"
    elif isinstance(v, (list, tuple)):
        items, ends = [to_json_reference(x, inner) for x in v], "[]"
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}" if items else ends
