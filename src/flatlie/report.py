"""Analysis report assembly: one canonical dict, rendered as JSON or text.

The JSON form is deterministic: fixed key order, canonical rational strings,
canonical subspace bases, no timestamps or timings (wall-clock timings only
ever appear in the human-readable rendering).
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from itertools import repeat

from .linalg import Subspace
from .metric import MetricLieAlgebra, is_flat, killing_subalgebra

#: the keys of `riemannian_flat`, a subset of the theorem1 object's
RIEMANNIAN_FLAT_KEYS = ("direct_side", "structural_side", "equivalent", "orthogonal_split",
                        "killing_abelian", "derived_abelian", "eq2_verified")


def _int_str(n: int) -> str:
    """Decimal digits of n, however many.  str() refuses an int of more than
    sys.get_int_max_str_digits() digits, which a curvature witness can reach
    inside the input caps; such an int is written in chunks below the limit."""
    try:
        return str(n)
    except ValueError:
        width = sys.get_int_max_str_digits()
    base, q, chunks = 10**width, abs(n), []
    while q:
        q, r = divmod(q, base)
        chunks.append(r)
    head = str(chunks.pop())
    return ("-" if n < 0 else "") + head + "".join(str(r).zfill(width) for r in reversed(chunks))


def _ratio_str(x: int, d: int) -> str:
    """str(Fraction(x, d)) of ints x and d > 0 in least terms, free of the
    int/str digit limit."""
    return _int_str(x) if d == 1 else f"{_int_str(x)}/{_int_str(d)}"


def _view_data(rows, d: int) -> list[list[str]]:
    """The matrix rows / d of an integer view, entry by entry as its
    canonical string, each x / d reduced by h = gcd(x, d): how a Subspace
    (B, b) and a Gram matrix (G, g) are written, with no Fraction built."""
    return [[_ratio_str(x // h, d // h) for x, h in zip(row, map(math.gcd, row, repeat(d)))] for row in rows]


def to_data(x):
    """The JSON value of a report object.

    A record (a NamedTuple) becomes an object of its fields in declaration
    order, each under the name its class's `_json` table maps it to (its own
    name by default; None leaves the field out).  A Subspace becomes its
    canonical basis rows, written from its int view (B, b), a Fraction its
    canonical string, any other tuple or a list an array; bools, ints,
    strings and None pass through.
    """
    if isinstance(x, Subspace):
        return _view_data(x.B, x.b)
    if isinstance(x, tuple) and hasattr(x, "_fields"):  # a record, tested before the plain tuple
        names = getattr(x, "_json", {})
        data = {}
        for field, value in zip(x._fields, x):
            name = names.get(field, field)
            if name is not None:
                data[name] = to_data(value)
        return data
    if isinstance(x, (tuple, list)):
        return [to_data(v) for v in x]
    if isinstance(x, Fraction):
        return _ratio_str(x.numerator, x.denominator)
    if x is None or isinstance(x, (bool, int, str)):
        return x
    raise TypeError(f"no JSON form for {type(x).__name__}")


def subspace_json(V: Subspace) -> dict:
    return {"dim": V.dim, "basis": to_data(V)}


def signature_section(m: MetricLieAlgebra) -> dict:
    sig = m.signature
    if m.is_riemannian:
        kind = "riemannian"
    elif m.is_lorentzian:
        kind = "lorentzian"
    else:
        kind = "other"
    return {"n_plus": sig.n_plus, "n_minus": sig.n_minus, "n_zero": sig.n_zero, "kind": kind}


def flatness_section(m: MetricLieAlgebra) -> dict:
    verdict = is_flat(m)
    witness = None
    if verdict.witness is not None:
        i, j, K = verdict.witness
        witness = {"i": i + 1, "j": j + 1, "curvature": to_data(K)}
    return {"flat": verdict.flat, "witness": witness}


def theorem1_section(m: MetricLieAlgebra) -> dict | None:
    from . import theorems

    if not m.is_lorentzian:
        return None
    return to_data(theorems.theorem1_check(m))


def riemannian_flat_section(m: MetricLieAlgebra) -> dict | None:
    from . import theorems

    if not m.is_riemannian:
        return None
    data = to_data(theorems.riemannian_flat_check(m))
    return {key: data[key] for key in RIEMANNIAN_FLAT_KEYS}


def class_c_section(m: MetricLieAlgebra) -> dict:
    from . import classc

    structure = classc.detect(m.algebra)
    if structure is None:
        return {"detected": False}
    t2 = classc.theorem2_check(m)
    witness = None
    if t2.degenerate_restriction and t2.radical_dim == 1:
        w = classc.construct_witness(m)
        alpha = classc.witness_scale(m.algebra, w)
        witness = {**to_data(w), "alpha": to_data(alpha), "closed_form_matches": classc.closed_form_matches(m, w, alpha)}
    return {
        "detected": True,
        **to_data(structure),
        "theorem2": to_data(t2),
        "witness": witness,
        "incompleteness": to_data(classc.incompleteness_verdict(m)),
    }


def companion_json(companion: MetricLieAlgebra) -> dict:
    """`riemannian_companion` returns a companion only with the same connection."""
    return {"gram": _view_data(companion.G, companion.g), "same_connection": True}


def companion_section(m: MetricLieAlgebra) -> dict | None:
    from . import theorems

    if not m.is_lorentzian:
        return None
    r = theorems.theorem1_check(m)
    if not r.direct_side:
        return None
    return companion_json(theorems.riemannian_companion(m))


def analysis_report(m: MetricLieAlgebra) -> dict:
    return {
        "validation": {
            "ok": True,
            "dim": m.dim,
            "labels": list(m.algebra.labels) if m.algebra.labels else None,
        },
        "signature": signature_section(m),
        "flatness": flatness_section(m),
        "killing_subalgebra": subspace_json(killing_subalgebra(m)),
        "theorem1": theorem1_section(m),
        "riemannian_flat": riemannian_flat_section(m),
        "class_c": class_c_section(m),
        "companion": companion_section(m),
    }


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _yesno(x) -> str:
    if x is None:
        return "n/a"
    return "yes" if x else "no"


def render_text(report: dict, timings: dict[str, float] | None = None) -> list[str]:
    """The lines of the human-readable report."""
    lines: list[str] = []
    v = report["validation"]
    lines.append(f"dimension {v['dim']}" + (f", basis {v['labels']}" if v["labels"] else ""))
    s = report["signature"]
    lines.append(f"signature ({s['n_plus']}+, {s['n_minus']}-, {s['n_zero']}0): {s['kind']}")
    f = report["flatness"]
    if f["flat"]:
        lines.append("flat: yes (curvature vanishes on all basis pairs)")
    else:
        w = f["witness"]
        lines.append(f"flat: no (K(e_{w['i']}, e_{w['j']}) != 0)")
    k = report["killing_subalgebra"]
    lines.append(f"killing subalgebra: dim {k['dim']}" + (f", basis {k['basis']}" if k["basis"] else ""))
    t1 = report.get("theorem1")
    if t1:
        lines.append(
            "theorem1: direct "
            + _yesno(t1["direct_side"])
            + ", structural "
            + _yesno(t1["structural_side"])
            + (", even dim [g,g] " + _yesno(t1["even_dim_derived"]) if t1["even_dim_derived"] is not None else "")
            + (", eq2 " + _yesno(t1["eq2_verified"]) if t1["eq2_verified"] is not None else "")
        )
    rf = report.get("riemannian_flat")
    if rf:
        lines.append(
            "riemannian flat check: direct "
            + _yesno(rf["direct_side"])
            + ", structural "
            + _yesno(rf["structural_side"])
        )
    cc = report["class_c"]
    if not cc["detected"]:
        lines.append("class C: no")
    else:
        t2 = cc["theorem2"]
        lines.append(
            "class C: yes; restriction to [g,g] "
            + ("degenerate" if t2["degenerate_restriction"] else "nondegenerate")
            + f"; flat { _yesno(t2['flat']) }; equivalence { _yesno(t2['equivalent']) }"
        )
        if cc["witness"]:
            w = cc["witness"]
            lines.append(
                f"  witness: e={w['e']}, d={w['d']}, alpha={w['alpha']}, "
                f"closed-form table matches: {_yesno(w['closed_form_matches'])}"
            )
        inc = cc["incompleteness"]
        lines.append(
            f"  completeness: unimodular {_yesno(inc['unimodular'])}, verdict: {inc['verdict']}"
        )
    comp = report.get("companion")
    if comp:
        lines.append(f"riemannian companion gram: {comp['gram']} (same connection: {_yesno(comp['same_connection'])})")
    if timings:
        lines.append("timings:")
        for name, dt in timings.items():
            lines.append(f"  {name}: {dt * 1000:.1f} ms")
    return lines
