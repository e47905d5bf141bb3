"""Analysis report assembly: one canonical dict, rendered as JSON or text.

The JSON form is deterministic: fixed key order, canonical rational strings,
canonical subspace bases, no timestamps or timings (wall-clock timings only
ever appear in the human-readable rendering).
"""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING

from .errors import AbelianInputError
from .linalg import Subspace
from .metric import MetricLieAlgebra, is_flat, killing_subalgebra

if TYPE_CHECKING:
    from .classc import Theorem2Report


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


def _rational_str(x) -> str:
    """str(x) of an int or Fraction, free of the int/str digit limit."""
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


def vec_json(v) -> list[str]:
    return [_rational_str(x) for x in v]


def mat_json(rows) -> list[list[str]]:
    return [vec_json(row) for row in rows]


def subspace_json(V: Subspace) -> dict:
    return {"dim": V.dim, "basis": [vec_json(row) for row in V.basis]}


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
        witness = {"i": i + 1, "j": j + 1, "curvature": mat_json(K)}
    return {"flat": verdict.flat, "witness": witness}


def theorem1_section(m: MetricLieAlgebra) -> dict | None:
    from . import theorems

    if not m.is_lorentzian:
        return None
    r = theorems.theorem1_check(m)
    split = None
    if r.split is not None:
        split = {
            "killing_basis": [vec_json(row) for row in r.split.killing.basis],
            "derived_basis": [vec_json(row) for row in r.split.derived.basis],
        }
    return {
        "direct_side": r.direct_side,
        "structural_side": r.structural_side,
        "equivalent": r.equivalent,
        "flat": r.flat,
        "timelike_killing": r.timelike_killing,
        "orthogonal_split": r.orthogonal,
        "killing_abelian": r.killing_abelian,
        "derived_abelian": r.derived_abelian,
        "even_dim_derived": r.even_dim_derived,
        "eq2_verified": r.eq2_verified,
        "split": split,
    }


def riemannian_flat_section(m: MetricLieAlgebra) -> dict | None:
    from . import theorems

    if not m.is_riemannian:
        return None
    r = theorems.riemannian_flat_check(m)
    return {
        "direct_side": r.direct_side,
        "structural_side": r.structural_side,
        "equivalent": r.equivalent,
        "orthogonal_split": r.orthogonal,
        "killing_abelian": r.killing_abelian,
        "derived_abelian": r.derived_abelian,
        "eq2_verified": r.eq2_verified,
    }


def theorem2_json(t2: Theorem2Report) -> dict:
    return {
        "degenerate_restriction": t2.degenerate_restriction,
        "radical_dim": t2.radical_dim,
        "flat": t2.flat,
        "equivalent": t2.equivalent,
    }


def class_c_section(m: MetricLieAlgebra) -> dict:
    from . import classc

    try:
        structure = classc.detect(m.algebra)
    except AbelianInputError:
        structure = None
    if structure is None:
        return {"detected": False}
    t2 = classc.theorem2_check(m)
    section = {
        "detected": True,
        "b": vec_json(structure.b),
        "ideal_basis": [vec_json(row) for row in structure.ideal.basis],
        "theorem2": theorem2_json(t2),
    }
    witness = None
    if t2.degenerate_restriction and t2.radical_dim == 1:
        w = classc.construct_witness(m)
        alpha = classc.witness_scale(m.algebra, w)
        table = classc.closed_form_products(w, alpha)
        transported = classc.transport_product(m, classc.witness_change_of_basis(w))
        witness = {
            "e": vec_json(w.e),
            "d": vec_json(w.d),
            "b_sector_basis": [vec_json(row) for row in w.b_basis.basis],
            "alpha": _rational_str(alpha),
            "closed_form_matches": table.p == transported.p,
        }
    section["witness"] = witness
    inc = classc.incompleteness_verdict(m)
    section["incompleteness"] = {
        "unimodular": inc.unimodular,
        "b_trace": _rational_str(inc.b_trace),
        "flat": inc.flat,
        "verdict": inc.verdict,
    }
    return section


def companion_json(m: MetricLieAlgebra, companion: MetricLieAlgebra) -> dict:
    from . import theorems

    return {
        "gram": mat_json(companion.gram),
        "same_connection": theorems.same_connection(m, companion),
    }


def companion_section(m: MetricLieAlgebra) -> dict | None:
    from . import theorems

    if not m.is_lorentzian:
        return None
    r = theorems.theorem1_check(m)
    if not r.direct_side:
        return None
    return companion_json(m, theorems.riemannian_companion(m))


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


def render_text(report: dict, timings: dict[str, float] | None = None) -> str:
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
    return "\n".join(lines) + "\n"
