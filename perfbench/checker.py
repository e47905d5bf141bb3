"""Checks one CLI output against the truth labels of its input.

An op fails on a wrong exit code, on stdout that is not strict JSON (`NaN`
and `Infinity` are rejected), on a verdict that contradicts a label, on an
internal equivalence flag that is false, and on a geodesic that misses the
accuracy gates of the test suite.
"""

from __future__ import annotations

import json

#: relative error allowed on a class-C blow-up time
BLOWUP_REL_TOL = 1e-3
#: energy drift allowed along a complete geodesic, times (1 + |e0|)
ENERGY_DRIFT_TOL = 1e-6


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON output")


def strict_json(text: str):
    """Parse one JSON value; `NaN`, `Infinity` and `-Infinity` are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def _eq(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _check_theorem1(problems, section, labels) -> None:
    if section is None:
        problems.append("theorem1 section missing on a Lorentzian input")
        return
    _eq(problems, "theorem1.direct_side", section["direct_side"], labels["theorem1_direct"])
    _eq(problems, "theorem1.equivalent", section["equivalent"], True)
    if section.get("eq2_verified") is False:
        problems.append("theorem1.eq2_verified is false")


def _check_class_c(problems, section, labels) -> None:
    _eq(problems, "class_c.detected", section["detected"], labels["class_c"])
    if not labels["class_c"] or not section["detected"]:
        return
    t2 = section["theorem2"]
    _eq(problems, "theorem2.degenerate_restriction", t2["degenerate_restriction"],
        labels["degenerate_restriction"])
    _eq(problems, "theorem2.flat", t2["flat"], labels["flat"])
    _eq(problems, "theorem2.equivalent", t2["equivalent"], True)
    if labels["flat"]:
        witness = section.get("witness")
        if not witness:
            problems.append("class_c.witness missing on a flat class-C input")
        else:
            _eq(problems, "class_c.witness.closed_form_matches", witness["closed_form_matches"], True)
    verdict = "incomplete" if labels["flat"] else "criterion inapplicable"
    _eq(problems, "class_c.incompleteness.verdict", section["incompleteness"]["verdict"], verdict)


def _check_analyze(problems, rep, labels) -> None:
    _eq(problems, "signature.kind", rep["signature"]["kind"], labels["kind"])
    _eq(problems, "flatness.flat", rep["flatness"]["flat"], labels["flat"])
    if "killing_dim" in labels:
        _eq(problems, "killing_subalgebra.dim", rep["killing_subalgebra"]["dim"], labels["killing_dim"])
    if labels["kind"] == "lorentzian":
        _check_theorem1(problems, rep["theorem1"], labels)
    if labels["kind"] == "riemannian":
        rf = rep["riemannian_flat"]
        if rf is None:
            problems.append("riemannian_flat section missing on a Riemannian input")
        else:
            _eq(problems, "riemannian_flat.direct_side", rf["direct_side"], labels["flat"])
            _eq(problems, "riemannian_flat.equivalent", rf["equivalent"], True)
            if rf.get("eq2_verified") is False:
                problems.append("riemannian_flat.eq2_verified is false")
    _check_class_c(problems, rep["class_c"], labels)
    companion = rep["companion"]
    if labels.get("companion"):
        if companion is None:
            problems.append("companion missing on a flat split input")
        else:
            _eq(problems, "companion.same_connection", companion["same_connection"], True)
    elif companion is not None:
        problems.append("companion present on an input without a timelike Killing split")
    for sweep in rep.get("sweeps", []):
        if not sweep["ok"] or sweep["failures"]:
            problems.append(f"sweep {sweep['name']}: {len(sweep['failures'])} failures")


def geodesic_errors(out: dict, expect: dict) -> tuple[float, float]:
    """(relative blow-up time error, energy drift / (1 + |e0|)); 0 where
    the quantity does not apply to the expected outcome."""
    blowup_err = 0.0
    drift = 0.0
    if expect["outcome"] == "blow_up_detected":
        if out.get("blowup_time") is not None:
            blowup_err = abs(out["blowup_time"] - expect["blowup_time"]) / expect["blowup_time"]
    else:
        drift = out["energy_drift"] / (1.0 + abs(expect["energy0"]))
    return blowup_err, drift


def _check_geodesic(problems, out, expect) -> None:
    _eq(problems, "geodesic.outcome", out["outcome"], expect["outcome"])
    blowup_err, drift = geodesic_errors(out, expect)
    if expect["outcome"] == "blow_up_detected":
        if out.get("blowup_time") is None:
            problems.append("geodesic.blowup_time missing")
        elif blowup_err > BLOWUP_REL_TOL:
            problems.append(f"geodesic.blowup_time relative error {blowup_err:.3g} > {BLOWUP_REL_TOL}")
    elif drift > ENERGY_DRIFT_TOL:
        problems.append(f"geodesic.energy_drift {out['energy_drift']:.3g} above {ENERGY_DRIFT_TOL} * (1 + |e0|)")


def expected_exit(command: str, labels: dict) -> int:
    if command == "flat":
        return 0 if labels["flat"] else 1
    if command == "theorem1":
        return 0 if labels["theorem1_direct"] else 1
    if command == "theorem2":
        return 0 if labels["flat"] else 1
    if command == "companion":
        return 0 if labels.get("companion") else 1
    return 0


def check(command: str, labels: dict, geodesic_expect: dict | None, exit_code: int, stdout: str):
    """Problems found in one op's result, plus its parsed JSON (or None).

    An empty problem list means the op passed."""
    problems: list[str] = []
    _eq(problems, "exit code", exit_code, expected_exit(command, labels))
    if command == "companion" and not labels.get("companion"):
        return problems, None  # "no companion" goes to stderr; stdout stays empty
    try:
        out = strict_json(stdout)
    except ValueError as exc:
        problems.append(f"stdout is not strict JSON: {exc}")
        return problems, None
    try:
        if command == "analyze":
            _check_analyze(problems, out, labels)
        elif command == "flat":
            _eq(problems, "flat", out["flat"], labels["flat"])
        elif command == "killing":
            if len(out["basis"]) != out["dim"]:
                problems.append("killing basis size differs from its dim")
            if "killing_dim" in labels:
                _eq(problems, "killing.dim", out["dim"], labels["killing_dim"])
        elif command == "theorem1":
            _check_theorem1(problems, out, labels)
        elif command == "theorem2":
            _eq(problems, "theorem2.degenerate_restriction", out["degenerate_restriction"],
                labels["degenerate_restriction"])
            _eq(problems, "theorem2.flat", out["flat"], labels["flat"])
            _eq(problems, "theorem2.equivalent", out["equivalent"], True)
        elif command == "companion":
            _eq(problems, "companion.same_connection", out["same_connection"], True)
        elif command == "geodesic":
            _check_geodesic(problems, out, geodesic_expect)
        else:
            problems.append(f"no check for command {command!r}")
    except (KeyError, TypeError) as exc:
        problems.append(f"output lacks an expected field: {exc!r}")
    return problems, out
