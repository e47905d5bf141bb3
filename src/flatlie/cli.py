"""Command-line interface.

Exit codes: 0 = success (or "yes" for yes/no commands), 1 = the math says
no (e.g. `flat` on a non-flat input), 2 = unusable input or wrong usage.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import inputdoc
from .errors import FlatLieError, HypothesisNotMetError, InvalidGeodesicInputError, ParseError
from .metric import MetricLieAlgebra, killing_subalgebra


#: Upper bound on `analyze --sweep N`, so the sweeps end in minutes
#: (`--sweep 1000` takes about 4.3 s on a 2-vCPU Xeon).
MAX_SWEEP = 10_000


def _read_input(path: str) -> MetricLieAlgebra:
    try:
        if path == "-":
            return inputdoc.loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as fh:
            return inputdoc.load(fh)
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else repr(path)
        raise ParseError(f"{name} is not valid UTF-8 (byte offset {exc.start}: {exc.reason})") from None


def _add_input_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", "-i", default="-", metavar="PATH|-",
                   help="input document path, or - for stdin (default)")
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatlie",
        description="Exact analysis of flat left-invariant pseudo-Riemannian metrics on Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate an input document")
    _add_input_opts(p)

    p = sub.add_parser("analyze", help="full analysis report")
    _add_input_opts(p)
    p.add_argument("--sweep", type=int, metavar="N",
                   help=f"additionally run randomized property sweeps over N instances (N <= {MAX_SWEEP})")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")

    p = sub.add_parser("flat", help="flatness verdict (exit 1 if not flat)")
    _add_input_opts(p)

    p = sub.add_parser("killing", help="basis of the Killing subalgebra")
    _add_input_opts(p)

    p = sub.add_parser("theorem1", help="timelike-Killing split check (Lorentzian inputs only)")
    _add_input_opts(p)

    p = sub.add_parser("theorem2", help="class-C degenerate-restriction flatness check")
    _add_input_opts(p)

    p = sub.add_parser("companion", help="same-connection Riemannian metric, when one exists")
    _add_input_opts(p)

    p = sub.add_parser("geodesic", help="integrate the velocity geodesic equation")
    _add_input_opts(p)
    p.add_argument("--v0", required=True, metavar="CSV",
                   help="initial velocity, comma-separated (rationals or decimals)")
    p.add_argument("--t-max", required=True, type=float, metavar="F")
    p.add_argument("--rel-tol", type=float, default=1e-9, metavar="F")
    p.add_argument("--csv", metavar="PATH", help="export trajectory samples as CSV")

    p = sub.add_parser("catalog", help="list or emit built-in examples")
    p.add_argument("action", nargs="?", default="list", choices=["list", "show"])
    p.add_argument("name", nargs="?", help="entry name (for show)")
    p.add_argument("--json", action="store_true")

    return parser


def _parse_v0(text: str) -> list[float]:
    out = []
    for s in map(str.strip, text.split(",")):
        try:
            out.append(float(Fraction(s)) if "/" in s else float(s))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"--v0: invalid number {s!r}") from None
        except OverflowError:
            raise ParseError(f"--v0: rational {s[:20]}... is beyond the float range") from None
    return out


def cmd_validate(args) -> int:
    from . import report

    m = _read_input(args.input)
    if args.json:
        print(json.dumps({"ok": True, "dim": m.dim, "signature": report.signature_section(m)}, indent=2))
    else:
        sig = m.signature
        print(f"ok: dim {m.dim}, signature ({sig.n_plus}+, {sig.n_minus}-, {sig.n_zero}0)")
    return 0


def cmd_analyze(args) -> int:
    from . import report

    if args.sweep is not None and not 1 <= args.sweep <= MAX_SWEEP:
        raise ParseError(f"--sweep: expected a number of instances from 1 to {MAX_SWEEP}, got {args.sweep}")
    m = _read_input(args.input)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    rep = report.analysis_report(m)
    timings["analysis"] = time.perf_counter() - t0
    sweep_failures = 0
    if args.sweep:
        from . import sweeps

        t0 = time.perf_counter()
        results = sweeps.run_all(args.seed, args.sweep)
        timings["sweeps"] = time.perf_counter() - t0
        rep["sweeps"] = [
            {"name": r.name, "count": r.count, "ok": r.ok, "notes": r.notes,
             "failures": list(r.failures)}
            for r in results
        ]
        sweep_failures = sum(len(r.failures) for r in results)
    if args.json:
        sys.stdout.write(report.to_json(rep))
    else:
        sys.stdout.write(report.render_text(rep, timings))
        if args.sweep:
            for r in rep["sweeps"]:
                status = "ok" if r["ok"] else f"{len(r['failures'])} FAILURES"
                print(f"sweep {r['name']} ({r['count']} instances): {status}"
                      + (f" [{r['notes']}]" if r["notes"] else ""))
    return 1 if sweep_failures else 0


def cmd_flat(args) -> int:
    from . import report

    m = _read_input(args.input)
    section = report.flatness_section(m)
    if args.json:
        print(json.dumps(section, indent=2))
    elif section["flat"]:
        print("flat")
    else:
        w = section["witness"]
        print(f"not flat: K(e_{w['i']}, e_{w['j']}) = {w['curvature']}")
    return 0 if section["flat"] else 1


def cmd_killing(args) -> int:
    from . import report

    m = _read_input(args.input)
    section = report.subspace_json(killing_subalgebra(m))
    if args.json:
        print(json.dumps(section, indent=2))
    else:
        print(f"killing subalgebra dim {section['dim']}")
        for row in section["basis"]:
            print("  " + " ".join(row))
    return 0


def cmd_theorem1(args) -> int:
    from . import report, theorems

    section = report.to_data(theorems.theorem1_check(_read_input(args.input)))
    if args.json:
        print(json.dumps(section, indent=2))
    else:
        print(
            f"direct side: {section['direct_side']}, structural side: {section['structural_side']}, "
            f"equivalent: {section['equivalent']}"
        )
    return 0 if section["direct_side"] else 1


def cmd_theorem2(args) -> int:
    from . import report
    from .classc import theorem2_check

    m = _read_input(args.input)
    r = theorem2_check(m)
    section = report.to_data(r)
    if args.json:
        print(json.dumps(section, indent=2))
    else:
        print(
            ("degenerate restriction -> flat" if r.flat else "nondegenerate restriction -> not flat")
            + f" (equivalence verified: {r.equivalent})"
        )
    return 0 if r.flat else 1


def cmd_companion(args) -> int:
    from . import report, theorems

    m = _read_input(args.input)
    try:
        companion = theorems.riemannian_companion(m)
    except HypothesisNotMetError as exc:
        print(f"no companion: {exc}", file=sys.stderr)
        return 1
    section = report.companion_json(companion)
    if args.json:
        print(json.dumps(section, indent=2))
    else:
        print("riemannian companion gram rows:")
        for row in section["gram"]:
            print("  " + " ".join(row))
    return 0


def cmd_geodesic(args) -> int:
    from . import geodesics

    m = _read_input(args.input)
    v0 = _parse_v0(args.v0)
    try:
        traj = geodesics.integrate(m, v0, args.t_max, args.rel_tol)
    except InvalidGeodesicInputError as exc:
        raise ParseError(f"--{exc.field.replace('_', '-')} {exc.reason}") from None
    if args.csv:
        geodesics.write_csv(traj, args.csv)
    final = traj.final
    section = {
        "outcome": traj.outcome,
        "t_final": final.t,
        "steps": len(traj.samples) - 1,
        "blowup_time": traj.blowup_time,
        "final_norm": final.norm,
        "energy_drift": traj.energy_drift(),
    }
    if args.json:
        print(json.dumps(section, indent=2))
    else:
        print(f"outcome: {traj.outcome} at t = {final.t:.6g} "
              f"(|v| = {final.norm:.6g}, energy drift = {section['energy_drift']:.3g})")
        if traj.blowup_time is not None:
            print(f"estimated blow-up time: {traj.blowup_time:.6g}")
    return 0


def cmd_catalog(args) -> int:
    from . import catalog

    if args.action == "list":
        if args.json:
            print(json.dumps(catalog.names(), indent=2))
        else:
            for name in catalog.names():
                print(f"{name}: {catalog.get(name).description}")
        return 0
    if not args.name:
        raise ParseError("catalog show requires an entry name")
    entry = catalog.get(args.name)
    print(json.dumps(entry.document, indent=2))
    return 0


_HANDLERS = {
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "flat": cmd_flat,
    "killing": cmd_killing,
    "theorem1": cmd_theorem1,
    "theorem2": cmd_theorem2,
    "companion": cmd_companion,
    "geodesic": cmd_geodesic,
    "catalog": cmd_catalog,
}


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built on first use, then shared by every call in the process
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (FlatLieError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
