"""Command-line interface.

Exit codes: 0 = success (or "yes" for yes/no commands), 1 = the math says
no (e.g. `flat` on a non-flat input), 2 = unusable input or wrong usage.

A command is one entry of `_COMMANDS`, its help string and its handler.  A
handler returns (section, text lines, exit code), and `main` prints the
section as JSON under `--json`, the lines otherwise, and nothing when the
section is None.
"""

from __future__ import annotations

import argparse
import json
import os
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatlie",
        description="Exact analysis of flat left-invariant pseudo-Riemannian metrics on Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "catalog":
            p.add_argument("action", nargs="?", default="list", choices=["list", "show"])
            p.add_argument("name", nargs="?", help="entry name (for show)")
            p.add_argument("--json", action="store_true")
            continue
        p.add_argument("--input", "-i", default="-", metavar="PATH|-",
                       help="input document path, or - for stdin (default)")
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        if name == "analyze":
            p.add_argument("--sweep", type=int, metavar="N",
                           help=f"additionally run randomized property sweeps over N instances (N <= {MAX_SWEEP})")
            p.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
        elif name == "geodesic":
            p.add_argument("--v0", required=True, metavar="CSV",
                           help="initial velocity, comma-separated (rationals or decimals)")
            p.add_argument("--t-max", required=True, type=float, metavar="F")
            p.add_argument("--rel-tol", type=float, default=1e-9, metavar="F")
            p.add_argument("--csv", metavar="PATH", help="export trajectory samples as CSV")
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


def cmd_validate(args):
    from . import report

    m = _read_input(args.input)
    sig = m.signature
    section = {"ok": True, "dim": m.dim, "signature": report.signature_section(m)}
    return section, [f"ok: dim {m.dim}, signature ({sig.n_plus}+, {sig.n_minus}-, {sig.n_zero}0)"], 0


def cmd_analyze(args):
    from . import report

    if args.sweep is not None and not 1 <= args.sweep <= MAX_SWEEP:
        raise ParseError(f"--sweep: expected a number of instances from 1 to {MAX_SWEEP}, got {args.sweep}")
    m = _read_input(args.input)
    t0 = time.perf_counter()
    rep = report.analysis_report(m)
    timings = {"analysis": time.perf_counter() - t0}
    results = ()
    if args.sweep:
        from . import sweeps

        t0 = time.perf_counter()
        results = sweeps.run_all(args.seed, args.sweep)
        timings["sweeps"] = time.perf_counter() - t0
        rep["sweeps"] = [
            {"name": r.name, "count": r.count, "ok": r.ok, "notes": r.notes, "failures": list(r.failures)}
            for r in results
        ]
    lines = report.render_text(rep, timings)
    for r in results:
        status = "ok" if r.ok else f"{len(r.failures)} FAILURES"
        lines.append(f"sweep {r.name} ({r.count} instances): {status}" + (f" [{r.notes}]" if r.notes else ""))
    return rep, lines, 1 if any(r.failures for r in results) else 0


def cmd_flat(args):
    from . import report

    section = report.flatness_section(_read_input(args.input))
    if section["flat"]:
        return section, ["flat"], 0
    w = section["witness"]
    return section, [f"not flat: K(e_{w['i']}, e_{w['j']}) = {w['curvature']}"], 1


def cmd_killing(args):
    from . import report

    section = report.subspace_json(killing_subalgebra(_read_input(args.input)))
    rows = ["  " + " ".join(row) for row in section["basis"]]
    return section, [f"killing subalgebra dim {section['dim']}", *rows], 0


def cmd_theorem1(args):
    from . import report, theorems

    section = report.to_data(theorems.theorem1_check(_read_input(args.input)))
    text = (f"direct side: {section['direct_side']}, structural side: {section['structural_side']}, "
            f"equivalent: {section['equivalent']}")
    return section, [text], 0 if section["direct_side"] else 1


def cmd_theorem2(args):
    from . import report
    from .classc import theorem2_check

    r = theorem2_check(_read_input(args.input))
    text = (("degenerate restriction -> flat" if r.flat else "nondegenerate restriction -> not flat")
            + f" (equivalence verified: {r.equivalent})")
    return report.to_data(r), [text], 0 if r.flat else 1


def cmd_companion(args):
    from . import report, theorems

    m = _read_input(args.input)
    try:
        companion = theorems.riemannian_companion(m)
    except HypothesisNotMetError as exc:
        print(f"no companion: {exc}", file=sys.stderr)
        return None, [], 1
    section = report.companion_json(companion)
    rows = ["  " + " ".join(row) for row in section["gram"]]
    return section, ["riemannian companion gram rows:", *rows], 0


def cmd_geodesic(args):
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
    lines = [f"outcome: {traj.outcome} at t = {final.t:.6g} "
             f"(|v| = {final.norm:.6g}, energy drift = {section['energy_drift']:.3g})"]
    if traj.blowup_time is not None:
        lines.append(f"estimated blow-up time: {traj.blowup_time:.6g}")
    return section, lines, 0


def cmd_catalog(args):
    from . import catalog

    if args.action == "list":
        if args.name:
            raise ParseError(f"catalog list takes no entry name, got {args.name!r}")
        names = catalog.names()
        return names, [f"{name}: {catalog.get(name).description}" for name in names], 0
    if not args.name:
        raise ParseError("catalog show requires an entry name")
    document = catalog.get(args.name).document
    return document, [json.dumps(document, indent=2)], 0  # the document is JSON in either mode


#: every command, in `flatlie --help` order: its help string and its handler
_COMMANDS = {
    "validate": ("parse and validate an input document", cmd_validate),
    "analyze": ("full analysis report", cmd_analyze),
    "flat": ("flatness verdict (exit 1 if not flat)", cmd_flat),
    "killing": ("basis of the Killing subalgebra", cmd_killing),
    "theorem1": ("timelike-Killing split check (Lorentzian inputs only)", cmd_theorem1),
    "theorem2": ("class-C degenerate-restriction flatness check", cmd_theorem2),
    "companion": ("same-connection Riemannian metric, when one exists", cmd_companion),
    "geodesic": ("integrate the velocity geodesic equation", cmd_geodesic),
    "catalog": ("list or emit built-in examples", cmd_catalog),
}


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built on first use, then shared by every call in the process
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        section, lines, code = _COMMANDS[args.command][1](args)
        if section is not None:  # the one place a section is printed
            if args.json:
                from . import report

                sys.stdout.write(report.to_json(section))
            else:
                print("\n".join(lines))
            sys.stdout.flush()  # so that a closed stdout fails here, inside the try
        return code
    except (FlatLieError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # stdout failed in main and still holds what it could not write;
        # point it at devnull, or the interpreter's last flush fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
