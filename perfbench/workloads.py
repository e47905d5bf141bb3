"""The four workloads: which op runs at each index, on which input.

An op is one CLI call on one freshly generated document.  What runs at an
index (command, family, dimension) depends only on the index, so every seed
gives the same mix in the same order; the seed changes the coefficients and
the change of basis.  Every op gets its own instance, so a cache kept across
calls cannot make a workload faster.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import instances

#: ops of each workload run in this process through flatlie.cli.main
IN_PROCESS = {"analyze_large": True, "sweep_small": True, "geodesic_probe": True, "cli_cold": False}

#: analyze_large cycles through these 27 slots.  Each family appears at the
#: dims where its cost falls on one smooth ladder (about 0.1 s to 1.2 s per
#: op at the reference speed), so the median and the tail percentile never
#: sit on a step between cost groups; the flat dim 8-9 instances are the
#: slowest ops.  A cycle costs about 11 s at the reference speed.
LARGE_SLOTS = (
    ("flat_split", 9), ("classc_nonflat", 8), ("riemannian_flat", 8), ("classc_flat", 7),
    ("nonflat_lorentzian", 9), ("flat_split", 7), ("classc_nonflat", 9), ("classc_flat", 8),
    ("riemannian_flat", 9), ("nonflat_lorentzian", 8), ("flat_split", 9), ("classc_flat", 9),
    ("flat_split", 8), ("riemannian_flat", 9), ("classc_nonflat", 7), ("classc_flat", 8),
    ("flat_split", 7), ("classc_flat", 8), ("riemannian_flat", 9), ("classc_nonflat", 9),
    ("riemannian_flat", 8), ("nonflat_lorentzian", 9), ("flat_split", 8), ("classc_nonflat", 9),
    ("riemannian_flat", 9), ("flat_split", 7), ("classc_flat", 7),
)

#: N of one sweep_small op's `--sweep N`.  `sweeps.run_all` runs three sweeps
#: of N instances and a Gram-scaling sweep of max(10, N // 4), so 40 is the
#: smallest N with the 4:1 shares of the documented `--sweep 100`: connection
#: axioms, theorem 1 and theorem 2 get 40 instances each (31% each) and Gram
#: scaling gets 10 (8%)
SWEEP_COUNT = 40

GEODESIC_SLOTS = (
    ("flat_split", 3), ("classc_flat", 3), ("flat_split", 4), ("classc_flat", 4),
    ("flat_split", 5), ("classc_flat", 5), ("nonflat_lorentzian", 4), ("flat_split", 6),
    ("classc_flat", 6), ("bi_invariant_riemannian", 5),
)

COLD_COMMANDS = ("analyze", "flat", "killing", "theorem1", "theorem2", "companion", "geodesic")
_ALL = tuple(instances.FAMILIES)
_LORENTZIAN = ("flat_split", "classc_flat", "classc_nonflat", "nonflat_lorentzian")
COLD_FAMILIES = {
    "analyze": _ALL,
    "flat": _ALL,
    "killing": _ALL,
    "theorem1": _LORENTZIAN,
    "theorem2": ("classc_flat", "classc_nonflat"),
    "companion": ("flat_split",),
    "geodesic": ("flat_split", "classc_flat"),
}
COLD_DIMS = (2, 3, 4, 5, 6)

#: ops per schedule cycle; a run measures whole cycles, so every run sees the
#: stated mix and no run ends on a different share of cheap or costly slots
CYCLE = {
    "analyze_large": len(LARGE_SLOTS),
    "sweep_small": 2,
    "geodesic_probe": len(GEODESIC_SLOTS),
    "cli_cold": len(COLD_COMMANDS),
}

#: whole cycles measured by a run of RUN_SECONDS.  At the reference speed,
#: when the benchmark was defined, the ops took about 16 s (cli_cold, 84
#: ops), 22 s (analyze_large, 54), 28 s (sweep_small, 16) and 9 s
#: (geodesic_probe, 150): each workload gets ops in proportion to its
#: run-to-run noise, and at least 11 for the tail rule, within one time
#: budget for all four.  The count is fixed rather than timed, so every
#: commit measures the same ops and `latency_ms_tail` reads the same rank;
#: a faster program shows as a shorter run, not as more ops.
RUN_CYCLES = {"analyze_large": 2, "sweep_small": 8, "geodesic_probe": 15, "cli_cold": 12}
RUN_SECONDS = 16


def run_ops(workload: str, seconds: float) -> int:
    """Ops in a run of `seconds`: RUN_CYCLES scaled to it, whole cycles, at least one."""
    cycles = max(1, round(RUN_CYCLES[workload] * seconds / RUN_SECONDS))
    return cycles * CYCLE[workload]

WHY = {
    "cli_cold": "one cold `python -m flatlie.cli` process per op, dims 2-6, rotating 7 commands: "
                "shows interpreter start, imports and dispatch, bypasses the exact kernel",
    "analyze_large": "in-process analyze, dims 7-9, in 27 slots: flat split 7, flat class-C 6, flat "
                     "Riemannian 6, non-flat class-C 5, non-flat Lorentzian 3: the exact kernel",
    "sweep_small": "in-process analyze --sweep 40 on a dim-2 document, fresh sweep seed per op: 130 instances "
                   "of dims 2-6 (axioms, theorem1, theorem2 31% each, Gram scaling 8%), per-call overhead dominates",
    "geodesic_probe": "in-process geodesic on flat rotation algebras (dims 3-6), class-C blow-up rays and "
                      "non-flat controls: the float integrator",
}


@dataclass
class Op:
    index: int
    command: str
    family: str
    dim: int
    doc: dict
    labels: dict
    extra_args: list[str] = field(default_factory=list)
    geodesic: dict | None = None

    def argv(self, doc_path: str) -> list[str]:
        return [self.command, "--json", "-i", doc_path] + self.extra_args


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _op(index: int, command: str, rng: random.Random, family: str, dim: int) -> Op:
    inst = instances.make_instance(rng, family, dim)
    op = Op(index, command, family, dim, inst["doc"], inst["labels"])
    if command == "geodesic":
        case = instances.geodesic_case(rng, inst)
        op.geodesic = case["expect"]
        op.extra_args = [f"--v0={case['v0']}", f"--t-max={case['t_max']!r}"]
    return op


def make_op(workload: str, seed: int, index: int) -> Op:
    """The op at `index`.  Index -1 is the untimed warm-up op; it is the same
    for every seed, so that set-up time measures the same work."""
    rng = _rng(workload, seed if index >= 0 else 0, index)
    if workload == "analyze_large":
        family, dim = ("classc_nonflat", 7) if index < 0 else LARGE_SLOTS[index % len(LARGE_SLOTS)]
        return _op(index, "analyze", rng, family, dim)
    if workload == "sweep_small":
        family = ("classc_flat", "classc_nonflat")[index % 2]
        op = _op(index, "analyze", rng, family, 2)
        if index >= 0:  # the warm-up op is the plain analyze, so set-up stays an import and one small op
            op.extra_args = ["--sweep", str(SWEEP_COUNT), "--seed", str(rng.randrange(2 ** 31))]
        return op
    if workload == "geodesic_probe":
        family, dim = GEODESIC_SLOTS[max(index, 0) % len(GEODESIC_SLOTS)]
        return _op(index, "geodesic", rng, family, dim)
    if workload == "cli_cold":
        if index < 0:
            return _op(index, "flat", rng, "flat_split", 3)
        command = COLD_COMMANDS[index % len(COLD_COMMANDS)]
        r = index // len(COLD_COMMANDS)
        families = COLD_FAMILIES[command]
        family = families[r % len(families)]
        dim = max(COLD_DIMS[r % len(COLD_DIMS)], instances.FAMILIES[family][0])
        return _op(index, command, rng, family, dim)
    raise KeyError(workload)
