"""flatlie benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload analyze_large --seed 1 --seconds 16 --trace 0

and for all four workloads, each printing its metrics with units:

    for w in cli_cold analyze_large sweep_small geodesic_probe; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 16; done

Run from the root of a source checkout; the program is imported from
`src/`.  Ops go through the CLI contract only: a cold `python -m flatlie.cli`
process per op for `cli_cold`, `flatlie.cli.main([...])` with stdout captured
for the other workloads.  One client runs a closed loop: each op starts
after the previous one ended.  A run measures a fixed number of whole
cycles of the workload's schedule, set for a run of --seconds by
workloads.RUN_CYCLES; generating inputs and checking outputs happen between
ops and are not timed.

Times are calibrated because a shared host's speed can drift by half between
runs: each op and each set-up process is bracketed by a fixed pure-Python
loop, and its wall time is scaled to the speed at which one round of that
loop takes CALIB_REF_S.  The uncalibrated figures are printed as well.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run (the first half of
the time untraced, the second half traced, for the tracing overhead).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata

import checker
import workloads
from tracer import DISTINCT, NAMES, Tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
HERE = os.path.dirname(os.path.abspath(__file__))

#: cold set-up processes run before and again after the timed loop; setup_s
#: is the median of all of them, so it samples the machine at both ends
SETUP_REPS = 3
#: cold processes whose median gives each cli.* probe
PROBE_REPS = 5
#: seconds of one calibration round at the reference speed
CALIB_REF_S = 0.0007
CALIB_ROUNDS = 5
#: RKF45 evaluates the RHS once up front and 6 times per attempted step
RHS_PER_STEP = 6
COLD_TIMEOUT_S = 120


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile p with at least ten samples beyond its
    nearest-rank value (rank ceil(p n / 100)); None below 11 samples."""
    if n < 11:
        return None
    return min(99, (100 * (n - 10)) // n)


def percentile_value(values: list[float], p: int) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def calibrate() -> float:
    """Median seconds of CALIB_ROUNDS rounds of a fixed pure-Python Fraction
    loop: how fast the machine runs this process now, independent of flatlie."""
    rounds = []
    for _ in range(CALIB_ROUNDS):
        t0 = time.perf_counter()
        x = Fraction(1, 3)
        for i in range(1, 120):
            x = (x * Fraction(i, i + 1) + Fraction(1, i)) / 2
        rounds.append(time.perf_counter() - t0)
    return statistics.median(rounds)


class Calibrated:
    """Times scaled to the reference speed by the calibrations taken just
    before and just after each timed interval."""

    def __init__(self):
        self.before = calibrate()

    def scale(self) -> float:
        after = calibrate()
        factor = 2 * CALIB_REF_S / (self.before + after)
        self.before = after
        return factor


def pin_to_one_cpu() -> None:
    """Keep this process and the processes it starts on one CPU, so that each
    calibration runs on the core that runs the op it scales."""
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), timeout=COLD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


class Runner:
    """Runs ops of one workload and keeps what the metrics need."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.in_process = workloads.IN_PROCESS[workload]
        self.workdir = os.path.join(WORK, f"{workload}-seed{seed}")
        os.makedirs(self.workdir, exist_ok=True)
        self.next_index = 0
        #: one line per failed op, timed or not
        self.failures: list[str] = []
        #: checked ops outside the timed loop (set-up processes, warm-up)
        self.untimed = 0
        self.cli = None

    def doc_path(self, op) -> str:
        return os.path.join(self.workdir, f"op{op.index}.json")

    def import_program(self) -> None:
        sys.path.insert(0, SRC)
        import flatlie.cli

        self.cli = flatlie.cli

    def execute(self, op, tracer: Tracer | None = None) -> tuple[float, int, str, str]:
        """(wall seconds, exit code, stdout, stderr) of one op."""
        path = self.doc_path(op)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op.doc, fh)
        argv = op.argv(path)
        if not self.in_process:
            cmd = [sys.executable, "-m", "flatlie.cli"] + argv
            if tracer is not None:
                spans = path + ".spans.json"
                cmd = [sys.executable, os.path.join(HERE, "cold_child.py"), spans] + argv
            dt, proc = timed_child(cmd)
            return dt, proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()

    def run_one(self, op, tracer: Tracer | None = None) -> dict:
        if tracer is not None and self.in_process:
            tracer.begin_op(op.index)
        t0 = time.perf_counter()
        try:
            dt, code, stdout, stderr = self.execute(op, tracer)
            problems, out = checker.check(op.command, op.labels, op.geodesic, code, stdout)
        except Exception as exc:  # an op that raises is a failed op, and the loop goes on
            dt, out, stdout, stderr = time.perf_counter() - t0, None, "", ""
            problems = [f"{type(exc).__name__}: {exc}"]
        path = self.doc_path(op)
        if problems:
            self.failures.append(
                f"FAILED op {op.index} ({op.command}, {op.family}, dim {op.dim}) seed {self.seed}: "
                f"{'; '.join(problems)}; replay: PYTHONPATH=src python3 -m flatlie.cli "
                f"{' '.join(op.argv(path))}" + (f"; stderr: {stderr.strip()[-300:]}" if stderr.strip() else "")
            )
        else:
            os.remove(path)
        return {"op": op, "seconds": dt, "ok": not problems, "out": out, "bytes": len(stdout)}

    def loop(self, seconds: float, tracer: Tracer | None = None) -> list[dict]:
        """Closed loop over the fixed op count of a run of `seconds`, so
        every commit and every host measures the same ops."""
        results = []
        calibration = Calibrated()
        for _ in range(workloads.run_ops(self.workload, seconds)):
            op = workloads.make_op(self.workload, self.seed, self.next_index)
            self.next_index += 1
            result = self.run_one(op, tracer)
            result["ref_seconds"] = result["seconds"] * calibration.scale()
            results.append(result)
        if tracer is not None and self.in_process:
            tracer.end_op()
        return results

    def cleanup(self) -> None:
        if not os.listdir(self.workdir):
            os.rmdir(self.workdir)
            with contextlib.suppress(OSError):
                os.rmdir(WORK)


def setup_times(runner: Runner) -> list[float]:
    """Wall times of SETUP_REPS cold processes that import flatlie and finish
    the workload's warm-up op, the benchmark's own input generation excluded."""
    op = workloads.make_op(runner.workload, runner.seed, -1)
    path = runner.doc_path(op)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(op.doc, fh)
    times = []
    calibration = Calibrated()
    for _ in range(SETUP_REPS):
        dt, proc = timed_child([sys.executable, "-m", "flatlie.cli"] + op.argv(path))
        dt *= calibration.scale()
        problems, _ = checker.check(op.command, op.labels, op.geodesic, proc.returncode, proc.stdout)
        runner.untimed += 1
        if problems:
            runner.failures.append(f"FAILED set-up process ({op.command}, {op.family}, dim {op.dim}) "
                                   f"seed {runner.seed}: {'; '.join(problems)}")
        times.append(dt)
    if not runner.failures:
        os.remove(path)
    return times


def warm_up(runner: Runner) -> None:
    if runner.in_process:
        runner.import_program()
        runner.run_one(workloads.make_op(runner.workload, runner.seed, -1))
        runner.untimed += 1


def throughput(results: list[dict], key: str = "ref_seconds") -> float:
    return len(results) / sum(r[key] for r in results)


def end_to_end(runner: Runner, results: list[dict], setup_s: float) -> tuple[dict, list[str]]:
    lat = [r["ref_seconds"] * 1000.0 for r in results]
    raw = [r["seconds"] * 1000.0 for r in results]
    p = tail_percentile(len(lat))
    tail = percentile_value(lat, p) if p is not None else max(lat)
    usage = resource.RUSAGE_SELF if runner.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "latency_ms_p50": {"value": statistics.median(lat), "unit": "ms"},
        "latency_ms_tail": {"value": tail, "unit": "ms"},
        "throughput_ops_s": {"value": throughput(results), "unit": "ops/s"},
        "peak_rss_mb": {"value": resource.getrusage(usage).ru_maxrss / 1024.0, "unit": "MB"},
    }
    notes = [f"latency_ms_tail is p{p} of {len(lat)} samples" if p is not None
             else f"latency_ms_tail is the maximum of {len(lat)} samples (fewer than 11)",
             f"uncalibrated wall time: p50 {statistics.median(raw):.6g} ms, "
             f"tail {percentile_value(raw, p) if p is not None else max(raw):.6g} ms, "
             f"throughput {throughput(results, 'seconds'):.6g} ops/s"]
    return metrics, notes


def cli_probes() -> dict:
    """Bare interpreter start, cold `import flatlie.cli`, and whether that
    import loads numpy; medians of PROBE_REPS cold processes."""
    bare = [timed_child([sys.executable, "-c", "pass"])[0] for _ in range(PROBE_REPS)]
    imports, flags = [], set()
    for _ in range(PROBE_REPS):
        dt, proc = timed_child([sys.executable, "-c",
                                "import sys, flatlie.cli; print(int('numpy' in sys.modules))"])
        if proc.returncode != 0:
            raise RuntimeError(f"import flatlie.cli failed: {proc.stderr.strip()[-300:]}")
        imports.append(dt)
        flags.add(int(proc.stdout.strip()))
    interpreter_ms = statistics.median(bare) * 1000.0
    return {
        "cli.interpreter_ms": {"value": interpreter_ms, "unit": "ms"},
        "cli.import_ms": {"value": statistics.median(imports) * 1000.0 - interpreter_ms, "unit": "ms"},
        "cli.numpy_loaded": {"value": max(flags), "unit": "flag"},
    }


def merge_cold_spans(runner: Runner, results: list[dict]) -> tuple[dict, dict, list[str], dict]:
    """Sum the span summaries that traced cold children wrote; also return
    the is_flat calls of each op."""
    summary = {name: [0, 0, 0] for name in NAMES}
    distinct = {name: 0 for name in DISTINCT}
    absent: set[str] = set()
    is_flat_calls = {}
    for r in results:
        path = runner.doc_path(r["op"]) + ".spans.json"
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        os.remove(path)
        for name, row in child["summary"].items():
            summary[name] = [a + b for a, b in zip(summary[name], row)]
        for name, count in child["distinct"].items():
            distinct[name] += count
        absent.update(child["absent"])
        is_flat_calls[r["op"].index] = child["summary"]["metric.is_flat"][0]
    return summary, distinct, sorted(absent), is_flat_calls


def calls_by_slot(results: list[dict], calls_by_op: dict) -> dict:
    """Mean calls per op for each command/family/dim seen in the traced ops."""
    slots: dict[str, list[int]] = {}
    for r in results:
        op = r["op"]
        slots.setdefault(f"{op.command}/{op.family}/{op.dim}", []).append(calls_by_op.get(op.index, 0))
    return {k: sum(v) / len(v) for k, v in sorted(slots.items())}


def per_layer(untraced: list[dict], traced: list[dict], summary: dict, distinct: dict) -> dict:
    ops = len(traced)
    metrics = {}
    for name in NAMES:
        calls, self_ns, _ = summary[name]
        metrics[f"{name}.calls"] = {"value": calls / ops, "unit": "calls/op"}
        metrics[f"{name}.self_ms"] = {"value": self_ns / 1e6 / ops, "unit": "ms/op"}
    for name in DISTINCT:
        calls = summary[name][0]
        metrics[f"{name}.distinct_ratio"] = {"value": distinct[name] / calls if calls else 0.0,
                                             "unit": "ratio"}
    metrics.update(cli_probes())

    rhs_calls, _, rhs_ns = summary["geodesics.euler_arnold_rhs"]
    integrations = summary["geodesics.integrate"][0]
    geodesic_outs = [(r["out"], r["op"].geodesic) for r in traced
                     if r["op"].command == "geodesic" and r["out"] is not None]
    accepted = sum(out["steps"] for out, _ in geodesic_outs)
    attempted, leftover = divmod(rhs_calls - integrations, RHS_PER_STEP)
    errors = [checker.geodesic_errors(out, expect) for out, expect in geodesic_outs]
    metrics.update({
        "geodesics.us_per_rhs": {"value": rhs_ns / 1e3 / rhs_calls if rhs_calls else 0.0, "unit": "us"},
        "geodesics.rhs_evals": {"value": rhs_calls / ops, "unit": "evals/op"},
        "geodesics.steps_accepted": {"value": accepted / ops, "unit": "steps/op"},
        "geodesics.steps_rejected": {"value": (attempted - accepted) / ops, "unit": "steps/op"},
        "geodesics.blowup_rel_err_max": {"value": max((e[0] for e in errors), default=0.0), "unit": "ratio"},
        "geodesics.energy_drift_max": {"value": max((e[1] for e in errors), default=0.0), "unit": "ratio"},
        "report.json_bytes": {"value": sum(r["bytes"] for r in traced) / ops, "unit": "bytes/op"},
    })
    metrics["trace.overhead_ratio"] = {"value": throughput(traced) / throughput(untraced), "unit": "ratio"}
    # the rejected-step count assumes an RKF45 stepper; if the RHS count no
    # longer fits one, the metric is reported absent instead of wrong
    unfit = leftover or attempted < accepted
    if unfit:
        metrics["geodesics.steps_rejected"]["value"] = 0.0
    return metrics, ["geodesics.steps_rejected"] if unfit else []


def git_state() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    if sha.returncode != 0:
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


def machine() -> dict:
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    for key, name in (("LEVEL1_DCACHE_SIZE", "l1d"), ("LEVEL2_CACHE_SIZE", "l2"), ("LEVEL3_CACHE_SIZE", "l3")):
        with contextlib.suppress(OSError, subprocess.TimeoutExpired, ValueError):
            caches[name] = int(subprocess.run(["getconf", key], capture_output=True, text=True,
                                              timeout=10).stdout)
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version, "nproc": os.cpu_count(),
            "cpu_model": model, "cache_bytes": caches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.IN_PROCESS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flatlie", "cli.py")):
        print(f"error: run from the root of a flatlie checkout ({SRC}/flatlie/cli.py not found)", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    runner = Runner(args.workload, args.seed)
    meta = {"workload": args.workload, "why": workloads.WHY[args.workload], "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **git_state(), **machine()}
    notes: list[str] = []
    if args.trace == 0:
        setup = setup_times(runner)
        warm_up(runner)
        results = runner.loop(args.seconds)
        setup += setup_times(runner)
        metrics, notes = end_to_end(runner, results, statistics.median(setup))
        meta["tail_percentile"] = tail_percentile(len(results))
    else:
        warm_up(runner)
        untraced = runner.loop(args.seconds / 2)
        tracer = Tracer()
        if runner.in_process:
            absent = tracer.install()
            try:
                traced = runner.loop(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            summary, distinct = tracer.summary(), tracer.distinct
            is_flat_calls = tracer.calls_by_op("metric.is_flat")
            meta["spans"] = len(tracer.start)
        else:
            traced = runner.loop(args.seconds / 2, tracer)
            summary, distinct, absent, is_flat_calls = merge_cold_spans(runner, traced)
        meta["is_flat_calls_by_slot"] = calls_by_slot(traced, is_flat_calls)
        metrics, unfit = per_layer(untraced, traced, summary, distinct)
        absent = list(absent) + unfit
        meta["absent"] = absent
        if absent:
            notes.append(f"absent from the program, reported as 0: {', '.join(absent)}")
        results = untraced + traced
    runner.cleanup()

    families: dict[str, int] = {}
    for r in results:
        families[r["op"].family] = families.get(r["op"].family, 0) + 1
    meta["ops"] = len(results)
    meta["slowdown_vs_reference"] = statistics.median(r["seconds"] / r["ref_seconds"] for r in results)
    meta["family_shares"] = {f: round(c / len(results), 4) for f, c in sorted(families.items())}
    meta["notes"] = notes
    for line in runner.failures:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(note)
    print("meta " + json.dumps(meta, sort_keys=True))
    failed = len(runner.failures)
    print(json.dumps({"correct": failed == 0, "attempted": len(results) + runner.untimed, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
