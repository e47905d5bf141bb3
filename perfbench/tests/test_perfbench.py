"""Self-tests of the benchmark: generator labels, percentile rule, checker
and tracer.  Run from the checkout root with

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import random

import pytest

import checker
import instances
import run
import workloads
from flatlie import cli, report
from flatlie.inputdoc import parse_document
from tracer import Tracer


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _write(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("family", sorted(instances.FAMILIES))
def test_generator_labels_match_program_verdicts(family):
    min_dim = instances.FAMILIES[family][0]
    for dim in range(min_dim, 6):
        for seed in range(3):
            inst = instances.make_instance(random.Random(f"{family}:{dim}:{seed}"), family, dim)
            text = report.to_json(report.analysis_report(parse_document(inst["doc"])))
            problems, _ = checker.check("analyze", inst["labels"], None, 0, text)
            assert problems == [], (family, dim, seed, problems)


@pytest.mark.parametrize("family", ["flat_split", "classc_flat", "nonflat_lorentzian"])
def test_geodesic_cases_meet_their_gates(tmp_path, family):
    for dim in (4, 5):
        rng = random.Random(f"geo:{family}:{dim}")
        inst = instances.make_instance(rng, family, dim)
        case = instances.geodesic_case(rng, inst)
        code, out = _cli(["geodesic", "--json", "-i", _write(tmp_path, inst["doc"]),
                          f"--v0={case['v0']}", f"--t-max={case['t_max']!r}"])
        problems, _ = checker.check("geodesic", inst["labels"], case["expect"], code, out)
        assert problems == [], (family, dim, problems)


@pytest.mark.parametrize("workload", sorted(workloads.IN_PROCESS))
def test_every_command_of_each_workload_passes_the_checker(tmp_path, workload):
    seen = set()
    for index in range(-1, 21):
        op = workloads.make_op(workload, 7, index)
        if op.dim > 6 or (op.command, op.family) in seen:
            continue
        seen.add((op.command, op.family))
        code, out = _cli(op.argv(_write(tmp_path, op.doc)))
        problems, _ = checker.check(op.command, op.labels, op.geodesic, code, out)
        assert problems == [], (workload, index, problems)


def test_same_seed_same_inputs():
    a = [workloads.make_op("analyze_large", 3, i).doc for i in range(3)]
    b = [workloads.make_op("analyze_large", 3, i).doc for i in range(3)]
    c = [workloads.make_op("analyze_large", 4, i).doc for i in range(3)]
    assert a == b
    assert a != c


@pytest.mark.parametrize("n, p", [(11, 9), (20, 50), (25, 60), (100, 90), (1000, 99), (5000, 99)])
def test_tail_percentile_examples(n, p):
    assert run.tail_percentile(n) == p


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(10) is None
    for n in range(11, 400):
        values = list(range(n))
        p = run.tail_percentile(n)
        beyond = sum(1 for v in values if v > run.percentile_value(values, p))
        assert beyond >= 10
        if p < 99:
            assert sum(1 for v in values if v > run.percentile_value(values, p + 1)) < 10


def test_checker_flags_a_planted_wrong_verdict():
    inst = instances.make_instance(random.Random(1), "flat_split", 5)
    rep = report.analysis_report(parse_document(inst["doc"]))
    assert checker.check("analyze", inst["labels"], None, 0, report.to_json(rep))[0] == []
    rep["flatness"]["flat"] = False
    problems, _ = checker.check("analyze", inst["labels"], None, 0, report.to_json(rep))
    assert any("flatness.flat" in p for p in problems)
    rep["flatness"]["flat"] = True
    rep["theorem1"]["equivalent"] = False
    problems, _ = checker.check("analyze", inst["labels"], None, 0, report.to_json(rep))
    assert any("theorem1.equivalent" in p for p in problems)
    problems, _ = checker.check("flat", inst["labels"], None, 1, json.dumps({"flat": True, "witness": None}))
    assert any("exit code" in p for p in problems)


def test_checker_rejects_nan_and_infinity():
    expect = {"outcome": "reached_horizon", "energy0": 1.0}
    good = {"outcome": "reached_horizon", "t_final": 1.0, "steps": 3, "blowup_time": None,
            "final_norm": 1.0, "energy_drift": 0.0}
    assert checker.check("geodesic", {}, expect, 0, json.dumps(good))[0] == []
    for bad in ("NaN", "Infinity", "-Infinity"):
        text = json.dumps(good).replace('"energy_drift": 0.0', f'"energy_drift": {bad}')
        problems, _ = checker.check("geodesic", {}, expect, 0, text)
        assert any("strict JSON" in p for p in problems), bad


def test_checker_gates_blowup_time():
    expect = {"outcome": "blow_up_detected", "blowup_time": 1.0, "energy0": 0.0}
    out = {"outcome": "blow_up_detected", "blowup_time": 1.002, "energy_drift": 5.0}
    problems, _ = checker.check("geodesic", {}, expect, 0, json.dumps(out))
    assert any("relative error" in p for p in problems)


def test_tracer_survives_a_missing_function(tmp_path, monkeypatch):
    import flatlie.sweeps
    import flatlie.metric

    original = flatlie.metric.is_flat
    monkeypatch.delattr(flatlie.sweeps, "sweep_gram_scaling")
    tracer = Tracer()
    absent = tracer.install()
    try:
        assert absent == ["sweeps.sweep_gram_scaling"]
        assert flatlie.metric.is_flat is not original
        tracer.begin_op(0)
        inst = instances.make_instance(random.Random(2), "classc_flat", 3)
        code, out = _cli(["analyze", "--json", "-i", _write(tmp_path, inst["doc"])])
    finally:
        tracer.uninstall()
    assert flatlie.metric.is_flat is original
    assert code == 0
    summary = tracer.summary()
    assert summary["sweeps.sweep_gram_scaling"] == [0, 0, 0]
    assert summary["report.analysis_report"][0] == 1
    calls, self_ns, incl_ns = summary["metric.is_flat"]
    assert calls >= 1 and 0 <= self_ns <= incl_ns


def test_tracer_counts_seven_is_flat_calls_on_a_dim9_flat_split(tmp_path):
    inst = instances.make_instance(random.Random(9), "flat_split", 9)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        code, _ = _cli(["analyze", "--json", "-i", _write(tmp_path, inst["doc"])])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.summary()["metric.is_flat"][0] == 7
    assert tracer.distinct["metric.is_flat"] == 1


@pytest.mark.parametrize("workload", sorted(workloads.IN_PROCESS))
def test_run_op_count_is_whole_cycles_fixed_by_seconds(workload):
    ops = workloads.run_ops(workload, workloads.RUN_SECONDS)
    assert ops == workloads.RUN_CYCLES[workload] * workloads.CYCLE[workload]
    assert ops >= 11
    assert workloads.run_ops(workload, 0.1) == workloads.CYCLE[workload]
