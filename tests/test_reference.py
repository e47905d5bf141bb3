"""`flatlie analyze --json` against the from-definition reference analyzer
(`reference.py`): every golden input up to dim 9, every catalog entry and
the generated documents of `populations.py`.  The dim-17 golden input is
left to `test_golden.py` and the packed-width tests of
`test_exact_kernel.py`: the reference's Fraction elimination takes minutes
there."""

import ast
import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import populations
import reference
from flatlie import catalog
from flatlie.cli import main

INPUTS = Path(__file__).parent / "golden" / "inputs"
GOLDEN = sorted(p.stem for p in INPUTS.glob("*.json") if json.loads(p.read_text(encoding="utf-8"))["dim"] <= 9)


def analyze_json(text):
    """In-process `flatlie analyze --json` with the document on stdin."""
    stdin, out = sys.stdin, io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            assert main(["analyze", "--json"]) == 0
    finally:
        sys.stdin = stdin
    return json.loads(out.getvalue())


@functools.cache
def checked(text):
    """`reference.check` of `analyze --json` on the document text: the
    reference's analysis, computed once per document for the per-document
    tests and the reach tests that read it again."""
    return reference.check(text, analyze_json(text))


def golden_text(name):
    return (INPUTS / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("module", ["reference.py", "populations.py"])
def test_oracle_modules_import_no_flatlie_module(module):
    tree = ast.parse((Path(__file__).parent / module).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [name for name in imported if name.split(".")[0] == "flatlie"]


@pytest.mark.parametrize("name", GOLDEN)
def test_analyze_matches_the_reference_on_the_golden_inputs(name):
    checked(golden_text(name))


@pytest.mark.parametrize("name", catalog.names())
def test_analyze_matches_the_reference_on_the_catalog(name):
    checked(json.dumps(catalog.get(name).document))


def test_golden_population_reaches_every_section():
    """The golden inputs up to dim 9 and the catalog reach both verdicts,
    the split, the class-C witness and the companion."""
    reports = [checked(golden_text(name)) for name in GOLDEN]
    reports += [checked(json.dumps(catalog.get(name).document)) for name in catalog.names()]
    assert len(GOLDEN) == 8
    assert {r["flatness"]["flat"] for r in reports} == {True, False}
    assert any((r["theorem1"] or {}).get("split") for r in reports)
    assert any(r["class_c"].get("witness") for r in reports) and any(r["companion"] for r in reports)


# -- generated documents -----------------------------------------------------

POPULATION = populations.population(34, populations.SHAPES)


@pytest.mark.parametrize("name,doc", POPULATION, ids=[f"{name}-{doc['dim']}-{t}" for t, (name, doc) in enumerate(POPULATION)])
def test_generated_documents_reach_their_declared_answers(name, doc):
    """Every shape of `populations.SHAPES`, four documents each: the report
    passes the reference's check, and the reference's answers are the ones
    the shape declares."""
    expected = populations.answers(checked(json.dumps(doc)))
    assert {key: expected[key] for key in populations.SHAPES[name].answers} == populations.SHAPES[name].answers


def test_generated_documents_reach_every_value_of_every_answer():
    answers = [populations.answers(checked(json.dumps(doc))) for _, doc in POPULATION]
    assert {key: {a[key] for a in answers} for key in populations.VALUES} == populations.VALUES


def test_analyze_matches_the_reference_on_generated_documents():
    """500 documents of dims 2-5 from the `populations.TABLES` shapes, each
    built from a derandomized `st.randoms`; they reach both verdicts, every
    signature kind, the split, the class-C witness and the companion, and
    each has the answers its shape declares."""
    reports = []

    @settings(max_examples=500, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(populations.TABLES), st.randoms(use_true_random=False))
    def agree(name, rng):
        shape = populations.SHAPES[name]
        text = json.dumps(shape.build(rng, rng.choice(shape.dims)))
        report = analyze_json(text)
        reference.check(text, report)
        assert shape.answers.items() <= populations.answers(report).items()
        reports.append(report)

    agree()
    assert len(reports) >= 500
    assert {r["flatness"]["flat"] for r in reports} == {True, False}
    assert {r["signature"]["kind"] for r in reports} == {"riemannian", "lorentzian", "other"}
    assert sum(bool((r["theorem1"] or {}).get("split")) for r in reports) >= 10
    assert sum(bool(r["class_c"].get("witness")) for r in reports) >= 10
    assert sum(bool(r["companion"]) for r in reports) >= 10
