"""`flatlie analyze --json` against the from-definition reference analyzer
(`reference.py`): every golden input up to dim 9, every catalog entry and
generated documents of dims 2-5.  The dim-17 golden input is left to
`test_golden.py` and the packed-width tests of `test_exact_kernel.py`: the
reference's Fraction elimination takes minutes there."""

import ast
import contextlib
import io
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

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


def test_reference_imports_no_flatlie_module():
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [name for name in imported if name.split(".")[0] == "flatlie"]


def test_golden_population_reaches_every_section():
    """The golden inputs up to dim 9 and the catalog reach both verdicts,
    the split, the class-C witness and the companion."""
    reports = [reference.analyze((INPUTS / f"{name}.json").read_text(encoding="utf-8")) for name in GOLDEN]
    reports += [reference.analyze(catalog.get(name).document) for name in catalog.names()]
    assert len(GOLDEN) == 8
    assert {r["flatness"]["flat"] for r in reports} == {True, False}
    assert any((r["theorem1"] or {}).get("split") for r in reports)
    assert any(r["class_c"].get("witness") for r in reports) and any(r["companion"] for r in reports)


@pytest.mark.parametrize("name", GOLDEN)
def test_analyze_matches_the_reference_on_the_golden_inputs(name):
    text = (INPUTS / f"{name}.json").read_text(encoding="utf-8")
    reference.check(text, analyze_json(text))


@pytest.mark.parametrize("name", catalog.names())
def test_analyze_matches_the_reference_on_the_catalog(name):
    document = catalog.get(name).document
    reference.check(document, analyze_json(json.dumps(document)))


# -- generated documents -----------------------------------------------------

def rationals(top=3, dens=(1, 2, 3)):
    return st.builds(F, st.integers(-top, top), st.sampled_from(dens))


def matrices(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def tables(draw, n):
    """(c, gram): a Lie algebra whose Jacobi identity holds by its shape,
    and a Gram matrix, adapted to the shape or not.  R acting on R^(n-1) by
    a matrix A: A scalar (class C), A skew for a diagonal form (the flat
    split of Theorem 1 under that form) or any A; so(3) or the Heisenberg
    algebra plus an abelian summand; the abelian algebra."""
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]

    def put(i, j, column):
        c[i][j], c[j][i] = column, [-x for x in column]

    shape = draw(st.sampled_from(["scalar", "skew", "any", "abelian"] + (["simple", "heisenberg"] if n >= 3 else [])))
    weights = draw(st.lists(st.builds(F, st.integers(1, 3), st.integers(1, 2)), min_size=n, max_size=n))
    adapted = draw(st.booleans())
    gram = None
    if shape in ("scalar", "skew", "any"):
        if shape == "scalar":
            a = draw(rationals().filter(bool))
            A = [[a * (r == k) for k in range(n - 1)] for r in range(n - 1)]
        elif shape == "skew":
            K = draw(matrices(n - 1, rationals()))
            A = [[(K[r][k] - K[k][r]) / weights[r + 1] for k in range(n - 1)] for r in range(n - 1)]
        else:
            A = draw(matrices(n - 1, rationals()))
        for j in range(1, n):
            put(0, j, [F(0)] + [A[r][j - 1] for r in range(n - 1)])
        if adapted and shape == "skew":
            gram = [[weights[i] * (i == j) for j in range(n)] for i in range(n)]
            gram[0][0] *= draw(st.sampled_from((-1, 1)))
        if adapted and shape == "scalar":
            # the restriction to the ideal span(e_1 .. e_{n-1}) is degenerate at e_1,
            # which pairs only with e_0
            gram = [[F(0)] * n for _ in range(n)]
            gram[0][0], gram[0][1], gram[1][0] = draw(rationals()), F(1), F(1)
            for j in range(2, n):
                gram[0][j] = gram[j][0] = draw(rationals())
                gram[j][j] = weights[j]
    elif shape == "simple":
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            put(i, j, [F(int(x == k)) for x in range(n)])
    elif shape == "heisenberg":
        put(0, 1, [F(int(x == 2)) for x in range(n)])
    if gram is None:
        upper = draw(matrices(n, rationals()))
        gram = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return c, gram


@st.composite
def documents(draw):
    """An input document of dim 2-5: a table of `tables` in the basis of
    the columns of P = L U diag(s), L and U unit triangular, so P is
    invertible with rational entries."""
    n = draw(st.integers(2, 5))
    c, gram = draw(tables(n))
    assume(reference.rank(gram) == n)
    L, U = draw(matrices(n, rationals(2))), draw(matrices(n, rationals(2)))
    scales = draw(st.lists(rationals(2).filter(bool), min_size=n, max_size=n))
    lower = [[L[i][j] if j < i else F(i == j) for j in range(n)] for i in range(n)]
    upper = [[U[i][j] * scales[j] if j > i else scales[j] * (i == j) for j in range(n)] for i in range(n)]
    P = reference.mat_mul(lower, upper)
    c, gram = reference.transport(c, P), reference.transport_form(gram, P)
    entries = [x for plane in c for row in plane for x in row] + [x for row in gram for x in row]
    assume(max(max(abs(x.numerator), x.denominator) for x in entries) < 10**6)  # inputdoc.MAX_DIGITS
    brackets = [{"i": i + 1, "j": j + 1, "coeffs": reference.encode(c[i][j])}
                for i in range(n) for j in range(i + 1, n) if any(c[i][j])]
    return {"dim": n, "brackets": brackets, "metric": reference.encode(gram)}


def test_analyze_matches_the_reference_on_generated_documents():
    """500 generated documents, which reach both verdicts, every signature
    kind, the split, the class-C witness and the companion."""
    reports = []

    @settings(max_examples=500, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(documents())
    def agree(document):
        text = json.dumps(document)
        report = analyze_json(text)
        reference.check(text, report)
        reports.append(report)

    agree()
    assert len(reports) >= 500
    assert {r["flatness"]["flat"] for r in reports} == {True, False}
    assert {r["signature"]["kind"] for r in reports} == {"riemannian", "lorentzian", "other"}
    assert sum(bool((r["theorem1"] or {}).get("split")) for r in reports) >= 10
    assert sum(bool(r["class_c"].get("witness")) for r in reports) >= 10
    assert sum(bool(r["companion"]) for r in reports) >= 10
