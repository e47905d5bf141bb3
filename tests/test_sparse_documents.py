"""The analyze kernel on sparse documents (`sparse_documents.py`): rotation,
class-C and so(3) + R^m instances of dims 6-9, scrambled bidiagonally,
whose exact zeros the kernel skips.  Every report matches the reference
analyzer, and the population reaches every skipping branch: a zero `L_k`,
a curvature witness with a zero bracket, a pair with exactly one zero
left multiplication, and Killing rows that are zero or repeat another."""

import json
from collections import Counter
from fractions import Fraction as F

import pytest

import reference
import sparse_documents
from flatlie import inputdoc, metric
from test_reference import analyze_json

POPULATION = sparse_documents.population(34)
FLAT = {"flat_split", "riemannian_flat", "classc_flat"}


@pytest.mark.parametrize("family,doc", POPULATION, ids=[f"{f}-{d['dim']}-{t}" for t, (f, d) in enumerate(POPULATION)])
def test_analyze_matches_the_reference_on_sparse_documents(family, doc):
    text = json.dumps(doc)
    report = analyze_json(text)
    reference.check(text, report)
    assert report["flatness"]["flat"] is (family in FLAT)


def test_sparse_population_reaches_every_zero_skipping_branch():
    assert {(f, d["dim"]) for f, d in POPULATION} == {(f, n) for f in sparse_documents.FAMILIES for n in sparse_documents.DIMS}
    reached = Counter()
    for _, doc in POPULATION:
        m = inputdoc.parse_document(doc)
        n, C = m.dim, m.algebra.C
        P, _ = metric.integer_product(m)
        zero = [not any(map(any, plane)) for plane in P]  # zero[k]: L_{e_k} = 0
        reached["zero L_k"] += any(zero)
        reached["one of L_i, L_j zero"] += any(zero[i] != zero[j] for i in range(n) for j in range(i + 1, n))
        verdict = metric.is_flat(m)
        if not verdict.flat:
            i, j, _ = verdict.witness
            reached["witness with C_ij = 0"] += not any(C[i][j])
        A, _ = metric.killing_rows(m)
        nonzero = [row for row in A if any(row)]
        classes = {tuple(F(x, next(y for y in row if y)) for x in row) for row in nonzero}
        reached["zero and repeated Killing rows"] += len(nonzero) < len(A) and len(classes) < len(nonzero)
    assert all(reached[branch] >= 2 for branch in (
        "zero L_k", "one of L_i, L_j zero", "witness with C_ij = 0", "zero and repeated Killing rows")), reached
