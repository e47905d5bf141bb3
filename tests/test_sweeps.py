"""The sweeps' instance generators: a pinned random stream, and one check
per generated instance."""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

import reference
from flatlie import lie, linalg, sweeps
from flatlie.lie import LieAlgebra
from flatlie.metric import MetricLieAlgebra

#: Every generator the sweeps draw instances from, each branch on its own.
GENERATORS = {
    "random_any": lambda rng, dim: sweeps.random_metric_algebra(rng, dim),
    "random_lorentzian": lambda rng, dim: sweeps.random_metric_algebra(rng, dim, kind="lorentzian"),
    "theorem1_true": sweeps.theorem1_true_instance,
    "class_c_degenerate": lambda rng, dim: sweeps.class_c_instance(rng, dim, True),
    "class_c_nondegenerate": lambda rng, dim: sweeps.class_c_instance(rng, dim, False),
}

#: SHA-256 of `_stream()`: the instances every generator draws, dims 2-6,
#: over fixed seeds.  The sweep goldens pin only verdicts and counts; this
#: pins the instances themselves, so a change to how an instance is built
#: must leave every structure constant, Gram entry and signature as it was.
STREAM_SHA256 = "c311be484095f14f172aba428ad79bb2d88e5ca0a304c45545d06b061b19654e"


def _stream() -> str:
    """The instances as text: for each generator and seed, one rng draws an
    instance of each dim 2-6 in turn, so the continuing stream is pinned."""
    out = []
    for name, generate in GENERATORS.items():
        for seed in range(6):
            rng = random.Random(seed)
            for dim in range(2, 7):
                m = generate(rng, dim)
                out.append([
                    name, seed, dim,
                    [[[str(x) for x in row] for row in plane] for plane in m.algebra.c],
                    [[str(x) for x in row] for row in m.gram],
                    list(m.signature),
                ])
    return json.dumps(out)


def test_instance_stream_is_pinned():
    assert hashlib.sha256(_stream().encode()).hexdigest() == STREAM_SHA256


def test_integer_view_is_the_view_from_brackets_clears():
    """`lie.integer_view` reads a table's integer view straight off the
    table, for `scramble` and for `from_brackets` alike: the fields (C, E)
    of `from_brackets(*table)`, whose Fraction view is the table's
    antisymmetric completion, and the view that clearing that whole
    tensor finds, least common denominator included."""
    rng = random.Random(11)
    tables = [(3, {(0, 1): [F(1, 6), F(3, 4), F(-5, 10)]})]  # distinct denominators: E = 12
    for dim in range(1, 7):
        tables += [sweeps.random_algebra(rng, dim) for _ in range(8)] + [sweeps.class_c_algebra(rng, dim)]
        if dim >= 3:
            tables += [sweeps.rotation_algebra(rng, dim), sweeps.heisenberg_like(rng, dim), sweeps.simple3(dim)]
    for table in tables:
        a = LieAlgebra.from_brackets(*table)
        assert lie.integer_view(*table) == (a.C, a.E)
        for (i, j), v in table[1].items():
            assert a.c[i][j] == tuple(map(F, v)) and a.c[j][i] == tuple(-F(x) for x in v)
        rows, E = linalg.clear_denominators([row for plane in a.c for row in plane])
        assert (linalg.planes(rows, a.dim), E) == (a.C, a.E)
    C, E = lie.integer_view(*tables[0])
    assert E == 12 and C[0][1] == (2, 9, -6) and C[1][0] == (-2, -9, 6)


@pytest.mark.parametrize("name", GENERATORS)
def test_each_generated_instance_is_checked_once(monkeypatch, name):
    """Each generated instance is built once, in its scrambled basis: one
    `LieAlgebra.__init__`, whose `_check` decides antisymmetry and Jacobi,
    and one `MetricLieAlgebra.__init__`, whose `_check` decides symmetry
    and nondegeneracy; no algebra is built, as `from_brackets` builds one,
    in the generator's basis."""
    counts = {}

    def count(cls, method):
        key, fn = f"{cls.__name__}.{method}", getattr(cls, method)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counts[key] = 0
        monkeypatch.setattr(cls, method, wrapper)

    for cls in (LieAlgebra, MetricLieAlgebra):
        for method in ("_check", "__init__"):
            count(cls, method)
    rng = random.Random(7)
    for dim in range(2, 7):
        counts.update(dict.fromkeys(counts, 0))
        GENERATORS[name](rng, dim)
        assert counts == {
            "LieAlgebra._check": 1,
            "LieAlgebra.__init__": 1,
            "MetricLieAlgebra._check": 1,
            "MetricLieAlgebra.__init__": 1,
        }, dim


def test_arrow_closed_form_agrees_with_rank():
    """`sweeps.arrow_nonsingular` decides by the closed form of the arrow
    determinant what `reference.rank(gram) == n` decides by elimination, on
    1,500 seeded draws of `arrow_gram` over both branches and dims 2-6: the
    degenerate branch is never singular, and the other one sometimes is."""
    rng = random.Random(26)
    rejected = {True: 0, False: 0}
    for dim in range(2, 7):
        for degenerate in (True, False):
            for _ in range(150):
                gram = sweeps.arrow_gram(rng, dim, degenerate)
                nonsingular = sweeps.arrow_nonsingular(gram)
                assert nonsingular == (reference.rank(gram) == dim), (dim, degenerate, gram)
                rejected[degenerate] += not nonsingular
    assert rejected[True] == 0 and rejected[False] > 0
