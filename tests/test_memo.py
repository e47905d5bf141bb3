"""Derived quantities are computed at most once per metric instance."""

import copy
import json
import pickle
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from flatlie import catalog, classc, inputdoc, linalg, metric, report, sweeps, theorems
from flatlie.cli import main
from flatlie.errors import AntisymmetryError
from flatlie.lie import LieAlgebra
from flatlie.metric import MetricLieAlgebra, integer_product, is_flat, killing_subalgebra
from flatlie.theorems import theorem1_check


def _instance():
    return sweeps.theorem1_true_instance(random.Random(5), 5)


GOLDEN_INPUTS = sorted(p.stem for p in (Path(__file__).parent / "golden" / "inputs").glob("*.json"))


def _golden_input(name):
    path = Path(__file__).parent / "golden" / "inputs" / f"{name}.json"
    return inputdoc.loads(path.read_text(encoding="utf-8"))


def test_analysis_report_builds_curvature_only_for_the_witness(monkeypatch):
    """is_flat decides in ints and builds its witness from the same ints,
    and the body of is_flat runs once."""
    counts = {"is_flat": 0}
    verdict = metric.CurvatureVerdict

    def counted_verdict(*args):  # each is_flat body builds one verdict
        counts["is_flat"] += 1
        return verdict(*args)

    monkeypatch.setattr(metric, "CurvatureVerdict", counted_verdict)
    for m, flat in (
        (_instance(), True),
        (_golden_input("dim6_flat_split_lorentzian"), True),
        (_golden_input("dim6_nonflat_lorentzian"), False),
    ):
        counts.update(is_flat=0)
        section = report.analysis_report(m)["flatness"]
        assert section["flat"] is flat and is_flat(m).flat is flat
        assert counts == {"is_flat": 1}


def _is_cleared_view(x):
    """Whether the fields of a record are its Fraction view cleared over
    its least denominator: (C, E) for an algebra, (G, g) for a metric."""
    if isinstance(x, LieAlgebra):
        rows, E = linalg.clear_denominators([row for plane in x.c for row in plane])
        return (linalg.planes(rows, x.dim), E) == (x.C, x.E)
    G, g = linalg.clear_denominators(x.gram)
    return (tuple(map(tuple, G)), g) == (x.G, x.g) and _is_cleared_view(x.algebra)


def _fraction_views_built(monkeypatch):
    """Record each record whose Fraction view, `LieAlgebra.c`,
    `MetricLieAlgebra.gram` or `Subspace.basis`, is read from now on;
    returns that list."""
    built = []
    for cls, name in ((LieAlgebra, "c"), (MetricLieAlgebra, "gram"), (linalg.Subspace, "basis")):
        def counted(self, view=vars(cls)[name].fget):
            built.append(self)
            return view(self)

        monkeypatch.setattr(cls, name, property(counted))
    return built


@pytest.mark.parametrize("name", GOLDEN_INPUTS)
def test_loaded_records_hold_their_cleared_views(name):
    """A loaded document builds each record with nothing memoized: the
    loader clears the bracket table straight to (C, E) and the Gram matrix
    to (G, g), and each equals clearing its record's Fraction view.  A
    change of basis starts its new records empty too."""
    m = _golden_input(name)
    assert m._memo == {} and m.algebra._memo == {}
    moved = m.change_basis(sweeps.unimodular_int_matrix(random.Random(1), m.dim))
    assert moved._memo == {} and moved.algebra._memo == {}
    assert _is_cleared_view(m) and _is_cleared_view(moved)


def _counted_inits(monkeypatch):
    """Count the `__init__` calls of both records from now on."""
    counts = {LieAlgebra: 0, MetricLieAlgebra: 0}
    for cls in counts:
        def counted(self, *args, init=cls.__init__, cls=cls):
            counts[cls] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_every_construction_route_runs_init_once(monkeypatch):
    """Each named constructor, change of basis, rescaling, companion and
    copy builds its new record through the one checking `__init__`, once."""
    m = _golden_input("dim6_flat_split_lorentzian")
    P = sweeps.unimodular_int_matrix(random.Random(2), m.dim)
    counts = _counted_inits(monkeypatch)
    routes = {
        "from_brackets": (lambda: LieAlgebra.from_brackets(2, {(0, 1): [0, 1]}), 1, 0),
        "abelian": (lambda: LieAlgebra.abelian(3), 1, 0),
        "LieAlgebra.in_basis": (lambda: LieAlgebra.in_basis((m.algebra.C, m.algebra.E), P), 1, 0),
        "LieAlgebra.change_basis": (lambda: m.algebra.change_basis(P), 1, 0),
        "make": (lambda: MetricLieAlgebra.make(m.algebra, m.gram), 0, 1),
        "MetricLieAlgebra.in_basis": (lambda: MetricLieAlgebra.in_basis((m.algebra.C, m.algebra.E), m.G, P, m.g), 1, 1),
        "MetricLieAlgebra.change_basis": (lambda: m.change_basis(P), 1, 1),
        "scale_gram": (lambda: m.scale_gram(F(-2, 3)), 0, 1),
        "riemannian_companion": (lambda: theorems.riemannian_companion(m), 0, 1),
        "parse_document": (lambda: inputdoc.parse_document(inputdoc.emit_document(m)), 1, 1),
        "pickle": (lambda: pickle.loads(pickle.dumps(m)), 1, 1),
        "copy": (lambda: copy.copy(m), 0, 1),
        "_replace": (lambda: m._replace(g=m.g), 0, 1),
        "_make": (lambda: LieAlgebra._make(m.algebra), 1, 0),
    }
    for route, (build, lie_inits, metric_inits) in routes.items():
        counts.update(dict.fromkeys(counts, 0))
        build()
        assert counts == {LieAlgebra: lie_inits, MetricLieAlgebra: metric_inits}, route


def test_companion_connection_is_checked_without_a_second_solve(monkeypatch):
    """same_connection reads the metric's product and the companion's form:
    an analysis with a companion inverts one Gram matrix, the metric's own,
    from the congruence its constructor kept, runs no second elimination
    for it, and solves no Koszul product for the companion."""
    m = _golden_input("dim6_flat_split_lorentzian")
    calls = {"integer_inverse": [], "congruence_inverse": []}

    def recording(name, fn):
        def wrapper(*args):
            calls[name].append(args)
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(linalg, name, recording(name, getattr(linalg, name)))
    section = report.analysis_report(m)
    assert section["companion"]["same_connection"] is True
    assert theorems.riemannian_companion(m)._congruence != m._congruence
    assert calls == {"integer_inverse": [], "congruence_inverse": [m._congruence]}


def _counting(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_companion_reuses_the_timelike_witness_and_checks_once(monkeypatch):
    """One analysis with a companion diagonalizes two forms, the Killing
    restriction (for Theorem 1's timelike witness, which the companion
    reflects in) and the companion's own Gram matrix (its signature), and
    checks the companion's connection once.  A second call reads the
    memoized companion and repeats neither."""
    m = _golden_input("dim6_flat_split_lorentzian")
    counts = {"congruence": 0, "same_connection": 0}
    # `congruence` and the constructor both diagonalize through `congruence_of_rows`
    monkeypatch.setattr(linalg, "congruence_of_rows", _counting(counts, "congruence", linalg.congruence_of_rows))
    monkeypatch.setattr(theorems, "same_connection", _counting(counts, "same_connection", theorems.same_connection))
    section = report.analysis_report(m)
    assert section["companion"]["same_connection"] is True
    assert counts == {"congruence": 2, "same_connection": 1}
    assert theorems.riemannian_companion(m).is_riemannian
    assert counts == {"congruence": 2, "same_connection": 1}


def test_kernel_eliminates_once(monkeypatch):
    counts = {"bareiss": 0}
    monkeypatch.setattr(linalg, "_bareiss", _counting(counts, "bareiss", linalg._bareiss))
    K = linalg.kernel([[1, 2, 3, 4], [2, 4, 7, 8]])
    assert K.dim == 2 and counts == {"bareiss": 1}


def _fraction_products_built(monkeypatch):
    """Record each `linalg.fraction_tensor` call from now on; returns that
    list."""
    built = []
    fraction_tensor = linalg.fraction_tensor

    def counted_tensor(*args):
        built.append(("fraction_tensor", args))
        return fraction_tensor(*args)

    monkeypatch.setattr(linalg, "fraction_tensor", counted_tensor)
    return built


@pytest.mark.parametrize("name", GOLDEN_INPUTS + catalog.names())
def test_no_analysis_builds_a_fraction_product_or_view(monkeypatch, name):
    """Every exact layer reads (P, D) and the class-C witness compares int
    views, so no analysis builds a Fraction product tensor; every layer
    reads the fields (C, E) and (G, g), and the report writes each subspace
    and the companion's Gram matrix from their int views, so no analysis
    reads any `c` or `gram`, and the one `Subspace.basis` it reads is the
    class-C radical's, for the Fraction field `WitnessBasis.e`."""
    m = _golden_input(name) if name in GOLDEN_INPUTS else catalog.build(name)
    views = _fraction_views_built(monkeypatch)
    built = _fraction_products_built(monkeypatch)
    section = report.analysis_report(m)
    witness = section["class_c"].get("witness")
    if witness:  # the witness was checked, on int views
        assert witness["closed_form_matches"]
        assert len(views) == 1 and views[0] is classc._derived_radical(m)
    else:
        assert views == []
    assert built == []


@pytest.mark.parametrize("name", GOLDEN_INPUTS + catalog.names())
def test_no_verdict_reads_a_fraction_view(monkeypatch, name):
    """The Killing subalgebra, Theorem 1's split check (Lorentzian or
    Riemannian) and, on a class-C algebra, Theorem 2's check decide on the
    int fields alone: no `c`, `gram` or subspace `basis` is read."""
    m = _golden_input(name) if name in GOLDEN_INPUTS else catalog.build(name)
    views = _fraction_views_built(monkeypatch)
    killing_subalgebra(m)
    if m.is_lorentzian:
        theorem1_check(m)
    elif m.is_riemannian:
        theorems.riemannian_flat_check(m)
    if classc.detect(m.algebra) is not None:
        classc.theorem2_check(m)
    assert views == []


@pytest.mark.parametrize("seed", [0, 20])
def test_no_sweep_builds_a_fraction_product_or_view(monkeypatch, seed):
    """The Killing triple identity, checked on every flat instance of the
    theorem-1 sweep, reads the int planes of (P, D), so no sweep builds the
    Fraction product either; and every sweep decides on the fields (C, E),
    (G, g) and each subspace's (B, b), reading no `c`, `gram` or `basis`."""
    views = _fraction_views_built(monkeypatch)
    built = _fraction_products_built(monkeypatch)
    results = sweeps.run_all(seed, 20)
    assert all(r.ok for r in results)
    theorem1 = next(r for r in results if r.name == "theorem1_equivalence")
    assert int(theorem1.notes.split()[0]) > 0  # the triple identity ran
    assert built == [] and views == []


@pytest.mark.parametrize("name", catalog.names())
def test_no_geodesic_run_builds_a_fraction_product_or_view(monkeypatch, capsys, tmp_path, name):
    """The integrator's float operator is read off (P, D) and its energy
    form off (G, g), so a `geodesic` run builds no Fraction product and
    reads neither `c` nor `gram`."""
    views = _fraction_views_built(monkeypatch)
    built = _fraction_products_built(monkeypatch)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(catalog.get(name).document))
    v0 = ",".join(["1"] * catalog.build(name).dim)
    assert main(["geodesic", "--json", "-i", str(path), "--v0", v0, "--t-max", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] > 0
    assert built == [] and views == []


def test_repeated_calls_return_the_same_object():
    m = _instance()
    for fn in (is_flat, integer_product, killing_subalgebra, theorem1_check):
        assert fn(m) is fn(m)
    assert m.algebra.derived_subalgebra() is m.algebra.derived_subalgebra()


def test_memo_is_invisible_to_eq_hash_and_repr():
    """A fresh sweep instance holds nothing in its memo; an analysed one
    holds many values.  Neither shows in ==, hash, repr or pickle, which
    follow the fields."""
    m = _instance()
    fresh = _instance()
    report.analysis_report(m)
    assert len(m._memo) > 1 and len(m.algebra._memo) > 1
    assert fresh._memo == {} and fresh.algebra._memo == {}
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    assert m.algebra == fresh.algebra and hash(m.algebra) == hash(fresh.algebra)
    assert repr(m.algebra) == repr(fresh.algebra)
    assert pickle.loads(pickle.dumps(m)) == m


def test_copies_are_rebuilt_by_the_constructor_without_the_memo():
    """Pickle, copy and _replace go through the checking constructor, so a
    copy starts with an empty memo and a bad replacement is refused."""
    m = _instance()
    report.analysis_report(m)
    for copy_of_m in (pickle.loads(pickle.dumps(m)), copy.copy(m), m._replace(G=m.G)):
        assert copy_of_m == m and copy_of_m is not m
        assert copy_of_m._memo == {} and copy_of_m.signature == m.signature
    assert pickle.loads(pickle.dumps(m.algebra))._memo == {}
    C = [list(plane) for plane in m.algebra.C]
    C[0][1] = tuple(x + m.algebra.E for x in C[0][1])  # no longer -C[1][0]
    with pytest.raises(AntisymmetryError):
        m.algebra._replace(C=tuple(map(tuple, C)))


@pytest.mark.parametrize("name", GOLDEN_INPUTS)
def test_analysis_reads_each_entry_bound_once(monkeypatch, name):
    """Loading and analysing a golden input hands `linalg.max_abs` no
    tensor twice: max |C| is read at construction (`entry_bound`), max |P|
    once with the product view (`product_bound`), and every packed check
    reads those two."""
    seen = []
    max_abs = linalg.max_abs

    def spied(T):
        seen.append(T)
        return max_abs(T)

    monkeypatch.setattr(linalg, "max_abs", spied)
    m = _golden_input(name)
    report.analysis_report(m)
    assert len({id(T) for T in seen}) == len(seen)
    assert any(T is m.algebra.C for T in seen) and any(T is integer_product(m)[0] for T in seen)


def test_entry_bound_survives_every_copy():
    """`entry_bound` lives outside the tuple and is set by `_check`, so
    each copy that pickle, copy, `_replace` and `_make` builds holds
    max |C| again; `product_bound` is max |P|."""
    m = _instance()
    a = m.algebra
    copies = (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a), a._replace(E=a.E), LieAlgebra._make(a))
    for x in (a, *copies, pickle.loads(pickle.dumps(m)).algebra):
        assert x.entry_bound == linalg.max_abs(x.C) == linalg.max_abs(a.C) > 0
        assert type(x.entry_bound) is int
    assert metric.product_bound(m) == linalg.max_abs(integer_product(m)[0])
    assert LieAlgebra.abelian(3).entry_bound == 0


def test_derived_instances_hold_only_their_own_views():
    """A metric made by scale_gram or change_basis starts with an empty
    memo, nothing copied from the analysed parent's, and its fields are
    its own Fraction view cleared over its least denominator."""
    m = _instance()
    report.analysis_report(m)
    scaled = m.scale_gram(F(-4, 6))
    moved = m.change_basis(sweeps.unimodular_int_matrix(random.Random(1), m.dim))
    for x in (scaled, moved):
        assert x._memo == {} and (x.algebra is m.algebra or x.algebra._memo == {})
        assert _is_cleared_view(x)
    assert scaled.gram == tuple(tuple(F(-2, 3) * v for v in row) for row in m.gram)


def test_class_c_analysis_detects_once(monkeypatch):
    """One analyze of a flat class-C metric runs the bodies of detect,
    theorem2_check and the derived-algebra radical once each."""
    m = _golden_input("dim6_flat_class_c")
    counts = {"detect": 0, "theorem2": 0, "radical": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # each body builds its result exactly once, so constructions count bodies
    monkeypatch.setattr(classc, "ClassCStructure", counting("detect", classc.ClassCStructure))
    monkeypatch.setattr(classc, "Theorem2Report", counting("theorem2", classc.Theorem2Report))
    monkeypatch.setattr(linalg, "radical", counting("radical", linalg.radical))
    section = report.analysis_report(m)["class_c"]
    assert section["detected"] and section["witness"]["closed_form_matches"]
    assert counts == {"detect": 1, "theorem2": 1, "radical": 1}


@pytest.mark.parametrize("name", GOLDEN_INPUTS)
def test_analysis_tests_each_subspace_for_abelianness_once(monkeypatch, name):
    """One analyze runs `LieAlgebra.is_abelian_subspace` at most once per
    distinct (algebra, subspace) pair: the derived algebra, which
    `classc.detect` and the split check both need, is tested through the
    memoized `is_2_solvable`."""
    pairs = []
    is_abelian_subspace = LieAlgebra.is_abelian_subspace

    def spied(a, V):
        pairs.append((a, V))
        return is_abelian_subspace(a, V)

    monkeypatch.setattr(LieAlgebra, "is_abelian_subspace", spied)
    m = _golden_input(name)
    report.analysis_report(m)
    assert pairs and len({(id(a), V) for a, V in pairs}) == len(pairs)
    assert m.algebra.is_2_solvable() is is_abelian_subspace(m.algebra, m.algebra.derived_subalgebra())
