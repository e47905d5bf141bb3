"""Derived quantities are computed at most once per metric instance."""

import copy
import json
import pickle
import random
from pathlib import Path

import pytest

from flatlie import catalog, classc, inputdoc, linalg, metric, report, sweeps, theorems
from flatlie.cli import main
from flatlie.errors import AntisymmetryError
from flatlie.lie import LieAlgebra
from flatlie.metric import MetricLieAlgebra, is_flat, killing_subalgebra, levi_civita
from flatlie.theorems import theorem1_check


def _instance():
    return sweeps.theorem1_true_instance(random.Random(5), 5)


GOLDEN_INPUTS = sorted(p.stem for p in (Path(__file__).parent / "golden" / "inputs").glob("*.json"))


def _golden_input(name):
    path = Path(__file__).parent / "golden" / "inputs" / f"{name}.json"
    return inputdoc.loads(path.read_text(encoding="utf-8"))


def test_analysis_report_builds_curvature_only_for_the_witness(monkeypatch):
    """is_flat decides in ints and builds its witness from the same ints:
    the Fraction curvature never runs, and the body of is_flat runs once."""
    counts = {"curvature": 0, "is_flat": 0}
    curvature, verdict = metric.curvature, metric.CurvatureVerdict

    def counted_curvature(*args):
        counts["curvature"] += 1
        return curvature(*args)

    def counted_verdict(*args):  # each is_flat body builds one verdict
        counts["is_flat"] += 1
        return verdict(*args)

    monkeypatch.setattr(metric, "curvature", counted_curvature)
    monkeypatch.setattr(metric, "CurvatureVerdict", counted_verdict)
    for m, flat in (
        (_instance(), True),
        (_golden_input("dim6_flat_split_lorentzian"), True),
        (_golden_input("dim6_nonflat_lorentzian"), False),
    ):
        counts.update(curvature=0, is_flat=0)
        section = report.analysis_report(m)["flatness"]
        assert section["flat"] is flat and is_flat(m).flat is flat
        assert counts == {"curvature": 0, "is_flat": 1}


@pytest.mark.parametrize("name", GOLDEN_INPUTS)
def test_structure_constants_and_product_are_cleared_once(monkeypatch, name):
    """A loaded document clears no tensor: `from_brackets` clears its
    bracket table straight to the algebra's integer view, which equals
    clearing the structure constants.  One analysis then clears no tensor
    either: the Levi-Civita product is solved straight into its integer
    view.  A change of basis clears none: the transport hands the new
    algebra its integer view, which equals clearing the new constants."""
    calls = []
    clear = linalg.clear_tensor_denominators

    def counted(T):
        calls.append(len(T))
        return clear(T)

    monkeypatch.setattr(linalg, "clear_tensor_denominators", counted)
    m = _golden_input(name)
    assert len(calls) == 0
    assert _holds_only_its_integer_constants(m.algebra)
    calls.clear()
    report.analysis_report(m)
    assert len(calls) == 0
    moved = m.algebra.change_basis(sweeps.unimodular_int_matrix(random.Random(1), m.dim))
    assert len(calls) == 0
    assert _holds_only_its_own_views(moved)


@pytest.mark.parametrize("name", GOLDEN_INPUTS)
def test_gram_matrix_is_cleared_once_per_analysis(monkeypatch, name):
    """Every layer reads the one cleared view `integer_gram`, so one
    analysis clears G once."""
    m = _golden_input(name)
    calls = []
    clear = linalg.clear_denominators

    def counted(A):
        calls.append(A is m.gram)
        return clear(A)

    monkeypatch.setattr(linalg, "clear_denominators", counted)
    report.analysis_report(m)
    assert calls.count(True) == 1


def test_companion_connection_is_checked_without_a_second_solve(monkeypatch):
    """same_connection reads the metric's product and the companion's form:
    an analysis with a companion inverts one Gram matrix, the metric's own,
    and solves no Koszul product for the companion."""
    m = _golden_input("dim6_flat_split_lorentzian")
    inverted = []
    integer_inverse = linalg.integer_inverse

    def counted(A):
        inverted.append(A)
        return integer_inverse(A)

    monkeypatch.setattr(linalg, "integer_inverse", counted)
    section = report.analysis_report(m)
    assert section["companion"]["same_connection"] is True
    assert inverted == [m.integer_gram()[0]]


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
    monkeypatch.setattr(linalg, "congruence", _counting(counts, "congruence", linalg.congruence))
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


@pytest.mark.parametrize("name", GOLDEN_INPUTS)
def test_no_analysis_builds_the_fraction_product(monkeypatch, name):
    """Every exact layer, the class-C witness included, reads (P, D), so no
    analysis builds the Fraction product of `levi_civita`."""
    built = []
    product = metric.LeviCivitaProduct

    def counted(*args):
        built.append(args)
        return product(*args)

    monkeypatch.setattr(metric, "LeviCivitaProduct", counted)
    m = _golden_input(name)
    section = report.analysis_report(m)
    if section["class_c"]["detected"]:  # the witness was checked, on (P, D)
        assert section["class_c"]["witness"]["closed_form_matches"]
    assert built == []


@pytest.mark.parametrize("seed", [0, 20])
def test_no_sweep_builds_the_fraction_product(monkeypatch, seed):
    """The Killing triple identity, checked on every flat instance of the
    theorem-1 sweep, reads the int planes of (P, D), so no sweep builds the
    Fraction product either."""
    built = []
    product = metric.LeviCivitaProduct

    def counted(*args):
        built.append(args)
        return product(*args)

    monkeypatch.setattr(metric, "LeviCivitaProduct", counted)
    results = sweeps.run_all(seed, 20)
    assert all(r.ok for r in results)
    theorem1 = next(r for r in results if r.name == "theorem1_equivalence")
    assert int(theorem1.notes.split()[0]) > 0  # the triple identity ran
    assert built == []


@pytest.mark.parametrize("name", catalog.names())
def test_no_geodesic_run_builds_the_fraction_product(monkeypatch, capsys, tmp_path, name):
    """The integrator's float operator is read off (P, D), so a `geodesic`
    run builds no Fraction product either."""
    built = []
    product = metric.LeviCivitaProduct

    def counted(*args):
        built.append(args)
        return product(*args)

    monkeypatch.setattr(metric, "LeviCivitaProduct", counted)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(catalog.get(name).document))
    v0 = ",".join(["1"] * catalog.build(name).dim)
    assert main(["geodesic", "--json", "-i", str(path), "--v0", v0, "--t-max", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] > 0
    assert built == []


def test_repeated_calls_return_the_same_object():
    m = _instance()
    for fn in (is_flat, levi_civita, killing_subalgebra, theorem1_check):
        assert fn(m) is fn(m)
    assert m.algebra.derived_subalgebra() is m.algebra.derived_subalgebra()


def _holds_only_its_integer_constants(a):
    """The memo of an algebra nothing has been asked of: the integer view
    its Jacobi check read, equal to clearing its own structure constants."""
    return a._memo == {LieAlgebra.integer_constants.key: linalg.clear_tensor_denominators(a.c)}


def _holds_only_its_own_views(x):
    """The memo of an instance built by a change of basis, nothing asked of
    it yet: its own integer views, each equal to clearing its own fields,
    and nothing else (the algebra's view alone, for a LieAlgebra)."""
    if isinstance(x, LieAlgebra):
        return _holds_only_its_integer_constants(x)
    Gi, g = linalg.clear_denominators(x.gram)
    own = {MetricLieAlgebra.integer_gram.key: (tuple(map(tuple, Gi)), g)}
    return x._memo == own and _holds_only_its_own_views(x.algebra)


def test_memo_is_invisible_to_eq_hash_and_repr():
    """Sweep instances are built by a change of basis, so a fresh one holds
    its own integer views; an analysed one holds many more values.  Neither
    shows in ==, hash, repr or pickle."""
    m = _instance()
    fresh = _instance()
    report.analysis_report(m)
    assert len(m._memo) > 1 and len(m.algebra._memo) > 1
    assert _holds_only_its_own_views(fresh)
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    assert m.algebra == fresh.algebra and hash(m.algebra) == hash(fresh.algebra)
    assert repr(m.algebra) == repr(fresh.algebra)
    assert pickle.loads(pickle.dumps(m)) == m


def test_copies_are_rebuilt_by_the_constructor_without_the_memo():
    """Pickle, copy and _replace go through the checking constructor, so a
    copy starts with an empty memo and a bad replacement is refused."""
    m = _instance()
    report.analysis_report(m)
    for copy_of_m in (pickle.loads(pickle.dumps(m)), copy.copy(m), m._replace(gram=m.gram)):
        assert copy_of_m == m and copy_of_m is not m
        assert copy_of_m._memo == {} and copy_of_m.signature == m.signature
    assert _holds_only_its_integer_constants(pickle.loads(pickle.dumps(m.algebra)))
    c = [list(plane) for plane in m.algebra.c]
    c[0][1] = tuple(x + 1 for x in c[0][1])  # no longer -c[1][0]
    with pytest.raises(AntisymmetryError):
        m.algebra._replace(c=tuple(map(tuple, c)))


def test_derived_instances_hold_only_their_own_views():
    """A metric made by scale_gram starts with an empty memo.  One made by
    change_basis starts with its own integer views, handed over by the
    transport: equal to clearing its own fields, and nothing read or copied
    from the analysed parent's memo."""
    m = _instance()
    report.analysis_report(m)
    assert m.scale_gram(2)._memo == {}
    moved = m.change_basis(sweeps.unimodular_int_matrix(random.Random(1), m.dim))
    assert _holds_only_its_own_views(moved)
    parent_values = [id(v) for memo in (m._memo, m.algebra._memo) for v in memo.values()]
    assert not any(id(v) in parent_values for memo in (moved._memo, moved.algebra._memo) for v in memo.values())


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
