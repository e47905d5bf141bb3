"""`analyze --json` pinned byte for byte across refactors.

`golden/analyze/<name>.json` is the expected stdout for each catalog entry
and for each document in `golden/inputs/`, all written with
`inputdoc.emit_document`: four dim-6 instances (flat split Lorentzian, flat
class C, flat Riemannian, non-flat Lorentzian), a non-flat Lorentzian
dim-8 document of 6-digit rationals, an orthogonal sum of a flat rotation
algebra, an abelian plane and a non-flat R x R^2 with interleaved
coordinates, so its curvature witness is the pair (3, 6), not the first,
and the four `populations.SHAPES` documents of `GENERATED`, built at
`random.Random(1)`: dense 6-digit documents whose reports pin entries of
hundreds of digits and whose packed checks pass `linalg.MAX_PACKED_WIDTH`,
and a flat split in its adapted basis, whose kernel skips exact zeros.
Regenerate a file only when the report is meant to change:

    PYTHONPATH=src python -m flatlie.cli analyze --json -i DOC > tests/golden/analyze/NAME.json

`golden/sweep/rot3_seed<S>.json` is the stdout of `analyze --json --sweep N
--seed S` on the `rot3` catalog entry, which pins every sweep verdict and
count: N = 40 for seeds 5 and 9, and N = 100 for seed 13, which reaches
more instances of dims 5 and 6.  Regenerate with

    PYTHONPATH=src python -m flatlie.cli catalog show rot3 > rot3.json
    PYTHONPATH=src python -m flatlie.cli analyze --json --sweep N --seed S -i rot3.json > tests/golden/sweep/rot3_seedS.json

`golden/geodesic/` pins the float integrator.  Each line of `cases.txt`
reads `FILE NAME V0 T_MAX`: FILE is the `geodesic --json` stdout on the
catalog entry NAME with `--v0=V0 --t-max T_MAX`, or, for a `.csv` FILE, the
`--csv` export of that run, which prints every sample's `t`, `v` and norm
with `repr`, signed zeros included.  Every catalog entry has a ray that
reaches the horizon; `classc2_flat` and `classc3_flat` also have a blow-up
ray.  Regenerate them only when the trajectories are meant to change, all
at once through `flatlie.cli.main`:

    PYTHONPATH=src python tests/golden/regen_geodesic.py
"""

import json
import random
from pathlib import Path

import pytest

import populations
from flatlie import catalog, inputdoc
from flatlie.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = sorted(p.stem for p in (GOLDEN / "inputs").glob("*.json"))
GENERATED = {  # input name: (shape, dim)
    "dim9_dense_nonflat_lorentzian": ("dense_document", 9),
    "dim17_dense_flat_split_lorentzian": ("dense_flat_split", 17),
    "dim7_dense_flat_class_c": ("dense_flat_class_c", 7),
    "dim9_adapted_flat_split_lorentzian": ("flat_split_adapted", 9),
}
GEODESIC_CASES = [
    line.split() for line in (GOLDEN / "geodesic" / "cases.txt").read_text(encoding="utf-8").splitlines()
]


def _analyze(capsys, path, *opts) -> str:
    assert main(["analyze", "--json", *opts, "-i", str(path)]) == 0
    return capsys.readouterr().out


def _expected(name: str) -> str:
    return (GOLDEN / "analyze" / f"{name}.json").read_text(encoding="utf-8")


def test_golden_inputs_present():
    assert len(INPUTS) == 9


@pytest.mark.parametrize("name", GENERATED)
def test_generated_inputs_are_their_registry_documents(name):
    shape, n = GENERATED[name]
    doc = populations.SHAPES[shape].build(random.Random(1), n)
    assert (GOLDEN / "inputs" / f"{name}.json").read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_analyze_json_matches_golden(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(catalog.get(name).document))
    assert _analyze(capsys, path) == _expected(name)


@pytest.mark.parametrize("name", INPUTS)
def test_input_analyze_json_matches_golden(capsys, name):
    assert _analyze(capsys, GOLDEN / "inputs" / f"{name}.json") == _expected(name)


@pytest.mark.parametrize("seed, count", [(5, 40), (9, 40), (13, 100)])
def test_rot3_sweep_json_matches_golden(capsys, tmp_path, seed, count):
    path = tmp_path / "rot3.json"
    path.write_text(json.dumps(catalog.get("rot3").document))
    out = _analyze(capsys, path, "--sweep", str(count), "--seed", str(seed))
    assert out == (GOLDEN / "sweep" / f"rot3_seed{seed}.json").read_text(encoding="utf-8")


def test_geodesic_cases_cover_the_catalog():
    assert {name for _, name, _, _ in GEODESIC_CASES} == set(catalog.names())
    files = {f for f, _, _, _ in GEODESIC_CASES}
    assert {"classc2_flat_blowup.json", "classc3_flat_blowup.json", "rot3.csv", "classc2_flat_blowup.csv"} <= files
    assert files == {p.name for p in (GOLDEN / "geodesic").iterdir()} - {"cases.txt"}


@pytest.mark.parametrize("golden, name, v0, t_max", GEODESIC_CASES, ids=[c[0] for c in GEODESIC_CASES])
def test_geodesic_output_matches_golden(capsys, tmp_path, golden, name, v0, t_max):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(catalog.get(name).document))
    args = ["geodesic", "-i", str(path), f"--v0={v0}", "--t-max", t_max]
    expected = (GOLDEN / "geodesic" / golden).read_bytes()
    if golden.endswith(".csv"):
        out = tmp_path / golden
        assert main([*args, "--csv", str(out)]) == 0
        assert out.read_bytes() == expected
    else:
        assert main([*args, "--json"]) == 0
        assert capsys.readouterr().out.encode() == expected


@pytest.mark.parametrize("name", INPUTS)
def test_input_documents_round_trip_through_emit_document(name):
    """Each input was written by emit_document, so loading it and emitting
    again gives the same document, which loads to the same metric."""
    doc = json.loads((GOLDEN / "inputs" / f"{name}.json").read_text(encoding="utf-8"))
    m = inputdoc.parse_document(doc)
    emitted = inputdoc.emit_document(m)
    assert emitted == doc
    assert inputdoc.loads(json.dumps(emitted)) == m


def _input(tmp_path, name) -> Path:
    if name in INPUTS:
        return GOLDEN / "inputs" / f"{name}.json"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(catalog.get(name).document))
    return path


@pytest.mark.parametrize("name", catalog.names() + INPUTS)
def test_subcommands_serialize_like_the_report(capsys, tmp_path, name):
    """Each subcommand's --json output is the matching part of the golden
    report, and its exit code follows that part's verdict."""
    golden = json.loads(_expected(name))
    path = _input(tmp_path, name)

    def run(command):
        code = main([command, "--json", "-i", str(path)])
        out = capsys.readouterr().out
        return code, json.loads(out) if out else None

    assert run("validate") == (0, {"ok": True, "dim": golden["validation"]["dim"], "signature": golden["signature"]})
    flatness = golden["flatness"]
    assert run("flat") == (0 if flatness["flat"] else 1, flatness)
    assert run("killing") == (0, golden["killing_subalgebra"])
    t1 = golden["theorem1"]
    assert run("theorem1") == ((2, None) if t1 is None else (0 if t1["direct_side"] else 1, t1))
    class_c = golden["class_c"]
    t2 = class_c.get("theorem2")
    assert run("theorem2") == ((2, None) if t2 is None else (0 if t2["flat"] else 1, t2))
    companion = golden["companion"]
    if golden["signature"]["kind"] != "lorentzian":
        expected = (2, None)
    else:
        expected = (1, None) if companion is None else (0, companion)
    assert run("companion") == expected
