import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import populations
from flatlie import catalog, inputdoc, linalg, sweeps
from flatlie.cli import main
from flatlie.errors import ParseError
from flatlie.lie import LieAlgebra
from flatlie.metric import MetricLieAlgebra, is_flat


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_INPUTS = sorted(p.stem for p in (GOLDEN / "inputs").glob("*.json"))
#: the document commands' output on every golden input and catalog entry,
#: written by golden/regen_commands.py
COMMAND_CASES = json.loads((GOLDEN / "commands.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(catalog.get(name).document))
    return str(path)


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    for name in catalog.names():
        assert name in out


def test_catalog_list_json_is_the_array_of_names(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--json")
    assert code == 0
    assert json.loads(out) == catalog.names()


def test_catalog_show_round_trips(capsys):
    for name in catalog.names():
        code, out, _ = run(capsys, "catalog", "show", name)
        assert code == 0
        m1 = inputdoc.loads(out)
        # parse -> emit -> parse gives identical structures
        m2 = inputdoc.parse_document(inputdoc.emit_document(m1))
        assert m1.algebra.c == m2.algebra.c
        assert m1.gram == m2.gram
        assert m1.algebra.labels == m2.algebra.labels


def test_catalog_list_rejects_an_entry_name(capsys):
    code, out, err = run(capsys, "catalog", "list", "extra")
    assert (code, out) == (2, "")
    assert "extra" in err and err.startswith("error: ")


def test_catalog_unknown_entry(capsys):
    code, _, err = run(capsys, "catalog", "show", "nonexistent")
    assert code == 2
    assert "unknown catalog entry" in err


def test_validate_ok(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "-i", write_doc(tmp_path, "rot3"))
    assert code == 0
    assert "ok" in out


def test_validate_rejects_jacobi_violation(capsys, tmp_path):
    doc = {
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": ["0", "0", "1"]},
            {"i": 2, "j": 3, "coeffs": ["0", "1", "0"]},
        ],
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "-i", str(path))
    assert code == 2
    assert "Jacobi" in err and "(1, 2, 3)" in err


def test_validate_rejects_degenerate_metric(capsys, tmp_path):
    doc = {"dim": 2, "brackets": [], "metric": [["1", "1"], ["1", "1"]]}
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "-i", str(path))
    assert code == 2
    assert "nondegenerate" in err


def test_validate_rejects_bad_rational(capsys, tmp_path):
    doc = {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": ["0", "1/0"]}],
           "metric": [["1", "0"], ["0", "1"]]}
    path = tmp_path / "rat.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "-i", str(path))
    assert code == 2
    assert "invalid rational" in err


def test_validate_rejects_float_metric(capsys, tmp_path):
    doc = {"dim": 2, "brackets": [], "metric": [[1.5, 0], [0, 1]]}
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "-i", str(path))
    assert code == 2
    assert "float" in err


def test_analyze_rejects_oversized_rationals(capsys, tmp_path):
    """More than MAX_DIGITS digits in a numerator or denominator is exit 2
    naming the field: a 5001-digit entry used to be a ValueError traceback
    (exit 1) at parse time, and a 4000-digit bracket coefficient one when
    the curvature witness was serialized."""
    heisenberg = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": ["0", "0", "1"]}],
                  "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    metric_entry = json.loads(json.dumps(heisenberg))
    metric_entry["metric"][0][0] = "1" + "0" * 5000
    coefficient = json.loads(json.dumps(heisenberg))
    coefficient["brackets"][0]["coeffs"][2] = "1" + "0" * 3999
    denominator = json.loads(json.dumps(heisenberg))
    denominator["metric"][1][1] = "1/" + "9" * (inputdoc.MAX_DIGITS + 1)
    cases = [
        (json.dumps(metric_entry), "metric[0][0]"),
        (json.dumps(coefficient), "brackets[0].coeffs[2]"),
        (json.dumps(denominator), "metric[1][1]"),
        (json.dumps(heisenberg).replace('"0", "0", "1"]}', '"0", "0", 1' + "0" * 5000 + "]}"), "brackets[0].coeffs[2]"),
    ]
    for text, field in cases:
        path = tmp_path / "big.json"
        path.write_text(text)
        code, out, err = run(capsys, "analyze", "--json", "-i", str(path))
        assert (code, out) == (2, "")
        assert field in err and f"more than {inputdoc.MAX_DIGITS} digits" in err
    at_cap = json.loads(json.dumps(heisenberg))
    at_cap["metric"][0][0] = "9" * inputdoc.MAX_DIGITS + "/" + "7" * inputdoc.MAX_DIGITS
    at_cap["brackets"][0]["coeffs"][2] = -int("9" * inputdoc.MAX_DIGITS)
    path.write_text(json.dumps(at_cap))
    code, out, _ = run(capsys, "analyze", "--json", "-i", str(path))
    assert code == 0 and json.loads(out)["flatness"]["flat"] is False


def test_analyze_prints_witnesses_beyond_the_int_str_digit_limit(capsys, tmp_path):
    """A curvature witness may have more digits than str() converts under
    sys.get_int_max_str_digits(); analyze --json still prints it in full as
    valid JSON (it used to exit 1 with a ValueError traceback), and leaves
    the process-wide limit as it was."""
    path = tmp_path / "dense7.json"
    path.write_text(json.dumps(populations.dense_document(random.Random(3), 7)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "analyze", "--json", "-i", str(path))
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    witness = json.loads(out)["flatness"]["witness"]
    i, j, K = is_flat(inputdoc.loads(path.read_text())).witness
    assert (witness["i"], witness["j"]) == (i + 1, j + 1)
    assert witness["curvature"] == [[str(x) for x in row] for row in K]
    assert max(len(x) for row in witness["curvature"] for x in row) > 640


def test_emit_document_refuses_what_loads_refuses():
    """emit_document applies the input caps, so every document it returns
    loads.  A dim-20 flat instance moved to the basis I + N (N strictly
    upper triangular, entries in {-1, 0, 1}/{1, 2}) has rationals with more
    than MAX_DIGITS digits: emitting it raises and names the field."""
    n = inputdoc.MAX_DIM
    rng = random.Random(0)
    m = sweeps.theorem1_true_instance(rng, n)
    assert inputdoc.loads(json.dumps(inputdoc.emit_document(m))) == m
    P = [[F(int(i == j)) if i >= j else F(rng.choice((-1, 0, 1)), rng.choice((1, 2))) for j in range(n)]
         for i in range(n)]
    with pytest.raises(ParseError, match=rf"^brackets\[\d+\]\.coeffs\[\d+\]: .* more than {inputdoc.MAX_DIGITS} digits"):
        inputdoc.emit_document(m.change_basis(P))
    n = inputdoc.MAX_DIM + 1
    too_big = MetricLieAlgebra.make(LieAlgebra.abelian(n), linalg.units(n))
    with pytest.raises(ParseError, match=rf"^dim: .*{inputdoc.MAX_DIM}"):
        inputdoc.emit_document(too_big)
    # beyond the int/str digit limit, where str() of the rational raises
    huge = MetricLieAlgebra.make(LieAlgebra.abelian(1), [[F(10**5000 + 1)]])
    with pytest.raises(ParseError, match=rf"^metric\[0\]\[0\]: .* more than {inputdoc.MAX_DIGITS} digits"):
        inputdoc.emit_document(huge)


def test_validate_rejects_oversized_dim(capsys, tmp_path):
    def doc(n):
        return {"dim": n, "metric": [["1" if i == j else "0" for j in range(n)] for i in range(n)]}

    path = tmp_path / "dim.json"
    for n in (inputdoc.MAX_DIM + 1, 10**9):
        path.write_text(json.dumps(doc(n) if n < 100 else {"dim": n, "metric": []}))
        code, _, err = run(capsys, "validate", "-i", str(path))
        assert code == 2 and "dim" in err and str(inputdoc.MAX_DIM) in err
    path.write_text(json.dumps(doc(inputdoc.MAX_DIM)))
    code, out, _ = run(capsys, "validate", "-i", str(path))
    assert code == 0 and "ok" in out


def test_validate_rejects_duplicate_brackets(capsys, tmp_path):
    doc = {
        "dim": 2,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": ["0", "1"]},
            {"i": 1, "j": 2, "coeffs": ["0", "2"]},
        ],
        "metric": [["1", "0"], ["0", "1"]],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "-i", str(path))
    assert code == 2
    assert "duplicate" in err


def test_flat_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "flat", "-i", write_doc(tmp_path, "rot3"))
    assert code == 0 and "flat" in out
    code, out, _ = run(capsys, "flat", "-i", write_doc(tmp_path, "classc2_nonflat"))
    assert code == 1
    assert "K(e_1, e_2)" in out  # curvature witness named


def test_killing_output(capsys, tmp_path):
    code, out, _ = run(capsys, "killing", "--json", "-i", write_doc(tmp_path, "rot3"))
    assert code == 0
    section = json.loads(out)
    assert section == {"dim": 1, "basis": [["1", "0", "0"]]}


def test_theorem1_exits(capsys, tmp_path):
    code, out, _ = run(capsys, "theorem1", "-i", write_doc(tmp_path, "rot3"))
    assert code == 0
    code, _, _ = run(capsys, "theorem1", "-i", write_doc(tmp_path, "classc2_flat"))
    assert code == 1
    # wrong signature is a usage error, not a domain verdict
    code, _, err = run(capsys, "theorem1", "-i", write_doc(tmp_path, "heisenberg_euclidean"))
    assert code == 2
    assert "Lorentzian" in err


def test_theorem2_exits(capsys, tmp_path):
    code, _, _ = run(capsys, "theorem2", "-i", write_doc(tmp_path, "classc2_flat"))
    assert code == 0
    code, _, _ = run(capsys, "theorem2", "-i", write_doc(tmp_path, "classc2_nonflat"))
    assert code == 1
    code, _, err = run(capsys, "theorem2", "-i", write_doc(tmp_path, "heisenberg_euclidean"))
    assert code == 2


def test_companion_output(capsys, tmp_path):
    code, out, _ = run(capsys, "companion", "--json", "-i", write_doc(tmp_path, "rot3"))
    assert code == 0
    section = json.loads(out)
    assert section["gram"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert section["same_connection"] is True
    code, _, _ = run(capsys, "companion", "-i", write_doc(tmp_path, "classc2_flat"))
    assert code == 1
    code, _, _ = run(capsys, "companion", "-i", write_doc(tmp_path, "heisenberg_euclidean"))
    assert code == 2


def _expected_exit(command, expected):
    """The exit code a single-verdict command owes a catalog entry:
    0 = yes, 1 = the math says no, 2 = the command's precondition fails."""
    lorentzian = expected["signature"][1:] == (1, 0)
    if command == "flat":
        return 0 if expected["flat"] else 1
    if command in ("theorem1", "companion"):
        return (0 if expected["theorem1"][0] else 1) if lorentzian else 2
    return (0 if expected["flat"] else 1) if expected["class_c"] else 2


@pytest.mark.parametrize("command", ["flat", "theorem1", "theorem2", "companion"])
@pytest.mark.parametrize("name", catalog.names())
def test_single_verdict_exit_codes_on_the_catalog(capsys, tmp_path, name, command):
    want = _expected_exit(command, catalog.get(name).expected)
    code, _, err = run(capsys, command, "-i", write_doc(tmp_path, name))
    assert code == want
    if code == 2 and command in ("theorem1", "companion"):
        assert "Lorentzian" in err


def test_geodesic_command(capsys, tmp_path):
    doc = write_doc(tmp_path, "classc2_flat")
    code, out, _ = run(capsys, "geodesic", "-i", doc, "--v0", "1,0", "--t-max", "5", "--json")
    assert code == 0
    section = json.loads(out)
    assert section["outcome"] == "blow_up_detected"
    assert abs(section["blowup_time"] - 1.0) < 1e-3


def test_geodesic_csv_export(capsys, tmp_path):
    doc = write_doc(tmp_path, "rot3")
    csv_path = tmp_path / "out.csv"
    code, _, _ = run(capsys, "geodesic", "-i", doc, "--v0", "1,1,0", "--t-max", "2",
                     "--csv", str(csv_path))
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,v_1,v_2,v_3,norm"


def test_geodesic_usage_errors(capsys, tmp_path):
    doc = write_doc(tmp_path, "rot3")
    code, _, err = run(capsys, "geodesic", "-i", doc, "--v0", "1,0", "--t-max", "5")
    assert code == 2 and "components" in err
    code, _, err = run(capsys, "geodesic", "-i", doc, "--v0", "1,x,0", "--t-max", "5")
    assert code == 2
    for t_max in ("-1", "0", "nan", "inf", "1e-20", "1e-320", "1e101"):
        code, out, err = run(capsys, "geodesic", "-i", doc, "--v0", "1,0,0", "--t-max", t_max, "--json")
        assert code == 2 and "--t-max" in err and out == "", t_max
    huge = "1" + "0" * 400
    for v0 in ("nan,0,0", "inf,0,0", "0,-inf,0", "1e400,0,0", "1e200,1e200,0", "1e12,0,0",
               f"{huge}/1,0,0", f"0,-{huge}/3,0"):
        code, out, err = run(capsys, "geodesic", "-i", doc, "--v0", v0, "--t-max", "5", "--json")
        assert code == 2 and "--v0" in err and out == "", v0
    for rel_tol in ("0.5", "1e-15", "nan"):
        code, out, err = run(capsys, "geodesic", "-i", doc, "--v0", "1,0,0", "--t-max", "5",
                             "--rel-tol", rel_tol, "--json")
        assert code == 2 and "--rel-tol" in err and out == "", rel_tol


def test_geodesic_accepts_rational_v0(capsys, tmp_path):
    doc = write_doc(tmp_path, "classc2_flat")
    code, out, _ = run(capsys, "geodesic", "-i", doc, "--v0", "1/2,0", "--t-max", "10", "--json")
    assert code == 0
    section = json.loads(out)
    # f' = f^2 with f(0) = 1/2 blows up at t = 2
    assert abs(section["blowup_time"] - 2.0) < 2e-3


def test_analyze_json_deterministic(capsys, tmp_path):
    for name in catalog.names():
        doc = write_doc(tmp_path, name)
        code1, out1, _ = run(capsys, "analyze", "--json", "--seed", "42", "-i", doc)
        code2, out2, _ = run(capsys, "analyze", "--json", "--seed", "42", "-i", doc)
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)  # well-formed


def _verdict(text, label):
    """The word after "label: " on the text report's line for label."""
    line = next(line for line in text.splitlines() if line.startswith(f"{label}: "))
    return line[len(label) + 2:].split()[0].rstrip(";")


@pytest.mark.parametrize("name", catalog.names() + GOLDEN_INPUTS)
def test_analyze_json_and_text_agree(capsys, tmp_path, name):
    doc = str(GOLDEN / "inputs" / f"{name}.json") if name in GOLDEN_INPUTS else write_doc(tmp_path, name)
    _, out_json, _ = run(capsys, "analyze", "--json", "-i", doc)
    rep = json.loads(out_json)
    code, out_text, _ = run(capsys, "analyze", "-i", doc)
    assert code == 0
    assert _verdict(out_text, "flat") == ("yes" if rep["flatness"]["flat"] else "no")
    assert _verdict(out_text, "class C") == ("yes" if rep["class_c"]["detected"] else "no")
    incompleteness = rep["class_c"].get("incompleteness")
    if incompleteness:
        assert f"verdict: {incompleteness['verdict']}" in out_text


def test_analyze_sweep_usage_errors(capsys, tmp_path):
    doc = write_doc(tmp_path, "rot3")
    for n in ("-5", "0", "10001", str(10**30)):
        code, out, err = run(capsys, "analyze", "--json", "--sweep", n, "-i", doc)
        assert code == 2 and "--sweep" in err and out == "", n


def test_analyze_sweep_section(capsys, tmp_path):
    doc = write_doc(tmp_path, "rot3")
    code, out, _ = run(capsys, "analyze", "--json", "--seed", "7", "--sweep", "5", "-i", doc)
    assert code == 0
    rep = json.loads(out)
    assert all(entry["ok"] for entry in rep["sweeps"])


def test_stdin_pipeline(capsys, tmp_path, monkeypatch):
    import io

    text = json.dumps(catalog.get("rot3").document)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "analyze", "--json", "-i", "-")
    assert code == 0
    assert json.loads(out)["theorem1"]["direct_side"] is True


def test_analyze_missing_input_file(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", "-i", str(tmp_path / "missing.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_non_utf8_file_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, "flat", "-i", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {str(path)!r} is not valid UTF-8 (byte offset 0: invalid start byte)\n"


def test_non_utf8_stdin_is_a_parse_error(capsys, monkeypatch):
    import io

    raw = io.BytesIO(b'{"dim": 1\xc3(')
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="utf-8", errors="strict"))
    code, out, err = run(capsys, "analyze", "--json", "-i", "-")
    assert code == 2
    assert out == ""
    assert err == "error: stdin is not valid UTF-8 (byte offset 9: invalid continuation byte)\n"


@pytest.mark.parametrize("depth", [2000, 100000])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path, monkeypatch, depth, source):
    """The JSON decoder recurses once per nesting level; a document nested
    deeper than the recursion limit exits 2 with one line, not a
    RecursionError traceback and exit 1."""
    import io

    text = "[" * depth + "]" * depth
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        path = "-"
    else:
        path = tmp_path / "deep.json"
        path.write_text(text)
    code, out, err = run(capsys, "analyze", "--json", "-i", str(path))
    assert (code, out, err) == (2, "", "error: invalid JSON: nested too deep\n")


def test_the_parser_is_built_once_and_reused(capsys, monkeypatch, tmp_path):
    """`main` builds its parser on first use and reuses it: two calls with a
    usage error (exit 2) between them print and return what fresh calls do."""
    from flatlie import cli

    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    doc = write_doc(tmp_path, "rot3")
    sequence = [
        ["geodesic", "-i", doc, "--v0", "1,1,0", "--t-max", "5", "--json"],
        ["geodesic", "-i", doc, "--v0", "1,1,0"],
        ["flat", "-i", doc, "--json"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    monkeypatch.setattr(cli, "_parser", None)
    reused = [call(argv) for argv in sequence]
    assert len(built) == 1
    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(call(argv))
    assert len(built) == 4
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0]
    assert "--t-max" in reused[1][2] and reused[1][1] == ""


def test_command_cases_cover_every_input_command_and_mode():
    keys = {(c["input"], c["command"], c["json"]) for c in COMMAND_CASES}
    commands = ("validate", "flat", "killing", "theorem1", "theorem2", "companion")
    assert len(COMMAND_CASES) == len(keys) == 180
    assert keys == {(name, command, as_json) for name in catalog.names() + GOLDEN_INPUTS
                    for command in commands for as_json in (False, True)}


@pytest.mark.parametrize("case", COMMAND_CASES,
                         ids=[f"{c['input']}-{c['command']}-{'json' if c['json'] else 'text'}" for c in COMMAND_CASES])
def test_document_command_matches_golden(capsys, tmp_path, case):
    """Exit code, stderr and the SHA-256 of stdout of one document command
    on one golden input or catalog entry, as golden/commands.json pins them."""
    name = case["input"]
    path = GOLDEN / "inputs" / f"{name}.json" if name in GOLDEN_INPUTS else write_doc(tmp_path, name)
    code, out, err = run(capsys, case["command"], "-i", str(path), *(["--json"] if case["json"] else []))
    assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (
        case["code"], case["stderr"], case["stdout_sha256"])


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [
    ["catalog", "list"],
    ["analyze", "--json", "-i", str(GOLDEN / "inputs" / "dim17_dense_flat_split_lorentzian.json")],
], ids=["short", "long"])
def test_closed_stdout_exits_2(argv, buffered):
    """A stdout whose reader is gone gives one error line and exit 2, whether
    stdout is block-buffered (the default for a pipe) or not, and whether the
    output fits in the buffer (`catalog list`) or overflows it (an 11 kB
    report)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "flatlie.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 32] Broken pipe\n")
