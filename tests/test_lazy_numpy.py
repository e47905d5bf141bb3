"""The exact commands never load numpy; only the float geodesic probe and
rotation_form do.  Each check runs in a fresh interpreter, because this test
process already holds numpy through the geodesic tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flatlie
from flatlie import catalog

SRC = str(Path(flatlie.__file__).resolve().parent.parent)

RUN_CLI = """
import contextlib, io, sys
import flatlie.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = flatlie.cli.main(sys.argv[1:])
print(code, int("numpy" in sys.modules))
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _cli(*argv):
    """(exit code, whether numpy was loaded) of one cold flatlie.cli.main run."""
    code, loaded = _python("-c", RUN_CLI, *argv)
    return int(code), bool(int(loaded))


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    paths = {}
    for name in ("rot3", "classc2_flat"):
        path = root / f"{name}.json"
        path.write_text(json.dumps(catalog.get(name).document))
        paths[f"@{name}"] = str(path)
    return paths


@pytest.mark.parametrize("module", ["flatlie", "flatlie.cli"])
def test_import_does_not_load_numpy(module):
    assert _python("-c", f"import sys, {module}; print(int('numpy' in sys.modules))") == ["0"]


@pytest.mark.parametrize("argv, expected", [
    (("validate", "-i", "@rot3"), 0),
    (("analyze", "--json", "-i", "@rot3"), 0),
    (("analyze", "--sweep", "2", "-i", "@rot3"), 0),
    (("flat", "-i", "@rot3"), 0),
    (("killing", "-i", "@rot3"), 0),
    (("theorem1", "-i", "@rot3"), 0),
    (("theorem2", "-i", "@classc2_flat"), 0),
    (("companion", "-i", "@rot3"), 0),
    (("catalog", "list"), 0),
    (("catalog", "show", "rot3"), 0),
    (("geodesic", "-i", "@rot3", "--v0", "1,0,0", "--t-max", "-1"), 2),
    (("geodesic", "-i", "@rot3", "--v0", "1,0,0", "--t-max", "1", "--rel-tol", "0.5"), 2),
])
def test_exact_commands_and_usage_errors_do_not_load_numpy(docs, argv, expected):
    """An argument "@name" stands for the path of catalog entry name."""
    argv = [docs.get(a, a) for a in argv]
    assert _cli(*argv) == (expected, False)


def test_geodesic_loads_numpy(docs):
    assert _cli("geodesic", "-i", docs["@rot3"], "--v0", "1,0,0", "--t-max", "1") == (0, True)
