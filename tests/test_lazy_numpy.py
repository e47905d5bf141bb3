"""A cold command loads only the modules it runs.  The exact commands never
load numpy; only the float geodesic probe does, and it never loads scipy.  `import
flatlie` loads no submodule: the package resolves its exported names on
first use.  Each import check runs in a fresh interpreter, because this test
process already holds numpy and every flatlie module."""

import importlib
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
print(code, int("numpy" in sys.modules), int("scipy" in sys.modules), int("dataclasses" in sys.modules),
      ",".join(sorted(m for m in sys.modules if m.startswith("flatlie"))))
"""

#: what every command loads: the CLI, the input parser and the exact kernel
BASE = {"flatlie", "flatlie.cli", "flatlie.errors", "flatlie.inputdoc",
        "flatlie.lie", "flatlie.linalg", "flatlie.metric"}
REPORT = BASE | {"flatlie.report"}


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _run_cli(*argv):
    """(exit code, whether numpy, scipy and dataclasses were loaded, the
    flatlie modules loaded) of one cold flatlie.cli.main run."""
    code, numpy, scipy, dataclasses, modules = _python("-c", RUN_CLI, *argv)
    return int(code), bool(int(numpy)), bool(int(scipy)), bool(int(dataclasses)), set(modules.split(","))


def _cli(*argv):
    """(exit code, whether numpy was loaded) of one cold flatlie.cli.main run."""
    return _run_cli(*argv)[:2]


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
    """numpy, but not scipy: `geodesics` steps by its own Taylor series,
    formed with numpy alone, so the stepper never imports scipy."""
    code, numpy, scipy, _, _ = _run_cli("geodesic", "-i", docs["@rot3"], "--v0", "1,0,0", "--t-max", "1")
    assert (code, numpy, scipy) == (0, True, False)


def test_only_the_geodesic_integrator_mentions_numpy():
    sources = Path(flatlie.__file__).parent.glob("*.py")
    assert [p.name for p in sources if "numpy" in p.read_text()] == ["geodesics.py"]


def test_import_flatlie_loads_no_submodule():
    script = "import sys, flatlie; print(*sorted(m for m in sys.modules if m.startswith('flatlie')))"
    assert _python("-c", script) == ["flatlie"]


@pytest.mark.parametrize("argv, modules", [
    (("validate", "-i", "@rot3"), REPORT),
    (("analyze", "--json", "-i", "@rot3"), REPORT | {"flatlie.theorems", "flatlie.classc"}),
    (("analyze", "--sweep", "2", "-i", "@rot3"),
     REPORT | {"flatlie.sweeps", "flatlie.theorems", "flatlie.classc"}),
    (("flat", "-i", "@rot3"), REPORT),
    (("killing", "-i", "@rot3"), REPORT),
    (("theorem1", "-i", "@rot3"), REPORT | {"flatlie.theorems"}),
    (("theorem2", "-i", "@classc2_flat"), REPORT | {"flatlie.classc"}),
    (("companion", "-i", "@rot3"), REPORT | {"flatlie.theorems"}),
    (("geodesic", "-i", "@rot3", "--v0", "1,0,0", "--t-max", "1"), BASE | {"flatlie.geodesics"}),
    (("catalog", "list"), BASE | {"flatlie.catalog"}),
    (("catalog", "show", "rot3"), BASE | {"flatlie.catalog"}),
])
def test_each_command_loads_only_the_modules_it_runs(docs, argv, modules):
    """An argument "@name" stands for the path of catalog entry name.  No
    command loads dataclasses: its import and class creation would be most
    of flatlie's share of a cold start."""
    code, _, _, dataclasses, loaded = _run_cli(*[docs.get(a, a) for a in argv])
    assert code == 0
    assert loaded == modules
    assert not dataclasses


def test_no_flatlie_module_loads_dataclasses():
    """Importing the package and all 12 of its submodules leaves dataclasses
    unloaded."""
    names = sorted(f"flatlie.{p.stem}" for p in Path(flatlie.__file__).parent.glob("*.py") if p.stem != "__init__")
    script = (f"import sys, {', '.join(names)}\n"
              "print(int('dataclasses' in sys.modules), *sorted(m for m in sys.modules if m.startswith('flatlie.')))")
    loaded, *modules = _python("-c", script)
    assert len(names) == 12 and modules == names
    assert loaded == "0"


def test_every_exported_name_is_its_defining_modules_object():
    names = [name for names in flatlie._EXPORTS.values() for name in names]
    assert flatlie.__all__ == names
    for module, exported in flatlie._EXPORTS.items():
        owner = importlib.import_module(f"flatlie.{module}")
        for name in exported:
            assert getattr(flatlie, name) is getattr(owner, name), name
    assert set(flatlie.__all__) <= set(dir(flatlie))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from flatlie import *", namespace)
    for name in flatlie.__all__:
        assert namespace[name] is getattr(flatlie, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        flatlie.no_such_name
    with pytest.raises(ImportError):
        exec("from flatlie import no_such_name", {})
