"""Rewrite `golden/commands.json` through `flatlie.cli.main`, as
`test_cli.test_document_command_matches_golden` replays it.  Each case is
one document command on one golden input or catalog entry, in text or
`--json` mode; it stores the exit code, the full stderr and the SHA-256 of
stdout.  Run it only when some command's output is meant to change:

    PYTHONPATH=src python tests/golden/regen_commands.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from flatlie import catalog
from flatlie.cli import main

GOLDEN = Path(__file__).parent
COMMANDS = ("validate", "flat", "killing", "theorem1", "theorem2", "companion")


def inputs(tmp: Path) -> dict[str, Path]:
    """Document path of each golden input and each catalog entry, by name."""
    paths = {p.stem: p for p in sorted((GOLDEN / "inputs").glob("*.json"))}
    for name in catalog.names():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(catalog.get(name).document))
    return paths


def run(command: str, path: Path, as_json: bool) -> dict:
    """The exit code, stderr and stdout digest of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "-i", str(path), *(["--json"] if as_json else [])])
    return {"code": code, "stderr": err.getvalue(),
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cases = [
            {"input": name, "command": command, "json": as_json, **run(command, path, as_json)}
            for name, path in inputs(Path(tmp)).items()
            for command in COMMANDS for as_json in (False, True)
        ]
    (GOLDEN / "commands.json").write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"{len(cases)} cases")


if __name__ == "__main__":
    regenerate()
