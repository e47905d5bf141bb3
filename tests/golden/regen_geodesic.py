"""Rewrite every file listed in `golden/geodesic/cases.txt` through
`flatlie.cli.main`, as `test_golden.test_geodesic_output_matches_golden`
runs it.  Run it only when the trajectories are meant to change:

    PYTHONPATH=src python tests/golden/regen_geodesic.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from flatlie import catalog
from flatlie.cli import main

GEODESIC = Path(__file__).parent / "geodesic"


def regenerate() -> None:
    cases = [line.split() for line in (GEODESIC / "cases.txt").read_text(encoding="utf-8").splitlines()]
    with tempfile.TemporaryDirectory() as tmp:
        for golden, name, v0, t_max in cases:
            doc = Path(tmp) / f"{name}.json"
            doc.write_text(json.dumps(catalog.get(name).document))
            args = ["geodesic", "-i", str(doc), f"--v0={v0}", "--t-max", t_max]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                if golden.endswith(".csv"):
                    code = main([*args, "--csv", str(GEODESIC / golden)])
                else:
                    code = main([*args, "--json"])
                    (GEODESIC / golden).write_bytes(out.getvalue().encode())
            if code != 0:
                sys.exit(f"{golden}: geodesic exited {code}")
            print(golden)


if __name__ == "__main__":
    regenerate()
