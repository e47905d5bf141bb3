"""One traced cold CLI process: `python3 cold_child.py SPANS_OUT <cli args>`.

Imports flatlie.cli, installs the tracer, runs the command with the real
stdout and exits with the command's code.  The span summary goes to
SPANS_OUT as JSON.  PYTHONPATH must hold the checkout's `src/`.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    import flatlie.cli

    tracer = Tracer()
    absent = tracer.install()
    tracer.begin_op(0)
    try:
        code = flatlie.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"summary": tracer.summary(), "distinct": tracer.distinct, "absent": absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
