"""Run one regsum command as ``python -m regsum`` would, with spans around
every layer.

    python3 bench/cli_child.py SPANS_FILE ARGS...

Installs the tracer, runs the package's ``__main__`` (so ``cli.main`` is the
root span), writes the spans to SPANS_FILE and exits with main's exit code.
"""

import runpy
import sys

from tracer import Tracer


def main() -> int:
    spans_file = sys.argv[1]
    sys.argv = ["regsum", *sys.argv[2:]]
    tracer = Tracer()
    tracer.install()
    try:
        runpy.run_module("regsum", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
    tracer.write(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
