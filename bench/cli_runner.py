"""Traced stand-in for `python -m qcurve.cli`.

    python3 bench/cli_runner.py --spans FILE -- <qcurve cli arguments>

Times the import of qcurve.cli as the `cli.import` span, installs the
benchmark's tracer, runs `qcurve.cli.main` on the arguments with library
warnings counted instead of printed, writes the spans and counts to FILE
as JSON and exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import warnings

import harness
from tracer import Tracer


def main(argv):
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: cli_runner.py --spans FILE -- ARGS...", file=sys.stderr)
        return 2
    spans_file, cli_args = argv[1], argv[3:]
    tracer = Tracer()
    tracer.op = 0
    with tracer.span("cli.import"):
        harness.load_qcurve()
        import qcurve.cli
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = qcurve.cli.main(cli_args)
    finally:
        tracer.uninstall()
    for w in caught:
        tracer.add(harness.classify_warning(w.message) + ".warnings")
    with open(spans_file, "w") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
