"""``python -m macfb`` with the layer wrappers installed, for traced CLI passes.

Usage: traced_cli.py SPANS_OUT COMMAND_NAME ARGV...

Runs ``macfb.cli.main(ARGV)`` inside a ``cli.main`` span, writes the spans
recorded in this process to SPANS_OUT as JSON and exits with main's code.
"""

import json
import sys

from macfb import cli
from tracing import Tracer


def main() -> int:
    spans_out, command, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer().install()
    span = tracer.begin("cli.main", command=command)
    try:
        code = cli.main(argv)
    finally:
        tracer.end(span)
        sys.stdout.flush()
        with open(spans_out, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
