"""The checking daemon under the benchmark's wrappers.

    python daemon.py --trace-out SPANS serve [serve options ...]

Installs the same wrappers as a traced worker round, runs
``repro.service serve`` in this process, and writes the spans to
SPANS once the daemon has drained and returned.
"""

from __future__ import annotations

import sys

from layers import TARGETS
from tracer import Tracer


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out":
        print(__doc__, file=sys.stderr)
        return 2
    out, serve_argv = argv[1], argv[2:]
    tracer = Tracer()
    tracer.install(TARGETS)
    from repro.service.__main__ import main as service_main

    try:
        return service_main(serve_argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
