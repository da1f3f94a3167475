"""Run ``repro.serve`` with the layer wrappers installed.

Usage: ``python serve_shim.py TRACE_OUT [server flags...]``.  The traced
serve-sessions run starts the server through this file instead of
``python -m repro.serve``, so the persist, api and algorithm layers
inside the server process are traced too.  When the server exits
(SIGTERM), the span aggregates are written to ``TRACE_OUT`` as JSON for
the benchmark process to merge.
"""

import json
import os
import sys

import tracing


def main(argv: "list[str]") -> int:
    out, flags = argv[0], argv[1:]
    tracer = tracing.Tracer(keep=0)
    patches = tracing.install(tracer)
    from repro.serve.server import main as serve_main

    try:
        return serve_main(flags)
    finally:
        patches.restore()
        tmp = f"{out}.tmp"
        with open(tmp, "w") as fh:
            json.dump(tracer.export(), fh)
        os.replace(tmp, out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
