"""Cold traced request: ``python -X importtime -m bench.launch SPANS REQ ROUND
ARGS...`` runs ``binform ARGS...`` with the trace wrappers installed and
appends the spans to SPANS.  Output and exit code are the command's own."""

from __future__ import annotations

import sys

from .tracing import Tracer


def main() -> int:
    spans, req, rnd, argv = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
    import binform.cli as cli
    tracer = Tracer()
    tracer.install()
    tracer.begin_request(req, rnd)
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans, append=True)


if __name__ == "__main__":
    sys.exit(main())
