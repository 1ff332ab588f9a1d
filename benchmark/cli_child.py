"""Traced stand-in for `python -m cwlab`, used by the traced cli-oneshot run.

    python3 benchmark/cli_child.py TRACE_FILE ARG...

Imports cwlab (timed as the span cli.import), installs the per-layer
wrappers, runs `cwlab.cli.main(ARG...)`, writes the spans to TRACE_FILE as
JSON lines followed by one summary line, and exits with main's exit code.
The caller puts the checkout's src on PYTHONPATH.
"""

import json
import sys
import time

t0 = time.perf_counter()
import cwlab.cli  # noqa: E402

t_import = time.perf_counter()

from tracing import Tracer  # noqa: E402  (this file's directory is sys.path[0])


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.record("cli.import", t0, t_import)
    tracer.install()
    try:
        code = cwlab.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_file, "w", encoding="utf-8") as fh:
            tracer.write(fh, t0=t0)
            fh.write(json.dumps({"summary": tracer.summary()}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
