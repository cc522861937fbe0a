"""One benchmark operation: import qflab from the checkout and run one CLI
invocation in this fresh process, as a user's shell would.

    python3 perfbench/child.py META SPANS -- [qflab argv ...]

Writes META as JSON: ``ready`` (CLOCK_MONOTONIC after ``qflab.cli`` is
imported), ``done`` (after ``cli.main`` returned and stdout was flushed),
``status``, ``maxrss_kb`` and ``error``.  With a non-empty SPANS path the
tracer is installed before ``ready`` and the spans are written to SPANS
after ``done``.  An empty qflab argv only imports (a set-up probe).
The exit code is the CLI's.
"""

import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    meta_path, spans_path, sep = sys.argv[1:4]
    if sep != "--":
        raise SystemExit("usage: child.py META SPANS -- [argv ...]")
    argv = sys.argv[4:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from qflab import cli

    tracer = None
    if spans_path:
        import tracer as tracing  # this script's directory is sys.path[0]

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.monotonic()
    status, error = 0, None
    if argv:
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            status, error = 1, traceback.format_exc()
        sys.stdout.flush()
    done = time.monotonic()
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    meta = {"ready": ready, "done": done, "status": status, "error": error,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
