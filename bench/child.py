"""One benchmark process: import lowmach, then enter ``lowmach.cli.main`` once.

Usage (from the repository root, which holds ``src/lowmach``):

    python3 bench/child.py STAMP [--setup-only] [--trace SPANS] -- CLI-ARGS...

STAMP receives JSON with the CLOCK_MONOTONIC times at which ``main`` was
entered and left and its return code; the parent process subtracts its own
spawn time to get the set-up time.  ``--setup-only`` stops at the entry of
``main``.  ``--trace`` wraps the public lowmach functions (see tracer.py) and
writes the spans to SPANS when ``main`` returns.
"""

import json
import os
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1 :]
    stamp_path = opts[0]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from lowmach import cli

    tracer = None
    if trace_path:
        import tracer as tracing

        tracer = tracing.install()
    entered = time.monotonic()
    rc = 0 if "--setup-only" in opts else cli.main(cli_args)
    left = time.monotonic()
    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump({"entered": entered, "left": left, "rc": rc}, fh)
    if tracer is not None:
        tracer.dump(trace_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
