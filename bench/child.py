"""One measured run of fuzzymono, in the fresh interpreter the benchmark starts.

    python3 child.py OUTDIR [--trace] setup
    python3 child.py OUTDIR [--trace] cli CLI_ARG...

`setup` only imports the verifier. `cli` runs the command-line entry point
with the given arguments, as `python -m fuzzymono.verify.cli` would.

OUTDIR/ready.json gets the monotonic clock at the moment fuzzymono.verify
is imported, so the parent can time interpreter start-up plus imports. With
--trace, spans of every layer are written to OUTDIR/spans-<pid>.jsonl.
"""

import json
import os
import sys
import time

import fuzzymono.verify

READY = time.monotonic()


def main(argv: list[str]) -> int:
    out = argv[0]
    traced = len(argv) > 1 and argv[1] == "--trace"
    mode, args = argv[2 if traced else 1], argv[3 if traced else 2:]

    import numpy
    import scipy
    with open(os.path.join(out, "ready.json"), "w", encoding="utf-8") as fh:
        json.dump({"ready": READY, "module": fuzzymono.verify.__file__,
                   "python": sys.version.split()[0], "numpy": numpy.__version__,
                   "scipy": scipy.__version__}, fh)
    if mode == "setup":
        return 0

    tracer = None
    if traced:
        import tracing
        tracer = tracing.install(out)
    try:
        if mode == "cli":
            from fuzzymono.verify import cli
            return cli.main(args)
        raise SystemExit(f"child.py: unknown mode {mode!r}")
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
