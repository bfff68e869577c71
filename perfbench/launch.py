"""Run one bsgd CLI command, as the ``bsgd`` console script does, and record timings.

    python3 perfbench/launch.py --record PATH [--trace] -- <bsgd arguments>

The benchmark starts this in a fresh process per command.  It imports
bsgd from the checkout's ``src`` directory and always records when the
first solver call starts and the last one returns.  With ``--trace`` it
also aggregates spans around bsgd's public functions (see spans.py).
The record is written as JSON to PATH when the command ends; the exit
code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    if "--" not in argv or "--record" not in argv:
        print("usage: launch.py --record PATH [--trace] -- <bsgd arguments>",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    record_path = Path(opts[opts.index("--record") + 1])
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import bsgd.cli
    import_s = time.perf_counter() - start
    if Path(bsgd.cli.__file__).resolve().parent != SRC / "bsgd":
        print(f"error: imported bsgd from {bsgd.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import spans
    boundary = spans.SolverBoundary()
    tracer = spans.Tracer() if "--trace" in opts else None
    spans.instrument(boundary, tracer)
    try:
        return bsgd.cli.main(cli_args)
    finally:
        record = {"import_s": import_s, **boundary.as_dict()}
        if tracer is not None:
            record.update(tracer.as_dict())
        record_path.write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
