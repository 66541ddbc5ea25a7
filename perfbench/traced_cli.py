"""Runs one polewave CLI call with every public function traced.

    python3 perfbench/traced_cli.py SPANS.json <subcommand> [options]

The spans are written to SPANS.json when the call returns; the exit code
is the CLI's own.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402

import polewave.cli  # noqa: E402

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.on = True
    try:
        code = polewave.cli.main(sys.argv[2:])
    finally:
        tracer.on = False
        tracer.dump(sys.argv[1])
    sys.exit(code)
