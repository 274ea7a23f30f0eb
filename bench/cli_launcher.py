"""Run one stealthgame command with its layers traced.

    python3 bench/cli_launcher.py <spans file> <stealthgame arguments...>

Installs the tracer on what ``stealthgame.cli`` and the modules below it
bind, calls ``stealthgame.cli.main`` inside a root span named
``cli.main``, restores every wrapper and writes the spans as JSON.  The
exit code is the command's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stealthgame.cli as cli
from tracer import CLI_BINDINGS, Tracer


def main(argv: list[str]) -> int:
    spans_path, args = Path(argv[0]), argv[1:]
    with Tracer().install(CLI_BINDINGS) as tracer, tracer.root_span("cli.main"):
        code = cli.main(args)
    spans_path.write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
