"""Run one ``repro`` CLI command in-process under the outside-in tracer.

Usage (``PYTHONPATH`` must name the program's ``src`` directory)::

    python3 jobbench/traced_job.py --out trace.json -- synthesize --cca reno

The tracer is installed before ``repro.cli.main`` runs with the given
arguments; the program's own output goes to stdout as usual, and the
trace document (spans, counters, program counter snapshots) is written
to ``--out`` when the command ends, whether or not it succeeded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from jobbench.tracer import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, command = argv[1], argv[3:]
    tracer = Tracer()
    code = 1
    try:
        install(tracer)
        from repro.cli import main as repro_main

        code = repro_main(command)
    finally:
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(tracer.finish(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
