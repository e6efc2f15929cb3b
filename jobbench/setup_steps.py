"""Run one set-up repetition: ``repro`` CLI commands, in order, in-process.

Usage (``PYTHONPATH`` must name the program's ``src`` directory)::

    python3 jobbench/setup_steps.py STEPS.json

``STEPS.json`` holds a list of argument lists, each passed to
``repro.cli.main`` exactly as ``python -m repro`` would; the script stops
with the first non-zero status.  One fresh process per repetition keeps
every in-process cache cold while paying interpreter start-up once.
"""

from __future__ import annotations

import json
import sys


def main(path: str) -> int:
    from repro.cli import main as repro_main

    with open(path, encoding="utf-8") as handle:
        steps = json.load(handle)
    for step in steps:
        code = repro_main(step)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
