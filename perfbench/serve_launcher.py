"""Run ``repro serve`` with the benchmark's layer shims installed.

The traced ``serve_reads`` run starts the server through this launcher
instead of ``python -m repro serve``; the server itself is unchanged --
it installs the same layer shims as every other traced run
(``layers.install``), so ``ScoringService.dispatch_request`` records a
``serve.service.handler/<route>`` span per request and the calls it makes
into the other layers nest beneath it.

On shutdown (SIGINT, as for the plain server) every span is written to
the ``--spans`` JSON file with ``perf_counter`` timestamps, which share
the system-wide monotonic clock with the load generator, so the client
can cut the spans to its own measurement windows.

Usage::

    python3 perfbench/serve_launcher.py --spans OUT.json -- \\
        serve --store STORE --registry REGISTRY --port 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from shims import Recorder  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro.cli import main as repro_main

    rec = Recorder()
    layers.install(rec)
    try:
        return repro_main(cli)
    finally:
        args.spans.write_text(json.dumps(rec.dump()))


if __name__ == "__main__":
    sys.exit(main())
