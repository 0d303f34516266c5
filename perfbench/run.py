"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload weekly_cycle --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``weekly_cycle`` -- the Saturday batch: stream-generate a plant into an
  out-of-core store, reopen it, score the latest week with a trained
  bundle, cut the dispatch list (``weekly_cycle.py``);
* ``retrain`` -- predictor and locator fits on a dense world, plus the
  held-out quality they reach (``retrain.py``);
* ``serve_reads`` -- open-loop technician reads against
  ``python -m repro serve`` over real sockets (``serve_reads.py``).

Every workload reports the same metrics: ``--trace 0`` the end-to-end
ones (``setup_s``, ``peak_rss_mb``, ``latency_ms``, ``throughput``; each
workload's module says what its latency and throughput are), ``--trace
1`` the per-layer ones, after installing the benchmark's own shims around
each layer's public functions (``shims.py``, ``layers.py``).  Inputs come
only from ``--seed``; the program runs at its defaults (``REPRO_WORKERS``
unset).  Output checks run in the same command: every mismatch is a
failed operation and makes ``correct`` false.

The last stdout line is the JSON verdict ``{"correct", "attempted",
"failed", "metrics"}``; progress and the environment record go to
stderr.  Untraced runs also append their end-to-end metrics to the
flight-recorder history ``perfbench/_history/history.jsonl``; render it
with ``python -m repro obs dashboard --history <that file>`` or
``python3 perfbench/dashboard.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("weekly_cycle", "retrain", "serve_reads")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(seed: int) -> dict:
    import numpy as np

    from repro.parallel import worker_count

    return {
        "nproc": os.cpu_count(),
        "worker_count": worker_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def _record_history(workload: str, result, env: dict) -> None:
    from common import HISTORY_PATH

    from repro.obs.history import HistoryStore

    HistoryStore(HISTORY_PATH).append(
        f"bench.{workload}",
        {**{name: value for name, (value, _unit) in result.metrics.items()},
         **result.recorded},
        meta={**env, "attempted": result.attempted, "failed": result.failed},
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so workloads stop the servers they
    # started and remove their scratch stores.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The program runs at its defaults: no worker override.
    os.environ.pop("REPRO_WORKERS", None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import importlib

    from common import log

    env = _environment(args.seed)
    log("perfbench environment " + json.dumps(env, sort_keys=True))
    workload = importlib.import_module(args.workload)
    result = workload.run(args.seed, args.seconds, bool(args.trace))

    # The verdict must carry exactly the manifest's metrics of this mode,
    # in its units, on every workload.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: unit for name, (_value, unit) in result.metrics.items()}
    if got != wanted:
        log(f"perfbench: {args.workload} measured {sorted(got.items())}, "
            f"the manifest asks for {sorted(wanted.items())}")
        return 3
    for name, (value, unit) in sorted(result.metrics.items()):
        if not math.isfinite(value):
            result.check(False, f"metric {name} is not finite")
        log(f"  {name:<40} {value:>14.6g} {unit}")
    for name, value in sorted(result.notes.items()):
        log(f"  note {name}: {value}")
    for failure in result.failures:
        log(f"  FAILED: {failure}")
    if not args.trace:
        _record_history(args.workload, result, env)

    verdict = {
        "correct": result.failed == 0,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }
    print(json.dumps(verdict), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
