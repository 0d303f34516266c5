"""Trend view of the benchmark's flight-recorder history.

Every untraced ``run.py`` appends one ``bench.<workload>`` record of its
end-to-end metrics to ``perfbench/_history/history.jsonl`` (an
``obs.history.HistoryStore``).  ``python -m repro obs dashboard --history
<that file>`` lists the records; this script renders the same dashboard
with one EWMA degradation check per end-to-end metric and workload, using
the direction and bound ``BENCHMARK.json`` declares.  Exits 1 when a
check flags a degradation, like the stock dashboard.

    python3 perfbench/dashboard.py [--history PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def bench_checks(history, spec: dict):
    from repro.obs.health import HealthCheck

    checks = []
    for kind in sorted(history.kinds()):
        if not kind.startswith("bench."):
            continue
        names = {n for r in history.records(kind=kind) for n in r.values}
        for metric in spec["end_to_end"]:
            if metric["name"] not in names:
                continue
            checks.append(HealthCheck(
                name=f"{kind[len('bench.'):]}.{metric['name']}"[:40],
                series=metric["name"],
                kind=kind,
                direction=("high_is_bad" if metric["better"] == "lower"
                           else "low_is_bad"),
                rel_threshold=metric["bound"],
            ))
    return tuple(checks)


def main() -> int:
    from common import HISTORY_PATH

    from repro.obs.health import HealthDetector, render_dashboard
    from repro.obs.history import HistoryStore

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", type=Path, default=HISTORY_PATH)
    args = parser.parse_args()
    if not args.history.is_file():
        print(f"no benchmark history at {args.history}")
        return 1
    history = HistoryStore(args.history)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    checks = bench_checks(history, spec)
    print(render_dashboard(history, checks=checks))
    summary = HealthDetector(history, checks).summary()
    return 1 if summary["status"] == "alert" else 0


if __name__ == "__main__":
    sys.exit(main())
