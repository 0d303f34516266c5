"""The program's layers, their shims, and the per-layer readout.

Every workload's traced run installs the same shims (:func:`install`)
and reads the same per-layer metrics out of the spans (:func:`readout`),
so each workload reports every layer -- as zero where its work never
reaches that layer.  A span's layer is the longest name in ``LAYERS``
that its name starts with; spans of the benchmark's own code (the roots
a workload opens around its unit of work) belong to no layer and make up
``unattributed.self_share``.

Times are reported as *shares* of the workload's unit of work (one
weekly cycle, one retrain, one technician read): a layer's exclusive
time (:func:`shims.exclusive_times`) over the traced wall of the unit.
The shares plus ``unattributed.self_share`` sum to one, which every
traced run checks.  Counts and bytes are per unit of work.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from shims import Recorder, exclusive_times

LAYERS = (
    "netsim", "measurement", "tickets", "serve.store", "features", "data",
    "ml", "core.predictor", "core.locator", "serve.scoring", "serve.service",
    "serve.cache", "explain", "parallel",
)

#: Per-unit readouts besides the layer shares, with their units.
COUNTS = {
    "measurement.linetest_calls": "count",
    "tickets.opened": "count",
    "serve.store.bytes_read": "bytes",
    "serve.store.bytes_written": "bytes",
    "features.encode_rows": "count",
    "features.selection_candidates": "count",
    "ml.boost_rounds": "count",
    "core.locator.head_fits": "count",
    "serve.scoring.cold_runs": "count",
}
RATIOS = ("serve.cache.hit_ratio", "parallel.busy_share",
          "serve.http.overhead_share", "obs.trace_overhead_share")

#: Every per-layer metric a traced run prints, with its unit.
METRICS = {
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "unattributed.self_share": "ratio",
    **COUNTS,
    **{name: "ratio" for name in RATIOS},
}

#: Modules whose ``parallel_map`` fans out work, and the layer that owns it.
FANOUT_CALLERS = {
    "repro.serve.scoring": "serve.scoring",
    "repro.features.selection": "features.selection",
    "repro.core.locator": "core.locator",
}
SCORING_FANOUT = "parallel.fanout:serve.scoring"


def layer_of(name: str) -> str | None:
    best = None
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) and (
            best is None or len(layer) > len(best)
        ):
            best = layer
    return best


def install(rec: Recorder) -> None:
    """Trace every layer's public functions where their callers look them up."""
    import importlib
    from urllib.parse import urlsplit

    import repro.core.predictor as predictor
    import repro.data.joins as joins
    import repro.netsim as netsim
    import repro.netsim.streaming as streaming
    import repro.serve.scoring as scoring
    import repro.serve.store as store
    from repro.core.locator import CombinedLocator
    from repro.core.predictor import TicketPredictor
    from repro.features.encoding import LineFeatureEncoder
    from repro.measurement.linetest import LineTester
    from repro.ml.binning import BinnedDataset
    from repro.ml.boostexter import BStump
    from repro.ml.calibration import PlattCalibrator
    from repro.ml.ensemble_scoring import CompiledEnsemble, MultiHeadEnsemble
    from repro.parallel import worker_count
    from repro.serve.cache import ScoreCache
    from repro.serve.service import ScoringService
    from repro.tickets.dispatch import Dispatcher
    from repro.tickets.ticketing import TicketLog

    def nbytes(result, args):
        return np.asarray(result).nbytes

    # netsim: the plant (population rebuilds) and the week stream.
    rec.patch(streaming, "build_population", "netsim.population")
    rec.patch(store, "build_population", "netsim.population")
    for owner in (netsim, streaming):
        rec.replace(owner, "stream_weeks", lambda original: lambda *a, **k:
                    rec.traced_iter("netsim.generate", original(*a, **k)))
    rec.patch(LineTester, "run", "measurement.linetest")
    rec.patch(Dispatcher, "resolve", "tickets.resolve")
    rec.patch(TicketLog, "open_ticket", "tickets.open")
    rec.patch(scoring, "build_dispatch_list", "tickets.dispatch_list")
    rec.patch(store.LineWeekStore, "append_week_chunks", "serve.store.append")
    for attr in ("read_rows", "read_ticket_rows", "last_ticket_day"):
        rec.patch(store.LineWeekStore, attr, "serve.store.read", value=nbytes)
    rec.patch(LineFeatureEncoder, "encode", "features.encode",
              value=lambda r, a: r.matrix.shape[0])
    rec.patch(predictor, "single_feature_ap", "features.selection",
              value=lambda r, a: len(r))
    rec.patch(predictor, "build_ticket_dataset", "data.ticket_dataset")
    rec.patch(joins, "build_locator_dataset", "data.locator_dataset")
    rec.patch(BStump, "fit", "ml.bstump_fit", value=lambda r, a: len(r.learners))
    rec.patch(BinnedDataset, "from_matrix", "ml.binning")
    rec.patch(CompiledEnsemble, "decision_function_columns", "ml.ensemble_eval")
    rec.patch(MultiHeadEnsemble, "decision_matrix", "ml.multihead_eval")
    rec.patch(PlattCalibrator, "fit", "ml.calibration_fit")
    rec.patch(PlattCalibrator, "transform", "ml.calibrate")
    rec.patch(TicketPredictor, "fit", "core.predictor.fit")
    rec.patch(TicketPredictor, "score_features", "core.predictor.score")
    rec.patch(CombinedLocator, "fit", "core.locator.fit")
    rec.patch(CombinedLocator, "predict_proba", "core.locator.locate")
    rec.patch(scoring.ScoringEngine, "score_week", "serve.scoring.score_week")
    rec.patch(scoring.ScoringEngine, "dispatch", "serve.scoring.dispatch")
    rec.patch(scoring, "build_report", "explain.report")
    rec.patch(ScoreCache, "get", "serve.cache.get",
              value=lambda r, a: r is not None)

    def per_route(original):
        shims: dict[str, object] = {}

        def dispatch_request(self, method, target):
            route = urlsplit(target).path
            shim = shims.get(route)
            if shim is None:
                shim = shims[route] = rec.traced(
                    "serve.service.handler" + route, original
                )
            return shim(self, method, target)

        return dispatch_request

    rec.replace(ScoringService, "dispatch_request", per_route)

    def capacity(items, args, kwargs):
        workers = args[0] if args else kwargs.get("workers")
        return min(worker_count(workers), max(1, len(items)))

    for module_name, owner_layer in FANOUT_CALLERS.items():
        rec.replace(importlib.import_module(module_name), "parallel_map",
                    lambda original, owner_layer=owner_layer: rec.wrap_fanout(
                        f"parallel.fanout:{owner_layer}", owner_layer + ".task",
                        original, capacity))


def _children(spans) -> dict[int, list[tuple]]:
    out: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        out[s[1]].append(s)
    return out


def _subtree(children, root) -> list[tuple]:
    out, todo = [root], [root[0]]
    while todo:
        kids = children.get(todo.pop(), ())
        out.extend(kids)
        todo.extend(k[0] for k in kids)
    return out


def readout(spans, values: dict, overhead: dict, units: dict[str, list]) -> dict:
    """Per-layer metrics of one unit of work, from its traced root spans.

    ``units`` maps each part of the unit (e.g. ``"predictor"`` and
    ``"locator"`` for a retrain) to the root spans timed for that part;
    each part is averaged over its roots and the parts add up to one
    unit.  Returns ``{metric: value}`` for every metric in ``METRICS``
    except ``serve.store.bytes_written`` and ``serve.http.overhead_share``,
    which only a workload can measure, plus ``"wall_s"`` (traced wall of
    one unit) and ``"accounting_error_s"`` (|sum of shares - wall|).
    """
    children = _children(spans)
    layer_s: dict[str | None, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    wall = error = overhead_s = fan_s = busy_s = hits = lookups = 0.0
    for roots in units.values():
        if not roots:
            continue
        per = 1.0 / len(roots)
        for root in roots:
            tree = _subtree(children, root)
            duration = root[4] - root[3]
            wall += per * duration
            shares = exclusive_times(tree, root[0])
            error = max(error, abs(sum(shares.values()) - duration))
            for name, secs in shares.items():
                layer_s[layer_of(name)] += per * secs
            in_locator = {root[0]} if root[2] == "core.locator.fit" else set()
            for s in tree[1:]:
                sid, parent, name = s[0], s[1], s[2]
                overhead_s += per * overhead.get(sid, 0.0)
                if parent in in_locator or name == "core.locator.fit":
                    in_locator.add(sid)
                value = values.get(sid, 0.0)
                if name == "measurement.linetest":
                    counts["measurement.linetest_calls"] += per
                elif name == "tickets.open":
                    counts["tickets.opened"] += per
                elif name == "serve.store.read":
                    counts["serve.store.bytes_read"] += per * value
                elif name == "features.encode":
                    counts["features.encode_rows"] += per * value
                elif name == "features.selection":
                    counts["features.selection_candidates"] += per * value
                elif name == "ml.bstump_fit":
                    counts["ml.boost_rounds"] += per * value
                    if parent in in_locator:
                        counts["core.locator.head_fits"] += per
                elif name == "serve.cache.get":
                    hits += value
                    lookups += 1
                elif name.startswith("parallel.fanout:"):
                    fan_s += (s[4] - s[3]) * value
                    if name == SCORING_FANOUT:
                        counts["serve.scoring.cold_runs"] += per
                elif name.endswith(".task"):
                    busy_s += s[4] - s[3]
    out = {f"{layer}.self_share": layer_s.get(layer, 0.0) / wall for layer in LAYERS}
    out["unattributed.self_share"] = layer_s.get(None, 0.0) / wall
    for name in COUNTS:
        out[name] = counts.get(name, 0.0)
    out["serve.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["parallel.busy_share"] = busy_s / fan_s if fan_s else 0.0
    out["obs.trace_overhead_share"] = overhead_s / wall
    out["wall_s"] = wall
    out["accounting_error_s"] = error
    return out


def report(result, readings: dict, bytes_written: float = 0.0,
           http_overhead_share: float = 0.0) -> None:
    """Put every per-layer metric on ``result`` and check the accounting."""
    shares = sum(readings[f"{layer}.self_share"] for layer in LAYERS)
    result.check(
        abs(shares + readings["unattributed.self_share"] - 1.0) <= 1e-6,
        "layer self shares do not sum to the traced unit of work",
    )
    result.check(readings["accounting_error_s"] <= 1e-6 * readings["wall_s"],
                 "a root's layer self times do not sum to its wall time")
    readings = dict(readings, **{"serve.store.bytes_written": bytes_written,
                                 "serve.http.overhead_share": http_overhead_share})
    for name, unit in METRICS.items():
        result.metric(name, readings[name], unit)
    result.notes["traced_unit_wall_s"] = readings["wall_s"]
