"""Workload ``serve_reads``: technicians' reads over real sockets.

Set-up simulates a dense world from the seed and snapshots every week
into a line-week store, trains a predictor and a combined locator
(default configs apart from capacity) on a world from a fixed seed, and
publishes them as one bundle.  It then starts
``python -m repro serve`` (the traced run starts the same CLI through
``serve_launcher.py``), waits for ``/healthz`` to answer 200 and warms
every stored week.  The server start is repeated ``SERVER_STARTS`` times
and its median is added to the one-off data and model preparation.

Load is open-loop from this one process over keep-alive connections:
requests are due on a fixed schedule and each is timed from its due time,
so a stall also charges the requests queued behind it.  A free connection
takes the next request, so at the reference rate the connections take
turns and none is handed requests closer than 2/``REFERENCE_RPS`` apart.
The mix is ~80% ``/score``, 10% ``/locate`` (single and ``?lines=``
batched), 8% ``/explain?top=3`` and 2% ``/dispatch``; lines are half from
the week's dispatch list and half uniform; 70% of reads hit the latest
week, the rest spread over every stored week.

* ``latency_ms`` -- median client latency of the mix at
  ``REFERENCE_RPS``.  Its tail -- the highest quantile (at most p99) with
  ten samples beyond it -- is logged with the quantile and sample count,
  not reported as a metric: on a shared 2-vCPU host it moved by 40-60%
  between runs of one seed, more than any bound the benchmark may set.
  Route counts are exact shares of each phase, so at the configured run
  length that tail falls among the reference phase's ``/explain`` reads
  rather than on a border between routes that moves from run to run;
* ``throughput`` -- the request rate sustained at the highest rung of
  ``LADDER_RPS`` that meets the service's own ``DEFAULT_SLOS`` latency
  objectives on client latency, with zero failures and no backlog left
  at the end of the rung; the climb stops at the first rung that misses;
* ``setup_s``, ``peak_rss_mb`` (of the server process).

The traced run reports the layers' shares of one read's handler time
(``layers.py``, measured inside the server) and, from back-to-back
keep-alive ``/score`` requests on one connection, the share of the
client's round trip spent outside the handler
(``serve.http.overhead_share``), with both in milliseconds on stderr.

Checks: every answer is 200, every ``/score`` equals the batch score of
that line and week, and every ``/dispatch`` equals the engine's list.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
from time import perf_counter, sleep

import numpy as np

from common import (
    REPO_ROOT,
    Result,
    drop_work_dir,
    log,
    median,
    pid_peak_rss_mb,
    quantile,
    tail_quantile,
    work_dir,
)
import layers

N_LINES = 2_000
N_WEEKS = 12
CAPACITY = N_LINES // 100
SERVER_STARTS = 3
REFERENCE_RPS = 20.0
#: Rates of the ladder; neighbours are ~2.5x apart so a rung sits well
#: clear of the knee between two rungs rather than on it.
LADDER_RPS = (10, 25, 60, 150, 400, 1000)
#: Shares of the measured seconds: the reference phase, then each rung.
REFERENCE_SHARE = 0.8
RUNG_SHARE = 0.1
MIN_RUNG_SECONDS = 1.5
#: Back-to-back keep-alive /score requests of the traced HTTP probe.
PROBE_REQUESTS = 40
START_TIMEOUT = 90.0

ROUTE_MIX = (("/score", 0.80), ("/locate", 0.10), ("/explain", 0.08),
             ("/dispatch", 0.02))


# ----- set-up ---------------------------------------------------------------

#: The bundle is the program's model, not an input: it is trained on a
#: world from this fixed seed, so set-up does the same work for every
#: ``--seed``; the seed generates the stored plant and the request stream.
TRAIN_SEED = 20100808


def _world(seed):
    from repro import DslSimulator, PopulationConfig, SimulationConfig

    s = [int(v) for v in np.random.SeedSequence(seed).generate_state(2)]
    return DslSimulator(SimulationConfig(
        n_weeks=N_WEEKS,
        population=PopulationConfig(n_lines=N_LINES, seed=s[0]),
        fault_rate_scale=3.0,
        seed=s[1],
    )).run()


def prepare(seed: int, root):
    """Seeded world -> store, trained bundle -> registry; returns the bundle."""
    from repro import (
        CombinedLocator,
        LocatorConfig,
        PredictorConfig,
        TicketPredictor,
        build_locator_dataset,
        paper_style_split,
    )
    from repro.serve import ModelBundle, ModelRegistry, snapshot_result

    snapshot_result(_world(seed), root / "store")
    train = _world(TRAIN_SEED)
    split = paper_style_split(N_WEEKS, history=N_WEEKS - 9, train=3,
                              selection=2, test=0)
    predictor = TicketPredictor(PredictorConfig(capacity=CAPACITY)).fit(train, split)
    locator = CombinedLocator(LocatorConfig()).fit(
        build_locator_dataset(train, 0, N_WEEKS * 7)
    )
    bundle = ModelBundle(predictor=predictor, locator=locator,
                         meta={"workload": "serve_reads", "seed": TRAIN_SEED})
    ModelRegistry(root / "registry").publish(bundle, activate=True)
    return bundle


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, root, spans_path=None):
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=str(REPO_ROOT / "src"))
        env.pop("REPRO_WORKERS", None)
        cli = ["serve", "--store", str(root / "store"),
               "--registry", str(root / "registry"), "--port", "0"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *cli]
        else:
            cmd = [sys.executable, str(REPO_ROOT / "perfbench" / "serve_launcher.py"),
                   "--spans", str(spans_path), "--", *cli]
        self.proc = subprocess.Popen(cmd, cwd=REPO_ROOT, env=env,
                                     stdout=subprocess.PIPE, text=True)
        self.port = self._read_port()

    def _read_port(self) -> int:
        box: list[str] = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(START_TIMEOUT)
        match = re.search(r":(\d+) ", box[0]) if box else None
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not report its port: {box!r}")
        return int(match.group(1))

    def wait_healthy(self) -> None:
        deadline = perf_counter() + START_TIMEOUT
        while perf_counter() < deadline:
            try:
                status, _ = get(self.port, "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            sleep(0.01)
        raise RuntimeError("server never became healthy")

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def get(port: int, target: str, conn=None) -> tuple[int, bytes]:
    own = conn is None
    if own:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        if own:
            conn.close()


def warm(port: int, weeks) -> dict[int, list[int]]:
    """Score, encode and triage every week; returns each dispatch list."""
    lists = {}
    for week in weeks:
        status, body = get(port, f"/dispatch?week={week}")
        if status != 200:
            raise RuntimeError(f"warm-up /dispatch week {week}: {status}")
        lists[week] = json.loads(body)["line_ids"]
        for target in (f"/explain?line=0&week={week}&top=3",
                       f"/locate?line=0&week={week}"):
            status, _ = get(port, target)
            if status != 200:
                raise RuntimeError(f"warm-up {target}: {status}")
    return lists


# ----- load -------------------------------------------------------------------

def make_requests(rng, n: int, weeks, dispatch_lists) -> list[tuple[str, str, int, int]]:
    """``n`` requests of the mix: (route, target, week, line).

    Route counts are exact shares of ``n`` (shuffled), so every run of a
    phase sends the same mix and only lines, weeks and order vary.
    """
    counts = [round(n * share) for _, share in ROUTE_MIX[1:]]
    plan = [route for (route, _), k in zip(ROUTE_MIX[1:], counts) for _ in range(k)]
    plan += [ROUTE_MIX[0][0]] * (n - len(plan))
    plan = [plan[i] for i in rng.permutation(len(plan))]
    latest = max(weeks)
    out = []
    locates = 0
    for route in plan:
        week = latest if rng.random() < 0.7 else int(rng.choice(weeks))
        chosen = dispatch_lists[week]

        def line():
            if rng.random() < 0.5:
                return int(chosen[rng.integers(len(chosen))])
            return int(rng.integers(N_LINES))

        first = line()
        if route == "/score":
            target = f"/score?line={first}&week={week}"
        elif route == "/locate":
            locates += 1
            if locates % 2:
                target = f"/locate?line={first}&week={week}"
            else:
                batch = [first] + [line() for _ in range(4)]
                target = f"/locate?lines={','.join(map(str, batch))}&week={week}"
        elif route == "/explain":
            target = f"/explain?line={first}&week={week}&top=3"
        else:
            target = f"/dispatch?week={week}"
        out.append((route, target, week, first))
    return out


def open_loop(port: int, requests, rate: float, n_conns: int):
    """Send ``requests`` due every ``1/rate`` s; returns per-request records.

    A record is ``(route, week, line, due, sent, done, status, body,
    free)``: ``free`` is when the connection that sent it became idle,
    so ``sent - max(due, free)`` is the generator's own lateness.
    """
    start = perf_counter() + 0.05
    work: queue.Queue = queue.Queue()
    for i, request in enumerate(requests):
        work.put((start + i / rate, request))
    records = []

    def connection():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        free = perf_counter()
        try:
            while True:
                try:
                    due, (route, target, week, line) = work.get_nowait()
                except queue.Empty:
                    return
                wait = due - perf_counter()
                if wait > 0:
                    sleep(wait)
                sent = perf_counter()
                try:
                    conn.request("GET", target)
                    response = conn.getresponse()
                    status, body = response.status, response.read()
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                    status, body = 0, b""
                done = perf_counter()
                records.append((route, week, line, due, sent, done, status,
                                body, free))
                free = done
        finally:
            conn.close()

    threads = [threading.Thread(target=connection) for _ in range(n_conns)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records.sort(key=lambda r: r[3])
    return records


def latency_ms(record) -> float:
    return (record[5] - record[3]) * 1e3


def rung_meets_slos(records, slos) -> bool:
    """DEFAULT_SLOS latency objectives on client latency, no failures,
    and no backlog: the last tenth of the rung was sent on time."""
    if any(r[6] != 200 for r in records):
        return False
    for slo in slos:
        if slo.kind != "latency":
            continue
        samples = [latency_ms(r) for r in records if r[0] == slo.route]
        if not samples:
            continue
        good = sum(s <= slo.threshold_seconds * 1e3 for s in samples)
        if good < slo.target * len(samples):
            return False
    tail = records[-max(1, len(records) // 10):]
    backlog_limit = min(s.threshold_seconds for s in slos if s.kind == "latency")
    return all(r[4] - r[3] <= backlog_limit for r in tail)


def check_answers(result: Result, records, batch_scores, batch_lists) -> None:
    for route, week, line, _due, _sent, _done, status, body, _free in records:
        if status != 200:
            result.check(False, f"{route} answered {status}")
            continue
        if route == "/score":
            value = json.loads(body)["p_ticket"]
            result.check(value == float(batch_scores[week][line]),
                         f"/score line {line} week {week} != batch score")
        elif route == "/dispatch":
            ids = json.loads(body)["line_ids"]
            result.check(ids == batch_lists[week],
                         f"/dispatch week {week} != engine list")
        else:
            result.check(True, route)


# ----- the workload -------------------------------------------------------------

def run(seed: int, seconds: float, trace: bool) -> Result:
    from repro.obs.slo import DEFAULT_SLOS
    from repro.serve import LineWeekStore, ScoringEngine, StoredWorld

    result = Result()
    root = work_dir("serve_reads")
    server = None
    try:
        t0 = perf_counter()
        bundle = prepare(seed, root)
        prep_s = perf_counter() - t0
        weeks = list(range(N_WEEKS))
        starts = []
        spans_path = root / "spans.json" if trace else None
        for i in range(SERVER_STARTS):
            t0 = perf_counter()
            server = Server(root, spans_path)
            server.wait_healthy()
            dispatch_lists = warm(server.port, weeks)
            starts.append(perf_counter() - t0)
            if i < SERVER_STARTS - 1:
                server.stop()
        log(f"serve_reads: prepare {prep_s:.2f}s, server starts {starts}")

        engine = ScoringEngine(bundle, StoredWorld(LineWeekStore.open(root / "store")))
        batch_scores = {w: engine.score_week(w).scores for w in weeks}
        batch_lists = {w: [int(i) for i in engine.dispatch(w).line_ids] for w in weeks}

        rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        n_conns = os.cpu_count() or 1
        phases = {}
        ref_seconds = seconds * REFERENCE_SHARE
        requests = make_requests(rng, int(REFERENCE_RPS * ref_seconds), weeks,
                                 dispatch_lists)
        phases["reference"] = open_loop(server.port, requests, REFERENCE_RPS, n_conns)

        rung_seconds = max(MIN_RUNG_SECONDS, seconds * RUNG_SHARE)
        max_rps = 0.0
        for rate in LADDER_RPS:
            requests = make_requests(rng, int(rate * rung_seconds), weeks,
                                     dispatch_lists)
            records = open_loop(server.port, requests, rate, n_conns)
            phases[f"rung_{rate}"] = records
            if not rung_meets_slos(records, DEFAULT_SLOS):
                break
            # The throughput the rung actually sustained within the SLOs.
            max_rps = (len(records) - 1) / (max(r[5] for r in records) - records[0][3])
        probe = http_probe(server.port) if trace else None
        peak_rss = server.peak_rss_mb()
        server.stop()

        for records in phases.values():
            check_answers(result, records, batch_scores, batch_lists)
        reference = phases["reference"]
        latencies = [latency_ms(r) for r in reference]
        q = tail_quantile(len(latencies))
        result.notes["reference_requests"] = len(latencies)
        result.notes["tail_quantile"] = q
        result.notes["tail_ms"] = quantile(latencies, q)
        result.notes["rungs_run"] = [k for k in phases if k.startswith("rung_")]
        result.notes["generator_late_ms_tail"] = generator_late_ms(reference)
        if not trace:
            result.metric("latency_ms", quantile(latencies, 0.5), "ms")
            result.metric("throughput", max_rps, "1/s")
            result.metric("setup_s", prep_s + median(starts), "s")
            result.metric("peak_rss_mb", peak_rss, "MB")
            return result
        traced_metrics(result, json.loads(spans_path.read_text()), reference, probe)
        return result
    finally:
        if server is not None:
            server.stop()
        drop_work_dir(root)


# ----- traced run ---------------------------------------------------------------

def http_probe(port: int):
    """Back-to-back keep-alive /score requests on one connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        get(port, "/score?line=0", conn)  # open the connection first
        lo = perf_counter()
        round_trips = []
        for i in range(PROBE_REQUESTS):
            t0 = perf_counter()
            status, _ = get(port, f"/score?line={i % N_LINES}", conn)
            round_trips.append(perf_counter() - t0)
            if status != 200:
                raise RuntimeError(f"probe /score answered {status}")
        return lo, perf_counter(), round_trips
    finally:
        conn.close()


def generator_late_ms(records) -> float:
    late = [(r[4] - max(r[3], r[8])) * 1e3 for r in records]
    return quantile(late, tail_quantile(len(late)))


def traced_metrics(result: Result, dump, reference, probe) -> None:
    spans = [tuple(s) for s in dump["spans"]]
    values, overhead = dict(dump["values"]), dict(dump["overhead"])
    lo, hi = reference[0][3], max(r[5] for r in reference)

    def window(prefix, a=lo, b=hi):
        return [s for s in spans if s[2].startswith(prefix) and a <= s[3] and s[4] <= b]

    handlers = window("serve.service.handler/")
    result.check(len(handlers) == len(reference),
                 "reference requests and handler spans disagree")
    readings = layers.readout(spans, values, overhead, {"request": handlers})

    p_lo, p_hi, round_trips = probe
    handled = window("serve.service.handler/score", p_lo, p_hi)
    result.check(len(handled) == len(round_trips),
                 "probe requests and handler spans disagree")
    round_trip = float(np.mean(round_trips))
    handler = float(np.mean([s[4] - s[3] for s in handled]))
    layers.report(result, readings,
                  http_overhead_share=(round_trip - handler) / round_trip)
    # The keep-alive stall in absolute terms, and the ms a read spends in
    # each route's handler and in the locator and explanation layers.
    result.notes["probe_round_trip_ms"] = 1e3 * round_trip
    result.notes["probe_handler_ms"] = 1e3 * handler
    for route, _share in ROUTE_MIX:
        inside = window("serve.service.handler" + route)
        if inside:
            result.notes[f"handler_ms{route}"] = 1e3 * median(
                s[4] - s[3] for s in inside)
    for name in ("core.locator.locate", "explain.report"):
        inside = window(name)
        if inside:
            result.notes[f"{name}_ms"] = 1e3 * median(s[4] - s[3] for s in inside)
