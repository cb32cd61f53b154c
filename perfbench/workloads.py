"""The benchmark's three workloads and its traced layer run.

Each workload drives the real mesa_cli / mesa_serve binaries with seeded
inputs, checks every reply, and returns an Outcome: the end-to-end metrics,
human-readable lines, and what the traced run needs to cost each layer.
"""

import hashlib
import json
import math
import os
import queue
import random
import statistics
import threading
import time

import harness
import ledger
import queries
from harness import BenchError, Conn, Daemon

# The synthetic worlds (cities, airlines, countries and their KG) come from
# one fixed generation seed; --seed draws the queries, schedules and
# subsets. A new world per seed moves every per-query cost by up to a third,
# which would swamp the bounds.
DATA_SEED = 43
FLIGHTS_EXTRACT = ["Airline", "Origin_city"]
COVID_EXTRACT = ["Country", "WHO_Region"]
SETUP_LAUNCHES = 3          # daemon launches per run; setup_s is their median

COLD_ROWS = 250_000         # cold-cli-flights: rows of the one-shot CSV
COLD_PARITY = 2             # cold queries re-asked of a daemon, byte-compared
# Groups of WHERE templates (queries.TEMPLATES): a wide, a narrow and a
# conjunction query in every three.
COLD_BLOCK = (("W1", "N1", "C1"), ("W2", "N2", "C2"), ("W3", "N3", "C3"),
              ("W4", "N4", "C4"))

RESIDENT_ROWS = 1_000_000   # resident-flights1m: rows of the snapshot
RESIDENT_CLIENTS = 2        # closed-loop analysts
RESIDENT_PARITY = 1         # daemon replies re-run through mesa_cli
RESIDENT_WARMUP = 4         # untimed requests: fault in the mapped snapshot
# Two conjunctions per narrow query: the median lands inside one cluster
# of costs rather than in the gap between two. Full-table queries cost
# 2-7 s at 1M rows and would leave too few samples per run.
RESIDENT_BLOCK = (("N1", "C1", "C2"), ("N2", "C3", "C4"),
                  ("N3", "C1", "C2"), ("N4", "C3", "C4"))

DASH_FLIGHTS_ROWS = 60_000
DASH_CONNECTIONS = 4
DASH_RATE = 50.0            # req/s offered; a fifth of closed-loop capacity
DASH_LIMIT_MS = 250.0       # latency limit of goodput_frac, from due time

TRACE_THREADS = (1, 4)      # pool sizes of the traced run (.t1 / .t4 rows)


class Outcome:
    def __init__(self):
        self.metrics = {}     # end-to-end name -> (value, unit)
        self.lines = []       # human-readable report
        self.attempted = 0
        self.failed = 0       # errors + sheds + transport + mismatches
        self.layer = {}       # per-layer metrics measured by the workload
        self.probe = {}       # plan of the traced layer run
        self.records = []     # per-request timings, saved with the result

    def metric(self, name, value, unit, note=""):
        self.metrics[name] = (value, unit)
        self.lines.append("%-22s %14.4f %-6s %s" % (name, value, unit, note))

    def note(self, text):
        self.lines.append(text)


def median(values):
    return statistics.median(values) if values else math.inf


def launch(spec, max_inflight=4):
    """Launches the daemon SETUP_LAUNCHES times; returns the last one, still
    serving, and every launch's set-up time."""
    times = []
    for i in range(SETUP_LAUNCHES):
        daemon = Daemon(spec, max_inflight).start()
        times.append(daemon.setup_s)
        if i + 1 < SETUP_LAUNCHES:
            daemon.stop()
    return daemon, times


def warm(daemon, requests, connections):
    """Sends untimed requests over parallel connections; any failure is a
    benchmark error, since timing has not started."""
    errors = []

    def send(part):
        conn = Conn(daemon.port)
        try:
            for req in part:
                if not conn.call(req).get("ok"):
                    errors.append(req["sql"])
        finally:
            conn.close()

    threads = [threading.Thread(target=send, args=(requests[i::connections],))
               for i in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise BenchError("warm-up request failed: " + errors[0])


def report_setup(out, times, what):
    out.metric("setup_s", median(times), "s",
               "median of %d launches (%s)" % (len(times), what))


def fingerprint_check(inputs, replies):
    """Replies must be equal across runs: compares this run's per-query
    digests with those stored by earlier runs over the same inputs (named by
    their data directories). Returns the number of mismatches."""
    name = "+".join(os.path.basename(os.path.dirname(p)) for p in inputs)
    path = os.path.join(harness.DATA_DIR, "fingerprints", name + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    stored = {}
    if os.path.isfile(path):
        with open(path) as f:
            stored = json.load(f)
    mismatches = 0
    for key, text in replies.items():
        digest = hashlib.sha256(text.encode()).hexdigest()
        if stored.setdefault(key, digest) != digest:
            mismatches += 1
    with open(path + ".tmp", "w") as f:
        json.dump(stored, f, sort_keys=True)
    os.replace(path + ".tmp", path)
    return mismatches


def transport_ms(records, traces):
    """Client latency minus the daemon's own time, per traced request."""
    server = {t["id"]: t["ns"] / 1e6 for t in traces}
    return [1000.0 * (r["done"] - r["sent"]) - server[r["trace_id"]]
            for r in records if r.get("trace_id") in server]


def counter_delta(before, after, name):
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def serve_layer(out, before, after, records, cpu_s, wall_s):
    """Serve-path layer metrics of a timed phase, from the daemon's metrics
    verb before and after it."""
    out.layer["serve.transport_p50_ms"] = median(
        transport_ms(records, after["traces"]))
    out.layer["serve.cpu_util"] = cpu_s / (wall_s * harness.NPROC)
    out.layer["serve.shed"] = counter_delta(before, after,
                                            "serve/admission/shed")
    out.layer["serve.errors"] = counter_delta(before, after, "serve/errors")


def percentile_line(out, name, latencies, p, what):
    """A tail percentile with its sample count; flagged when fewer than
    ledger.MIN_BEYOND samples lie beyond it."""
    n = len(latencies)
    beyond = ledger.samples_beyond(n, p)
    out.note("%-22s %14.4f ms     %s, n=%d, %d beyond%s" % (
        name, ledger.nearest_rank(latencies, p), what, n, beyond,
        "" if beyond >= ledger.MIN_BEYOND else " (indicative only)"))


# --------------------------------------------------------------- cold-cli --

def cold_cli(seed, seconds):
    """One fresh `mesa_cli explain` process per request, in sequence."""
    out = Outcome()
    data = harness.dataset("flights", COLD_ROWS, DATA_SEED, FLIGHTS_EXTRACT)
    harness.warm_page_cache([data["csv"], data["kg"]])
    rng = random.Random(seed)
    stream = queries.flights_stream(rng, queries.big_states(data["csv"]),
                                    COLD_BLOCK)
    spec = "flights=%s:%s:%s" % (data["csv"], data["kg"],
                                 "+".join(FLIGHTS_EXTRACT))
    daemon, setup = launch(spec)
    try:
        env = harness.child_env()
        base = [harness.binary("mesa_cli"), "explain", "--data", data["csv"],
                "--kg", data["kg"], "--extract", ",".join(FLIGHTS_EXTRACT),
                "--query"]
        records, lateness = [], []
        start = time.perf_counter()
        prev_end = start
        while time.perf_counter() - start < seconds:
            sql, cls = next(stream)
            lateness.append(1000.0 * (time.perf_counter() - prev_end))
            code, text, wall, rss, cpu = harness.run_timed(base + [sql], env)
            prev_end = time.perf_counter()
            records.append({"sql": sql, "cls": cls, "wall": wall, "rss": rss,
                            "cpu": cpu, "report": text,
                            "ok": code == 0 and text.startswith(sql + "\n")})
        elapsed = prev_end - start

        # Byte parity with the daemon over the same CSV + KG.
        ok = [r for r in records if r["ok"]]
        before = daemon.metrics()
        conn = Conn(daemon.port)
        parity_fail = 0
        parity = rng.sample(ok, min(COLD_PARITY, len(ok)))
        for r in parity:
            r["sent"] = time.perf_counter()
            reply = conn.call({"verb": "explain", "dataset": "flights",
                               "sql": r["sql"]})
            r["done"] = time.perf_counter()
            r["trace_id"] = reply.get("trace_id")
            if not reply.get("ok") or reply.get("report") != r["report"]:
                parity_fail += 1
        conn.close()
        after = daemon.metrics()
    finally:
        daemon.stop()

    out.records = [{k: r[k] for k in ("sql", "cls", "wall", "ok")}
                   for r in records]
    failed = sum(not r["ok"] for r in records)
    mismatch = parity_fail + fingerprint_check(
        [data["csv"]], {r["sql"]: r["report"] for r in ok})
    out.attempted = len(records) + len(parity)
    out.failed = failed + mismatch
    walls = [r["wall"] if r["ok"] else math.inf for r in records]
    report_setup(out, setup, "mesa_serve over CSV+KG: load, extract, join, "
                 "offline prune")
    out.metric("latency_p50_ms", 1000.0 * median(walls), "ms",
               "median process wall time, n=%d" % len(walls))
    out.metric("throughput_rps", len(ok) / elapsed, "1/s",
               "explains completed per second, one process at a time")
    out.metric("peak_rss_mb", max(r["rss"] for r in records), "MB",
               "largest child ru_maxrss")
    out.note("%-22s %14.4f s      median wall per fresh process, n=%d" %
             ("cold_explain_s", median(walls), len(walls)))
    out.note("%-22s %14.4f ratio  %d of %d (parity checks: %d)" %
             ("failed_frac", out.failed / out.attempted, out.failed,
              out.attempted, len(parity)))
    # The processes' CPU over the timed wall; transport from the parity
    # requests sent to the daemon.
    serve_layer(out, before, after, parity, sum(r["cpu"] for r in records),
                elapsed)
    out.layer["loadgen.lateness_p99_ms"] = ledger.nearest_rank(lateness, 99)
    traced = pick_traced(records, 2)
    out.probe = {"datasets": [{"name": "flights", "csv": data["csv"],
                               "kg": data["kg"], "extract": FLIGHTS_EXTRACT}],
                 "requests": [request("flights", r["sql"]) for r in traced],
                 "warm": [], "fresh_process": True}
    return out


def request(dataset, sql):
    return {"verb": "explain", "dataset": dataset, "sql": sql}


def pick_traced(records, n):
    """The first answered narrow and conjunction queries: their cost at one
    thread stays within the traced run's time."""
    picked = [r for r in records if r["ok"] and r["cls"] != "wide"][:n]
    if not picked:
        raise BenchError("no answered query to trace")
    return picked


# ----------------------------------------------------------- resident-1m --

def resident(seed, seconds):
    """mesa_serve over a 1M-row snapshot; closed-loop analysts, every
    request a query the run has not sent before."""
    out = Outcome()
    data = harness.dataset("flights", RESIDENT_ROWS, DATA_SEED,
                           FLIGHTS_EXTRACT, snapshot=True)
    harness.warm_page_cache([data["snapshot"]])
    rng = random.Random(seed)
    stream = queries.flights_stream(rng, queries.big_states(data["csv"]),
                                    RESIDENT_BLOCK)
    daemon, setup = launch("flights=" + data["snapshot"])
    try:
        warm(daemon, [request("flights", next(stream)[0])
                      for _ in range(RESIDENT_WARMUP)], RESIDENT_CLIENTS)
        before = daemon.metrics()
        cpu0 = daemon.cpu_seconds()
        lock = threading.Lock()
        records, lateness, errors = [], [], []
        start = time.perf_counter()

        def analyst(client):
            try:
                conn = Conn(daemon.port)
            except OSError as e:
                errors.append(str(e))
                return
            prev = time.perf_counter()
            while True:
                with lock:
                    if time.perf_counter() - start >= seconds:
                        break
                    sql, cls = next(stream)
                rec = {"sql": sql, "cls": cls, "ok": False, "done": None,
                       "client": client}
                rec["sent"] = time.perf_counter()
                lateness.append(1000.0 * (rec["sent"] - prev))
                try:
                    reply = conn.call(request("flights", sql))
                    rec["done"] = prev = time.perf_counter()
                    rec["trace_id"] = reply.get("trace_id")
                    rec["report"] = reply.get("report", "")
                    rec["ok"] = bool(reply.get("ok")) and \
                        rec["report"].startswith(sql + "\n")
                except (OSError, BenchError, ValueError) as e:
                    errors.append(str(e))
                with lock:
                    records.append(rec)
                if rec["done"] is None:
                    break
            conn.close()

        threads = [threading.Thread(target=analyst, args=(c,))
                   for c in range(RESIDENT_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        end = max([r["done"] for r in records if r["done"]] + [start + 1e-9])
        cpu_s = daemon.cpu_seconds() - cpu0
        after = daemon.metrics()
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    elapsed = end - start
    # Each analyst waits for every reply, so its own rate is its ok replies
    # over its own busy span; the daemon's throughput is their sum. (Counting
    # completions over one shared window would add the straddling last
    # request of each client as noise.)
    throughput = 0.0
    for c in range(RESIDENT_CLIENTS):
        mine = [r for r in records if r["client"] == c and r["done"]]
        if mine:
            throughput += sum(r["ok"] for r in mine) / (
                max(r["done"] for r in mine) - start)

    out.records = [{"sql": r["sql"], "cls": r["cls"], "ok": r["ok"],
                    "sent": r["sent"] - start,
                    "done": r["done"] and r["done"] - start} for r in records]
    ok = [r for r in records if r["ok"]]
    parity_fail = 0
    parity = rng.sample(ok, min(RESIDENT_PARITY, len(ok)))
    for r in parity:
        code, text, _, _, _ = harness.run_timed(
            [harness.binary("mesa_cli"), "explain", "--snapshot",
             data["snapshot"], "--query", r["sql"]], harness.child_env())
        if code != 0 or text != r["report"]:
            parity_fail += 1
    mismatch = parity_fail + fingerprint_check(
        [data["snapshot"]], {r["sql"]: r["report"] for r in ok})
    out.attempted = len(records) + len(parity)
    out.failed = sum(not r["ok"] for r in records) + mismatch
    lat = [1000.0 * (r["done"] - r["sent"]) if r["ok"] else math.inf
           for r in records]
    report_setup(out, setup, "mesa_serve over the snapshot: map, extract, "
                 "join, offline prune")
    out.metric("latency_p50_ms", median(lat), "ms",
               "%d closed-loop clients, n=%d" % (RESIDENT_CLIENTS, len(lat)))
    out.metric("throughput_rps", throughput, "1/s",
               "sum over clients of ok replies per busy second")
    out.metric("peak_rss_mb", rss, "MB", "daemon VmHWM")
    percentile_line(out, "latency_p90_ms", lat, 90, "reply latency")
    out.note("%-22s %14.4f ratio  %d of %d (parity checks: %d)%s" %
             ("failed_frac", out.failed / max(1, out.attempted), out.failed,
              out.attempted, len(parity),
              "; " + errors[0] if errors else ""))
    serve_layer(out, before, after, records, cpu_s, elapsed)
    out.layer["loadgen.lateness_p99_ms"] = ledger.nearest_rank(
        lateness or [0.0], 99)
    out.probe = {"datasets": [{"name": "flights",
                               "snapshot": data["snapshot"]}],
                 "requests": [request("flights", r["sql"])
                              for r in pick_traced(records, 2)],
                 "warm": [], "fresh_process": False}
    return out


# ---------------------------------------------------------- dashboard-mix --

def dashboard(seed, seconds):
    """mesa_serve over covid + flights-60k; a seeded open-loop Poisson
    schedule replays a small pool of dashboard queries."""
    out = Outcome()
    covid = harness.dataset("covid", 188, DATA_SEED, COVID_EXTRACT)
    flights = harness.dataset("flights", DASH_FLIGHTS_ROWS, DATA_SEED,
                              FLIGHTS_EXTRACT)
    harness.warm_page_cache([covid["csv"], covid["kg"], flights["csv"],
                             flights["kg"]])
    rng = random.Random(seed)
    pool = queries.dashboard_pool(rng, queries.big_states(flights["csv"]))
    datasets = [
        {"name": "covid", "csv": covid["csv"], "kg": covid["kg"],
         "extract": COVID_EXTRACT},
        {"name": "flights", "csv": flights["csv"], "kg": flights["kg"],
         "extract": FLIGHTS_EXTRACT}]
    spec = ";".join("%s=%s:%s:%s" % (d["name"], d["csv"], d["kg"],
                                     "+".join(d["extract"]))
                    for d in datasets)

    # The serial, one-thread, one-permit in-process oracle.
    lines = harness.probe("oracle", {"datasets": datasets, "requests": pool,
                                     "threads": 1, "max_inflight": 1},
                          threads=1)
    expected = [json.loads(line) for line in lines[:-1]]
    if len(expected) != len(pool) or not all(e["ok"] for e in expected):
        raise BenchError("oracle could not answer the dashboard pool")
    expected = [e["report"] for e in expected]

    # Conditioned Poisson arrivals: rate x seconds requests at seeded
    # uniform times; every pool query is asked equally often, in a seeded
    # order.
    rounds = max(1, round(DASH_RATE * seconds / len(pool)))
    picks = list(range(len(pool))) * rounds
    rng.shuffle(picks)
    schedule = list(zip(sorted(rng.uniform(0.0, seconds) for _ in picks),
                        picks))

    daemon, setup = launch(spec, max_inflight=DASH_CONNECTIONS)
    try:
        conns = [Conn(daemon.port) for _ in range(DASH_CONNECTIONS)]
        warm_fail = 0
        for i, req in enumerate(pool):  # each pool query once, untimed
            reply = conns[0].call(req)
            warm_fail += reply.get("report") != expected[i]
        before = daemon.metrics()
        cpu0 = daemon.cpu_seconds()
        work = queue.Queue()
        records = []
        lock = threading.Lock()

        def connection(conn):
            while True:
                item = work.get()
                if item is None:
                    return
                due, idx = item
                rec = {"due": due, "sent": time.perf_counter(), "done": None,
                       "ok": False, "idx": idx}
                try:
                    reply = conn.call(pool[idx])
                    rec["done"] = time.perf_counter()
                    rec["trace_id"] = reply.get("trace_id")
                    rec["ok"] = bool(reply.get("ok")) and \
                        reply.get("report") == expected[idx]
                except (OSError, BenchError, ValueError):
                    pass
                with lock:
                    records.append(rec)

        workers = [threading.Thread(target=connection, args=(c,))
                   for c in conns]
        for w in workers:
            w.start()
        start = time.perf_counter() + 0.05
        for offset, idx in schedule:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            work.put((due, idx))
        for _ in workers:
            work.put(None)
        for w in workers:
            w.join()
        end = max([r["done"] for r in records if r["done"]] + [start + 1e-9])
        cpu_s = daemon.cpu_seconds() - cpu0
        after = daemon.metrics()
        rss = daemon.peak_rss_mb()
        for c in conns:
            c.close()
    finally:
        daemon.stop()
    elapsed = end - start

    out.records = [{"idx": r["idx"], "ok": r["ok"], "due": r["due"] - start,
                    "sent": r["sent"] - start,
                    "done": r["done"] and r["done"] - start} for r in records]
    acct = ledger.open_loop(records, DASH_LIMIT_MS)
    mismatch = warm_fail + fingerprint_check(
        [covid["csv"], flights["csv"]],
        {json.dumps(req, sort_keys=True): expected[i]
         for i, req in enumerate(pool)})
    ok = sum(r["ok"] for r in records)
    out.attempted = len(records) + len(pool)
    out.failed = (len(records) - ok) + mismatch
    report_setup(out, setup, "mesa_serve over covid + flights-60k CSV+KG")
    out.metric("latency_p50_ms", acct["latency"]["p50"], "ms",
               "from due time, open loop at %g req/s over %d connections, "
               "n=%d" % (DASH_RATE, DASH_CONNECTIONS, acct["offered"]))
    out.metric("throughput_rps", ok / elapsed, "1/s",
               "ok replies over %.2f s" % elapsed)
    out.metric("peak_rss_mb", rss, "MB", "daemon VmHWM")
    percentile_line(out, "latency_p99_ms",
                    [1000.0 * (r["done"] - r["due"]) if r["ok"] else math.inf
                     for r in records], 99, "from due time")
    out.note("%-22s %14.4f ratio  ok within %g ms of due, of %d offered" %
             ("goodput_frac", acct["goodput_frac"], DASH_LIMIT_MS,
              acct["offered"]))
    out.note("%-22s %14.4f ratio  %d of %d (oracle checks: %d)" %
             ("failed_frac", out.failed / out.attempted, out.failed,
              out.attempted, len(records) + len(pool)))
    serve_layer(out, before, after, records, cpu_s, elapsed)
    out.layer["loadgen.lateness_p99_ms"] = acct["lateness_p99_ms"]
    out.probe = {"datasets": datasets, "requests": pool, "warm": pool,
                 "fresh_process": False}
    return out


WORKLOADS = {
    "cold-cli-flights": cold_cli,
    "resident-flights1m": resident,
    "dashboard-mix": dashboard,
}


# ------------------------------------------------------------ traced run --

# Span name -> (wall metric, CPU metric or None).
SPAN_METRICS = {
    "table.csv_read": ("table.csv_read_s", None),
    "kg.read": ("kg.read_s", None),
    "kg.extract": ("kg.extract_s", None),
    "snapshot.read": ("snapshot.read_s", None),
    "query.join": ("query.join_s", "query.join_cpu_s"),
    "core.offline_prune": ("core.offline_prune_s", None),
    "query.context_filter": ("query.context_filter_s", None),
    "core.prepare": ("core.prepare_s", "core.prepare_cpu_s"),
    "core.online_prune": ("core.online_prune_s", None),
    "core.mcimr": ("core.mcimr_s", "core.mcimr_cpu_s"),
    "core.responsibility": ("core.responsibility_s", None),
    "core.subgroups": ("core.subgroups_s", None),
    "core.report": ("core.report_s", None),
    "stats.discretize": ("stats.discretize_s", None),
    "missing.selection_bias": ("missing.selection_bias_s", None),
    "missing.ipw": ("missing.ipw_s", None),
}
COUNT_METRICS = ("kg.values_failed", "core.candidates_offline",
                 "core.candidates_online", "stats.discretize_calls",
                 "stats.discretizer_hit_ratio", "missing.ipw_fits",
                 "info.estimator_evals", "info.scalar_hit_ratio",
                 "info.cube_hit_ratio", "info.evictions")
SERVE_METRICS = ("serve.handle_p50_ms", "serve.transport_p50_ms",
                 "serve.cpu_util", "serve.shed", "serve.errors",
                 "loadgen.lateness_p99_ms", "trace.overhead_frac")


def layer_metric_names():
    names = []
    for wall, cpu in SPAN_METRICS.values():
        for m in (wall, cpu):
            if m:
                names += [m + ".t%d" % t for t in TRACE_THREADS]
    return names + list(COUNT_METRICS) + list(SERVE_METRICS)


def unit_of(name):
    base = name.rsplit(".t", 1)[0] if ".t" in name[-4:] else name
    if base.endswith("_ms"):
        return "ms"
    if base.endswith("_s"):
        return "s"
    if base.endswith(("_ratio", "_frac", "_util")):
        return "ratio"
    return "count"


def ratio(hits, misses):
    """Hit ratio; 1 when there was no lookup, since nothing missed."""
    return hits / (hits + misses) if hits + misses else 1.0


def traced_layers(workload, seed, out):
    """Costs every layer with the probe at each pool size; returns the
    per-layer metrics and writes the full span ledger."""
    results = os.path.join(harness.DATA_DIR, "results")
    os.makedirs(results, exist_ok=True)
    spans_path = os.path.join(results, "%s-s%d-spans.jsonl" % (workload, seed))
    plan = dict(out.probe, thread_counts=list(TRACE_THREADS),
                spans_out=spans_path)
    summary = json.loads(harness.probe("trace", plan)[-1])
    if summary["mismatches"]:
        out.failed += summary["mismatches"]
    with open(spans_path) as f:
        spans = [json.loads(line) for line in f]

    metrics = {}
    times = ledger.span_times(spans)
    by_pass = {}
    for s in spans:
        by_pass.setdefault(s["pass"], []).append(s)
    ledger_rows = {}
    for pass_name, pass_spans in by_pass.items():
        per = {}  # (span name, request) -> [wall, cpu, self, child]
        for s in pass_spans:
            acc = per.setdefault((s["name"], s["request"]), [0, 0.0, 0, 0])
            t = times[s["id"]]
            acc[0] += t["wall_ns"]
            acc[1] += s["cpu_s"]
            acc[2] += t["self_ns"]
            acc[3] += t["child_ns"]
        grouped = {}
        for (name, req), acc in per.items():
            grouped.setdefault(name, []).append((req, acc))
        for name, rows in grouped.items():
            # Load layers sum over datasets; request layers take the median
            # over the requests that ran them.
            load = rows[0][0].startswith("load:")
            pick = (lambda i: sum(a[i] for _, a in rows)) if load else \
                (lambda i: statistics.median(a[i] for _, a in rows))
            ledger_rows["%s %s" % (pass_name, name)] = {
                "wall_s": pick(0) / 1e9, "cpu_s": pick(1),
                "self_s": pick(2) / 1e9, "child_s": pick(3) / 1e9,
                "per": "load" if load else "request", "n": len(rows)}
            if name in SPAN_METRICS:
                wall, cpu = SPAN_METRICS[name]
                metrics["%s.%s" % (wall, pass_name)] = pick(0) / 1e9
                if cpu:
                    metrics["%s.%s" % (cpu, pass_name)] = pick(1)
    with open(os.path.join(results, "%s-s%d-ledger.json" % (workload, seed)),
              "w") as f:
        json.dump(ledger_rows, f, indent=1, sort_keys=True)

    last = summary["passes"][-1]
    reqs = last["requests"]
    cache = last["cache"]

    def med(key):
        return statistics.median(r[key] for r in reqs)

    metrics.update({
        "kg.values_failed": last["values_failed"],
        "core.candidates_offline": med("candidates_offline"),
        "core.candidates_online": med("candidates_online"),
        "stats.discretize_calls": med("discretize_calls"),
        "stats.discretizer_hit_ratio": ratio(cache["discretizer_hits"],
                                             cache["discretizer_misses"]),
        "missing.ipw_fits": med("ipw_fits"),
        "info.estimator_evals": med("estimator_evals"),
        "info.scalar_hit_ratio": ratio(cache["scalar_hits"],
                                       cache["scalar_misses"]),
        "info.cube_hit_ratio": ratio(cache["cube_hits"], cache["cube_misses"]),
        "info.evictions": cache["evictions"],
        "trace.overhead_frac": summary["traced_loop_s"] /
        summary["untraced_loop_s"] - 1.0,
    })
    # In-process Router::Handle on the same requests, warm when the
    # workload repeats its requests.
    handle = json.loads(harness.probe("oracle", {
        "datasets": out.probe["datasets"], "requests": out.probe["requests"],
        "threads": harness.NPROC, "max_inflight": DASH_CONNECTIONS,
        "passes": 2 if out.probe["warm"] else 1})[-1])["handle_ms"]
    metrics["serve.handle_p50_ms"] = statistics.median(handle)
    metrics.update(out.layer)
    for name in layer_metric_names():
        metrics.setdefault(name, 0.0)
    out.note("traced run: %d requests at pool sizes %s, composed reports "
             "byte-identical to Mesa::Explain: %s" % (
                 summary["requests"], list(TRACE_THREADS),
                 "yes" if not summary["mismatches"] else
                 "NO (%d differ)" % summary["mismatches"]))
    for key in sorted(ledger_rows):
        row = ledger_rows[key]
        out.note("  %-30s wall %9.4f s  self %9.4f  child %9.4f  cpu %9.4f"
                 "  per %s (n=%d)" % (key, row["wall_s"], row["self_s"],
                                      row["child_s"], row["cpu_s"],
                                      row["per"], row["n"]))
    return metrics
