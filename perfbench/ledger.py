"""Arithmetic of the benchmark: percentiles, open-loop accounting, span times.

Everything here is pure and deterministic, so it is unit-tested on scripted
inputs (test_ledger.py).
"""

import math

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, the percentile is a guess about unseen requests.
MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99, 98, 97, 95, 90, 80, 75)


def _rank(n, p):
    # 1-based nearest rank; the epsilon keeps 99.9% of 10000 at 9990.
    return min(n, max(1, math.ceil(p * n / 100.0 - 1e-9)))


def nearest_rank(values, p):
    """Nearest-rank p-th percentile: the smallest value with at least p% of
    the samples at or below it. Infinite values (failed requests) sort last."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie strictly beyond the nearest-rank p-th."""
    return n - _rank(n, p)


def tail_percentile(n, candidates=TAIL_CANDIDATES):
    """Highest candidate percentile with MIN_BEYOND samples beyond it, or
    None when the sample supports no tail at all."""
    for p in sorted(candidates, reverse=True):
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def latency_summary(latencies):
    """Median and the highest supported tail of a latency sample. A failed
    request enters as math.inf: it misses every limit."""
    n = len(latencies)
    out = {"n": n, "p50": nearest_rank(latencies, 50) if n else math.inf}
    p = tail_percentile(n)
    out["tail_p"] = p
    out["tail"] = nearest_rank(latencies, p) if p is not None else None
    return out


def open_loop(records, limit_ms):
    """Accounts an open-loop run without coordinated omission.

    Each record is a dict with `due` (when the schedule wanted the request
    sent), `sent` and `done` (seconds, `done` None when no reply came) and
    `ok` (reply arrived and was correct). Latency counts from `due`, so a
    request held behind busy connections is charged for its wait; a request
    that failed counts as infinitely late.
    """
    latencies = []
    lateness = []
    good = 0
    for r in records:
        lateness.append(1000.0 * (r["sent"] - r["due"]))
        if r["ok"] and r["done"] is not None:
            ms = 1000.0 * (r["done"] - r["due"])
            latencies.append(ms)
            if ms <= limit_ms:
                good += 1
        else:
            latencies.append(math.inf)
    offered = len(records)
    return {
        "offered": offered,
        "goodput_frac": good / offered if offered else 0.0,
        "latency": latency_summary(latencies),
        "lateness_p99_ms": nearest_rank(lateness, 99) if lateness else 0.0,
    }


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_times(spans):
    """Wall, child and self time (ns) of every span.

    `spans` are dicts with `id`, `parent` (-1 for a root), `start_ns` and
    `end_ns`. Child time is the part of the span's interval covered by its
    children, clipped to the span: children that ran concurrently in pool
    workers overlap each other and are counted once, so self time never goes
    negative and wall = self + child holds exactly.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = union_length(
            (max(c["start_ns"], start), min(c["end_ns"], end))
            for c in children.get(s["id"], [])
            if c["end_ns"] > start and c["start_ns"] < end)
        wall = end - start
        out[s["id"]] = {"wall_ns": wall, "child_ns": covered,
                        "self_ns": wall - covered}
    return out
