#!/usr/bin/env python3
"""perfbench: the repository's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. Builds mesa_cli, mesa_serve and the layer
probe from ../src into .bench_build (Release), generates seeded inputs into
.bench_data, runs one workload for S seconds and checks every reply. The
last line of standard output is one JSON object: with --trace 0 it carries
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones
from a separate traced run. Exit code 0 when every reply was correct, 1 on
a failed or mismatched reply, 2 when the benchmark itself could not run.
Workloads and metrics: perfbench/README.md.
"""

import argparse
import io
import json
import math
import os
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import harness  # noqa: E402
import workloads  # noqa: E402
from harness import BenchError  # noqa: E402


def run_one(name, seed, seconds, trace):
    out = workloads.WORKLOADS[name](seed, seconds)
    if trace:
        metrics = {k: (v, workloads.unit_of(k)) for k, v in
                   workloads.traced_layers(name, seed, out).items()}
    else:
        metrics = out.metrics
    return out, metrics


def positive(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def finite(value):
    # A median over mostly failed requests is infinite; JSON has no
    # infinity, and such a run is reported incorrect anyway.
    return value if math.isfinite(value) else 1e12


def self_test():
    """The benchmark's own arithmetic must hold before it measures."""
    suite = unittest.defaultTestLoader.loadTestsFromName("test_ledger")
    result = unittest.TextTestRunner(stream=io.StringIO()).run(suite)
    if not result.wasSuccessful():
        raise BenchError("ledger self-test failed: %s" %
                         (result.failures + result.errors)[0][1])


def save(name, args, prov, out, metrics):
    """Keeps every result with its provenance under .bench_data/results."""
    path = os.path.join(harness.DATA_DIR, "results", "%s-s%d-trace%d.json" %
                        (name, args.seed, args.trace))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"workload": name, "seed": args.seed,
                   "seconds": args.seconds, "provenance": prov,
                   "attempted": out.attempted, "failed": out.failed,
                   "metrics": metrics, "records": out.records}, f, indent=1)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        self_test()
        harness.build()
        prov = harness.provenance()
        results = {}
        for name in names:
            out, metrics = run_one(name, args.seed, args.seconds, args.trace)
            print("== %s seed=%d seconds=%g trace=%d" %
                  (name, args.seed, args.seconds, args.trace))
            print("provenance " + " ".join("%s=%s" % kv
                                           for kv in sorted(prov.items())))
            print("\n".join(out.lines))
            results[name] = (out, metrics)
            save(name, args, prov, out, metrics)
    except BenchError as e:
        harness.log("perfbench: %s" % e)
        return 2

    attempted = sum(o.attempted for o, _ in results.values())
    failed = sum(o.failed for o, _ in results.values())
    if args.workload == "all":
        metrics = {"%s/%s" % (w, k): v for w, (_, m) in results.items()
                   for k, v in m.items()}
    else:
        metrics = results[args.workload][1]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": finite(v), "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
