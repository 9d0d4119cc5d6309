"""One workload in one fresh interpreter: set up, then measure.

Started by run.py.  It imports slncrystals from the checkout's src/,
generates the seeded requests, runs a warm-up pass, and prints "ready".
With --setup-only it stops there.  Otherwise it runs the requests as a
closed loop (one client; each request is sent when the previous one has
returned and been checked), audits how many configurations each distinct
request visits, and prints one JSON line of results.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from slncrystals import cli  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3  # repetitions of every request, for a best time per request


def execute(request):
    """Run one request through cli.main; return (seconds, correct).

    Only the cli.main call is timed.  Any exception, a nonzero exit code or
    an output other than the expected one makes the request a failure.
    """
    out = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(request.stdin), out, io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(list(request.argv))
    except SystemExit as exc:  # argparse rejecting the argv
        rc = exc.code
    except Exception:
        rc = None
        error = traceback.format_exc()
    finally:
        dt = time.perf_counter() - t0
        sys.stdin, sys.stdout, sys.stderr = saved
    ok = rc == 0 and out.getvalue() == request.expected
    if not ok:
        sys.stderr.write("request failed: %s (exit %r)\n%s"
                         % (" ".join(request.argv), rc, error or ""))
    return dt, ok


def run_requests(requests):
    """Run every request once; return (latencies, elements, failures)."""
    latencies, elements, failures = [], 0, 0
    for request in requests:
        dt, ok = execute(request)
        latencies.append(dt)
        elements += request.elements
        failures += not ok
    return latencies, elements, failures


def audit(requests):
    """Run each distinct request once more, untimed, counting the
    configurations its enumerations and crystal-graph BFS visit.  A count
    other than the request's visits, or a wrong answer, is a failure.
    Returns (attempted, failures)."""
    distinct = list(dict.fromkeys(requests))
    failures = 0
    for request in distinct:
        with layertrace.Tracer() as tracer:
            _, ok = execute(request)
        if ok and tracer.visits() != request.visits:
            ok = False
            sys.stderr.write("request visited %s configurations, not %s: %s\n"
                             % (tracer.visits(), request.visits,
                                " ".join(request.argv)))
        failures += not ok
    return len(distinct), failures


def closed_loop(requests, seconds):
    """Passes over all requests until `seconds` have passed (whole passes, at
    least MIN_PASSES).  Returns each request's latencies and the failures."""
    samples = [[] for _ in requests]
    failures = 0
    start = time.perf_counter()
    passes = 0
    while time.perf_counter() - start < seconds or passes < MIN_PASSES:
        latencies, _, fail = run_requests(requests)
        for times, dt in zip(samples, latencies):
            times.append(dt)
        failures += fail
        passes += 1
    return samples, failures


def end_to_end(requests, samples):
    """Each request counts with the fastest time that it, or an identical
    request of the workload, took in any pass: the work is deterministic,
    and on a shared machine noise only ever adds time."""
    fastest = {}
    for request, times in zip(requests, samples):
        fastest[request] = min(fastest.get(request, math.inf), *times)
    latencies = [fastest[request] for request in requests]
    q = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "elements_per_s": sum(r.elements for r in requests) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * q[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    requests = workloads.build(args.workload, args.seed)
    warm = workloads.warmup_set(requests)
    _, _, failures = run_requests(warm)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    samples, fail = closed_loop(requests, args.seconds)
    audited, audit_fail = audit(requests)
    failures += fail + audit_fail
    metrics = end_to_end(requests, samples)
    result = {
        "attempted": len(warm) + sum(map(len, samples)) + audited,
        "failed": failures,
        "requests": len(requests),
        "passes": len(samples[0]),
        "elements": sum(r.elements for r in requests),
    }
    if args.trace:
        with layertrace.Tracer() as tracer:
            lat, elements, fail = run_requests(requests)
        result["attempted"] += len(lat)
        result["failed"] += fail
        untraced = metrics["elements_per_s"]
        metrics = tracer.metrics()
        metrics["trace.overhead"] = untraced / (elements / sum(lat))
    result["metrics"] = metrics
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
