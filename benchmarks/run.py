"""The slncrystals benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in fresh
interpreters, one at a time, so that set-up cost, peak memory and the
module-level caches of one workload never leak into another:

* SETUP_SAMPLES - 1 set-up-only processes, then one measuring process.
  setup_s is the median over all of them of the time from process start
  to the end of the warm-up pass (interpreter start, import, input
  generation, warm-up).
* The measuring process runs the workload's requests as a closed loop for
  S seconds and checks every answer outside the timed region.

With --trace 0 the last line of stdout holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 it holds the per-layer metrics of a traced
run.  The line before it records the environment.  Exit code 0 means the
run finished; whether the program's answers were right is the "correct"
field.  Without the program's sources next to it the benchmark exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "slncrystals")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 5
DEADLINE_S = 170  # every run ends well inside the 180 s it is allowed


class BenchError(Exception):
    pass


def spawn(argv, deadline):
    """Run a worker to the end; return (what it printed after "ready",
    seconds from its start until it printed "ready")."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER] + argv, cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if line != "ready\n" or proc.returncode != 0:
        raise BenchError("worker %s exited with %s" % (" ".join(argv), proc.returncode))
    return rest, setup


def source_digest():
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def commit():
    """The checked-out commit, when the checkout is a git work tree."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, unwind through spawn()'s finally, which stops the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        sys.stderr.write("error: no slncrystals sources under %s\n" % SRC)
        return 2
    # byte-compile up front, so that every set-up imports compiled code
    # whether or not the environment lets Python write bytecode itself
    for directory in (os.path.dirname(SRC), HERE):
        if not compileall.compile_dir(directory, quiet=1):
            sys.stderr.write("error: cannot compile %s\n" % directory)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write("error: unknown workload %r\n" % args.workload)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                _, setup = spawn(worker_args + ["--setup-only"], deadline)
                setups.append(setup)
        out, setup = spawn(worker_args, deadline)
        setups.append(setup)
        result = json.loads(out.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as err:
        sys.stderr.write("error: %s\n" % err)
        return 1

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(units):
        sys.stderr.write("error: metrics %s do not match BENCHMARK.json %s\n"
                         % (sorted(metrics), sorted(units)))
        return 1

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": result["failed"] / result["attempted"],
    }
    env.update({k: v for k, v in result.items()
                if k not in ("attempted", "failed", "metrics")})
    if not args.trace:
        env["setup_samples_s"] = setups
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
