#!/usr/bin/env python3
"""Runs the benchmark of the interp-lab measurement lab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload counts --seed 1 --seconds 20 --trace 0

It builds the benchmark program (perfbench/main.go, a module of its own
that imports the lab) into .bench_build/, runs the workload in fresh
processes until --seconds have been measured, checks every output, and
prints one JSON object as its last line of standard output.  With
--trace 0 that object holds the end-to-end metrics (medians over the
samples of this run); with --trace 1 it holds the per-layer metrics of
one traced process.  Lines before it are a stamp (git rev, Go version,
CPUs, load) and one record per sample.  README.md describes the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# Set-up probes per run: each exits at the first measurement job, so they
# are cheap, and their median makes setup_s steady.
SETUP_PROBES = 21
# Every sample of a run must end within this many seconds after the build,
# so the run ends within three minutes even if the lab hangs.
RUN_LIMIT_S = 165


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env():
    """The environment for go and the benchmark: every cache and temporary
    file stays inside the checkout, and no toolchain is downloaded."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        # The go command keeps its config and telemetry counters here.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
        GOWORK="off",
    )
    return env


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no go.mod at %s: run from the root of an interp-lab checkout" % ROOT)
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    r = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=850,
    )
    if r.returncode != 0:
        fail("build failed:\n" + r.stdout)


def stamp(env, args, loadavg):
    """Identify the code and the host the numbers came from."""
    rev = None
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        lines = r.stdout.split()
        # A checkout that is not a git tree may still sit inside one.
        if r.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            rev = lines[1]
    except OSError:
        pass
    if rev is None:
        rev = "tree-sha256:" + tree_digest()
    gov = subprocess.run(["go", "env", "GOVERSION"], env=env, capture_output=True, text=True, timeout=30)
    return {
        "rev": rev,
        "go": gov.stdout.strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(loadavg),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
    }


def tree_digest():
    """A digest of the Go sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(x for x in dirs if not x.startswith("."))
        for f in sorted(files):
            if f.endswith(".go") or f in ("go.mod", "go.sum"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def sample(env, argv, deadline):
    """Run the benchmark program once in a fresh process and return its
    record, with the wall time, CPU time and peak RSS the kernel measured
    of the whole process."""
    env = dict(env, PERFBENCH_SPAWN_NS=str(time.time_ns()))
    t0 = time.perf_counter()
    p = subprocess.Popen([BINARY] + argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.perf_counter()), p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        fail("sample %s exited %d" % (" ".join(argv), p.returncode))
    rec = json.loads(out.strip().splitlines()[-1])
    rec.update(wall_s=wall, cpu_s=ru.ru_utime + ru.ru_stime, peak_rss_mb=ru.ru_maxrss / 1024)
    return rec


def main():
    loadavg = os.getloadavg()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=0, help="recorded only: the inputs are the paper's fixed programs")
    ap.add_argument("--seconds", type=float, default=20, help="measure until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=0.25, help="workload scale; outputs are pinned at 0.25 and 1")
    args = ap.parse_args()

    env = go_env()
    build(env)
    deadline = time.perf_counter() + RUN_LIMIT_S
    print(json.dumps({"stamp": stamp(env, args, loadavg)}))
    base = ["-workload", args.workload, "-scale", repr(args.scale)]

    if args.trace:
        rec = sample(env, base + ["-trace"], deadline)
        print(json.dumps({"sample": rec}))
        report(rec["attempted"], rec["failed"], rec["mismatches"], rec["layers"], bench["per_layer"])
        return

    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(sample(env, base + ["-setup-probe"], deadline)["setup_s"])
    recs = []
    start = time.perf_counter()
    while not recs or time.perf_counter() - start < args.seconds:
        rec = sample(env, base, deadline)
        print(json.dumps({"sample": rec}))
        recs.append(rec)
    setups += [r["setup_s"] for r in recs]

    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    med = lambda key: statistics.median(r[key] for r in recs)
    values = {
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "events_per_s": statistics.median(r["events"] / r["wall_s"] for r in recs),
        "alloc_mb": med("alloc_mb"),
        "peak_rss_mb": med("peak_rss_mb"),
        "setup_s": statistics.median(setups),
        "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
    }
    report(attempted, failed, [m for r in recs for m in r["mismatches"]], values, bench["end_to_end"])


def report(attempted, failed, mismatches, values, declared):
    """Print the result line: every metric BENCHMARK.json declares, with
    its declared unit."""
    for m in mismatches:
        print("mismatch: " + m, file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail("no value for declared metrics %s" % ", ".join(missing))
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))


if __name__ == "__main__":
    main()
