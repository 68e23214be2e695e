#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload sweep_64|rollout_16|serve_mix \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds the benchmark
(perfbench/CMakeLists.txt, which compiles the library from the checkout's
sources) into .bench_build/perfbench; later calls rebuild incrementally.

A workload run prints its named metrics, operation counts and (traced) the
per-layer table on stdout, and as its LAST line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} holding
the end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer
metrics (--trace 1). See perfbench/README.md for what each metric means.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("sweep_64", "rollout_16", "serve_mix")
# Named end-to-end metrics that every run of a workload prints (its
# percentiles are printed too, when enough samples lie beyond them).
NAMED = {
    "sweep_64": ("setup_s", "peak_rss_mib", "maps_per_s", "sweep_p50_ms"),
    "rollout_16": ("setup_s", "peak_rss_mib", "steps_per_s", "step_p50_ms"),
    "serve_mix": ("setup_s", "peak_rss_mib", "p50_ms.low", "p50_ms.high",
                  "p50_ms.single", "burst_rps", "max_rate_rps"),
}
# Every set-up runs in a fresh process, timed from its start, so no warm
# state carries over; setup_s is the median of COLD_SETUPS[workload] of
# them: the measured run's own and the rest from processes that stop after
# set-up. rollout_16's set-up is tens of ms, so it takes more of them;
# sweep_64's is ~6 s, so it takes fewer.
COLD_SETUPS = {"sweep_64": 2, "rollout_16": 9, "serve_mix": 3}
# The self-test fails on a self-time row below -SELFTIME_EPS x the
# end-to-end time: the spans and the program's histograms disagree.
SELFTIME_EPS = 0.05
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; raise on failure."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))


def program_env():
    # The program's tuning knobs stay at their defaults: a SAUFNO_* variable
    # in the caller's environment must not change what is measured.
    return {k: v for k, v in os.environ.items() if not k.startswith("SAUFNO_")}


def run_binary(workload, seed, seconds, trace, extra=()):
    tag = "%s-%d-%d" % (workload, seed, trace)
    out = os.path.join(BUILD, "report-%s.json" % tag)
    spans = os.path.join(BUILD, "spans-%s.json" % tag)
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
           "--out", out, "--spans", spans] + list(extra)
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       env=program_env(), timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError("%s exited with %d" % (workload, r.returncode))
    with open(out) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, extra=()):
    """One measured run; untraced runs also take the cold set-ups and
    report their median as setup_s."""
    setups = []
    if not trace:
        for _ in range(COLD_SETUPS[workload] - 1):
            rep = run_binary(workload, seed, seconds, 0, ["--setup-only", "1"])
            setups.append(e2e_value(rep, "setup_s"))
    rep = run_binary(workload, seed, seconds, trace, extra)
    if setups:
        for m in rep["e2e"]:
            if m["name"] == "setup_s":
                setups.append(m["value"])
                m["value"] = statistics.median(setups)
                m["samples"] = len(setups)
    return rep


def e2e_value(rep, name):
    for m in rep["e2e"]:
        if m["name"] == name:
            return m["value"]
    raise KeyError("%s missing from %s report" % (name, rep["workload"]))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def contract_metrics(rep, spec, trace):
    """The metrics object of the result line, in BENCHMARK.json's order."""
    if not trace:
        values = {
            "throughput": rep["throughput_per_s"],
            "p50_ms": rep["p50_ms"],
            "setup_s": e2e_value(rep, "setup_s"),
        }
        wanted = spec["end_to_end"]
    else:
        values = {m["name"]: m["value"] for m in rep["layers"]}
        wanted = spec["per_layer"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise RuntimeError("metric %s missing from %s report"
                               % (m["name"], rep["workload"]))
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return metrics


def describe(rep):
    ops = rep["ops"]
    print("%s seed=%d lanes=%d: attempted=%d ok=%d shed=%d failed=%d "
          "unanswered=%d mismatches=%d"
          % (rep["workload"], rep["seed"], rep["lanes"], ops["attempted"],
             ops["ok"], ops["shed"], ops["failed"], ops["unanswered"],
             ops["mismatches"]))
    for m in rep["e2e"]:
        print("  %-16s %12.4f %-16s n=%d" % (m["name"], m["value"], m["unit"],
                                             m["samples"]))
    if rep["layers"]:
        print("  per-layer:")
        for m in rep["layers"]:
            print("    %-36s %14.4f %-6s [%s]" % (m["name"], m["value"],
                                                  m["unit"], m["source"]))
        st = rep["selftime"]
        print("  self time per %s (ms):" % st["op"])
        total = 0.0
        for row in st["rows"]:
            total += row["value"]
            print("    %-20s %10.4f" % (row["name"], row["value"]))
        print("    %-20s %10.4f  (end to end %.4f)"
              % ("sum", total, st["total_ms"]))
        unattributed = [r["value"] for r in st["rows"]
                        if r["name"] == "unattributed"][0]
        print("    unattributed share %.4f"
              % (unattributed / st["total_ms"] if st["total_ms"] else 0.0))
    for n in rep["notes"]:
        print("  note: " + n)


def result_line(rep, spec, trace):
    ops = rep["ops"]
    return json.dumps({
        "correct": ops["mismatches"] == 0,
        "attempted": ops["attempted"],
        "failed": ops["shed"] + ops["failed"] + ops["unanswered"],
        "metrics": contract_metrics(rep, spec, trace),
    })


def self_test():
    """Each workload once untraced and once traced on short settings:
    checks the result schema, that the seed output has no mismatches, that
    no self-time row (unattributed included) is below -SELFTIME_EPS of the
    end-to-end time, and that a corrupted reference is caught by the output
    check."""
    spec = load_spec()
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            rep = run_workload(w, 7, 1.0, trace)
            line = json.loads(result_line(rep, spec, trace))
            want = spec["per_layer" if trace else "end_to_end"]
            if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: bad result keys" % w)
            if set(line["metrics"]) != {m["name"] for m in want}:
                problems.append("%s trace=%d: metric set differs" % (w, trace))
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append("%s trace=%d: correct=%s failed=%d"
                                % (w, trace, line["correct"], line["failed"]))
            if not trace:
                missing = set(NAMED[w]) - {m["name"] for m in rep["e2e"]}
                if missing:
                    problems.append("%s: named metrics missing: %s"
                                    % (w, sorted(missing)))
            else:
                st = rep["selftime"]
                for r in st["rows"]:
                    if r["value"] < -SELFTIME_EPS * st["total_ms"]:
                        problems.append("%s: self-time row %s is %f ms of %f"
                                        % (w, r["name"], r["value"],
                                           st["total_ms"]))
            describe(rep)
    rep = run_binary("rollout_16", 7, 1.0, 0, ["--corrupt-ref", "1"])
    if rep["ops"]["mismatches"] == 0:
        problems.append("a corrupted reference went unnoticed")
    for p in problems:
        print("SELF-TEST FAIL: " + p)
    print("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="run every workload untraced and print its metrics")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not (a.workload or a.report or a.self_test):
        ap.error("one of --workload, --report, --self-test is required")
    try:
        t0 = time.time()
        build()
        log("perfbench: build ready in %.1f s" % (time.time() - t0))
        if a.self_test:
            return self_test()
        spec = load_spec()
        if a.report:
            for w in WORKLOADS:
                describe(run_workload(w, a.seed, a.seconds, 0))
            return 0
        rep = run_workload(a.workload, a.seed, a.seconds, a.trace)
        describe(rep)
        print(result_line(rep, spec, a.trace), flush=True)
        return 0
    except (RuntimeError, OSError, KeyError, ValueError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
