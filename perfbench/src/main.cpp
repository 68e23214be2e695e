// perfbench: the repo benchmark binary. Runs ONE workload in this
// process and writes its report as JSON; run.py builds this binary, runs
// it and prints the benchmark's result line.
//
//   perfbench --workload sweep_64|rollout_16|serve_mix --seed N
//             --seconds S --trace 0|1 --out report.json
//             [--spans spans.json] [--corrupt-ref 1] [--setup-only 1]
//
// The set-up (model build, engine start, plan compiles, warm-up) is timed
// from process start. With --setup-only the process stops there and
// reports only setup_s: run.py starts a few such processes per run so that
// every set-up it reports is cold.
// The pool's lanes, and the CPUs the run is pinned to, are fixed per
// workload (lanes_for). Untraced runs measure the end-to-end metrics;
// traced runs measure the same traffic once untraced and once with
// benchmark-side spans and kernel profiling on, and report per-layer
// metrics, the self-time table and the tracing overhead.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "runtime/thread_pool.h"

namespace {

bool parse(int argc, char** argv, perfbench::Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--out") {
      a->out = v;
    } else if (k == "--spans") {
      a->spans_out = v;
    } else if (k == "--corrupt-ref") {
      a->corrupt_ref = std::atoi(v) != 0;
    } else if (k == "--setup-only") {
      a->setup_only = std::atoi(v) != 0;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && !a->out.empty() &&
         a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --out PATH [--spans PATH] [--corrupt-ref 1] "
                 "[--setup-only 1]\n");
    return 2;
  }
  // Every thread of the run, the pool's included, stays on the workload's
  // CPUs.
  pin_current_thread(lanes_for(args.workload));
  saufno::runtime::ThreadPool::instance().resize(lanes_for(args.workload));

  Report report;
  report.workload = args.workload;
  int rc = 0;
  try {
    if (args.workload == "sweep_64") {
      rc = run_sweep_64(args, report);
    } else if (args.workload == "rollout_16") {
      rc = run_rollout_16(args, report);
    } else if (args.workload == "serve_mix") {
      rc = run_serve_mix(args, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (rc != 0) return rc;
  if (!report.write(args.out, args)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}
