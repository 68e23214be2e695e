// Shared pieces of the perfbench binary: arguments, sample statistics,
// the in-memory span recorder, per-run obs deltas and the report that each
// workload fills in and writes as JSON for run.py.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <memory>

#include "nn/module.h"
#include "obs/metrics.h"
#include "tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double ms_between(int64_t t0_ns, int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-6;
}

/// steady_clock reading taken during static initialization: the "process
/// start" the first set-up is timed from.
extern const int64_t kProcessStartNs;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt_ref = false;  // self-test: flip one reference bit
  bool setup_only = false;   // stop after the set-up; report setup_s only
  std::string out;           // report JSON path
  std::string spans_out;     // span dump path (traced runs)
};

/// Pool lanes, and CPUs, a workload runs with: 2 for sweep_64 and 1 for
/// rollout_16 and serve_mix, at most the CPUs the process started with
/// (what `nproc` prints). On a shared host, a process
/// that kept every vCPU busy measured the host's load more than the
/// program: its vCPUs were descheduled, and each parallel region of a
/// forward waits for its slowest lane. See perfbench/README.md.
int lanes_for(const std::string& workload);

/// Pins the calling thread, and every thread it starts later, to the first
/// `n` CPUs the process started with.
void pin_current_thread(int n);

/// The pool's current lane count.
int lanes();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

/// Timing samples. Percentiles are nearest-rank on the sorted samples and
/// are reported only when at least ten samples lie beyond them.
class Samples {
 public:
  void add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  std::size_t n() const { return v_.size(); }
  bool supports(double q) const;
  double pct(double q) const;  // 0 when empty
  double nth(std::size_t k) const;  // k-th smallest, 1-based
  double mean() const;
  double sum() const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
};

/// Benchmark-side spans around public calls into a layer. Kept in memory
/// (reserved up front) and written once at exit; disabled outside traced
/// runs so the untraced run pays one branch per call.
class Spans {
 public:
  struct Span {
    const char* layer;  // string literal
    int64_t t0_ns;
    int64_t t1_ns;
    int64_t op;         // index of the timed operation it belongs to
  };
  void enable(bool on) {
    on_ = on;
    if (on) spans_.reserve(1 << 18);
  }
  void add(const char* layer, int64_t t0_ns, int64_t t1_ns, int64_t op) {
    if (on_) spans_.push_back({layer, t0_ns, t1_ns, op});
  }
  /// Total milliseconds recorded under `layer`.
  double total_ms(const std::string& layer) const;
  bool write(const std::string& path, const std::string& workload) const;

 private:
  bool on_ = false;
  std::vector<Span> spans_;
};

/// The program's obs registry as a per-run delta: begin() zeroes every
/// counter and histogram (obs::Registry::reset) and records the callback
/// gauges, take() scrapes and subtracts the recorded gauges.
class ObsDelta {
 public:
  void begin();
  void take();
  double value(const std::string& name) const;  // counter / gauge / callback
  /// A callback gauge's reading at take() (a level, not a delta).
  double level(const std::string& name) const;
  const saufno::obs::MetricSnapshot* hist(const std::string& name) const;
  double hist_sum(const std::string& name) const;
  double hist_p50(const std::string& name) const;
  int64_t hist_count(const std::string& name) const;
  /// Sum of every histogram whose name starts with `prefix` and ends with
  /// `suffix`, keyed by the middle part (e.g. plan.instr.<op>_us).
  std::map<std::string, double> hist_sums(const std::string& prefix,
                                          const std::string& suffix) const;

 private:
  std::map<std::string, double> base_;
  std::map<std::string, double> levels_;
  std::map<std::string, saufno::obs::MetricSnapshot> snap_;
};

/// One reported figure. `source` says how it was obtained: T (benchmark
/// span), O (obs delta), C (computed from sizes), or a mix.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
  std::string source;
};

/// Counts of operations every workload reports.
struct Ops {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t failed = 0;      // typed errors and wrong outputs
  int64_t unanswered = 0;
  int64_t mismatches = 0;  // outputs that differ from the reference
  void merge(const Ops& o);
};

/// Everything one workload run hands back to run.py.
struct Report {
  std::string workload;
  Ops ops;
  std::vector<Metric> e2e;      // named end-to-end metrics (untraced)
  double throughput_per_s = 0;  // the workload's throughput figure
  double p50_ms = 0;            // the workload's median latency figure
  std::vector<Metric> layers;   // per-layer metrics (traced run)
  std::vector<Metric> selftime; // self-time rows, ms per operation
  std::string selftime_op;      // what one operation is
  double selftime_total_ms = 0; // end-to-end ms per operation
  std::vector<std::string> notes;
  void add_e2e(const std::string& name, double v, const std::string& unit,
               int64_t n, const std::string& src = "T") {
    e2e.push_back({name, v, unit, n, src});
  }
  bool write(const std::string& path, const Args& args) const;
};

/// Plan compile counters summed over the whole run. ObsDelta::begin()
/// zeroes the registry, so call add_current() right before every begin()
/// and once more at the end.
struct PlanTotals {
  double compiles = 0;    // compile attempts (plan cache misses)
  double fallbacks = 0;   // forwards interpreted after a failed compile
  double compile_ms = 0;  // summed over successful compiles
  double trace_ms = 0;
  double compiled = 0;    // successful compiles
  void add_current();
};

/// Inputs to the per-layer metric set. Every workload reports the same
/// metric names; a layer the workload does not use reads 0.
struct LayerInputs {
  const ObsDelta* obs = nullptr;
  double ops = 0;               // timed operations in the traced window
  double e2e_ms_per_op = 0;     // mean end-to-end ms per operation
  std::string op_name;          // "sweep", "wave", "request"
  // Benchmark-side spans, ms per operation.
  double gen_ms = 0;            // benchmark time outside program calls
  double outer_ms = 0;          // time inside the outermost layer's calls
  std::string outer_layer;      // layer those calls enter
  double submit_rest_ms = 0;    // submit time overlapping the head's wait
  // serve_mix only.
  double serve_rtt_mean_ms = 0;
  double serve_bytes_per_req = 0;
  // serve_mix generator validity, at the `low` and `high` rates.
  double gen_lag_p99_ms_low = 0;
  double gen_lag_p99_ms_high = 0;
  double gen_backlog_low = 0;
  double gen_backlog_high = 0;
  // rollout_16 only.
  double wave_p50_ms = 0;
  int64_t wave_samples = 0;
  // Direct PlanRunner probe at the workload's batch shape.
  double plan_forward_p50_ms = 0;
  int64_t plan_forward_samples = 0;
  double plan_instr_count = 0;
  double permute_bytes_per_fwd = 0;
  // Whole-run plan counters (set-up included).
  const PlanTotals* plan_totals = nullptr;
};

/// Tracing overhead: how much worse each end-to-end figure of the traced
/// run is than the untraced run's (positive = slower when traced).
void add_trace_overhead(Report& r, double throughput_untraced,
                        double throughput_traced, double p50_untraced,
                        double p50_traced);

/// "plan.fallbacks during timed traffic: n".
std::string fallback_note(double fallbacks);

/// Fill report.layers and report.selftime from `in`.
void add_layer_metrics(Report& report, const LayerInputs& in);

/// Direct plan forwards at a workload's batch shape (traced runs only).
struct PlanProbe {
  Samples forward_ms;
  double instr_count = 0;
  double permute_bytes = 0;  // read + written by permute instrs, per forward
};
/// Compile a fresh plan for `batch` (untimed), then time forwards until at
/// least `min_samples` are taken.
PlanProbe probe_plan(const std::shared_ptr<saufno::nn::Module>& model,
                     const saufno::Tensor& batch, int min_samples);

/// memcmp of two float tensors of equal element count.
bool same_bits(const saufno::Tensor& a, const saufno::Tensor& b);

/// Flip the lowest bit of a tensor's first element (self-test of the
/// output check).
void flip_first_bit(saufno::Tensor& t);

/// Workload entry points.
int run_sweep_64(const Args& args, Report& report);
int run_rollout_16(const Args& args, Report& report);
int run_serve_mix(const Args& args, Report& report);

}  // namespace perfbench
