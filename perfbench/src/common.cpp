#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "common/json_writer.h"
#include "plan/runner.h"
#include "runtime/thread_pool.h"

namespace perfbench {

using saufno::JsonWriter;

const int64_t kProcessStartNs = now_ns();

namespace {

// The CPUs the process was started on, read before any thread is pinned.
cpu_set_t initial_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
  return set;
}
const cpu_set_t kInitialCpus = initial_cpus();

}  // namespace

int lanes_for(const std::string& workload) {
  const int cpus = std::max(1, CPU_COUNT(&kInitialCpus));
  return std::min(cpus, workload == "sweep_64" ? 2 : 1);
}

void pin_current_thread(int n) {
  cpu_set_t first;
  CPU_ZERO(&first);
  for (int cpu = 0; cpu < CPU_SETSIZE && CPU_COUNT(&first) < n; ++cpu) {
    if (CPU_ISSET(cpu, &kInitialCpus)) CPU_SET(cpu, &first);
  }
  if (CPU_COUNT(&first) > 0) sched_setaffinity(0, sizeof(first), &first);
}

int lanes() { return saufno::runtime::ThreadPool::instance().num_threads(); }

double peak_rss_mib() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Samples -----------------------------------------------------------------

bool Samples::supports(double q) const {
  return (1.0 - q) * static_cast<double>(v_.size()) >= 10.0;
}

double Samples::nth(std::size_t k) const {
  if (v_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  return v_[std::min(std::max<std::size_t>(k, 1), v_.size()) - 1];
}

double Samples::pct(double q) const {
  return nth(static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v_.size()))));
}

double Samples::sum() const {
  double s = 0.0;
  for (double x : v_) s += x;
  return s;
}

double Samples::mean() const {
  return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
}

bool same_bits(const saufno::Tensor& a, const saufno::Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

PlanProbe probe_plan(const std::shared_ptr<saufno::nn::Module>& model,
                     const saufno::Tensor& batch, int min_samples) {
  namespace plan = saufno::plan;
  plan::PlanRunner runner(model, plan::Mode::kOn);
  (void)runner.forward(batch);  // compile
  PlanProbe p;
  for (int i = 0; i < min_samples; ++i) {
    const int64_t t0 = now_ns();
    (void)runner.forward(batch);
    p.forward_ms.add(ms_between(t0, now_ns()));
  }
  if (auto exec = runner.executor_for(batch.shape())) {
    const plan::Plan& pl = exec->plan();
    p.instr_count = static_cast<double>(pl.instrs.size());
    for (const plan::Instr& ins : pl.instrs) {
      if (ins.op != plan::OpCode::kPermute) continue;
      double n = 1.0;
      for (int64_t d : pl.slots[static_cast<std::size_t>(ins.out)].shape) {
        n *= static_cast<double>(d);
      }
      p.permute_bytes += 2.0 * n * sizeof(float);
    }
  }
  return p;
}

void flip_first_bit(saufno::Tensor& t) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, t.data(), sizeof(bits));
  bits ^= 1u;
  std::memcpy(t.data(), &bits, sizeof(bits));
}

// --- Spans -------------------------------------------------------------------

double Spans::total_ms(const std::string& layer) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (layer == s.layer) t += ms_between(s.t0_ns, s.t1_ns);
  }
  return t;
}

bool Spans::write(const std::string& path, const std::string& workload) const {
  if (path.empty()) return true;
  std::ofstream f(path);
  if (!f) return false;
  // Chrome trace-event format: loadable in about:tracing / Perfetto.
  const int64_t base = spans_.empty() ? 0 : spans_.front().t0_ns;
  f << "{\"workload\": \"" << workload << "\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "") << "{\"name\": \"" << s.layer
      << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
      << static_cast<double>(s.t0_ns - base) * 1e-3
      << ", \"dur\": " << static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3
      << ", \"args\": {\"op\": " << s.op << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// --- ObsDelta ----------------------------------------------------------------

void ObsDelta::begin() {
  auto& reg = saufno::obs::Registry::instance();
  reg.reset();
  base_.clear();
  for (const auto& m : reg.snapshot()) {
    if (m.kind == saufno::obs::MetricKind::kCallback) base_[m.name] = m.value;
  }
}

void ObsDelta::take() {
  snap_.clear();
  levels_.clear();
  for (auto& m : saufno::obs::Registry::instance().snapshot()) {
    if (m.kind == saufno::obs::MetricKind::kCallback) {
      levels_[m.name] = m.value;
      auto it = base_.find(m.name);
      if (it != base_.end()) m.value -= it->second;
    }
    snap_[m.name] = m;
  }
}

double ObsDelta::value(const std::string& name) const {
  auto it = snap_.find(name);
  return it == snap_.end() ? 0.0 : it->second.value;
}

double ObsDelta::level(const std::string& name) const {
  auto it = levels_.find(name);
  return it == levels_.end() ? 0.0 : it->second;
}

const saufno::obs::MetricSnapshot* ObsDelta::hist(
    const std::string& name) const {
  auto it = snap_.find(name);
  return it == snap_.end() ? nullptr : &it->second;
}

double ObsDelta::hist_sum(const std::string& name) const {
  const auto* h = hist(name);
  return h ? h->sum : 0.0;
}

double ObsDelta::hist_p50(const std::string& name) const {
  const auto* h = hist(name);
  return h && h->count > 0 ? h->p50 : 0.0;
}

int64_t ObsDelta::hist_count(const std::string& name) const {
  const auto* h = hist(name);
  return h ? h->count : 0;
}

std::map<std::string, double> ObsDelta::hist_sums(
    const std::string& prefix, const std::string& suffix) const {
  std::map<std::string, double> out;
  for (const auto& [name, m] : snap_) {
    if (m.kind != saufno::obs::MetricKind::kHistogram) continue;
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    out[name.substr(prefix.size(),
                    name.size() - prefix.size() - suffix.size())] = m.sum;
  }
  return out;
}

// --- Ops / Report ------------------------------------------------------------

void Ops::merge(const Ops& o) {
  attempted += o.attempted;
  ok += o.ok;
  shed += o.shed;
  failed += o.failed;
  unanswered += o.unanswered;
  mismatches += o.mismatches;
}

namespace {

void write_metrics(JsonWriter& w, const std::string& key,
                   const std::vector<Metric>& ms) {
  w.key(key);
  w.begin_array();
  for (const Metric& m : ms) {
    w.begin_object();
    w.field("name", m.name);
    w.field("value", m.value, 9);
    w.field("unit", m.unit);
    w.field("samples", m.samples);
    w.field("source", m.source);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

bool Report::write(const std::string& path, const Args& args) const {
  JsonWriter w;
  w.begin_object();
  w.field("workload", workload);
  w.field("seed", static_cast<int64_t>(args.seed));
  w.field("seconds", args.seconds, 3);
  w.field("trace", args.trace);
  w.field("lanes", lanes());
  w.key("ops");
  w.begin_object();
  w.field("attempted", ops.attempted);
  w.field("ok", ops.ok);
  w.field("shed", ops.shed);
  w.field("failed", ops.failed);
  w.field("unanswered", ops.unanswered);
  w.field("mismatches", ops.mismatches);
  w.end_object();
  w.field("throughput_per_s", throughput_per_s, 9);
  w.field("p50_ms", p50_ms, 9);
  write_metrics(w, "e2e", e2e);
  write_metrics(w, "layers", layers);
  w.key("selftime");
  w.begin_object();
  w.field("op", selftime_op);
  w.field("total_ms", selftime_total_ms, 9);
  write_metrics(w, "rows", selftime);
  w.end_object();
  w.key("notes");
  w.begin_array();
  for (const auto& n : notes) w.value(n);
  w.end_array();
  w.end_object();
  return w.write_file(path);
}

void PlanTotals::add_current() {
  for (const auto& m : saufno::obs::Registry::instance().snapshot()) {
    if (m.name == "plan.cache.misses") compiles += m.value;
    if (m.name == "plan.fallbacks") fallbacks += m.value;
    if (m.name == "plan.compile_ms") {
      compile_ms += m.sum;
      compiled += static_cast<double>(m.count);
    }
    if (m.name == "plan.compile.trace_ms") trace_ms += m.sum;
  }
}

std::string fallback_note(double fallbacks) {
  return "plan.fallbacks during timed traffic: " +
         std::to_string(static_cast<int64_t>(fallbacks));
}

void add_trace_overhead(Report& r, double throughput_untraced,
                        double throughput_traced, double p50_untraced,
                        double p50_traced) {
  auto share = [](double worse, double base) {
    return base > 0 ? worse / base : 0.0;
  };
  r.layers.push_back({"trace.overhead_share.throughput",
                      share(throughput_untraced - throughput_traced,
                            throughput_untraced),
                      "share", 0, "T"});
  r.layers.push_back({"trace.overhead_share.p50",
                      share(p50_traced - p50_untraced, p50_untraced), "share",
                      0, "T"});
}

// --- per-layer metrics -------------------------------------------------------

void add_layer_metrics(Report& r, const LayerInputs& in) {
  const ObsDelta& o = *in.obs;
  auto add = [&](const std::string& name, double v, const std::string& unit,
                 int64_t n, const std::string& src) {
    r.layers.push_back({name, std::isfinite(v) ? v : 0.0, unit, n, src});
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  const int64_t n_req = o.hist_count("engine.latency_ms");
  const int64_t n_batch = o.hist_count("engine.forward_ms");
  const double batches = static_cast<double>(n_batch);
  // Means (sum / count), not the histograms' p50s: a p50 is a log-bucket
  // midpoint (~6% wide), so it repeats exactly from run to run and hides any
  // change smaller than a bucket.
  const double lat_mean =
      ratio(o.hist_sum("engine.latency_ms"), static_cast<double>(n_req));
  const double fwd_mean = ratio(o.hist_sum("engine.forward_ms"), batches);
  const double wait_mean = ratio(o.hist_sum("queue.head_wait_ms"),
                                 static_cast<double>(o.hist_count("queue.head_wait_ms")));

  // serve
  add("serve.self_mean_ms",
      in.serve_rtt_mean_ms > 0 ? in.serve_rtt_mean_ms - lat_mean : 0.0, "ms",
      n_req, "T-O");
  add("serve.bytes_per_req", in.serve_bytes_per_req, "B", 0, "C");
  add("serve.quota_rejected", o.value("serve.quota_rejected"), "count", 0, "O");
  add("serve.protocol_errors", o.value("serve.protocol_errors"), "count", 0,
      "O");
  // runtime.queue
  add("runtime.queue.head_wait_mean_ms", wait_mean, "ms",
      o.hist_count("queue.head_wait_ms"), "O");
  add("runtime.queue.batch_size_mean",
      ratio(o.hist_sum("engine.batch_size"),
            static_cast<double>(o.hist_count("engine.batch_size"))),
      "count", o.hist_count("engine.batch_size"), "O");
  add("runtime.queue.rejected", o.value("queue.rejected"), "count", 0, "O");
  // runtime.engine
  add("runtime.engine.forward_mean_ms", fwd_mean, "ms", n_batch, "O");
  add("runtime.engine.other_mean_ms", lat_mean - fwd_mean - wait_mean, "ms",
      n_req, "O");
  // runtime.rollout
  add("runtime.rollout.wave_p50_ms", in.wave_p50_ms, "ms", in.wave_samples,
      "T");
  // runtime.pool
  const double busy = o.value("pool.worker_busy_us");
  const double idle = o.value("pool.worker_idle_us");
  add("runtime.pool.lanes", lanes(), "count", 0, "C");
  add("runtime.pool.tasks_per_fwd", ratio(o.value("pool.tasks_submitted"), batches),
      "count", 0, "O");
  add("runtime.pool.helped_per_fwd", ratio(o.value("pool.tasks_helped"), batches),
      "count", 0, "O");
  add("runtime.pool.busy_share", ratio(busy, busy + idle), "share", 0, "O");
  // runtime.workspace: reserved bytes is a level, read at the end of the run
  const double hits = o.value("arena.hits");
  const double misses = o.value("arena.misses");
  add("runtime.workspace.reserved_mib",
      o.level("arena.reserved_bytes") / 1048576.0, "MiB", 0, "O");
  add("runtime.workspace.hit_rate", ratio(hits, hits + misses), "share", 0,
      "O");
  // plan
  const PlanTotals& pt = *in.plan_totals;
  add("plan.compiles", pt.compiles, "count", 0, "O");
  add("plan.compiles_timed", o.value("plan.cache.misses"), "count", 0, "O");
  add("plan.compile_ms", ratio(pt.compile_ms, pt.compiled), "ms",
      static_cast<int64_t>(pt.compiled), "O");
  add("plan.compile.trace_ms", ratio(pt.trace_ms, pt.compiled), "ms",
      static_cast<int64_t>(pt.compiled), "O");
  add("plan.fallbacks", pt.fallbacks, "count", 0, "O");
  add("plan.fallbacks_timed", o.value("plan.fallbacks"), "count", 0, "O");
  add("plan.forward_p50_ms", in.plan_forward_p50_ms, "ms",
      in.plan_forward_samples, "T");
  add("plan.instr_count", in.plan_instr_count, "count", 0, "C");
  // tensor + fft: per engine forward, from plan.instr.<op>_us (kernel
  // profiling is on in the traced run)
  const auto instr = o.hist_sums("plan.instr.", "_us");
  double instr_total = 0.0;
  for (const auto& [op, us] : instr) instr_total += us;
  static const char* const kNamed[] = {"permute", "bmm", "scaled_softmax",
                                       "conv2d", "matmul"};
  double named = 0.0;
  for (const char* op : kNamed) {
    auto it = instr.find(op);
    const double us = it == instr.end() ? 0.0 : it->second;
    named += us;
    add(std::string("tensor.") + op + ".us_per_fwd", ratio(us, batches), "us",
        0, "O");
    add(std::string("tensor.") + op + ".share", ratio(us, instr_total),
        "share", 0, "O");
  }
  auto sit = instr.find("spectral_conv2d");
  const double fft_us = sit == instr.end() ? 0.0 : sit->second;
  const double other_us = instr_total - named - fft_us;
  add("tensor.other.us_per_fwd", ratio(other_us, batches), "us", 0, "O");
  add("tensor.other.share", ratio(other_us, instr_total), "share", 0, "O");
  add("tensor.permute.bytes_per_fwd", in.permute_bytes_per_fwd, "B", 0, "C");
  add("fft.us_per_fwd", ratio(fft_us, batches), "us", 0, "O");
  add("fft.share", ratio(fft_us, instr_total), "share", 0, "O");
  add("fft.plan_cache.misses", o.value("fft.plan_cache.misses"), "count", 0,
      "O");

  // gen: load-generator validity (serve_mix)
  add("gen.lag_p99_ms.low", in.gen_lag_p99_ms_low, "ms", 0, "T");
  add("gen.lag_p99_ms.high", in.gen_lag_p99_ms_high, "ms", 0, "T");
  add("gen.backlog.low", in.gen_backlog_low, "count", 0, "T");
  add("gen.backlog.high", in.gen_backlog_high, "count", 0, "T");

  // --- self-time table, ms per operation ------------------------------------
  // One operation is a sweep / wave (all of whose batches run one after the
  // other on the batcher) or a request (which rides in one batch). Layer
  // self time = the layer's time minus what its children cover. Rows are
  // not floored: a negative row means the outside spans and the program's
  // histograms disagree, and the self-test fails on it.
  // Kernels run concurrently across batch partitions and plan levels, so
  // their summed time is divided by the plan runs per batch; the forward
  // time they leave uncovered (plan dispatch, and any partition that did
  // not overlap) has no outside boundary and stays unattributed.
  const bool per_request = in.op_name == "request";
  const double ops = in.ops > 0 ? in.ops : 1.0;
  const double nb = n_batch > 0 ? static_cast<double>(n_batch) : 1.0;
  // Batches per operation: a request sees one batch, a sweep or wave sees
  // all of its batches in sequence.
  const double batches_per_op = per_request ? 1.0 : nb / ops;
  const double fwd = fwd_mean * batches_per_op;
  // The engine records no per-request wait. The head waits longest, so the
  // head wait bounds a request's wait from above, and so does its engine
  // latency minus the forward: a batch is charged the tighter bound, and
  // the engine keeps the rest of its latency.
  const double wait = std::min(wait_mean, lat_mean - fwd_mean);
  const double engine_other = (lat_mean - fwd_mean - wait) * batches_per_op;
  // A sweep or wave is not charged the part of the wait that overlaps the
  // client's own later submits.
  const double queue =
      wait * batches_per_op - (per_request ? 0.0 : in.submit_rest_ms);
  const double runs_per_batch = std::max(1.0, ratio(o.value("plan.runs"), nb));
  const double kernels =
      instr_total * 1e-3 / nb / runs_per_batch * batches_per_op;
  const double fft_frac = ratio(fft_us, instr_total);
  // plan, runtime.pool and runtime.workspace have no row: their work lies
  // inside the forward, with no boundary to time from outside.
  std::vector<std::pair<std::string, double>> rows = {
      {"gen", in.gen_ms},
      {"serve", 0.0},
      {"runtime.rollout", 0.0},
      {"runtime.queue", queue},
      {"runtime.engine", engine_other},
      {"tensor", kernels * (1.0 - fft_frac)},
      {"fft", kernels * fft_frac}};
  double covered = 0.0;
  for (auto& [layer, ms] : rows) {
    // The outermost layer's self time is its span minus the inner rows
    // (for sweep_64 the outer calls enter runtime.engine itself).
    if (layer == in.outer_layer && layer != "runtime.engine") {
      ms = in.outer_ms - (queue + engine_other + fwd);
    }
    covered += ms;
  }
  rows.push_back({"unattributed", in.e2e_ms_per_op - covered});
  r.selftime_op = in.op_name;
  r.selftime_total_ms = in.e2e_ms_per_op;
  for (const auto& [layer, ms] : rows) {
    r.selftime.push_back({layer, ms, "ms", 0, "T/O"});
    add("self_share." + layer, ratio(ms, in.e2e_ms_per_op), "share",
        static_cast<int64_t>(in.ops), "T/O");
  }
  add("self_ms.total", in.e2e_ms_per_op, "ms", static_cast<int64_t>(in.ops),
      "T");
}

}  // namespace perfbench
