#include "plan/runner.h"

#include <chrono>
#include <exception>
#include <utility>

#include "common/env.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/compile.h"
#include "plan/trace.h"

namespace saufno {
namespace plan {

namespace {

struct RunnerMetrics {
  obs::Counter& hits = obs::counter("plan.cache.hits");
  obs::Counter& misses = obs::counter("plan.cache.misses");
  obs::Counter& fallbacks = obs::counter("plan.fallbacks");
  obs::Gauge& size = obs::gauge("plan.cache.size");
  obs::Histogram& compile_ms = obs::histogram("plan.compile_ms");
  obs::Histogram& compile_trace_ms = obs::histogram("plan.compile.trace_ms");
  obs::Histogram& compile_lower_ms = obs::histogram("plan.compile.lower_ms");
  obs::Histogram& compile_passes_ms =
      obs::histogram("plan.compile.passes_ms");
};

RunnerMetrics& runner_metrics() {
  static RunnerMetrics m;
  return m;
}

}  // namespace

Mode mode_from_env() {
  static const char* const kNames[] = {"off", "on"};
  return static_cast<Mode>(
      env_choice("SAUFNO_PLAN", static_cast<int>(Mode::kOn), kNames, 2));
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kOff:
      return "off";
    case Mode::kOn:
      return "on";
  }
  return "?";
}

PlanRunner::PlanRunner(std::shared_ptr<nn::Module> model, Mode mode)
    : model_(std::move(model)), mode_(mode) {
  SAUFNO_CHECK(model_ != nullptr, "PlanRunner requires a model");
}

Tensor PlanRunner::interpret(const Tensor& input) {
  NoGradGuard no_grad;
  return model_->forward(Var(input)).value();
}

Tensor PlanRunner::record_and_compile(const Tensor& input) {
  SAUFNO_TRACE_SPAN("plan.compile");
  const auto ms_since = [](std::chrono::steady_clock::time_point a,
                           std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  const Shape& shape = input.shape();
  RunnerMetrics& rm = runner_metrics();
  const auto t0 = std::chrono::steady_clock::now();
  NoGradGuard no_grad;
  // Record this request's own forward: the plan depends only on shapes
  // (the recorded kernels never branch on values), and the output is the
  // interpreter's by construction. A throw here propagates like an
  // interpreted forward's would.
  Var in(input);
  TraceSession sess(model_->named_parameters(), in);
  Var out = model_->forward(in);
  const auto t_traced = std::chrono::steady_clock::now();
  std::shared_ptr<PlanExecutor> exec;
  CompileBreakdown bd;
  if (!sess.ok()) {
    SAUFNO_WARN << "plan: falling back to interpreter for shape "
                << shape_str(shape) << ": " << sess.error();
    rm.fallbacks.add();
  } else {
    try {
      Plan lowered = sess.take_plan(out);
      const auto t_lowered = std::chrono::steady_clock::now();
      exec = std::make_shared<PlanExecutor>(compile(std::move(lowered)));
      const auto t1 = std::chrono::steady_clock::now();
      bd.trace_ms = ms_since(t0, t_traced);
      bd.lower_ms = ms_since(t_traced, t_lowered);
      bd.passes_ms = ms_since(t_lowered, t1);
      bd.total_ms = ms_since(t0, t1);
    } catch (const std::exception& e) {
      // A compile throw says nothing about the shape (a fault, an
      // allocation failure), so nothing is cached and the next forward of
      // this shape records again. This one still has its output.
      SAUFNO_WARN << "plan: compile failed for shape " << shape_str(shape)
                  << " (serving the recorded forward's output): " << e.what();
      rm.fallbacks.add();
      return out.value();
    }
    rm.compile_ms.record(bd.total_ms);
    rm.compile_trace_ms.record(bd.trace_ms);
    rm.compile_lower_ms.record(bd.lower_ms);
    rm.compile_passes_ms.record(bd.passes_ms);
  }
  // Concurrent first users of a shape may all record; the first to publish
  // wins and the others' plans are dropped.
  std::lock_guard<std::mutex> lk(mu_);
  if (exec != nullptr) last_breakdown_ = bd;
  cache_.emplace(shape, std::move(exec));
  rm.size.set(static_cast<int64_t>(cache_.size()));
  return out.value();
}

PlanRunner::CompileBreakdown PlanRunner::last_compile_breakdown() const {
  std::lock_guard<std::mutex> lk(mu_);
  return last_breakdown_;
}

Tensor PlanRunner::forward(const Tensor& input) {
  if (mode_ == Mode::kOff) return interpret(input);
  RunnerMetrics& rm = runner_metrics();
  bool cached = false;
  std::shared_ptr<PlanExecutor> exec;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = cache_.find(input.shape());
    if (it != cache_.end()) {
      cached = true;
      exec = it->second;
    }
  }
  if (!cached) {
    // Record and compile OUTSIDE the lock (same discipline as the FFT plan
    // cache): a long first forward must not stall forwards of other shapes.
    rm.misses.add();
    return record_and_compile(input);
  }
  rm.hits.add();
  if (exec == nullptr) {
    // Negative entry: the shape traced to an unsupported op (logged once).
    rm.fallbacks.add();
    return interpret(input);
  }
  SAUFNO_TRACE_SPAN("plan.execute");
  return exec->run(input);
}

std::size_t PlanRunner::cache_size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cache_.size();
}

std::shared_ptr<PlanExecutor> PlanRunner::executor_for(
    const Shape& shape) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = cache_.find(shape);
  return it == cache_.end() ? nullptr : it->second;
}

}  // namespace plan
}  // namespace saufno
