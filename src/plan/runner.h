#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "nn/module.h"
#include "plan/executor.h"
#include "tensor/tensor.h"

namespace saufno {
namespace plan {

/// Plan execution policy, selected per engine via Config or the
/// SAUFNO_PLAN environment knob (`on` / `off`, or 1/0).
enum class Mode : int {
  kOff = 0,  // always interpret (define-by-run ops::)
  kOn = 1,   // compile per input shape, execute the plan
};

/// Resolve Mode from SAUFNO_PLAN (hardened env_choice parse; unset => kOn).
Mode mode_from_env();
const char* mode_name(Mode m);

/// Serving-side entry point to the plan subsystem: owns one compiled plan
/// per input shape for a fixed model (the FFT plan cache pattern — compile
/// outside the lock, first published wins) and interprets any shape the
/// tracer cannot plan.
///
/// Thread-safe. All forwards run under NoGradGuard semantics — the runner
/// is for inference; training keeps the define-by-run path.
class PlanRunner {
 public:
  PlanRunner(std::shared_ptr<nn::Module> model, Mode mode);

  /// Run one forward. The first forward of a shape IS the recording: it
  /// runs the interpreter on `input` inside a TraceSession, returns that
  /// output, then compiles the recording and caches the plan, which serves
  /// every later forward of the shape bit-identically. A model forward that
  /// throws propagates and caches nothing. A shape that traces to an
  /// unsupported op is cached as untraceable and logged once; a compile
  /// that throws after a good recording is logged, counted as a fallback
  /// and not cached, so the next forward of that shape records again.
  Tensor forward(const Tensor& input);

  /// Force one interpreted forward regardless of mode: the engine's output
  /// guard retries through this when a plan-mode forward produced non-finite
  /// values (degrade once, then fail only the affected requests).
  Tensor forward_interpreted(const Tensor& input) { return interpret(input); }

  Mode mode() const { return mode_; }
  /// Number of cached shapes (compiled or untraceable).
  std::size_t cache_size() const;
  /// The compiled plan for `shape`, or nullptr (uncompiled / untraceable).
  std::shared_ptr<PlanExecutor> executor_for(const Shape& shape) const;

  /// Wall-clock phases of one plan compile. `trace_ms` is the recorded
  /// forward: the interpreted serving forward of the shape's first request,
  /// whose output that request receives; `lower_ms` is TraceSession graph
  /// extraction; `passes_ms` is the compiler pass pipeline (folding, fusion,
  /// liveness, arena layout).
  struct CompileBreakdown {
    double trace_ms = 0.0;
    double lower_ms = 0.0;
    double passes_ms = 0.0;
    double total_ms = 0.0;
  };

  /// Breakdown of the most recent successful compile (any shape); all-zero
  /// until one completes. Also recorded per-compile into the
  /// plan.compile.{trace,lower,passes}_ms obs histograms.
  CompileBreakdown last_compile_breakdown() const;

 private:
  /// Cache miss: interpret `input` while recording it, compile the
  /// recording and publish the result (nullptr for an untraceable shape).
  /// Returns the interpreted output.
  Tensor record_and_compile(const Tensor& input);

  Tensor interpret(const Tensor& input);

  std::shared_ptr<nn::Module> model_;
  Mode mode_;
  mutable std::mutex mu_;
  /// `nullptr` is a negative entry: the shape traced to an unsupported op.
  std::map<Shape, std::shared_ptr<PlanExecutor>> cache_;
  CompileBreakdown last_breakdown_;  // guarded by mu_
};

}  // namespace plan
}  // namespace saufno
