#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "data/normalizer.h"
#include "nn/module.h"
#include "obs/metrics.h"
#include "plan/runner.h"
#include "runtime/errors.h"
#include "runtime/request_queue.h"

namespace saufno {
namespace runtime {

/// Serving-side throughput/latency counters. Latency is measured from
/// submit() to promise fulfilment, i.e. it includes queueing + batching
/// wait, which is what a caller actually experiences. Percentiles come from
/// a log-bucketed obs::Histogram over every VALUE completion (≈6% relative
/// error, exact max) — requests resolved with typed errors (shed, expired,
/// cancelled, faulted) are counted separately and never pollute the latency
/// distribution of served traffic.
struct InferenceStats {
  int64_t requests = 0;   // requests resolved with a value
  int64_t failed = 0;     // requests resolved with an error by the batcher
  int64_t rejected = 0;   // shed at submit() by admission control
  int64_t expired = 0;    // completed with DeadlineExceededError
  int64_t cancelled = 0;  // completed with CancelledError
  int64_t batches = 0;
  double avg_batch_size = 0.0;
  double wall_seconds = 0.0;     // first request enqueued -> last batch done
  double throughput_rps = 0.0;   // completed requests / wall_seconds
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
  /// Workspace-arena counters (process-wide, see runtime/workspace.h):
  /// steady-state serving should show arena_hit_rate -> 1.0, i.e. the
  /// spectral hot loop and batch assembly run with zero heap allocation
  /// once every worker thread has warmed its freelists.
  int64_t arena_hits = 0;
  int64_t arena_misses = 0;
  double arena_hit_rate = 0.0;
};

/// Batched inference engine: owns a frozen model and a batcher thread that
/// coalesces concurrent `submit` calls into [B, C, H, W] forwards.
///
/// - Requests are [C, H, W] power-map fields; responses are the model's
///   [C_out, H, W] temperature maps.
/// - When constructed with a Normalizer (the deployable path:
///   `from_checkpoint`, or `from_zoo` on a v2 checkpoint), the contract is
///   raw-in/kelvin-out: `submit` takes unnormalized power maps, inputs are
///   encoded before the forward and outputs decoded after, bit-identical
///   to `Trainer::predict` on the same weights. Without a normalizer the
///   engine forwards tensors untouched (the pre-v2 behavior).
/// - Batching: up to `max_batch` same-shape requests, waiting at most
///   `max_wait_us` after the first request of a batch ARRIVES (the deadline
///   is anchored to enqueue time). The queue is sharded by shape, so
///   interleaved multi-resolution traffic still coalesces per shape instead
///   of collapsing to batch size 1.
/// - Every forward runs under NoGradGuard: no autograd tape is recorded.
/// - Results are bit-identical to calling the same encode/forward/decode
///   one sample at a time, whatever the batch composition or
///   SAUFNO_NUM_THREADS.
///
/// Overload-safety contract (see runtime/errors.h for the taxonomy):
/// - Admission control: the queue is bounded (`queue_capacity`); an
///   over-capacity submit fails fast with OverloadedError carrying a
///   retry-after hint instead of growing the backlog unboundedly.
/// - Deadlines & cancellation: per-request via SubmitOptions; an expired or
///   cancelled request is completed with its typed error at dequeue time,
///   at the batcher's pre-forward check, or at delivery — a future never
///   resolves with a value after its deadline.
/// - Fault isolation: inputs are validated at submit (shape, channels, and
///   — with `validate_finite` — NaN/Inf); a batch forward exception is
///   re-run in bisection so only the culpable request(s) fail; non-finite
///   outputs degrade plan→interpreter once and then fail only the affected
///   requests. A poisoned request never takes down its batch-mates or the
///   engine.
/// - Graceful drain: `drain(timeout)` stops admissions, flushes the queue,
///   and resolves stragglers with ShutdownError. A `watchdog_timeout_ms`
///   watchdog fails pending futures when the batcher stops making progress
///   instead of hanging clients forever.
class InferenceEngine {
 public:
  struct Config {
    int64_t max_batch = 8;
    int64_t max_wait_us = 2000;
    /// Exact input channel count the model expects ([C, H, W] submissions
    /// are rejected up front with both numbers in the message instead of
    /// dying inside model_->forward with an opaque shape error). 0 means
    /// unknown: submit() then falls back to the weaker normalizer lower
    /// bound. The factories (`from_zoo`, `from_checkpoint`) always fill
    /// this in from their channel arguments / the checkpoint meta.
    int64_t expected_in_channels = 0;
    /// Execution-plan policy for the forward: a plan::Mode value (0 = off /
    /// interpret, 1 = on), or -1 to read the SAUFNO_PLAN environment knob
    /// (the default). Plan-mode forwards are bit-identical to interpreted
    /// ones; any shape the tracer cannot plan falls back to the interpreter
    /// automatically.
    int plan_mode = -1;
    /// Admission control: max queued requests across all shards (0 =
    /// unbounded). The default bounds the backlog at 1024 requests — deep
    /// enough that no well-behaved workload notices, shallow enough that
    /// overload sheds with OverloadedError instead of growing the queue
    /// without limit. SAUFNO_QUEUE_CAP overrides the default when the
    /// config leaves it.
    int64_t queue_capacity = -1;  // -1 = SAUFNO_QUEUE_CAP or 1024
    /// Reject non-finite (NaN/Inf) inputs at submit() with RequestError.
    bool validate_finite = true;
    /// Fail pending futures when the batcher makes no progress on one batch
    /// for this long (a stuck forward must not hang clients forever).
    /// 0 disables the watchdog. The default (10 s) is far beyond any
    /// legitimate batch — sanitizer lanes included.
    int64_t watchdog_timeout_ms = 10000;
  };

  /// Takes shared ownership of `model`, switches it to eval mode and starts
  /// the batcher thread. Without a normalizer the engine serves raw model
  /// outputs.
  InferenceEngine(std::shared_ptr<nn::Module> model, Config cfg);

  /// Same, with the fitted normalizer: submit() then takes raw W-per-pixel
  /// power maps and futures resolve to kelvin temperature fields.
  InferenceEngine(std::shared_ptr<nn::Module> model,
                  std::optional<data::Normalizer> norm, Config cfg);

  /// Build the model from the zoo (train::make_model) and, when `checkpoint`
  /// is non-empty, load weights from it. A v2 checkpoint that carries a
  /// normalizer switches the engine to raw-in/kelvin-out serving.
  static std::unique_ptr<InferenceEngine> from_zoo(
      const std::string& model_name, int64_t in_channels, int64_t out_channels,
      std::uint64_t seed, const std::string& checkpoint, Config cfg);

  /// Build the entire serving pipeline from a self-describing v2 checkpoint
  /// (train::load_deployable): model identity, weights and normalizer all
  /// come from the file.
  static std::unique_ptr<InferenceEngine> from_checkpoint(
      const std::string& checkpoint, Config cfg);

  /// Drains pending requests, then stops the batcher.
  ~InferenceEngine();
  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Thread-safe async submission of one [C, H, W] input field. Throws
  /// ShutdownError after stop()/drain(), OverloadedError (with retry-after)
  /// when admission control sheds, RequestError on invalid input.
  std::future<Tensor> submit(Tensor power_map);
  std::future<Tensor> submit(Tensor power_map, SubmitOptions opts);

  /// Stop accepting work and join the batcher (idempotent; the destructor
  /// calls it). Pending requests are still served before it returns.
  void stop();

  /// Graceful drain: stop admissions immediately (submit throws
  /// ShutdownError), serve what is already queued for up to `timeout`, then
  /// fail any stragglers with ShutdownError and stop. Returns the number of
  /// requests that were failed rather than served.
  std::size_t drain(std::chrono::milliseconds timeout);

  InferenceStats stats() const;
  const Config& config() const { return cfg_; }
  bool has_normalizer() const { return norm_.has_value(); }
  /// Throws when the engine was built without one (has_normalizer() false).
  const data::Normalizer& normalizer() const;
  /// The plan runner serving this engine's forwards (mode, cache stats).
  const plan::PlanRunner& plan_runner() const { return *plan_; }
  /// Estimated milliseconds until a shed request could be admitted, derived
  /// from the current backlog and the recent per-batch serve time (the same
  /// figure OverloadedError carries).
  double estimated_retry_after_ms() const;

 private:
  void batcher_loop();
  void watchdog_loop();
  void serve_batch(std::vector<InferenceRequest> batch);
  /// Forward + deliver `batch[lo, hi)`. Completes every slot (value or
  /// typed error); exceptions split the range in two and retry each half so
  /// only culpable requests fail. `depth` bounds the recursion (log2 B).
  void execute_range(std::vector<InferenceRequest>& batch, std::size_t lo,
                     std::size_t hi, int depth);
  /// One forward attempt over the range. Throws on forward failure;
  /// non-finite outputs degrade plan→interpreter once, then fail only the
  /// affected rows.
  void forward_and_deliver(std::vector<InferenceRequest>& batch,
                           std::size_t lo, std::size_t hi);
  /// Deliver a value honoring the request's deadline (a late value becomes
  /// DeadlineExceededError) and record latency/occupancy accounting.
  void complete_value(InferenceRequest& req, Tensor result,
                      int64_t batch_rows);
  void complete_error(InferenceRequest& req, std::exception_ptr e);
  void note_batch_window(const std::vector<InferenceRequest>& batch,
                         std::size_t lo, std::size_t hi);

  std::shared_ptr<nn::Module> model_;
  std::optional<data::Normalizer> norm_;
  Config cfg_;
  /// Compiles one plan per input shape and runs the flat instruction
  /// stream; transparently interprets when the mode or a trace failure
  /// says so.
  std::unique_ptr<plan::PlanRunner> plan_;
  RequestQueue queue_;
  std::thread batcher_;
  std::thread watchdog_;
  std::atomic<bool> stopped_{false};
  std::atomic<bool> draining_{false};   // admissions closed
  std::atomic<bool> batcher_done_{false};
  std::atomic<int64_t> seq_{0};         // submit sequence numbers

  /// Watchdog view of the in-flight batch: slots registered before the
  /// forward, cleared after; `busy_since_` is the steady_clock tick count
  /// when the current batch started (0 = idle). On a trip the watchdog
  /// completes these slots with EngineError — try_error makes the race with
  /// a recovering batcher safe.
  mutable std::mutex inflight_m_;
  std::vector<std::shared_ptr<ResultSlot>> inflight_slots_;
  std::atomic<int64_t> busy_since_ns_{0};
  std::condition_variable drain_cv_;  // notified as batches finish

  /// EWMA of per-batch serve wall time (ms), stored as double bits: the
  /// retry-after estimator. Seeded at 1 ms until the first batch lands.
  std::atomic<uint64_t> batch_ms_ewma_bits_;

  /// Per-engine latency distribution (submit -> fulfilment, ms). Lock-free
  /// to record and O(buckets) to query.
  obs::Histogram latency_hist_;

  mutable std::mutex stats_m_;
  int64_t batches_ = 0;
  int64_t requests_done_ = 0;
  int64_t requests_failed_ = 0;
  int64_t requests_expired_ = 0;
  int64_t requests_cancelled_ = 0;
  std::atomic<int64_t> rejected_{0};  // shed at submit (not under stats_m_)
  /// Throughput is measured over the busy window [earliest enqueue seen,
  /// latest batch completion], NOT engine lifetime: an engine that sat idle
  /// for an hour before its first request still reports its real serving
  /// rate.
  std::chrono::steady_clock::time_point window_start_;
  std::chrono::steady_clock::time_point window_end_;
  bool window_open_ = false;
};

}  // namespace runtime
}  // namespace saufno
