#include "runtime/inference_engine.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "data/normalizer.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/tensor.h"
#include "train/model_zoo.h"
#include "train/trainer.h"

namespace saufno {
namespace {

using runtime::InferenceEngine;
using runtime::ThreadPool;

std::shared_ptr<nn::Module> smoke_model() {
  return train::make_model("SAU-FNO", /*in_channels=*/3, /*out_channels=*/1,
                           /*seed=*/42, /*size_hint=*/0);
}

std::vector<Tensor> random_maps(int n, int64_t res, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> maps;
  for (int i = 0; i < n; ++i) {
    maps.push_back(Tensor::randn({3, res, res}, rng));
  }
  return maps;
}

TEST(InferenceEngine, BatchedResultsMatchSequentialForward) {
  auto model = smoke_model();
  const auto maps = random_maps(6, 12, 7);

  // Reference: one-at-a-time forwards, no engine involved.
  std::vector<Tensor> expected;
  for (const auto& m : maps) {
    Var out = model->forward(Var(m.reshape({1, 3, 12, 12}).clone()));
    expected.push_back(out.value().reshape({1, 12, 12}).clone());
  }

  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 50000;  // generous: all submits must coalesce
  InferenceEngine engine(model, cfg);
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Tensor got = futs[i].get();
    ASSERT_EQ(got.shape(), expected[i].shape());
    EXPECT_EQ(std::memcmp(got.data(), expected[i].data(),
                          sizeof(float) *
                              static_cast<std::size_t>(got.numel())),
              0)
        << "request " << i << " differs from the sequential forward";
  }
}

TEST(InferenceEngine, ConcurrentSubmittersGetSequentialResults) {
  auto model = smoke_model();
  const auto maps = random_maps(8, 10, 8);
  std::vector<Tensor> expected;
  for (const auto& m : maps) {
    Var out = model->forward(Var(m.reshape({1, 3, 10, 10}).clone()));
    expected.push_back(out.value().reshape({1, 10, 10}).clone());
  }

  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 20000;
  InferenceEngine engine(model, cfg);
  std::vector<Tensor> got(maps.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < maps.size(); ++i) {
    clients.emplace_back([&, i] { got[i] = engine.submit(maps[i].clone()).get(); });
  }
  for (auto& t : clients) t.join();
  for (std::size_t i = 0; i < maps.size(); ++i) {
    EXPECT_EQ(std::memcmp(got[i].data(), expected[i].data(),
                          sizeof(float) *
                              static_cast<std::size_t>(expected[i].numel())),
              0)
        << "client " << i;
  }
}

// A batch that waits this long for stragglers ships only when it is full, so
// submitting max_batch same-shape requests makes exactly one full batch.
constexpr int64_t kFullBatchWaitUs = 60'000'000;

// Submits every map and waits for all results. A shape's first forward is
// the interpreted recording of its plan, so serving the same full batch a
// second time on one engine is what runs the compiled plan.
std::vector<Tensor> serve_all(InferenceEngine& engine,
                              const std::vector<Tensor>& maps) {
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
  std::vector<Tensor> out;
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

TEST(InferenceEngine, FullBatchMatchesSequentialForward) {
  // The batch's other rows never change a row's result: every kernel in
  // this library is per-sample independent.
  auto model = smoke_model();
  const auto maps = random_maps(8, 12, 9);
  std::vector<Tensor> expected;
  for (const auto& m : maps) {
    Var out = model->forward(Var(m.reshape({1, 3, 12, 12}).clone()));
    expected.push_back(out.value().reshape({1, 12, 12}).clone());
  }
  InferenceEngine::Config cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = kFullBatchWaitUs;
  InferenceEngine engine(model, cfg);
  for (int round = 0; round < 2; ++round) {  // the recording, then the plan
    const auto got = serve_all(engine, maps);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(std::memcmp(got[i].data(), expected[i].data(),
                            sizeof(float) *
                                static_cast<std::size_t>(got[i].numel())),
                0)
          << "round " << round << " request " << i;
    }
  }
}

TEST(InferenceEngine, SubmitValidatesExactChannelCount) {
  // A wider-than-expected input used to pass the normalizer's `>=` lower
  // bound and then die inside model_->forward with an opaque shape error;
  // the exact check must reject it at submit() with both counts named.
  InferenceEngine::Config cfg;
  cfg.expected_in_channels = 3;
  InferenceEngine engine(smoke_model(), cfg);
  Rng rng(41);
  try {
    engine.submit(Tensor::randn({5, 10, 10}, rng));
    FAIL() << "5-channel submit on a 3-channel model did not throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("5 channels"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expects exactly 3"), std::string::npos) << msg;
  }
  EXPECT_THROW(engine.submit(Tensor::randn({2, 10, 10}, rng)),
               std::runtime_error);
  EXPECT_NO_THROW(engine.submit(Tensor::randn({3, 10, 10}, rng)).get());
}

TEST(InferenceEngine, FromZooFillsExpectedChannels) {
  auto engine = InferenceEngine::from_zoo("SAU-FNO", 3, 1, /*seed=*/42,
                                          /*checkpoint=*/"",
                                          InferenceEngine::Config{});
  EXPECT_EQ(engine->config().expected_in_channels, 3);
  Rng rng(43);
  EXPECT_THROW(engine->submit(Tensor::randn({4, 10, 10}, rng)),
               std::runtime_error);
}

TEST(InferenceEngine, FullBatchBitIdenticalToSingleSampleWithNormalizer) {
  // Every row of a full batch must be bit-identical to serving that sample
  // alone, through the full encode -> forward -> decode path: the encoder
  // and decoder are per-element maps and every kernel is per-sample
  // independent.
  auto model = smoke_model();
  const auto norm =
      data::Normalizer::from_stats(298.15, 2.0, 10.0, /*n_power=*/1);
  const auto maps = random_maps(8, 12, 77);

  auto engine_with = [&](int64_t max_batch) {
    InferenceEngine::Config cfg;
    cfg.max_batch = max_batch;
    cfg.max_wait_us = kFullBatchWaitUs;
    return std::make_unique<InferenceEngine>(model, norm, cfg);
  };
  const auto single = serve_all(*engine_with(1), maps);
  auto full_engine = engine_with(8);
  for (int round = 0; round < 2; ++round) {  // the recording, then the plan
    const auto full = serve_all(*full_engine, maps);
    for (std::size_t i = 0; i < maps.size(); ++i) {
      ASSERT_EQ(full[i].shape(), single[i].shape());
      EXPECT_EQ(std::memcmp(full[i].data(), single[i].data(),
                            sizeof(float) *
                                static_cast<std::size_t>(full[i].numel())),
                0)
          << "round " << round << " request " << i
          << ": its batch-mates perturbed its row";
    }
  }
}

TEST(InferenceEngine, PartitionedBatchBitIdenticalToWholeBatchForward) {
  // A batch of small maps (12x12 is under the split threshold) is split
  // into contiguous row sub-forwards, one per lane, run concurrently; at 1
  // lane it runs whole. Per-sample independence (pinned above) makes both
  // bit-identical. Every engine is new and serves the same full batch
  // twice: the first round records each partition shape concurrently on
  // pool threads (none may fall back to the interpreter), and the second
  // runs one compiled plan per partition inside the parallel_for chunks.
  auto model = smoke_model();
  const auto norm =
      data::Normalizer::from_stats(298.15, 2.0, 10.0, /*n_power=*/1);
  const auto maps = random_maps(8, 12, 99);
  obs::Counter& fallbacks = obs::counter("plan.fallbacks");
  obs::Counter& plan_runs = obs::counter("plan.runs");
  const int64_t fallbacks_before = fallbacks.value();

  // Rows per partition: the largest divisor of 8 that fits the lanes with
  // at least 2 rows each. Returns both rounds' results.
  auto serve = [&](int threads, int64_t rows) {
    ThreadPool::instance().resize(threads);
    InferenceEngine::Config cfg;
    cfg.max_batch = 8;
    cfg.max_wait_us = kFullBatchWaitUs;  // one batch of 8: stable partitions
    cfg.plan_mode = 1;  // the partition plans are what this test inspects
    std::vector<std::vector<Tensor>> rounds;
    {
      InferenceEngine engine(model, norm, cfg);
      rounds.push_back(serve_all(engine, maps));
      EXPECT_NE(engine.plan_runner().executor_for({rows, 3, 12, 12}), nullptr)
          << "no plan compiled for " << rows << "-row partitions at "
          << threads << " threads";
      const int64_t runs_before = plan_runs.value();
      rounds.push_back(serve_all(engine, maps));
      EXPECT_EQ(plan_runs.value() - runs_before, 8 / rows)
          << "the second round did not run one plan per partition at "
          << threads << " threads";
    }
    ThreadPool::instance().resize(1);
    return rounds;
  };
  const auto whole = serve(1, 8);
  auto expect_rows_equal = [&](const std::vector<Tensor>& got,
                               const std::string& what) {
    for (std::size_t i = 0; i < maps.size(); ++i) {
      ASSERT_EQ(got[i].shape(), whole[0][i].shape());
      EXPECT_EQ(std::memcmp(got[i].data(), whole[0][i].data(),
                            sizeof(float) *
                                static_cast<std::size_t>(got[i].numel())),
                0)
          << "request " << i << " " << what;
    }
  };
  expect_rows_equal(whole[1], "whole batch: the plan changed a row");
  for (const auto& [threads, rows] : {std::pair<int, int64_t>{2, 4}, {8, 2}}) {
    const auto split = serve(threads, rows);
    for (std::size_t r = 0; r < split.size(); ++r) {
      expect_rows_equal(split[r], "at " + std::to_string(threads) +
                                      " threads, round " + std::to_string(r) +
                                      ": partitioning changed a row");
    }
  }
  EXPECT_EQ(fallbacks.value(), fallbacks_before)
      << "a partitioned first compile fell back to the interpreter";
}

TEST(InferenceEngine, ShortLivedClientThreadsCanDropResults) {
  // Regression for the cross-thread arena hazard: results used to be
  // arena-backed, so a client thread dropping its tensor at thread exit
  // released the block into a dying thread's freelist (and a release after
  // that thread's arena teardown is use-after-destruction — caught by the
  // ASan lane, which runs this test). Results are now plain heap tensors;
  // hammer the pattern with many short-lived client threads to keep it so.
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 2000;
  InferenceEngine engine(smoke_model(), cfg);
  const auto maps = random_maps(4, 10, 55);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::thread> clients;
    for (int i = 0; i < 4; ++i) {
      clients.emplace_back([&, i] {
        // get() the result, touch it, and let the thread exit immediately
        // while still owning the tensor — the destructor runs during
        // thread teardown.
        Tensor result = engine.submit(maps[static_cast<std::size_t>(i)].clone()).get();
        ASSERT_GT(result.numel(), 0);
      });
    }
    for (auto& t : clients) t.join();
  }
  EXPECT_EQ(engine.stats().requests, 8 * 4);
}

TEST(InferenceEngine, CoalescesAndReportsStats) {
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100000;
  InferenceEngine engine(smoke_model(), cfg);
  const auto maps = random_maps(8, 10, 10);
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
  for (auto& f : futs) f.get();

  const auto s = engine.stats();
  EXPECT_EQ(s.requests, 8);
  EXPECT_GE(s.batches, 2);        // 8 requests cannot fit one batch of 4
  EXPECT_LE(s.avg_batch_size, 4.0);
  EXPECT_GT(s.avg_batch_size, 0.0);
  EXPECT_GT(s.latency_p50_ms, 0.0);
  EXPECT_GE(s.latency_p99_ms, s.latency_p50_ms);
  EXPECT_GE(s.latency_max_ms, s.latency_p99_ms);
  EXPECT_GT(s.throughput_rps, 0.0);
}

TEST(InferenceEngine, MixedResolutionsServeInSeparateBatches) {
  InferenceEngine::Config cfg;
  cfg.max_batch = 8;
  cfg.max_wait_us = 20000;
  InferenceEngine engine(smoke_model(), cfg);
  Rng rng(11);
  auto small = engine.submit(Tensor::randn({3, 10, 10}, rng));
  auto large = engine.submit(Tensor::randn({3, 14, 14}, rng));
  const Tensor ts = small.get();
  const Tensor tl = large.get();
  EXPECT_EQ(ts.shape(), (Shape{1, 10, 10}));
  EXPECT_EQ(tl.shape(), (Shape{1, 14, 14}));
  EXPECT_EQ(engine.stats().batches, 2);
}

TEST(InferenceEngine, StopDrainsPendingRequests) {
  InferenceEngine::Config cfg;
  cfg.max_batch = 2;
  cfg.max_wait_us = 1000;
  auto engine = std::make_unique<InferenceEngine>(smoke_model(), cfg);
  const auto maps = random_maps(5, 10, 12);
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine->submit(m.clone()));
  engine->stop();  // must not abandon the 5 in-flight promises
  for (auto& f : futs) EXPECT_NO_THROW(f.get());
  EXPECT_THROW(engine->submit(maps[0].clone()), std::runtime_error);
}

TEST(InferenceEngine, V2CheckpointServesKelvinIdenticalToTrainerPredict) {
  // Fit a real normalizer on a synthetic dataset, deploy the model as a
  // self-describing v2 checkpoint, and check that the engine's raw-in/
  // kelvin-out path is BIT-identical to Trainer::predict on the same file.
  const int64_t res = 12;
  Rng rng(21);
  data::Dataset train_set;
  train_set.chip_name = "synthetic";
  train_set.resolution = static_cast<int>(res);
  train_set.ambient = 298.15;
  train_set.inputs = Tensor::rand_uniform({6, 3, res, res}, rng, 0.f, 5.f);
  train_set.targets = Tensor::rand_uniform({6, 1, res, res}, rng, 300.f, 340.f);
  const auto norm = data::Normalizer::fit(train_set, /*n_power_channels=*/1);

  auto model = smoke_model();
  const std::string path = ::testing::TempDir() + "/saufno_serve_v2.ckpt";
  train::save_deployable(*model, "SAU-FNO", 3, 1, norm, path);

  // Reference: the training-side prediction path on the raw inputs.
  train::Trainer trainer(*model, norm);
  const auto maps = random_maps(5, res, 22);
  std::vector<Tensor> expected;
  for (const auto& m : maps) {
    expected.push_back(
        trainer.predict(m.reshape({1, 3, res, res}).clone()));
  }

  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 50000;  // mixed batch compositions vs the reference
  auto engine = InferenceEngine::from_checkpoint(path, cfg);
  ASSERT_TRUE(engine->has_normalizer());
  EXPECT_DOUBLE_EQ(engine->normalizer().temp_scale(), norm.temp_scale());
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine->submit(m.clone()));
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Tensor got = futs[i].get();
    ASSERT_EQ(got.shape(), (Shape{1, res, res}));
    EXPECT_EQ(std::memcmp(got.data(), expected[i].data(),
                          sizeof(float) *
                              static_cast<std::size_t>(got.numel())),
              0)
        << "request " << i << " is not bit-identical to Trainer::predict";
  }
  std::remove(path.c_str());
}

TEST(InferenceEngine, FromZooPicksUpV2Normalizer) {
  auto model = smoke_model();
  const auto norm =
      data::Normalizer::from_stats(298.15, 2.0, 10.0, /*n_power=*/1);
  const std::string path = ::testing::TempDir() + "/saufno_zoo_v2.ckpt";
  train::save_deployable(*model, "SAU-FNO", 3, 1, norm, path);
  auto engine = InferenceEngine::from_zoo("SAU-FNO", 3, 1, /*seed=*/42, path,
                                          InferenceEngine::Config{});
  EXPECT_TRUE(engine->has_normalizer());
  EXPECT_DOUBLE_EQ(engine->normalizer().power_scale(), 2.0);
  std::remove(path.c_str());
}

TEST(InferenceEngine, InterleavedResolutionsStillCoalesce) {
  // An A,B,A,B,... stream through the old single-FIFO queue degraded to
  // batch-size-1 (every pop stopped at the first foreign shape). The
  // sharded queue must keep avg batch size > 1 under the same traffic.
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100000;  // generous so stragglers coalesce deterministically
  InferenceEngine engine(smoke_model(), cfg);
  const auto small = random_maps(8, 10, 30);
  const auto large = random_maps(8, 14, 31);
  std::vector<std::future<Tensor>> futs;
  for (std::size_t i = 0; i < small.size(); ++i) {
    futs.push_back(engine.submit(small[i].clone()));
    futs.push_back(engine.submit(large[i].clone()));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Tensor got = futs[i].get();
    const int64_t r = (i % 2 == 0) ? 10 : 14;
    EXPECT_EQ(got.shape(), (Shape{1, r, r}));
  }
  const auto s = engine.stats();
  EXPECT_EQ(s.requests, 16);
  EXPECT_GT(s.avg_batch_size, 1.0)
      << "head-of-line blocking collapsed mixed-shape batching";
  // 16 requests at max_batch 4 need >= 4 batches; well-coalesced traffic
  // should stay close to that rather than near 16.
  EXPECT_LE(s.batches, 12);
}

TEST(InferenceEngine, ThroughputMeasuredOverBusyWindowNotLifetime) {
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 1000;
  const auto t0 = std::chrono::steady_clock::now();
  InferenceEngine engine(smoke_model(), cfg);
  // Idle before the first request must not dilute throughput.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto maps = random_maps(4, 10, 32);
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
  for (auto& f : futs) f.get();
  const auto s = engine.stats();
  const double lifetime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_GT(s.wall_seconds, 0.0);
  // The busy window starts at the first enqueue, so the 300 ms idle prefix
  // is excluded from it but included in the lifetime. Comparing against the
  // measured lifetime (rather than an absolute bound) keeps this robust on
  // loaded CI runners: preemption stretches both clocks equally, while the
  // sleep only ever widens the gap.
  EXPECT_LT(s.wall_seconds, lifetime - 0.200);
  EXPECT_GT(s.throughput_rps, 0.0);
}

// ---------------------------------------------------------------------------
// Overload safety: admission control, deadlines, cancellation, fault
// isolation, drain, watchdog. Fault injection (common/fault.h) is process-
// global, so every test that arms it uses the RAII guard below.
// ---------------------------------------------------------------------------

struct FaultGuard {
  FaultGuard(const char* spec, std::uint64_t seed) {
    EXPECT_TRUE(fault::configure(spec, seed));
  }
  ~FaultGuard() { fault::clear(); }
};

TEST(InferenceEngine, SubmitAfterStopThrowsTypedShutdownError) {
  InferenceEngine engine(smoke_model(), InferenceEngine::Config{});
  engine.stop();
  Rng rng(61);
  EXPECT_THROW(engine.submit(Tensor::randn({3, 10, 10}, rng)),
               runtime::ShutdownError);
}

TEST(InferenceEngine, AdmissionControlShedsWithRetryAfterHint) {
  // Slow every forward down so the bounded queue actually backs up; with
  // capacity 4 and max_batch 1, at most ~6 of 16 rapid submits can be
  // admitted (1 in flight + 4 queued + 1 popped) and the rest must shed
  // fast with OverloadedError instead of growing the backlog.
  FaultGuard fg("forward:delay:ms=30:p=1", 1);
  InferenceEngine::Config cfg;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.queue_capacity = 4;
  InferenceEngine engine(smoke_model(), cfg);
  const auto maps = random_maps(16, 10, 62);
  std::vector<std::future<Tensor>> accepted;
  int shed = 0;
  double last_retry_ms = 0.0;
  for (const auto& m : maps) {
    try {
      accepted.push_back(engine.submit(m.clone()));
    } catch (const runtime::OverloadedError& e) {
      ++shed;
      last_retry_ms = e.retry_after_ms();
      EXPECT_NE(std::string(e.what()).find("retry after"), std::string::npos);
    }
  }
  ASSERT_GT(shed, 0) << "16 rapid submits against capacity 4 never shed";
  EXPECT_GT(last_retry_ms, 0.0);
  for (auto& f : accepted) EXPECT_NO_THROW(f.get());
  const auto s = engine.stats();
  EXPECT_EQ(s.rejected, shed);
  EXPECT_EQ(s.requests, static_cast<int64_t>(accepted.size()));
}

TEST(InferenceEngine, ExpiredDeadlineFailsTypedAndNeverDeliversLate) {
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 1000;
  InferenceEngine engine(smoke_model(), cfg);
  Rng rng(63);
  // Already expired at submit: must resolve with DeadlineExceededError (at
  // dequeue), never with a value.
  runtime::SubmitOptions past;
  past.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);
  auto doomed = engine.submit(Tensor::randn({3, 10, 10}, rng), past);
  EXPECT_THROW(doomed.get(), runtime::DeadlineExceededError);
  // A generous deadline serves normally, and the engine is unharmed.
  runtime::SubmitOptions future_ok;
  future_ok.deadline = std::chrono::steady_clock::now() +
                       std::chrono::seconds(30);
  EXPECT_NO_THROW(engine.submit(Tensor::randn({3, 10, 10}, rng), future_ok)
                      .get());
  const auto s = engine.stats();
  EXPECT_EQ(s.expired, 1);
  EXPECT_EQ(s.requests, 1);
}

TEST(InferenceEngine, TightDeadlineBehindSlowBatchNeverResolvesWithValue) {
  // The forward takes ~60 ms; the second request's 5 ms deadline passes
  // while it waits behind the first. Wherever the expiry is detected
  // (dequeue, pre-forward, delivery), the future must resolve with
  // DeadlineExceededError — a value after the deadline is a contract bug.
  FaultGuard fg("forward:delay:ms=60:p=1", 1);
  InferenceEngine::Config cfg;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  InferenceEngine engine(smoke_model(), cfg);
  Rng rng(64);
  auto first = engine.submit(Tensor::randn({3, 10, 10}, rng));
  runtime::SubmitOptions opts;
  opts.deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(5);
  auto tight = engine.submit(Tensor::randn({3, 10, 10}, rng), opts);
  EXPECT_NO_THROW(first.get());
  EXPECT_THROW(tight.get(), runtime::DeadlineExceededError);
}

TEST(InferenceEngine, CancelTokenResolvesQueuedRequestWithCancelledError) {
  FaultGuard fg("forward:delay:ms=60:p=1", 1);
  InferenceEngine::Config cfg;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  InferenceEngine engine(smoke_model(), cfg);
  Rng rng(65);
  auto busy = engine.submit(Tensor::randn({3, 10, 10}, rng));
  runtime::SubmitOptions opts;
  opts.cancel = runtime::CancelToken::make();
  auto queued = engine.submit(Tensor::randn({3, 10, 10}, rng), opts);
  opts.cancel.request_cancel();  // fires while the request is still queued
  EXPECT_THROW(queued.get(), runtime::CancelledError);
  EXPECT_NO_THROW(busy.get());
  EXPECT_EQ(engine.stats().cancelled, 1);
}

TEST(InferenceEngine, NonFiniteInputRejectedAtSubmitNamingTheRequest) {
  InferenceEngine engine(smoke_model(), InferenceEngine::Config{});
  Tensor poisoned = Tensor::zeros({3, 10, 10});
  poisoned.data()[17] = std::numeric_limits<float>::quiet_NaN();
  try {
    engine.submit(std::move(poisoned));
    FAIL() << "NaN input passed validate_finite";
  } catch (const runtime::RequestError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("non-finite"), std::string::npos) << msg;
    EXPECT_NE(msg.find("seq="), std::string::npos) << msg;
  }
  // The engine is untouched: a clean request still serves.
  Rng rng(66);
  EXPECT_NO_THROW(engine.submit(Tensor::randn({3, 10, 10}, rng)).get());
}

TEST(InferenceEngine, PoisonedBatchFailsOnlyTheCulpableRequest) {
  // validate_finite off lets a NaN input reach the batch; every kernel is
  // per-sample independent, so only the poisoned row's output is non-finite.
  // The output guard must fail exactly that request and deliver batch-mates
  // bit-identical to a clean engine's results.
  auto model = smoke_model();
  const auto maps = random_maps(3, 12, 67);
  std::vector<Tensor> expected;
  for (const auto& m : maps) {
    Var out = model->forward(Var(m.reshape({1, 3, 12, 12}).clone()));
    expected.push_back(out.value().reshape({1, 12, 12}).clone());
  }
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100000;  // the four submits must coalesce into one batch
  cfg.validate_finite = false;
  InferenceEngine engine(model, cfg);
  Tensor poisoned = Tensor::zeros({3, 12, 12});
  poisoned.data()[5] = std::numeric_limits<float>::infinity();
  std::vector<std::future<Tensor>> futs;
  futs.push_back(engine.submit(std::move(poisoned)));
  for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
  try {
    futs[0].get();
    FAIL() << "poisoned request resolved with a value";
  } catch (const runtime::RequestError& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
  }
  for (std::size_t i = 0; i < maps.size(); ++i) {
    const Tensor got = futs[i + 1].get();
    EXPECT_EQ(std::memcmp(got.data(), expected[i].data(),
                          sizeof(float) *
                              static_cast<std::size_t>(got.numel())),
              0)
        << "batch-mate " << i << " was perturbed by the poisoned row";
  }
  EXPECT_EQ(engine.stats().failed, 1);
}

TEST(InferenceEngine, TransientBatchFaultIsolatedByBisectionAllSucceed) {
  // The fault fires on the FIRST forward attempt only (n=1): the batch-wide
  // attempt throws, the bisected halves run clean, so every request must
  // still succeed — bit-identical to the sequential reference.
  auto model = smoke_model();
  const auto maps = random_maps(4, 12, 68);
  std::vector<Tensor> expected;
  for (const auto& m : maps) {
    Var out = model->forward(Var(m.reshape({1, 3, 12, 12}).clone()));
    expected.push_back(out.value().reshape({1, 12, 12}).clone());
  }
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100000;
  InferenceEngine engine(model, cfg);
  FaultGuard fg("forward:throw:n=1", 1);
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
  for (std::size_t i = 0; i < futs.size(); ++i) {
    Tensor got;
    ASSERT_NO_THROW(got = futs[i].get()) << "request " << i;
    EXPECT_EQ(std::memcmp(got.data(), expected[i].data(),
                          sizeof(float) *
                              static_cast<std::size_t>(got.numel())),
              0)
        << "bisection retry changed request " << i << "'s result";
  }
  EXPECT_EQ(engine.stats().requests, 4);
  EXPECT_EQ(engine.stats().failed, 0);
}

TEST(InferenceEngine, PersistentBatchFaultFailsEveryRequestByName) {
  // n=7 throws on the whole batch (1 eval), both halves (2), and all four
  // singles (4): 7 attempts, all failing. Every request must get a typed
  // RequestError that NAMES it — the old behavior fanned out one anonymous
  // batch-wide exception.
  InferenceEngine::Config cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100000;
  InferenceEngine engine(smoke_model(), cfg);
  FaultGuard fg("forward:throw:n=7", 1);
  const auto maps = random_maps(4, 12, 69);
  std::vector<std::future<Tensor>> futs;
  for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
  for (std::size_t i = 0; i < futs.size(); ++i) {
    try {
      futs[i].get();
      FAIL() << "request " << i << " resolved despite a persistent fault";
    } catch (const runtime::RequestError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("seq="), std::string::npos) << msg;
      EXPECT_NE(msg.find("shape=[3, 12, 12]"), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(engine.stats().failed, 4);
  EXPECT_EQ(engine.stats().requests, 0);
}

TEST(InferenceEngine, DrainServesBacklogAndFailsStragglersTyped) {
  {
    // Generous timeout: everything already queued must be SERVED.
    InferenceEngine::Config cfg;
    cfg.max_batch = 2;
    cfg.max_wait_us = 1000;
    InferenceEngine engine(smoke_model(), cfg);
    const auto maps = random_maps(5, 10, 70);
    std::vector<std::future<Tensor>> futs;
    for (const auto& m : maps) futs.push_back(engine.submit(m.clone()));
    const std::size_t failed = engine.drain(std::chrono::seconds(30));
    EXPECT_EQ(failed, 0u);
    for (auto& f : futs) EXPECT_NO_THROW(f.get());
    EXPECT_THROW(engine.submit(maps[0].clone()), runtime::ShutdownError);
  }
  {
    // Zero timeout with the batcher wedged on a slow forward: the queued
    // straggler must resolve with ShutdownError instead of hanging.
    FaultGuard fg("forward:delay:ms=80:p=1", 1);
    InferenceEngine::Config cfg;
    cfg.max_batch = 1;
    cfg.max_wait_us = 0;
    InferenceEngine engine(smoke_model(), cfg);
    Rng rng(71);
    auto busy = engine.submit(Tensor::randn({3, 10, 10}, rng));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto straggler = engine.submit(Tensor::randn({3, 10, 10}, rng));
    const std::size_t failed = engine.drain(std::chrono::milliseconds(0));
    EXPECT_EQ(failed, 1u);
    EXPECT_NO_THROW(busy.get());  // in-flight work still completes
    EXPECT_THROW(straggler.get(), runtime::ShutdownError);
  }
}

TEST(InferenceEngine, WatchdogFailsFuturesWhenBatcherStopsProgressing) {
  // The injected forward takes 900 ms but the watchdog allows 100 ms: the
  // client's future must fail long before the forward finishes, and the
  // engine must refuse new work afterwards instead of queueing into a
  // wedged batcher.
  FaultGuard fg("forward:delay:ms=900:p=1", 1);
  InferenceEngine::Config cfg;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.watchdog_timeout_ms = 100;
  InferenceEngine engine(smoke_model(), cfg);
  Rng rng(72);
  auto fut = engine.submit(Tensor::randn({3, 10, 10}, rng));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(fut.get(), runtime::EngineError);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited, 0.7) << "future waited for the wedged forward";
  EXPECT_THROW(engine.submit(Tensor::randn({3, 10, 10}, rng)),
               runtime::ShutdownError);
  EXPECT_GE(engine.stats().failed, 1);
}

TEST(InferenceEngine, DestructionWithInFlightFuturesAndOutlivingClients) {
  // Clients hold futures in their own threads and outlive the engine: the
  // destructor must serve (or typed-fail) every promise, and the result
  // tensors must stay valid after the engine is gone. The ASan lane runs
  // this against the cross-thread arena hazard from PR 5.
  const auto maps = random_maps(6, 10, 73);
  std::vector<std::thread> clients;
  {
    InferenceEngine::Config cfg;
    cfg.max_batch = 2;
    cfg.max_wait_us = 2000;
    auto engine = std::make_unique<InferenceEngine>(smoke_model(), cfg);
    for (const auto& m : maps) {
      auto fut = engine->submit(m.clone());
      clients.emplace_back(
          [f = std::move(fut)]() mutable {
            Tensor result;
            EXPECT_NO_THROW(result = f.get());
            // Keep the tensor alive past the engine's destruction window.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            EXPECT_GT(result.numel(), 0);
          });
    }
    engine.reset();  // destructor runs with all six futures in flight
  }
  for (auto& t : clients) t.join();
}

TEST(InferenceEngine, DeterministicAcrossThreadCounts) {
  auto model = smoke_model();
  const auto maps = random_maps(4, 12, 13);
  auto run = [&](int threads) {
    ThreadPool::instance().resize(threads);
    InferenceEngine::Config cfg;
    cfg.max_batch = 4;
    cfg.max_wait_us = 20000;
    InferenceEngine engine(model, cfg);
    // Twice: batches of a shape seen before run the plan it recorded.
    std::vector<Tensor> out = serve_all(engine, maps);
    for (Tensor& t : serve_all(engine, maps)) out.push_back(std::move(t));
    return out;
  };
  const auto ref = run(1);
  for (const int threads : {2, 8}) {
    const auto got = run(threads);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(std::memcmp(got[i].data(), ref[i].data(),
                            sizeof(float) *
                                static_cast<std::size_t>(ref[i].numel())),
                0)
          << "threads=" << threads << " request=" << i;
    }
  }
  ThreadPool::instance().resize(1);
}

}  // namespace
}  // namespace saufno
