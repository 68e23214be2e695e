// Compiled execution plans: trace/compile/execute must be BIT-identical to
// the define-by-run interpreter (memcmp, not allclose) — the plan path runs
// the same kernels in the same order, so there is no tolerance to hide
// behind. Covers every zoo model on pow2 and non-pow2 grids, the fusion /
// folding compiler passes, the per-shape plan cache (a shape's first
// forward is its recording; concurrent first use), the interpreter fallback
// for untraceable models, and the plan-arena Reservation plumbing.

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/module.h"
#include "obs/metrics.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "plan/ir.h"
#include "plan/runner.h"
#include "plan/trace.h"
#include "runtime/inference_engine.h"
#include "runtime/workspace.h"
#include "tensor/tensor_ops.h"
#include "testing.h"
#include "train/model_zoo.h"

namespace saufno {
namespace {

void expect_bitwise(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           sizeof(float) * static_cast<std::size_t>(
                                               got.numel())))
      << what << ": plan output is not bit-identical to the interpreter";
}

// Every model the zoo can build, including the ablations — if it can be
// served, it must be plannable (or fall back loudly, which would fail the
// executor_for assertion here).
const std::vector<std::string> kZooNames = {
    "SAU-FNO-micro", "SAU-FNO", "SAU-FNO-all-attn", "U-FNO",
    "FNO",           "DeepOHeat", "GAR",            "CNN"};

TEST(PlanVsInterp, AllZooModelsBitIdenticalOnPow2AndNonPow2) {
  for (const std::string& name : kZooNames) {
    SCOPED_TRACE(name);
    auto model = train::make_model(name, 3, 1, /*seed=*/7);
    model->set_training(false);
    plan::PlanRunner planned(model, plan::Mode::kOn);
    plan::PlanRunner interp(model, plan::Mode::kOff);
    Rng rng = testing::test_rng();
    for (const Shape& shape :
         {Shape{2, 3, 16, 16}, Shape{1, 3, 12, 20}}) {
      SCOPED_TRACE(shape_str(shape));
      // The plan is recorded from another input than the one it is checked
      // on, so a value the recording froze into the plan cannot hide.
      Tensor recorded = Tensor::randn(shape, rng);
      expect_bitwise(planned.forward(recorded), interp.forward(recorded),
                     name + " (recording)");
      // The plan must actually have compiled — a silent fallback would make
      // this test vacuous.
      ASSERT_NE(planned.executor_for(shape), nullptr);
      Tensor x = Tensor::randn(shape, rng);
      Tensor want = interp.forward(x);
      expect_bitwise(planned.forward(x), want, name);
      // Second run exercises the pooled BoundBuffer path.
      expect_bitwise(planned.forward(x), want, name + " (rerun)");
    }
  }
}

int64_t count_op(const plan::Plan& p, plan::OpCode op) {
  int64_t n = 0;
  for (const plan::Instr& ins : p.instrs) n += ins.op == op ? 1 : 0;
  return n;
}

TEST(PlanCompile, FusesBiasActAndRunsAttentionAsOneOpInSauFno) {
  auto model = train::make_model("SAU-FNO-micro", 3, 1, 7);
  model->set_training(false);
  plan::PlanRunner runner(model, plan::Mode::kOn);
  const Shape shape{1, 3, 16, 16};
  Rng rng = testing::test_rng();
  runner.forward(Tensor::randn(shape, rng));
  auto exec = runner.executor_for(shape);
  ASSERT_NE(exec, nullptr);
  // gelu(K(v) + W(v)) in every Fourier layer fuses, and the attention block
  // is one kAttention instruction: its scores, softmax and transposes are
  // never separate instructions.
  EXPECT_GT(exec->plan().fused_ops, 0);
  EXPECT_EQ(count_op(exec->plan(), plan::OpCode::kAttention), 1);
  EXPECT_EQ(count_op(exec->plan(), plan::OpCode::kSoftmax), 0);
  EXPECT_EQ(count_op(exec->plan(), plan::OpCode::kMulScalar), 0);
  EXPECT_GT(exec->plan().arena_floats, 0);
  EXPECT_FALSE(plan::to_string(exec->plan()).empty());
}

TEST(PlanCompile, SauFnoMicroPlanHasNoPermuteAndNoQuadraticArena) {
  // Pointwise convs run on NCHW with their transposed weight folded, and
  // attention holds only row blocks of its score matrix. So the plan moves
  // no layout at run time, and its arena grows with the grid, not with the
  // square of it: 4x the positions must cost well under 8x the arena (an
  // N x N score tensor made it ~16x).
  auto model = train::make_model("SAU-FNO-micro", 3, 1, 7);
  model->set_training(false);
  plan::PlanRunner runner(model, plan::Mode::kOn);
  Rng rng = testing::test_rng();
  int64_t arena[2] = {0, 0};
  const Shape shapes[2] = {Shape{1, 3, 16, 16}, Shape{1, 3, 32, 32}};
  for (int i = 0; i < 2; ++i) {
    runner.forward(Tensor::randn(shapes[i], rng));
    auto exec = runner.executor_for(shapes[i]);
    ASSERT_NE(exec, nullptr);
    EXPECT_EQ(count_op(exec->plan(), plan::OpCode::kPermute), 0)
        << plan::to_string(exec->plan());
    arena[i] = exec->plan().arena_floats;
  }
  EXPECT_LT(arena[1], 8 * arena[0])
      << "arena 16x16: " << arena[0] << " floats, 32x32: " << arena[1];
}

TEST(PlanCompile, FoldsConstantTrunkInDeepOHeat) {
  auto model = train::make_model("DeepOHeat", 3, 1, 7);
  model->set_training(false);
  plan::PlanRunner runner(model, plan::Mode::kOn);
  const Shape shape{1, 3, 16, 16};
  Rng rng = testing::test_rng();
  runner.forward(Tensor::randn(shape, rng));
  auto exec = runner.executor_for(shape);
  ASSERT_NE(exec, nullptr);
  // The trunk MLP runs on a shape-derived constant coordinate grid: the
  // whole chain folds to one kConst at compile time.
  EXPECT_GT(exec->plan().folded_ops, 0);
}

TEST(PlanKernels, FusedAddActBitIdenticalToUnfusedChain) {
  Rng rng = testing::test_rng();
  const Shape s{2, 8, 6, 6};
  Tensor a = Tensor::randn(s, rng), b = Tensor::randn(s, rng),
         c = Tensor::randn(s, rng);
  // 3-input same-shape form: gelu((a + b) + c).
  Tensor want = gelu(add(add(a, b), c));
  Tensor out(s);
  fused_add_act_into(a, b, &c, /*act=*/2, out);
  expect_bitwise(out, want, "gelu((a+b)+c)");
  // 2-input broadcasting form: relu(a + bias).
  Tensor bias = Tensor::randn({1, 8, 1, 1}, rng);
  Tensor want2 = relu(add(a, bias));
  Tensor out2(s);
  fused_add_act_into(a, bias, nullptr, /*act=*/1, out2);
  expect_bitwise(out2, want2, "relu(a+bias)");
}

TEST(PlanRunner, FirstForwardIsTheRecordingAndReturnsInterpreterBits) {
  // A new shape costs one forward: the first forward records the
  // interpreter on the request itself and returns that output, and only
  // later forwards run the plan.
  auto model = train::make_model("SAU-FNO-micro", 3, 1, 9);
  model->set_training(false);
  plan::PlanRunner runner(model, plan::Mode::kOn);
  plan::PlanRunner interp(model, plan::Mode::kOff);
  obs::Counter& runs = obs::counter("plan.runs");
  const Shape shape{2, 3, 16, 16};
  Rng rng = testing::test_rng();
  Tensor x = Tensor::randn(shape, rng);
  Tensor y = Tensor::randn(shape, rng);

  const int64_t before = runs.value();
  expect_bitwise(runner.forward(x), interp.forward(x), "first forward");
  EXPECT_EQ(runs.value(), before) << "the first forward ran a plan";
  EXPECT_NE(runner.executor_for(shape), nullptr);

  expect_bitwise(runner.forward(y), interp.forward(y), "second forward");
  EXPECT_EQ(runs.value(), before + 1);
  // Off never touches the tracer.
  EXPECT_EQ(interp.cache_size(), 0u);
}

TEST(PlanRunner, CachesOnePlanPerShape) {
  auto model = train::make_model("CNN", 3, 1, 9);
  model->set_training(false);
  plan::PlanRunner runner(model, plan::Mode::kOn);
  Rng rng = testing::test_rng();
  runner.forward(Tensor::randn({1, 3, 16, 16}, rng));
  runner.forward(Tensor::randn({1, 3, 16, 16}, rng));
  EXPECT_EQ(runner.cache_size(), 1u);
  runner.forward(Tensor::randn({2, 3, 12, 20}, rng));
  EXPECT_EQ(runner.cache_size(), 2u);
}

// Mirrors TEST(PlanCache, ConcurrentFirstUseIsCorrectAndCached) in
// test_fft.cpp: racing first-users may each record and compile, but exactly
// one plan is published and every thread's result is bit-identical.
TEST(PlanCache, ConcurrentFirstUseIsCorrectAndCached) {
  auto model = train::make_model("SAU-FNO-micro", 3, 1, 11);
  model->set_training(false);
  plan::PlanRunner runner(model, plan::Mode::kOn);
  plan::PlanRunner interp(model, plan::Mode::kOff);
  const Shape shape{1, 3, 16, 16};
  Rng rng = testing::test_rng();
  Tensor x = Tensor::randn(shape, rng);
  Tensor want = interp.forward(x);

  constexpr int kThreads = 4;
  std::vector<Tensor> results(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      results[static_cast<std::size_t>(t)] = runner.forward(x);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(runner.cache_size(), 1u);
  for (int t = 0; t < kThreads; ++t) {
    expect_bitwise(results[static_cast<std::size_t>(t)], want,
                   "thread " + std::to_string(t));
  }
  expect_bitwise(runner.forward(x), want, "published plan");
}

TEST(PlanRunner, UnsupportedOpFallsBackToInterpreter) {
  // sum_all has no plan opcode: the trace poisons itself and the runner
  // serves the interpreted forward instead — identical results, negative
  // cache entry so the compile is not retried per call.
  auto model = std::make_shared<nn::Lambda>([](const Var& x) {
    Var pooled = ops::sum_all(x);  // untraceable on purpose
    (void)pooled;
    return ops::relu(x);
  });
  plan::PlanRunner runner(model, plan::Mode::kOn);
  const Shape shape{2, 3, 4, 4};
  Rng rng = testing::test_rng();
  Tensor x = Tensor::randn(shape, rng);
  Tensor got = runner.forward(x);
  expect_bitwise(got, relu(x), "fallback");
  EXPECT_EQ(runner.cache_size(), 1u);
  EXPECT_EQ(runner.executor_for(shape), nullptr);
}

TEST(PlanRunner, UntracedLeafPoisonsTheTraceInsteadOfFreezingIt) {
  // The model feeds an op a leaf it computed from the input outside the
  // ops:: hooks. Under the runner's NoGradGuard that leaf has no producer
  // node, yet freezing it would serve every later request of the shape a
  // value computed from the first request's input: the trace must poison
  // itself, and every forward must stay the interpreter's.
  auto model = std::make_shared<nn::Lambda>([](const Var& x) {
    return ops::add(x, Var(relu(x.value())));
  });
  plan::PlanRunner runner(model, plan::Mode::kOn);
  plan::PlanRunner interp(model, plan::Mode::kOff);
  const Shape shape{2, 3, 4, 4};
  Rng rng = testing::test_rng();
  Tensor x = Tensor::randn(shape, rng);
  Tensor y = Tensor::randn(shape, rng);
  expect_bitwise(runner.forward(x), interp.forward(x), "first forward");
  EXPECT_EQ(runner.cache_size(), 1u);
  EXPECT_EQ(runner.executor_for(shape), nullptr);
  expect_bitwise(runner.forward(y), interp.forward(y), "second forward");
}

TEST(PlanRunner, ThrowingModelForwardPropagatesAndIsNotCached) {
  // The first forward of a shape is the request's own forward, so a model
  // that throws fails it exactly as the interpreter would: no fallback is
  // counted and nothing is cached, and the next forward records the shape.
  auto calls = std::make_shared<int>(0);
  auto model = std::make_shared<nn::Lambda>([calls](const Var& x) {
    if ((*calls)++ == 0) throw std::runtime_error("first forward fails");
    return ops::relu(x);
  });
  plan::PlanRunner runner(model, plan::Mode::kOn);
  obs::Counter& fallbacks = obs::counter("plan.fallbacks");
  const int64_t before = fallbacks.value();
  const Shape shape{2, 3, 4, 4};
  Rng rng = testing::test_rng();
  Tensor x = Tensor::randn(shape, rng);

  EXPECT_THROW(runner.forward(x), std::runtime_error);
  EXPECT_EQ(fallbacks.value(), before);
  EXPECT_EQ(runner.cache_size(), 0u);

  expect_bitwise(runner.forward(x), relu(x), "second forward");
  EXPECT_NE(runner.executor_for(shape), nullptr);
  EXPECT_EQ(fallbacks.value(), before);
}

TEST(PlanRunner, CompileThrowServesTheRecordedOutputUncached) {
  // The model returns a leaf that no recorded op produced, so take_plan
  // throws after a good forward. The runner serves that forward's output,
  // counts one fallback per attempt and leaves the shape uncached.
  auto model = std::make_shared<nn::Lambda>(
      [](const Var& x) { return Var(relu(x.value())); });
  plan::PlanRunner runner(model, plan::Mode::kOn);
  obs::Counter& fallbacks = obs::counter("plan.fallbacks");
  const int64_t before = fallbacks.value();
  const Shape shape{2, 3, 4, 4};
  Rng rng = testing::test_rng();
  Tensor x = Tensor::randn(shape, rng);

  expect_bitwise(runner.forward(x), relu(x), "first forward");
  EXPECT_EQ(fallbacks.value() - before, 1);
  EXPECT_EQ(runner.cache_size(), 0u);
  EXPECT_EQ(runner.executor_for(shape), nullptr);

  expect_bitwise(runner.forward(x), relu(x), "second forward");
  EXPECT_EQ(fallbacks.value() - before, 2);
  EXPECT_EQ(runner.cache_size(), 0u);
}

TEST(TraceSession, SecondSessionOnOneThreadThrows) {
  // The failing constructor must leave the outer session recording (and
  // allocate nothing it could leak — the ASan lane checks that).
  Var in{Tensor({1, 2})};
  plan::TraceSession outer({}, in);
  EXPECT_THROW({ plan::TraceSession inner({}, in); }, std::runtime_error);
  EXPECT_TRUE(plan::tracing());
}

TEST(InferenceEngine, PlanModeBitIdenticalToInterpretedServing) {
  // Same seed => same weights; only the forward path differs.
  runtime::InferenceEngine::Config on_cfg;
  on_cfg.plan_mode = 1;
  runtime::InferenceEngine::Config off_cfg;
  off_cfg.plan_mode = 0;
  auto planned = runtime::InferenceEngine::from_zoo("SAU-FNO-micro", 3, 1,
                                                    21, "", on_cfg);
  auto interp = runtime::InferenceEngine::from_zoo("SAU-FNO-micro", 3, 1,
                                                   21, "", off_cfg);
  Rng rng = testing::test_rng();
  for (int i = 0; i < 3; ++i) {
    Tensor x = Tensor::randn({3, 16, 16}, rng);
    Tensor a = planned->submit(x.clone()).get();
    Tensor b = interp->submit(x.clone()).get();
    expect_bitwise(a, b, "request " + std::to_string(i));
  }
  EXPECT_EQ(planned->plan_runner().mode(), plan::Mode::kOn);
  EXPECT_GE(planned->plan_runner().cache_size(), 1u);
}

TEST(Reservation, TracksBytesAndAlignment) {
  const runtime::ArenaStats before = runtime::arena_stats();
  {
    runtime::Reservation r(4096);
    ASSERT_NE(r.floats(), nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(r.floats()) % 64, 0u);
    EXPECT_EQ(r.bytes(), 4096u);
    const runtime::ArenaStats mid = runtime::arena_stats();
    EXPECT_EQ(mid.reservations, before.reservations + 1);
    EXPECT_EQ(mid.reserved_bytes, before.reserved_bytes + 4096);
    // Move transfers ownership without double-counting.
    runtime::Reservation moved = std::move(r);
    EXPECT_EQ(runtime::arena_stats().reservations, before.reservations + 1);
    EXPECT_EQ(moved.bytes(), 4096u);
  }
  const runtime::ArenaStats after = runtime::arena_stats();
  EXPECT_EQ(after.reservations, before.reservations);
  EXPECT_EQ(after.reserved_bytes, before.reserved_bytes);
}

TEST(Tensor, WrapExternalSharesCallerMemory) {
  std::vector<float> buf(8, 0.f);
  Tensor t = Tensor::wrap_external(buf.data(), {2, 4});
  t.fill_(3.f);
  EXPECT_EQ(buf[5], 3.f);
  // Reshape views stay on the external buffer...
  Tensor view = t.reshape({4, 2});
  view.data()[0] = 7.f;
  EXPECT_EQ(buf[0], 7.f);
  // ...while clone() detaches to the heap.
  Tensor copy = t.clone();
  copy.fill_(0.f);
  EXPECT_EQ(buf[5], 3.f);
}

}  // namespace
}  // namespace saufno
