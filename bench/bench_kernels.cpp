// Kernel-core benchmark: the packed/SIMD-blocked gemm against a byte-level
// preserved copy of the seed scalar kernel (gemm_seed_reference in
// seed_gemm.h, bench/test code only), across the matrix shapes the zoo
// models actually hit at serving scale (B=8, C=32, 64x64 grids), plus the
// end-to-end SAU-FNO forward time.
//
// Also times the compiled-execution-plan forward (plan::PlanRunner) against
// the define-by-run interpreter on the same weights and input: the two are
// bit-identical by construction, so the delta is pure dispatch/fusion/arena
// win. The compiled plan's per-opcode instruction counts go into the JSON,
// so a layout op creeping back into the forward is visible (CI fails the
// smoke run if the SAU-FNO-micro plan has any `permute`).
//
// Results are printed AND written to BENCH_kernels.json so the performance
// trajectory is machine-trackable across PRs. `--smoke` (or SAUFNO_SMOKE=1)
// shrinks sizes so CI runs in seconds; in smoke mode the binary exits
// nonzero if the new gemm is SLOWER than the seed kernel at the reference
// shape, or if the plan-mode forward is slower than the interpreted one —
// either perf regression fails CI instead of just flattening a graph.

#include <algorithm>
#include <cstdio>
#include <map>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "common/timer.h"
#include "obs/export.h"
#include "plan/executor.h"
#include "plan/runner.h"
#include "runtime/thread_pool.h"
#include "seed_gemm.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "train/model_zoo.h"

namespace saufno {
namespace {

struct Entry {
  std::string name;
  int64_t m = 0, n = 0, k = 0;
  double gflops_seed = 0.0;
  double gflops_new = 0.0;
  double speedup = 0.0;
};

std::vector<Entry> g_entries;

/// Best-of-3 timing of `iters` calls to fn; returns seconds per call.
template <typename Fn>
double time_per_call(int iters, Fn fn) {
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    Timer t;
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, t.seconds() / iters);
  }
  return best;
}

/// Interleaved A/B timing: `samples` rounds, each timing `fa` then `fb`
/// over as many calls as last at least `min_sec`. Returns the median
/// seconds per call of each side. Alternating the sides and timing each
/// sample for a floor of wall time keeps a millisecond forward's ratio from
/// riding on one scheduler hiccup, which best-of-3 over a few calls did not.
template <typename FnA, typename FnB>
std::pair<double, double> median_interleaved(int samples, double min_sec,
                                             FnA fa, FnB fb) {
  auto sample = [min_sec](auto& fn) {
    int calls = 0;
    Timer t;
    do {
      fn();
      ++calls;
    } while (t.seconds() < min_sec);
    return t.seconds() / calls;
  };
  std::vector<double> a, b;
  for (int i = 0; i < samples; ++i) {
    a.push_back(sample(fa));
    b.push_back(sample(fb));
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  return {median(a), median(b)};
}

/// Time one gemm shape under both kernels. Also cross-checks that the
/// blocked kernel agrees with the seed kernel on dense random data (where
/// the zero-skip cannot fire), so the bench doubles as a smoke-level
/// equivalence test at real shapes.
Entry bench_shape(const std::string& name, int64_t m, int64_t n, int64_t k,
                  int iters) {
  Rng rng(0x5eedULL + static_cast<std::uint64_t>(m * 31 + n * 7 + k));
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c_seed({m, n});
  Tensor c_new({m, n});

  const double flop = 2.0 * static_cast<double>(m) * n * k;
  const double sec_seed = time_per_call(iters, [&] {
    gemm_seed_reference(a.data(), b.data(), c_seed.data(), m, n, k,
                        /*accumulate=*/false);
  });
  const double sec_new = time_per_call(iters, [&] {
    gemm(a.data(), b.data(), c_new.data(), m, n, k, /*accumulate=*/false);
  });
  // atol scales with k: fp32 accumulation error grows ~eps * k for both
  // kernels (the blocked one is measurably CLOSER to a double reference),
  // so near-zero outputs need k-proportional slack.
  const float atol = 2e-6f * static_cast<float>(k);
  if (!c_new.allclose(c_seed, /*rtol=*/1e-4f, atol)) {
    std::printf("FATAL: blocked gemm diverges from seed kernel at %s\n",
                name.c_str());
    std::exit(2);
  }

  Entry e;
  e.name = name;
  e.m = m;
  e.n = n;
  e.k = k;
  e.gflops_seed = flop / sec_seed * 1e-9;
  e.gflops_new = flop / sec_new * 1e-9;
  e.speedup = sec_seed / sec_new;
  g_entries.push_back(e);
  std::printf("%-28s m=%-6lld n=%-6lld k=%-5lld %8.2f -> %8.2f GFLOP/s  %5.2fx\n",
              name.c_str(), static_cast<long long>(m),
              static_cast<long long>(n), static_cast<long long>(k),
              e.gflops_seed, e.gflops_new, e.speedup);
  return e;
}

/// End-to-end SAU-FNO forward (conv + attention + pointwise + spectral
/// layers) through the interpreter; returns forwards per second.
double bench_end_to_end(bool smoke) {
  const int64_t B = smoke ? 2 : 8;
  const int64_t H = smoke ? 16 : 64, W = H;
  const int64_t cin = 3, cout = 1;
  auto model = train::make_model(smoke ? "SAU-FNO-micro" : "SAU-FNO", cin,
                                 cout, /*seed=*/7);
  model->set_training(false);
  Rng rng(11);
  Tensor x = Tensor::randn({B, cin, H, W}, rng);
  const int iters = smoke ? 2 : 5;

  NoGradGuard no_grad;
  auto forward = [&] { (void)model->forward(Var(x)); };
  forward();  // warm FFT plans + arena so the timing is steady state
  const double sec = time_per_call(iters, forward);
  std::printf("\nend-to-end forward (B=%lld, %lldx%lld): %.2f ms  "
              "(%.1f fwd/s)\n",
              static_cast<long long>(B), static_cast<long long>(H),
              static_cast<long long>(W), sec * 1e3, 1.0 / sec);
  return 1.0 / sec;
}

struct PlanBench {
  double compile_ms = 0.0;
  double speedup = 0.0;  // interpreted sec/call over plan sec/call
  int64_t instr_count = 0;
  int64_t fused_kernels = 0;
  int64_t folded_ops = 0;
  // Per-phase split of the compile from PlanRunner::last_compile_breakdown:
  // trace (the recorded forward, which is the first call's interpreted
  // forward — the dominant term), lower (graph extraction), passes
  // (folding/fusion/liveness/arena).
  double compile_trace_ms = 0.0;
  double compile_lower_ms = 0.0;
  double compile_passes_ms = 0.0;
  std::string model;
  int64_t arena_floats = 0;
  std::map<std::string, int64_t> opcode_counts;  // per opcode, plan order
};

/// Compiled plan vs interpreter on the same model/input. The outputs are
/// bit-identical (tests/test_plan.cpp proves it), so this only measures the
/// fused-dispatch win: the median of interleaved samples per side. Compile
/// cost is reported as first-call time minus a steady-state call, i.e. what
/// one cache miss actually adds to a request.
PlanBench bench_plan(bool smoke) {
  const int64_t B = smoke ? 2 : 8;
  const int64_t H = smoke ? 16 : 64, W = H;
  PlanBench r;
  r.model = smoke ? "SAU-FNO-micro" : "SAU-FNO";
  auto model = train::make_model(r.model, 3, 1, /*seed=*/7);
  model->set_training(false);
  Rng rng(13);
  Tensor x = Tensor::randn({B, 3, H, W}, rng);

  plan::PlanRunner interp(model, plan::Mode::kOff);
  plan::PlanRunner planned(model, plan::Mode::kOn);

  (void)interp.forward(x);  // warm FFT plans + arena freelists
  Timer t;
  (void)planned.forward(x);  // first call records its forward + compiles
  const double first_call = t.seconds();

  const auto [sec_interp, sec_plan] = median_interleaved(
      smoke ? 9 : 5, smoke ? 0.05 : 0.2, [&] { (void)interp.forward(x); },
      [&] { (void)planned.forward(x); });

  r.compile_ms = std::max(0.0, (first_call - sec_plan) * 1e3);
  r.speedup = sec_interp / sec_plan;
  if (auto exec = planned.executor_for(x.shape())) {
    r.instr_count = static_cast<int64_t>(exec->plan().instrs.size());
    r.fused_kernels = exec->plan().fused_ops;
    r.folded_ops = exec->plan().folded_ops;
    r.arena_floats = exec->plan().arena_floats;
    for (const plan::Instr& ins : exec->plan().instrs) {
      ++r.opcode_counts[plan::op_name(ins.op)];
    }
  }
  const auto bd = planned.last_compile_breakdown();
  r.compile_trace_ms = bd.trace_ms;
  r.compile_lower_ms = bd.lower_ms;
  r.compile_passes_ms = bd.passes_ms;
  std::printf("\nplan vs interpreter (B=%lld, %lldx%lld): %.2f ms -> %.2f ms  "
              "%.2fx  (compile %.1f ms, %lld instrs, %lld fused, %lld "
              "folded)\n",
              static_cast<long long>(B), static_cast<long long>(H),
              static_cast<long long>(W), sec_interp * 1e3, sec_plan * 1e3,
              r.speedup, r.compile_ms, static_cast<long long>(r.instr_count),
              static_cast<long long>(r.fused_kernels),
              static_cast<long long>(r.folded_ops));
  std::printf("plan compile breakdown: trace %.1f ms (the recorded forward), "
              "lower %.1f ms, passes %.1f ms\n",
              r.compile_trace_ms, r.compile_lower_ms, r.compile_passes_ms);
  return r;
}

void write_json(const char* path, bool smoke, double ref_speedup,
                double fwd_per_sec, const PlanBench& plan) {
  JsonWriter w;
  w.begin_object();
  w.field("bench", "bench_kernels");
  w.field("mode", smoke ? "smoke" : "full");
  w.field("simd_level", simd::level_name());
  w.field("threads", runtime::ThreadPool::instance().num_threads());
  w.field("gemm_speedup_reference_shape", ref_speedup, 4);
  w.field("end_to_end_forward_per_sec", fwd_per_sec, 4);
  w.field("plan_compile_ms", plan.compile_ms, 4);
  w.field("plan_compile_trace_ms", plan.compile_trace_ms, 4);
  w.field("plan_compile_lower_ms", plan.compile_lower_ms, 4);
  w.field("plan_compile_passes_ms", plan.compile_passes_ms, 4);
  w.field("plan_vs_interp_speedup", plan.speedup, 4);
  w.field("plan_instr_count", plan.instr_count);
  w.field("plan_fused_kernels", plan.fused_kernels);
  w.field("plan_folded_ops", plan.folded_ops);
  w.field("plan_model", plan.model);
  w.field("plan_arena_floats", plan.arena_floats);
  w.key("plan_opcode_counts");
  w.begin_object();
  for (const auto& [op, count] : plan.opcode_counts) w.field(op, count);
  w.end_object();
  w.key("results");
  w.begin_array();
  for (const auto& e : g_entries) {
    w.begin_object();
    w.field("name", e.name);
    w.field("threads", runtime::ThreadPool::instance().num_threads());
    w.field("m", e.m);
    w.field("n", e.n);
    w.field("k", e.k);
    w.field("gflops_seed", e.gflops_seed, 4);
    w.field("gflops_new", e.gflops_new, 4);
    w.field("speedup", e.speedup, 4);
    w.end_object();
  }
  w.end_array();
  w.key("obs");
  w.raw_value(obs::dump_json());
  w.end_object();
  w.write_file(path);
}

}  // namespace
}  // namespace saufno

int main(int argc, char** argv) {
  using namespace saufno;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const char* env = std::getenv("SAUFNO_SMOKE");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') smoke = true;

  std::printf("== bench_kernels (%s mode, simd=%s) ==\n",
              smoke ? "smoke" : "full", simd::level_name());
  std::printf("shapes are the B=8, C=32, 64x64 serving hot path\n\n");

  // Reference shape for the CI gate: the U-Net 3x3 conv gemm, the fattest
  // per-sample contraction in the forward.
  Entry ref;
  if (smoke) {
    ref = bench_shape("conv3x3_ref", 32, 1024, 288, 8);
    bench_shape("pointwise", 4096, 32, 32, 8);
    bench_shape("attn_scores", 256, 256, 16, 8);
  } else {
    ref = bench_shape("conv3x3_ref", 32, 4096, 288, 20);
    bench_shape("pointwise", 32768, 32, 32, 20);
    bench_shape("attn_scores", 1024, 1024, 16, 20);
    bench_shape("attn_mix", 32, 1024, 1024, 20);
    bench_shape("decoder_mlp", 32768, 64, 32, 20);
    bench_shape("conv_grad_weight", 32, 288, 4096, 20);
  }

  const double fwd_per_sec = bench_end_to_end(smoke);
  const PlanBench plan = bench_plan(smoke);

  write_json("BENCH_kernels.json", smoke, ref.speedup, fwd_per_sec, plan);

  int rc = 0;
  if (smoke && ref.speedup < 1.0) {
    std::printf("FAIL: blocked gemm slower than the seed kernel at the "
                "reference shape (%.2fx)\n", ref.speedup);
    rc = 1;
  }
  if (smoke && plan.speedup < 1.0) {
    std::printf("FAIL: plan-mode forward slower than the interpreter "
                "(%.2fx)\n", plan.speedup);
    rc = 1;
  }
  return rc;
}
