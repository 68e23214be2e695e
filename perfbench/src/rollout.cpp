// rollout_16: transient what-if runs. A RolloutEngine serves SAU-FNO-micro
// (1 state + 1 power channel) at 16x16 and 16 sessions step in lockstep
// from one client thread (closed loop): every wave submits step k of all
// sessions, then awaits them. The kernels are tiny, so pool tasking, plan
// dispatch and the batcher's wave formation set the time.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "data/normalizer.h"
#include "data/rollout_spec.h"
#include "obs/metrics.h"
#include "runtime/rollout_engine.h"
#include "train/model_zoo.h"
#include "train/rollout.h"

namespace perfbench {
namespace {

using saufno::Rng;
using saufno::Tensor;
using saufno::runtime::RolloutEngine;
using saufno::runtime::RolloutSession;

constexpr int kSessions = 16;
constexpr int64_t kSteps = 32;  // steps per episode; then sessions reopen
constexpr int64_t kRes = 16;

struct Trajectory {
  Tensor init;    // [1, H, W] kelvin
  Tensor powers;  // [K, 1, H, W] raw power density
  Tensor ref;     // [K, 1, H, W] rollout_unroll prediction
};

struct Rollout {
  std::shared_ptr<saufno::nn::Module> model;
  std::unique_ptr<RolloutEngine> engine;
};

saufno::data::RolloutSpec spec() {
  saufno::data::RolloutSpec s;
  s.dt = 0.01;
  s.state_channels = 1;
  s.power_channels = 1;
  return s;
}

const saufno::data::Normalizer& norm() {
  static const auto n =
      saufno::data::Normalizer::from_stats(318.0, 3e4, 9.0, 1);
  return n;
}

Rollout build(std::uint64_t model_seed) {
  Rollout r;
  r.model = saufno::train::make_model("SAU-FNO-micro", spec().in_channels(),
                                      spec().out_channels(), model_seed);
  r.engine = std::make_unique<RolloutEngine>(r.model, norm(), spec());
  return r;
}

struct Measured {
  Samples step_ms;
  Samples wave_ms;
  Samples submit_rest_ms;
  Ops ops;
};

/// Run episodes of kSteps lockstep waves until `seconds` have passed (at
/// least `min_waves` waves). Episode e gives session s trajectory
/// (s + e) % kSessions, so row order inside a batch changes per episode.
/// With `check`, every step's state is memcmp'd against the reference.
Measured measure(const RolloutEngine& eng, const std::vector<Trajectory>& traj,
                 double seconds, int min_waves, bool check, Spans& spans) {
  Measured m;
  const int64_t start = now_ns();
  const int64_t plane = kRes * kRes;
  int64_t wave = 0;
  for (int64_t episode = 0;; ++episode) {
    std::vector<std::unique_ptr<RolloutSession>> sessions;
    std::vector<std::size_t> which;
    for (int s = 0; s < kSessions; ++s) {
      which.push_back(static_cast<std::size_t>((s + episode) % kSessions));
      sessions.push_back(eng.open_session(traj[which.back()].init.clone()));
    }
    for (int64_t k = 0; k < kSteps; ++k, ++wave) {
      if (ms_between(start, now_ns()) >= seconds * 1e3 &&
          static_cast<int>(m.wave_ms.n()) >= min_waves) {
        return m;
      }
      std::vector<Tensor> powers;
      for (std::size_t w : which) {
        Tensor p({1, kRes, kRes});
        std::memcpy(p.data(), traj[w].powers.data() + k * plane,
                    static_cast<std::size_t>(plane) * sizeof(float));
        powers.push_back(std::move(p));
      }
      std::vector<int64_t> submitted(kSessions);
      const int64_t t0 = now_ns();
      int64_t first_end = t0;
      for (int s = 0; s < kSessions; ++s) {
        const auto si = static_cast<std::size_t>(s);
        submitted[si] = now_ns();
        sessions[si]->submit_step(std::move(powers[si]));
        const int64_t te = now_ns();
        spans.add("runtime.rollout", submitted[si], te, wave);
        if (s == 0) first_end = te;
      }
      const int64_t submit_end = now_ns();
      for (int s = 0; s < kSessions; ++s) {
        const auto si = static_cast<std::size_t>(s);
        const int64_t ta = now_ns();
        ++m.ops.attempted;
        try {
          Tensor out = sessions[si]->await_step();
          const int64_t done = now_ns();
          spans.add("runtime.rollout", ta, done, wave);
          m.step_ms.add(ms_between(submitted[si], done));
          if (check &&
              std::memcmp(out.data(), traj[which[si]].ref.data() + k * plane,
                          static_cast<std::size_t>(plane) * sizeof(float)) !=
                  0) {
            ++m.ops.mismatches;
            ++m.ops.failed;
          } else {
            ++m.ops.ok;
          }
        } catch (const std::exception&) {
          ++m.ops.failed;
        }
      }
      m.wave_ms.add(ms_between(t0, now_ns()));
      m.submit_rest_ms.add(ms_between(first_end, submit_end));
    }
  }
}

}  // namespace

int run_rollout_16(const Args& args, Report& report) {
  Rng rng(args.seed);
  std::vector<Trajectory> traj(kSessions);
  for (auto& t : traj) {
    t.init = Tensor::rand_uniform({1, kRes, kRes}, rng, 318.f, 338.f);
    t.powers = Tensor::rand_uniform({kSteps, 1, kRes, kRes}, rng, 0.f, 9e4f);
  }

  // Set-up, timed from process start: model build, engine start, plan
  // compile and one warm-up wave. The timed waves then run on this one
  // engine, so a compile that hit the plan-fallback bug shows in the
  // figures (and in plan.fallbacks).
  Rollout ro = build(args.seed);
  Spans spans;
  {
    const Measured warm = measure(*ro.engine, traj, 0.0, 1, false, spans);
    report.ops.failed += warm.ops.failed;
  }
  report.add_e2e("setup_s", ms_between(kProcessStartNs, now_ns()) * 1e-3, "s",
                 1);
  if (args.setup_only) return 0;

  // Reference: the offline free-running unroll of each trajectory.
  for (auto& t : traj) {
    t.ref = saufno::train::rollout_unroll(*ro.model, norm(), t.init, t.powers);
  }
  if (args.corrupt_ref) flip_first_bit(traj[0].ref);
  PlanTotals totals;
  ObsDelta obs;
  totals.add_current();
  obs.begin();
  const Measured m = measure(*ro.engine, traj, args.seconds, 0, true, spans);
  obs.take();
  report.ops.merge(m.ops);

  // Rates are taken at the median wave time, so a stall of the machine
  // during a few waves does not move them.
  const double steps_per_s = kSessions / (m.wave_ms.pct(0.5) * 1e-3);
  const auto n_steps = static_cast<int64_t>(m.step_ms.n());
  report.add_e2e("steps_per_s", steps_per_s, "session-steps/s", n_steps);
  report.add_e2e("step_p50_ms", m.step_ms.pct(0.5), "ms", n_steps);
  if (m.step_ms.supports(0.99)) {
    report.add_e2e("step_p99_ms", m.step_ms.pct(0.99), "ms", n_steps);
  } else {
    report.notes.push_back("too few steps for p99");
  }
  report.throughput_per_s = steps_per_s;
  report.p50_ms = m.step_ms.pct(0.5);
  report.notes.push_back(fallback_note(obs.value("plan.fallbacks")));

  if (args.trace) {
    totals.add_current();
    obs.begin();
    saufno::obs::force_profile_kernels(true);
    spans.enable(true);
    Measured t = measure(*ro.engine, traj, args.seconds, 0, true, spans);
    spans.enable(false);
    saufno::obs::force_profile_kernels(false);
    obs.take();
    totals.add_current();
    report.ops.merge(t.ops);
    add_trace_overhead(report, steps_per_s,
                       kSessions / (t.wave_ms.pct(0.5) * 1e-3), m.step_ms.pct(0.5),
                       t.step_ms.pct(0.5));

    Rng probe_rng(args.seed ^ 0x9e37ULL);
    const PlanProbe probe = probe_plan(
        ro.model,
        Tensor::randn({kSessions, spec().in_channels(), kRes, kRes}, probe_rng),
        200);

    LayerInputs in;
    in.obs = &obs;
    in.ops = static_cast<double>(t.wave_ms.n());
    in.e2e_ms_per_op = t.wave_ms.mean();
    in.op_name = "wave";
    in.outer_layer = "runtime.rollout";
    in.outer_ms = spans.total_ms("runtime.rollout") / in.ops;
    in.gen_ms = in.e2e_ms_per_op - in.outer_ms;
    in.submit_rest_ms = t.submit_rest_ms.mean();
    in.wave_p50_ms = t.wave_ms.pct(0.5);
    in.wave_samples = static_cast<int64_t>(t.wave_ms.n());
    in.plan_forward_p50_ms = probe.forward_ms.pct(0.5);
    in.plan_forward_samples = static_cast<int64_t>(probe.forward_ms.n());
    in.plan_instr_count = probe.instr_count;
    in.permute_bytes_per_fwd = probe.permute_bytes;
    in.plan_totals = &totals;
    add_layer_metrics(report, in);
    if (!spans.write(args.spans_out, report.workload)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
    }
  }
  report.add_e2e("peak_rss_mib", peak_rss_mib(), "MiB", 1, "O");
  return 0;
}

}  // namespace perfbench
