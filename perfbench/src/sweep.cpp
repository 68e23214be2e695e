// sweep_64: a design-space sweep at the paper's resolution. Zoo "SAU-FNO"
// (default size_hint) on 3x64x64 power maps; one client submits 8 maps to
// an InferenceEngine with max_batch=8 and waits for all 8 before the next
// sweep (closed loop, 1 client). Tensor kernels do almost all the work.
#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "plan/runner.h"
#include "runtime/inference_engine.h"
#include "tensor/tensor_ops.h"
#include "train/model_zoo.h"

namespace perfbench {
namespace {

using saufno::Rng;
using saufno::Tensor;
using saufno::runtime::InferenceEngine;

constexpr int kMaps = 8;        // maps per sweep = the engine's max_batch
constexpr int kTemplates = 12;  // distinct input maps; a sweep draws 8
constexpr int64_t kRes = 64;
constexpr int kMinSweeps = 20;  // a p50 needs ten samples beyond it
// A traced run measures two passes and probes the plan, at about 2 s per
// sweep or forward on 2 lanes; fewer of each keep it within 180 s. Its
// figures are per-layer metrics, not gated.
constexpr int kTracedMinSweeps = 10;

struct Sweep {
  std::shared_ptr<saufno::nn::Module> model;
  std::unique_ptr<InferenceEngine> engine;
};

Sweep build(std::uint64_t model_seed) {
  Sweep s;
  s.model = saufno::train::make_model("SAU-FNO", 3, 1, model_seed);
  InferenceEngine::Config cfg;
  cfg.max_batch = kMaps;
  s.engine = std::make_unique<InferenceEngine>(s.model, cfg);
  return s;
}

/// One sweep over `picks`: submit all 8, then wait for all 8. Returns the
/// sweep's wall time; checks outputs against `ref` when given.
double run_one(InferenceEngine& eng, const std::vector<Tensor>& templates,
               const std::vector<Tensor>* ref, const std::vector<int>& picks,
               Spans& spans, int64_t op, Ops& ops, double* submit_rest_ms) {
  std::vector<Tensor> inputs;
  inputs.reserve(picks.size());
  for (int p : picks) inputs.push_back(templates[static_cast<std::size_t>(p)].clone());
  std::vector<std::future<Tensor>> futs(picks.size());
  std::vector<Tensor> outs(picks.size());
  std::vector<bool> got(picks.size(), false);

  const int64_t t0 = now_ns();
  int64_t first_submit_end = t0;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    const int64_t ts = now_ns();
    futs[i] = eng.submit(std::move(inputs[i]));
    const int64_t te = now_ns();
    spans.add("runtime.engine", ts, te, op);
    if (i == 0) first_submit_end = te;
  }
  const int64_t submit_end = now_ns();
  for (std::size_t i = 0; i < picks.size(); ++i) {
    const int64_t tw = now_ns();
    try {
      outs[i] = futs[i].get();
      got[i] = true;
    } catch (const std::exception&) {
      ++ops.failed;
    }
    spans.add("runtime.engine", tw, now_ns(), op);
  }
  const int64_t t1 = now_ns();
  *submit_rest_ms = ms_between(first_submit_end, submit_end);

  ops.attempted += static_cast<int64_t>(picks.size());
  for (std::size_t i = 0; i < picks.size(); ++i) {
    if (!got[i]) continue;
    if (ref != nullptr &&
        !same_bits(outs[i], (*ref)[static_cast<std::size_t>(picks[i])])) {
      ++ops.mismatches;
      ++ops.failed;
    } else {
      ++ops.ok;
    }
  }
  return ms_between(t0, t1);
}

/// Seeded choice of 8 distinct templates per sweep (a partial shuffle), so
/// batch composition and row order change from sweep to sweep.
std::vector<int> draw(Rng& rng) {
  std::vector<int> idx(kTemplates);
  for (int i = 0; i < kTemplates; ++i) idx[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < kMaps; ++i) {
    const auto j = static_cast<std::size_t>(i) +
                   rng.next_below(static_cast<std::uint64_t>(kTemplates - i));
    std::swap(idx[static_cast<std::size_t>(i)], idx[j]);
  }
  idx.resize(kMaps);
  return idx;
}

struct Measured {
  Samples sweep_ms;
  Samples submit_rest_ms;
  Ops ops;
};

/// Sweeps for `seconds`, and at least `min_sweeps` of them.
Measured measure(InferenceEngine& eng, const std::vector<Tensor>& templates,
                 const std::vector<Tensor>& ref, std::uint64_t seed,
                 double seconds, int min_sweeps, Spans& spans) {
  Measured m;
  Rng rng(seed ^ 0x5eedULL);
  const int64_t start = now_ns();
  int64_t op = 0;
  while (ms_between(start, now_ns()) < seconds * 1e3 ||
         static_cast<int>(m.sweep_ms.n()) < min_sweeps) {
    double rest = 0.0;
    m.sweep_ms.add(run_one(eng, templates, &ref, draw(rng), spans, op++,
                           m.ops, &rest));
    m.submit_rest_ms.add(rest);
  }
  return m;
}

/// The interpreter, one map at a time.
std::vector<Tensor> reference(const Sweep& sweep,
                              const std::vector<Tensor>& templates,
                              bool corrupt) {
  std::vector<Tensor> ref;
  saufno::plan::PlanRunner interp(sweep.model, saufno::plan::Mode::kOff);
  for (const Tensor& t : templates) {
    ref.push_back(interp.forward(t.reshape({1, 3, kRes, kRes})));
  }
  if (corrupt) flip_first_bit(ref[0]);
  return ref;
}

}  // namespace

int run_sweep_64(const Args& args, Report& report) {
  Rng input_rng(args.seed);
  std::vector<Tensor> templates;
  for (int i = 0; i < kTemplates; ++i) {
    templates.push_back(Tensor::randn({3, kRes, kRes}, input_rng));
  }

  // Set-up, timed from process start: model build, engine start, plan
  // compile (first forward) and one warm-up sweep. The timed sweeps then
  // run on this one engine, so a compile that hit the plan-fallback bug
  // shows in the figures (and in plan.fallbacks).
  Sweep sweep = build(args.seed);
  Spans spans;
  {
    Rng warm_rng(args.seed ^ 0x3a3aULL);
    double rest = 0.0;
    Ops warm_ops;
    (void)run_one(*sweep.engine, templates, nullptr, draw(warm_rng), spans, -1,
                  warm_ops, &rest);
    report.ops.failed += warm_ops.failed;
  }
  report.add_e2e("setup_s", ms_between(kProcessStartNs, now_ns()) * 1e-3, "s",
                 1);
  if (args.setup_only) return 0;

  const std::vector<Tensor> ref =
      reference(sweep, templates, args.corrupt_ref);
  PlanTotals totals;
  ObsDelta obs;
  totals.add_current();
  obs.begin();
  const int min_sweeps = args.trace ? kTracedMinSweeps : kMinSweeps;
  const Measured m = measure(*sweep.engine, templates, ref, args.seed,
                             args.seconds, min_sweeps, spans);
  obs.take();
  report.ops.merge(m.ops);

  // Rates are taken at the median sweep time, so a stall of the machine
  // during a few sweeps does not move them.
  const double maps_per_s = kMaps / (m.sweep_ms.pct(0.5) * 1e-3);
  report.add_e2e("maps_per_s", maps_per_s, "maps/s",
                 static_cast<int64_t>(m.sweep_ms.n()));
  report.add_e2e("sweep_p50_ms", m.sweep_ms.pct(0.5), "ms",
                 static_cast<int64_t>(m.sweep_ms.n()));
  report.throughput_per_s = maps_per_s;
  report.p50_ms = m.sweep_ms.pct(0.5);
  if (!m.sweep_ms.supports(0.5)) report.notes.push_back("too few sweeps for p50");
  report.notes.push_back(fallback_note(obs.value("plan.fallbacks")));

  if (args.trace) {
    totals.add_current();
    obs.begin();
    saufno::obs::force_profile_kernels(true);
    spans.enable(true);
    Measured t = measure(*sweep.engine, templates, ref, args.seed,
                         args.seconds, min_sweeps, spans);
    spans.enable(false);
    saufno::obs::force_profile_kernels(false);
    obs.take();
    totals.add_current();
    report.ops.merge(t.ops);
    const double traced_maps_per_s = kMaps / (t.sweep_ms.pct(0.5) * 1e-3);
    add_trace_overhead(report, maps_per_s, traced_maps_per_s,
                       m.sweep_ms.pct(0.5), t.sweep_ms.pct(0.5));

    sweep.engine.reset();  // free the engine's plans before the probe
    std::vector<Tensor> rows;
    for (int i = 0; i < kMaps; ++i) {
      rows.push_back(templates[static_cast<std::size_t>(i)].reshape({1, 3, kRes, kRes}));
    }
    const PlanProbe probe =
        probe_plan(sweep.model, saufno::cat(rows, 0), min_sweeps);

    LayerInputs in;
    in.obs = &obs;
    in.ops = static_cast<double>(t.sweep_ms.n());
    in.e2e_ms_per_op = t.sweep_ms.mean();
    in.op_name = "sweep";
    in.outer_layer = "runtime.engine";
    in.outer_ms = spans.total_ms("runtime.engine") / in.ops;
    in.gen_ms = in.e2e_ms_per_op - in.outer_ms;
    in.submit_rest_ms = t.submit_rest_ms.mean();
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
