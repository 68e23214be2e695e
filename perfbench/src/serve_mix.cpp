// serve_mix: online serving over TCP loopback. An in-process serve::Server
// and Fleet serve SAU-FNO-micro; single requests arrive open-loop as a
// Poisson process (75% 12x12, 25% 16x16; 80% from a hot tenant under a
// quota spec) at two fixed rates, `low` and `high`. Then closed loops
// measure the latency of a single request in flight (p50_ms.single) and
// the rate of bursts of 16 (burst_rps), and a fixed rate ladder
// max_rate_rps. Each open-loop request is timed from when it was due.
//
// The generator is one process with at most 2 threads (the sender, which is
// the calling thread, and a receiver) and 1 connection per phase: 3 in
// total, within the nproc = 4 budget. Rates are absolute numbers fixed
// here, never derived from a probe of the code under test.
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "plan/runner.h"
#include "runtime/inference_engine.h"
#include "serve/client.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "train/model_zoo.h"

namespace perfbench {
namespace {

using saufno::Rng;
using saufno::Tensor;
namespace serve = saufno::serve;
namespace runtime = saufno::runtime;

// Offered rates lie on one fixed grid, rung(k) = 200 * 1.08^k req/s: `low`
// is rung 0 (200 req/s: batches of 1-2, per-request overhead shows),
// `high` is rung 18 (799 req/s: batches form). max_rate_rps is the highest
// rung passed by one climb from rung kHighRung, one trial per rung.
constexpr int kHighRung = 18;
constexpr int kTopRung = 40;  // 4345 req/s
double rung(int k) { return std::round(200.0 * std::pow(1.08, k)); }
constexpr double kLimitMs = 100.0;  // p99 limit for max_rate_rps
// burst_rps sends closed-loop bursts of this many requests: one full batch.
constexpr int kBurst = 16;
// A ladder rung offers this many requests on average: a p99 needs ten
// samples beyond it.
constexpr double kRungRequests = 1200;
constexpr int kSmall = 9, kLarge = 3;    // 12x12 : 16x16 templates = 75 : 25
const char* const kTenants[] = {"hot", "t1", "t2", "t3", "t4"};
constexpr double kHotShare = 0.8;
const char* const kQuotaSpec = "hot=1024,*=256";

struct Service {
  std::shared_ptr<saufno::nn::Module> model;
  std::shared_ptr<serve::Fleet> fleet;
  std::unique_ptr<serve::Server> server;
};

Service build(std::uint64_t model_seed) {
  Service s;
  s.model = saufno::train::make_model("SAU-FNO-micro", 3, 1, model_seed);
  s.fleet = std::make_shared<serve::Fleet>(serve::Fleet::Config{});
  runtime::InferenceEngine::Config ecfg;
  ecfg.max_batch = 16;
  ecfg.max_wait_us = 500;
  ecfg.queue_capacity = 4096;
  s.fleet->add_engine("micro",
                      std::make_shared<runtime::InferenceEngine>(s.model, ecfg));
  serve::Server::Config scfg;
  scfg.default_model = "micro";
  scfg.max_conns = 4;
  scfg.max_pipelined = 4096;
  scfg.quota_spec = kQuotaSpec;
  s.server = std::make_unique<serve::Server>(s.fleet, scfg);
  s.server->start();
  return s;
}

struct Phase {
  std::string name;
  double rate = 0;
  Samples latency_ms;  // due -> response, answered-ok requests
  Samples rtt_ms;      // sent -> response
  Samples lag_ms;      // due -> sent (how late the generator ran)
  Ops ops;
  double backlog = 0;  // requests in flight when the last one was sent
  bool growing = false;
  bool passed = false;
  Samples burst_ms;    // closed loop: time per burst
};

int pick_template(Rng& rng) {
  return rng.uniform() < 0.75 ? static_cast<int>(rng.next_below(kSmall))
                              : kSmall + static_cast<int>(rng.next_below(kLarge));
}

int pick_tenant(Rng& rng) {
  return rng.uniform() < kHotShare ? 0
                                   : 1 + static_cast<int>(rng.next_below(4));
}

/// Counts one response into `ops`; true when it is ok and bit-identical to
/// `want`.
bool check_response(const serve::Response& r, const Tensor& want, Ops& ops) {
  if (r.code == serve::WireCode::kOk) {
    if (r.has_tensor && same_bits(r.tensor, want)) {
      ++ops.ok;
      return true;
    }
    ++ops.mismatches;
    ++ops.failed;
  } else if (r.code == serve::WireCode::kOverloaded) {
    ++ops.shed;
  } else {
    ++ops.failed;
  }
  return false;
}

/// One open-loop phase: a seeded Poisson schedule of `seconds` at `rate`,
/// sent over a fresh connection; every response is checked bit for bit.
Phase run_phase(const std::string& name, double rate, double seconds,
                serve::Server& server, const std::vector<Tensor>& templates,
                const std::vector<Tensor>& ref, Rng& rng, Spans& spans,
                int64_t* op_base) {
  Phase ph;
  ph.name = name;
  ph.rate = rate;
  std::vector<int64_t> due;
  std::vector<int> tmpl, tenant;
  const int64_t start = now_ns() + 5000000;  // 5 ms to connect
  for (double t = 0.0;;) {
    const double u = (static_cast<double>(rng.next_u64() >> 11) + 1.0) /
                     9007199254740993.0;
    t += -std::log(u) / rate;
    if (t >= seconds) break;
    due.push_back(start + static_cast<int64_t>(t * 1e9));
    tmpl.push_back(pick_template(rng));
    tenant.push_back(pick_tenant(rng));
  }
  const std::size_t n = due.size();
  const int64_t op0 = *op_base;
  *op_base += static_cast<int64_t>(n);
  std::vector<std::atomic<int64_t>> sent(n);
  std::vector<int64_t> answered(n, 0);  // receive time of ok responses
  std::atomic<int64_t> received{0};
  // Responses the receiver waits for; lowered when a runaway rung stops
  // sending early (more than 2x the limit's backlog is still in flight
  // then, so the receiver reads the new value before its last response).
  std::atomic<int64_t> expected{static_cast<int64_t>(n)};
  std::mutex m;
  std::condition_variable cv;
  bool receiver_done = false;

  serve::Client c;
  try {
    c.connect("127.0.0.1", server.port());
  } catch (const std::exception&) {
    ph.ops.attempted = ph.ops.unanswered = static_cast<int64_t>(n);
    return ph;
  }
  std::thread receiver([&] {
    try {
      while (received.load() < expected.load()) {
        serve::Response r = c.recv_response();
        const int64_t t = now_ns();
        const std::size_t idx = static_cast<std::size_t>(r.id - 1);
        if (idx >= n) {
          ++ph.ops.failed;
        } else {
          if (r.code == serve::WireCode::kOk) {
            const int64_t s = sent[idx].load(std::memory_order_relaxed);
            ph.rtt_ms.add(ms_between(s, t));
          }
          if (check_response(r, ref[static_cast<std::size_t>(tmpl[idx])],
                             ph.ops)) {
            ph.latency_ms.add(ms_between(due[idx], t));
            answered[idx] = t;
          }
        }
        received.fetch_add(1);
      }
    } catch (const std::exception&) {
      // Connection lost: whatever is still outstanding counts as unanswered.
    }
    std::lock_guard<std::mutex> lk(m);
    receiver_done = true;
    cv.notify_all();
  });

  const double max_inflight = rate * kLimitMs * 1e-3;
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(due[i])));
    ph.backlog =
        static_cast<double>(static_cast<int64_t>(i) - received.load());
    if (ph.backlog > 2.0 * max_inflight) {
      // The backlog is running away: the rung has missed, and sending on
      // would only build a queue that sheds. Stop here.
      expected.store(static_cast<int64_t>(i));
      break;
    }
    const int64_t s = now_ns();
    sent[i].store(s, std::memory_order_relaxed);
    ph.lag_ms.add(ms_between(due[i], s));
    try {
      c.send_infer(templates[static_cast<std::size_t>(tmpl[i])], "",
                   kTenants[tenant[i]]);
    } catch (const std::exception&) {
      break;  // connection lost; the rest is unanswered
    }
  }
  // More in flight than the limit allows at this rate (Little's law).
  ph.growing = ph.backlog > max_inflight;
  {
    // Every accepted frame gets exactly one response; 10 s without the
    // last one is a hang: stop the server, which closes the connection.
    std::unique_lock<std::mutex> lk(m);
    if (!cv.wait_for(lk, std::chrono::seconds(10),
                     [&] { return receiver_done; })) {
      lk.unlock();
      server.stop();
    }
  }
  receiver.join();
  c.close();
  ph.ops.attempted = expected.load();
  ph.ops.unanswered = ph.ops.attempted - received.load();
  for (std::size_t i = 0; i < n; ++i) {
    const int64_t s = sent[i].load(std::memory_order_relaxed);
    if (s == 0) continue;  // never sent
    spans.add("gen", due[i], s, op0 + static_cast<int64_t>(i));
    if (answered[i] != 0) {
      spans.add("serve", s, answered[i], op0 + static_cast<int64_t>(i));
    }
  }

  // p99 over every request sent: a shed, failed or unanswered request
  // counts as over the limit.
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(ph.ops.attempted)));
  const bool p99_ok = rank > 0 && rank <= ph.latency_ms.n() &&
                      ph.latency_ms.nth(rank) <= kLimitMs;
  ph.passed = p99_ok && ph.latency_ms.supports(0.99) && !ph.growing;
  return ph;
}

/// Closed loop on one connection from the calling thread alone: bursts of
/// `depth` requests, each sent once the previous burst is answered, for
/// `seconds`. Every response is checked bit for bit. latency_ms holds the ok
/// requests' send -> response times (a closed loop sends a request when it
/// is due) and burst_ms each burst's time.
Phase run_closed(const std::string& name, int depth, double seconds,
                 serve::Server& server, const std::vector<Tensor>& templates,
                 const std::vector<Tensor>& ref, Rng& rng) {
  Phase ph;
  ph.name = name;
  serve::Client c;
  try {
    c.connect("127.0.0.1", server.port());
  } catch (const std::exception&) {
    ph.ops.attempted = ph.ops.unanswered = 1;
    return ph;
  }
  std::vector<int> tmpl;
  std::vector<int64_t> sent;
  int64_t received = 0;
  const int64_t end = now_ns() + static_cast<int64_t>(seconds * 1e9);
  try {
    while (now_ns() < end) {
      const int64_t b0 = now_ns();
      for (int i = 0; i < depth; ++i) {
        tmpl.push_back(pick_template(rng));
        const int tenant = pick_tenant(rng);
        sent.push_back(now_ns());
        c.send_infer(templates[static_cast<std::size_t>(tmpl.back())], "",
                     kTenants[tenant]);
      }
      for (int i = 0; i < depth; ++i) {
        const serve::Response r = c.recv_response();
        const int64_t t = now_ns();
        ++received;
        const std::size_t idx = static_cast<std::size_t>(r.id - 1);
        if (idx >= tmpl.size()) {
          ++ph.ops.failed;
        } else if (check_response(r, ref[static_cast<std::size_t>(tmpl[idx])],
                                  ph.ops)) {
          ph.latency_ms.add(ms_between(sent[idx], t));
        }
      }
      ph.burst_ms.add(ms_between(b0, now_ns()));
    }
  } catch (const std::exception&) {
    // Connection lost: whatever is still outstanding counts as unanswered.
  }
  c.close();
  ph.ops.attempted = static_cast<int64_t>(tmpl.size());
  ph.ops.unanswered = ph.ops.attempted - received;
  return ph;
}

void print_phase(const Phase& p) {
  std::fprintf(stderr,
               "  %-6s %6.0f req/s  n=%-6zu p50 %7.2f ms  p99 %7.2f ms  "
               "lag p99 %6.2f ms  backlog %4.0f  shed %lld  failed %lld  %s\n",
               p.name.c_str(), p.rate, p.latency_ms.n(), p.latency_ms.pct(0.5),
               p.latency_ms.pct(0.99), p.lag_ms.pct(0.99), p.backlog,
               static_cast<long long>(p.ops.shed),
               static_cast<long long>(p.ops.failed + p.ops.unanswered),
               p.passed ? "pass" : "miss");
}

struct Traffic {
  Phase low, high, single, closed;
  std::vector<Phase> ladder;
  double burst_rps = 0;
  double max_rate = 0;
  Ops ops;
};

/// `low` for 25% of the run and `high` for 15%; closed loops of single
/// requests for 15% and of kBurst-request bursts for 20%; then the rate
/// ladder: from rung kHighRung up one rung at a time, one trial per rung,
/// stopping at the first rung that misses. burst_rps is kBurst over the
/// median burst time; max_rate_rps is the highest rung that passed (0 when
/// the first missed). The ladder's schedule depends on nothing but the
/// trials' outcomes.
/// `high_obs` (traced runs) brackets the high phase; `totals` then keeps the
/// plan counters its reset would drop.
Traffic run_traffic(const Service& svc, const std::vector<Tensor>& templates,
                    const std::vector<Tensor>& ref, std::uint64_t seed,
                    double seconds, Spans& spans, ObsDelta* high_obs,
                    PlanTotals* totals) {
  Traffic t;
  Rng rng(seed ^ 0x7a11ULL);
  serve::Server& server = *svc.server;
  int64_t op = 0;
  t.low = run_phase("low", rung(0), 0.25 * seconds, server, templates, ref,
                    rng, spans, &op);
  if (high_obs) {
    totals->add_current();
    high_obs->begin();
  }
  t.high = run_phase("high", rung(kHighRung), 0.15 * seconds, server,
                     templates, ref, rng, spans, &op);
  if (high_obs) high_obs->take();
  t.single = run_closed("single", 1, 0.15 * seconds, server, templates, ref,
                        rng);
  t.closed = run_closed("burst", kBurst, 0.20 * seconds, server, templates,
                        ref, rng);
  t.burst_rps = kBurst / (t.closed.burst_ms.pct(0.5) * 1e-3);
  for (const Phase* p : {&t.low, &t.high, &t.single, &t.closed}) {
    t.ops.merge(p->ops);
  }
  for (int k = kHighRung; k <= kTopRung; ++k) {
    const double rate = rung(k);
    t.ladder.push_back(run_phase("rung" + std::to_string(k), rate,
                                 kRungRequests / rate, server, templates, ref,
                                 rng, spans, &op));
    t.ops.merge(t.ladder.back().ops);
    if (!t.ladder.back().passed) break;
    t.max_rate = rate;
  }
  return t;
}

double frame_bytes(const Tensor& input, const Tensor& output) {
  serve::InferRequest req;
  req.id = 1;
  req.tenant = "hot";
  req.input = input;
  serve::Response resp;
  resp.id = 1;
  resp.has_tensor = true;
  resp.tensor = output;
  return static_cast<double>(serve::encode_infer(req).size() +
                             serve::encode_response(resp).size());
}

}  // namespace

int run_serve_mix(const Args& args, Report& report) {
  Rng rng(args.seed);
  std::vector<Tensor> templates;
  for (int i = 0; i < kSmall + kLarge; ++i) {
    const int64_t res = i < kSmall ? 12 : 16;
    templates.push_back(Tensor::randn({3, res, res}, rng));
  }

  // Set-up, timed from process start: model build, engine + fleet +
  // server start, and a short warm-up (0.3 s at `low`, at `high` and in the
  // closed loop) that compiles the plans the traffic needs.
  Service svc = build(args.seed);
  Spans spans;
  {
    // Warm-up outputs are not checked (no reference yet); they are only
    // counted when the request fails outright.
    std::vector<Tensor> warm_ref(templates.size());
    for (std::size_t i = 0; i < templates.size(); ++i) {
      warm_ref[i] = Tensor({1, templates[i].size(1), templates[i].size(2)});
    }
    Rng warm_rng(args.seed ^ 0xa3a3ULL);
    int64_t op = 0;
    std::vector<Phase> warm;
    for (double rate : {rung(0), rung(kHighRung)}) {
      warm.push_back(run_phase("warm", rate, 0.3, *svc.server, templates,
                               warm_ref, warm_rng, spans, &op));
    }
    warm.push_back(run_closed("warm", kBurst, 0.3, *svc.server, templates,
                              warm_ref, warm_rng));
    for (const Phase& w : warm) {
      report.ops.failed += w.ops.shed + w.ops.unanswered +
                           (w.ops.failed - w.ops.mismatches);
    }
  }
  report.add_e2e("setup_s", ms_between(kProcessStartNs, now_ns()) * 1e-3, "s",
                 1);
  if (args.setup_only) return 0;

  // Reference: the interpreter, one request at a time.
  std::vector<Tensor> ref;
  {
    saufno::plan::PlanRunner interp(svc.model, saufno::plan::Mode::kOff);
    for (const Tensor& t : templates) {
      ref.push_back(interp.forward(t.reshape({1, 3, t.size(1), t.size(2)})));
    }
  }
  if (args.corrupt_ref) flip_first_bit(ref[0]);

  PlanTotals totals;
  ObsDelta obs;
  totals.add_current();
  obs.begin();
  Traffic tr = run_traffic(svc, templates, ref, args.seed, args.seconds, spans,
                           nullptr, nullptr);
  obs.take();
  report.ops.merge(tr.ops);
  std::fprintf(stderr, "serve_mix:\n");
  print_phase(tr.low);
  print_phase(tr.high);
  std::fprintf(stderr, "  single 1 in flight: p50 %.3f ms over %zu requests\n",
               tr.single.latency_ms.pct(0.5), tr.single.latency_ms.n());
  std::fprintf(stderr, "  burst  %d in flight: %.1f req/s over %zu bursts\n",
               kBurst, tr.burst_rps, tr.closed.burst_ms.n());
  for (const Phase& p : tr.ladder) print_phase(p);

  for (const Phase* p : {&tr.low, &tr.high, &tr.single}) {
    const auto n = static_cast<int64_t>(p->latency_ms.n());
    report.add_e2e("p50_ms." + p->name, p->latency_ms.pct(0.5), "ms", n);
    if (p->latency_ms.supports(0.99)) {
      report.add_e2e("p99_ms." + p->name, p->latency_ms.pct(0.99), "ms", n);
    } else {
      report.notes.push_back("too few samples for p99 at " + p->name);
    }
  }
  report.add_e2e("burst_rps", tr.burst_rps, "req/s",
                 static_cast<int64_t>(tr.closed.burst_ms.n()));
  report.add_e2e("max_rate_rps", tr.max_rate, "req/s",
                 static_cast<int64_t>(tr.ladder.size()));
  report.throughput_per_s = tr.burst_rps;
  report.p50_ms = tr.single.latency_ms.pct(0.5);
  report.notes.push_back(fallback_note(obs.value("plan.fallbacks")));

  if (args.trace) {
    totals.add_current();
    ObsDelta high;
    saufno::obs::force_profile_kernels(true);
    spans.enable(true);
    Traffic t = run_traffic(svc, templates, ref, args.seed, args.seconds,
                            spans, &high, &totals);
    spans.enable(false);
    saufno::obs::force_profile_kernels(false);
    totals.add_current();
    report.ops.merge(t.ops);
    add_trace_overhead(report, tr.burst_rps, t.burst_rps,
                       tr.single.latency_ms.pct(0.5),
                       t.single.latency_ms.pct(0.5));

    Rng probe_rng(args.seed ^ 0x9e37ULL);
    const PlanProbe probe =
        probe_plan(svc.model, Tensor::randn({1, 3, 12, 12}, probe_rng), 200);

    LayerInputs in;
    in.obs = &high;
    in.ops = static_cast<double>(t.high.ops.attempted);
    in.e2e_ms_per_op = t.high.latency_ms.mean();
    in.op_name = "request";
    in.outer_layer = "serve";
    in.outer_ms = t.high.rtt_ms.mean();
    in.gen_ms = t.high.lag_ms.mean();
    in.serve_rtt_mean_ms = t.high.rtt_ms.mean();
    in.serve_bytes_per_req = 0.75 * frame_bytes(templates[0], ref[0]) +
                             0.25 * frame_bytes(templates[kSmall], ref[kSmall]);
    in.gen_lag_p99_ms_low = t.low.lag_ms.pct(0.99);
    in.gen_lag_p99_ms_high = t.high.lag_ms.pct(0.99);
    in.gen_backlog_low = t.low.backlog;
    in.gen_backlog_high = t.high.backlog;
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
