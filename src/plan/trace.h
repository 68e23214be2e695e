#pragma once

#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "plan/ir.h"

namespace saufno {
namespace plan {

namespace detail_trace {
/// Thread-local pointer to the active session; null almost always. Exposed
/// only so the `tracing()` fast check can inline to one TL load + compare.
class TraceSessionImpl;
extern thread_local TraceSessionImpl* g_active;
}  // namespace detail_trace

/// True while a TraceSession is recording on THIS thread. Every ops::
/// function consults this before touching the tracer, so the interpreted
/// path pays one thread-local load and a predictable branch.
inline bool tracing() { return detail_trace::g_active != nullptr; }

/// Records one traced forward of a model as a flat Plan.
///
/// Usage (see plan::PlanRunner):
///   Var in(input);
///   TraceSession sess(model.named_parameters(), in);
///   Var out = model.forward(in);          // ops:: hooks record into sess
///   if (sess.ok()) Plan p = sess.take_plan(out);
///
/// Scope: recording is thread-local and covers exactly the ops:: calls made
/// on the constructing thread between construction and destruction (model
/// kernels parallelize BELOW the ops:: layer, so worker threads never hit
/// the hooks). Op inputs the session has not seen as op outputs are
/// captured: module parameters (matched against `named_params`) become
/// kParam slots sharing the parameter storage, and shape-only leaves made
/// with tr::constant (coordinate grids and the like) are cloned into kConst
/// slots. Any other leaf, such as a value computed from the input outside
/// the ops:: hooks, poisons the session (ok() == false) instead of being
/// frozen into the plan.
class TraceSession {
 public:
  TraceSession(const std::vector<std::pair<std::string, Var>>& named_params,
               const Var& input);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// False when the forward used an op the tracer cannot represent.
  bool ok() const;
  const std::string& error() const;

  /// Finalize: resolves `output` to its slot and moves the recorded Plan
  /// out. Requires ok(); the session records nothing afterwards.
  Plan take_plan(const Var& output);

 private:
  detail_trace::TraceSessionImpl* impl_ = nullptr;
};

/// RAII label pushed onto the active session's scope stack; instructions
/// recorded inside carry "outer/inner" labels. No-op (one TL load) when no
/// tracer is active, so modules open scopes unconditionally.
class TraceScope {
 public:
  explicit TraceScope(const char* label);
  explicit TraceScope(const std::string& label);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool pushed_ = false;
};

// -- Recording hooks used by the autograd ops layer -------------------------
// All are no-ops unless tracing() is true on the calling thread. `record`
// returns its `out` argument so op implementations can wrap their return
// statements without restructuring.
namespace tr {

struct Attrs {
  std::vector<int64_t> ivals;
  float fval = 0.f;
};

void record_op(OpCode op, std::initializer_list<const Var*> ins,
               const Var& out, Attrs attrs);
void record_cat(const std::vector<Var>& ins, const Var& out, int64_t dim);
/// A leaf Var whose value depends only on shapes, never on the request
/// (a coordinate grid): the active session, if any, may capture it into
/// the plan as a constant. Model code must build such leaves with this;
/// any other leaf an op reads poisons the trace.
Var constant(Tensor value);

/// Poison the active session: the forward used `what`, which the plan IR
/// cannot represent. The runner falls back to the interpreter.
void record_unsupported(const char* what);

inline Var record(OpCode op, std::initializer_list<const Var*> ins, Var out,
                  Attrs attrs = {}) {
  if (tracing()) record_op(op, ins, out, std::move(attrs));
  return out;
}

}  // namespace tr

}  // namespace plan
}  // namespace saufno
