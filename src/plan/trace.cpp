#include "plan/trace.h"

#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace saufno {
namespace plan {
namespace detail_trace {

thread_local TraceSessionImpl* g_active = nullptr;

class TraceSessionImpl {
 public:
  TraceSessionImpl(const std::vector<std::pair<std::string, Var>>& params,
                   const Var& input) {
    SAUFNO_CHECK(input.defined(), "cannot trace an undefined input");
    for (const auto& [name, v] : params) {
      param_name_[v.impl().get()] = name;
      keepalive_.push_back(v);
    }
    plan_.input_slot = add_slot(SlotKind::kInput, input.shape(), Tensor());
    slot_of_[input.impl().get()] = plan_.input_slot;
    plan_.in_shape = input.shape();
    keepalive_.push_back(input);
  }

  void fail(const std::string& reason) {
    if (!failed_) {
      failed_ = true;
      error_ = reason;
    }
  }
  bool ok() const { return !failed_; }
  const std::string& error() const { return error_; }

  void record(OpCode op, std::initializer_list<const Var*> ins,
              const Var& out, tr::Attrs attrs) {
    std::vector<int32_t> in_slots;
    in_slots.reserve(ins.size());
    for (const Var* v : ins) {
      // conv2d passes an undefined Var for "no bias"; skip it (has_bias in
      // ivals tells the executor how many inputs to expect).
      if (!v->defined()) continue;
      in_slots.push_back(slot_for_input(*v));
    }
    record_common(op, std::move(in_slots), out, std::move(attrs));
  }

  void record_cat(const std::vector<Var>& ins, const Var& out, int64_t dim) {
    std::vector<int32_t> in_slots;
    in_slots.reserve(ins.size());
    for (const Var& v : ins) in_slots.push_back(slot_for_input(v));
    tr::Attrs attrs;
    attrs.ivals = {dim};
    record_common(OpCode::kCat, std::move(in_slots), out, std::move(attrs));
  }

  void push_scope(std::string s) { scopes_.push_back(std::move(s)); }
  void pop_scope() { scopes_.pop_back(); }

  /// Keep a shape-only constant leaf (see tr::constant) as a kConst slot
  /// when an op reads it.
  void add_constant(const Var& v) {
    constants_.insert(v.impl().get());
    keepalive_.push_back(v);
  }

  Plan take_plan(const Var& output) {
    SAUFNO_CHECK(ok(), "take_plan on a failed trace: " + error_);
    auto it = slot_of_.find(output.impl().get());
    SAUFNO_CHECK(it != slot_of_.end(),
                 "traced forward returned a value no recorded op produced");
    plan_.output_slot = it->second;
    plan_.out_shape = output.shape();
    return std::move(plan_);
  }

 private:
  int32_t add_slot(SlotKind kind, Shape shape, Tensor value) {
    Slot s;
    s.kind = kind;
    s.shape = std::move(shape);
    s.value = std::move(value);
    plan_.slots.push_back(std::move(s));
    return static_cast<int32_t>(plan_.slots.size() - 1);
  }

  /// Slot for an op input: a previously recorded output, a parameter, or a
  /// registered shape-only constant. Any other leaf may carry a value the
  /// model computed from the request outside the ops:: hooks (under
  /// NoGradGuard no op leaves a node to tell), so it poisons the trace
  /// rather than freezing one request's data into the plan.
  int32_t slot_for_input(const Var& v) {
    detail::VarImpl* key = v.impl().get();
    auto it = slot_of_.find(key);
    if (it != slot_of_.end()) return it->second;
    int32_t id;
    if (param_name_.count(key) != 0) {
      // Shares the parameter's storage: the plan sees in-place weight
      // updates, and checkpoint loads that rebuild tensors invalidate the
      // cache at the engine layer (plans are compiled after loading).
      id = add_slot(SlotKind::kParam, v.shape(), v.value());
    } else if (constants_.count(key) != 0) {
      // Cloned so the plan owns heap storage whatever the leaf was backed
      // by. Sound to bake in because plans are keyed by the full input
      // shape.
      id = add_slot(SlotKind::kConst, v.shape(), v.value().clone());
    } else {
      fail("op input " + shape_str(v.shape()) +
           " is an untraced leaf: not the input, a parameter, an op output "
           "or a tr::constant");
      return -1;
    }
    slot_of_[key] = id;
    keepalive_.push_back(v);
    return id;
  }

  void record_common(OpCode op, std::vector<int32_t> in_slots, const Var& out,
                     tr::Attrs attrs) {
    if (failed_) return;
    Instr ins;
    ins.op = op;
    ins.in = std::move(in_slots);
    ins.ivals = std::move(attrs.ivals);
    ins.fval = attrs.fval;
    ins.label = scope_path();
    ins.out = add_slot(SlotKind::kTemp, out.shape(), Tensor());
    slot_of_[out.impl().get()] = ins.out;
    // Keeping every produced Var alive pins its impl address: a freed impl
    // whose address the allocator reuses would corrupt the slot map.
    keepalive_.push_back(out);
    plan_.instrs.push_back(std::move(ins));
  }

  std::string scope_path() const {
    std::string s;
    for (const auto& sc : scopes_) {
      if (!s.empty()) s += '/';
      s += sc;
    }
    return s;
  }

  Plan plan_;
  std::unordered_map<const detail::VarImpl*, int32_t> slot_of_;
  std::unordered_map<const detail::VarImpl*, std::string> param_name_;
  std::unordered_set<const detail::VarImpl*> constants_;
  std::vector<Var> keepalive_;
  std::vector<std::string> scopes_;
  bool failed_ = false;
  std::string error_;
};

}  // namespace detail_trace

TraceSession::TraceSession(
    const std::vector<std::pair<std::string, Var>>& named_params,
    const Var& input) {
  // Check before allocating: a throwing constructor never runs the
  // destructor, so an impl allocated first would leak.
  SAUFNO_CHECK(detail_trace::g_active == nullptr,
               "nested TraceSessions on one thread are not supported");
  impl_ = new detail_trace::TraceSessionImpl(named_params, input);
  detail_trace::g_active = impl_;
}

TraceSession::~TraceSession() {
  detail_trace::g_active = nullptr;
  delete impl_;
}

bool TraceSession::ok() const { return impl_->ok(); }
const std::string& TraceSession::error() const { return impl_->error(); }

Plan TraceSession::take_plan(const Var& output) {
  return impl_->take_plan(output);
}

TraceScope::TraceScope(const char* label) {
  if (detail_trace::g_active != nullptr) {
    detail_trace::g_active->push_scope(label);
    pushed_ = true;
  }
}

TraceScope::TraceScope(const std::string& label) {
  if (detail_trace::g_active != nullptr) {
    detail_trace::g_active->push_scope(label);
    pushed_ = true;
  }
}

TraceScope::~TraceScope() {
  if (pushed_ && detail_trace::g_active != nullptr) {
    detail_trace::g_active->pop_scope();
  }
}

namespace tr {

void record_op(OpCode op, std::initializer_list<const Var*> ins,
               const Var& out, Attrs attrs) {
  if (detail_trace::g_active != nullptr) {
    detail_trace::g_active->record(op, ins, out, std::move(attrs));
  }
}

void record_cat(const std::vector<Var>& ins, const Var& out, int64_t dim) {
  if (detail_trace::g_active != nullptr) {
    detail_trace::g_active->record_cat(ins, out, dim);
  }
}

Var constant(Tensor value) {
  Var v(std::move(value));
  if (detail_trace::g_active != nullptr) {
    detail_trace::g_active->add_constant(v);
  }
  return v;
}

void record_unsupported(const char* what) {
  if (detail_trace::g_active != nullptr) {
    detail_trace::g_active->fail(std::string("unsupported op: ") + what);
  }
}

}  // namespace tr
}  // namespace plan
}  // namespace saufno
