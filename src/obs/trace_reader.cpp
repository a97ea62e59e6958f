#include "obs/trace_reader.hpp"

#include <fstream>
#include <istream>

#include "obs/json.hpp"
#include "obs/trace_writer.hpp"

namespace synran::obs {
namespace {

/// Required integer field, cast to the caller's unsigned width. Seeds round
/// through JSON as int64 (possibly negative for the top bit); the cast
/// recovers the original u64 exactly.
template <typename T>
bool get_uint(const JsonValue& ev, const char* key, T& out) {
  const JsonValue* v = ev.find(key);
  if (v == nullptr || !v->is_int()) return false;
  out = static_cast<T>(v->as_int());
  return true;
}

bool get_bool(const JsonValue& ev, const char* key, bool& out) {
  const JsonValue* v = ev.find(key);
  if (v == nullptr || !v->is_bool()) return false;
  out = v->as_bool();
  return true;
}

/// The gated tail `round` and `run_end` share; false when a field the
/// run's gates promise is missing or not an integer.
bool get_gated(const JsonValue& ev, TraceGates gates, FaultTally& f) {
  return (!gates.omissions || (get_uint(ev, "omissions", f.omissions) &&
                               get_uint(ev, "omitted", f.omitted))) &&
         (!gates.corruptions ||
          (get_uint(ev, "corruptions", f.corruptions) &&
           get_uint(ev, "corrupted", f.corrupted)));
}

/// An optional pair of run_begin limits: absent, or both integers.
bool get_pair(const JsonValue& ev, const char* a, std::uint32_t& out_a,
              const char* b, std::uint32_t& out_b) {
  return ev.find(a) == nullptr ||
         (get_uint(ev, a, out_a) && get_uint(ev, b, out_b));
}

}  // namespace

JsonlTraceReader::JsonlTraceReader(std::istream& in)
    : in_(&in), path_("<stream>") {}

JsonlTraceReader::JsonlTraceReader(const std::string& path)
    : owned_(std::make_unique<std::ifstream>(path, std::ios::binary)),
      in_(owned_.get()),
      path_(path) {
  if (!static_cast<std::ifstream&>(*owned_).is_open()) {
    throw IoError("trace: cannot open '" + path + "' for reading");
  }
}

void JsonlTraceReader::fail(const std::string& what) const {
  throw IoError("trace: " + path_ + ":" + std::to_string(line_) + ": " + what);
}

bool JsonlTraceReader::next(TraceRecord& out) {
  std::string line;
  for (;;) {
    if (!std::getline(*in_, line)) {
      if (in_->bad()) fail("read failure");
      return false;
    }
    ++line_;
    if (!line.empty()) break;
  }

  std::string err;
  const auto parsed = JsonValue::parse(line, &err);
  if (!parsed.has_value()) fail("bad JSON (" + err + ")");
  const JsonValue& ev = *parsed;
  const JsonValue* event = ev.find("event");
  if (event == nullptr || !event->is_string()) fail("missing \"event\"");
  const std::string& name = event->as_string();

  out = TraceRecord{};
  if (name == "run_begin") {
    out.kind = TraceRecordKind::RunBegin;
    const JsonValue* schema = ev.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != kTraceSchema) {
      fail("run_begin schema is not synran-trace/1");
    }
    if (!get_uint(ev, "n", out.begin.n) ||
        !get_uint(ev, "t", out.begin.t_budget) ||
        !get_uint(ev, "per_round_cap", out.begin.per_round_cap) ||
        !get_uint(ev, "seed", out.begin.seed)) {
      fail("run_begin missing a required field");
    }
    // Omission and byzantine limits are additive and presence-gated; a
    // run_begin without them is a fail-stop run (all zero).
    RunInfo& b = out.begin;
    if (!get_pair(ev, "omission_budget", b.omission_budget,
                  "omission_round_cap", b.omission_round_cap)) {
      fail("run_begin omission fields malformed");
    }
    if (!get_pair(ev, "byzantine_budget", b.byzantine_budget,
                  "byzantine_round_cap", b.byzantine_round_cap)) {
      fail("run_begin byzantine fields malformed");
    }
    gates_ = TraceGates::of(b);
    return true;
  }
  if (name == "round") {
    out.kind = TraceRecordKind::RoundEnd;
    RoundObservation& r = out.round;
    if (!get_uint(ev, "round", r.round) || !get_uint(ev, "alive", r.alive) ||
        !get_uint(ev, "halted", r.halted) ||
        !get_uint(ev, "senders", r.senders) || !get_uint(ev, "ones", r.ones) ||
        !get_uint(ev, "zeros", r.zeros) ||
        !get_uint(ev, "det", r.deterministic) ||
        !get_uint(ev, "decided", r.decided) ||
        !get_uint(ev, "crashes", r.faults.crashes) ||
        !get_uint(ev, "budget_left", r.budget_left) ||
        !get_uint(ev, "delivered", r.faults.delivered)) {
      fail("round missing a required field");
    }
    if (!get_gated(ev, gates_, r.faults)) {
      fail("round omission/corruption fields malformed");
    }
    return true;
  }
  if (name == "run_end") {
    out.kind = TraceRecordKind::RunEnd;
    RunObservation& res = out.end;
    const JsonValue* decision = ev.find("decision");
    if (decision == nullptr || !(decision->is_null() || decision->is_int())) {
      fail("run_end decision must be an integer or null");
    }
    res.has_decision = decision->is_int();
    if (res.has_decision) res.decision = static_cast<int>(decision->as_int());
    if (!get_bool(ev, "terminated", res.terminated) ||
        !get_bool(ev, "agreement", res.agreement) ||
        !get_uint(ev, "rounds_to_decision", res.rounds_to_decision) ||
        !get_uint(ev, "rounds_to_halt", res.rounds_to_halt) ||
        !get_uint(ev, "crashes", res.faults.crashes) ||
        !get_uint(ev, "delivered", res.faults.delivered) ||
        !get_uint(ev, "survivors", res.survivors)) {
      fail("run_end missing a required field");
    }
    if (!get_gated(ev, gates_, res.faults)) {
      fail("run_end omission/corruption fields malformed");
    }
    return true;
  }
  if (name == "run_abandoned") {
    out.kind = TraceRecordKind::RunAbandoned;
    RunAbandoned& ab = out.abandoned;
    const JsonValue* error = ev.find("error");
    if (error == nullptr || !error->is_string()) {
      fail("run_abandoned missing \"error\"");
    }
    ab.error = error->as_string();
    if (!get_uint(ev, "rep", ab.rep) || !get_uint(ev, "seed", ab.seed) ||
        !get_uint(ev, "attempt", ab.attempt)) {
      fail("run_abandoned missing a required field");
    }
    return true;
  }
  fail("unknown event \"" + name + "\"");
}

}  // namespace synran::obs
