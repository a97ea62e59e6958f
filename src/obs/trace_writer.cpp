#include "obs/trace_writer.hpp"

#include <ostream>

#include "obs/json.hpp"

namespace synran::obs {
namespace {

/// The gated tail `round` and `run_end` share: the omission pair, then the
/// corruption pair, each only when its gate is on.
void set_gated(JsonValue& ev, TraceGates gates, const FaultTally& f) {
  if (gates.omissions) {
    ev.set("omissions", JsonValue(f.omissions))
        .set("omitted", JsonValue(f.omitted));
  }
  if (gates.corruptions) {
    ev.set("corruptions", JsonValue(f.corruptions))
        .set("corrupted", JsonValue(f.corrupted));
  }
}

}  // namespace

JsonlTraceWriter::JsonlTraceWriter(std::ostream& out, bool flush_each)
    : out_(&out), flush_each_(flush_each) {}

JsonlTraceWriter::JsonlTraceWriter(const std::string& path, bool flush_each)
    : flush_each_(flush_each), sink_(path) {
  out_ = sink_.stream();
}

void JsonlTraceWriter::write_line(const JsonValue& event) {
  const std::string line = event.dump();
  *out_ << line << '\n';
  if (flush_each_) out_->flush();
  ++events_;
  bytes_ += line.size() + 1;
}

void JsonlTraceWriter::on_run_begin(const RunInfo& info) {
  ++runs_;
  in_run_ = true;
  gates_ = TraceGates::of(info);
  JsonValue ev = JsonValue::object()
                     .set("event", "run_begin")
                     .set("schema", kTraceSchema)
                     .set("run", JsonValue(runs_ - 1))
                     .set("n", JsonValue(info.n))
                     .set("t", JsonValue(info.t_budget))
                     .set("per_round_cap", JsonValue(info.per_round_cap))
                     .set("seed", JsonValue(info.seed));
  if (gates_.omissions) {
    ev.set("omission_budget", JsonValue(info.omission_budget))
        .set("omission_round_cap", JsonValue(info.omission_round_cap));
  }
  if (gates_.corruptions) {
    ev.set("byzantine_budget", JsonValue(info.byzantine_budget))
        .set("byzantine_round_cap", JsonValue(info.byzantine_round_cap));
  }
  write_line(ev);
}

void JsonlTraceWriter::on_round_end(const RoundObservation& r) {
  JsonValue ev = JsonValue::object()
                     .set("event", "round")
                     .set("run", JsonValue(runs_ == 0 ? 0 : runs_ - 1))
                     .set("round", JsonValue(r.round))
                     .set("alive", JsonValue(r.alive))
                     .set("halted", JsonValue(r.halted))
                     .set("senders", JsonValue(r.senders))
                     .set("ones", JsonValue(r.ones))
                     .set("zeros", JsonValue(r.zeros))
                     .set("det", JsonValue(r.deterministic))
                     .set("decided", JsonValue(r.decided))
                     .set("crashes", JsonValue(r.faults.crashes))
                     .set("budget_left", JsonValue(r.budget_left))
                     .set("delivered", JsonValue(r.faults.delivered));
  set_gated(ev, gates_, r.faults);
  write_line(ev);
}

void JsonlTraceWriter::on_run_end(const RunObservation& res) {
  JsonValue ev =
      JsonValue::object()
          .set("event", "run_end")
          .set("run", JsonValue(runs_ == 0 ? 0 : runs_ - 1))
          .set("terminated", JsonValue(res.terminated))
          .set("agreement", JsonValue(res.agreement))
          .set("decision", res.has_decision ? JsonValue(res.decision)
                                            : JsonValue(nullptr))
          .set("rounds_to_decision", JsonValue(res.rounds_to_decision))
          .set("rounds_to_halt", JsonValue(res.rounds_to_halt))
          .set("crashes", JsonValue(res.faults.crashes))
          .set("delivered", JsonValue(res.faults.delivered))
          .set("survivors", JsonValue(res.survivors));
  set_gated(ev, gates_, res.faults);
  in_run_ = false;
  write_line(ev);
  out_->flush();
}

void JsonlTraceWriter::on_run_abandoned(const RunAbandoned& failure) {
  // Closes the open run if one is in flight; a setup failure (no run_begin
  // yet) stands alone under the index the aborted execution would have used.
  const std::uint64_t run = in_run_ ? runs_ - 1 : runs_;
  in_run_ = false;
  write_line(JsonValue::object()
                 .set("event", "run_abandoned")
                 .set("run", JsonValue(run))
                 .set("rep", JsonValue(std::uint64_t{failure.rep}))
                 .set("seed", JsonValue(failure.seed))
                 .set("attempt", JsonValue(failure.attempt))
                 .set("error", failure.error));
  out_->flush();
}

}  // namespace synran::obs
