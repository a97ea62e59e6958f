#include "runner/narrate.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

namespace synran {

namespace {

using obs::RoundObservation;

/// What narration and the invariant check read of one run's records: its
/// RunBegin facts and its RoundEnd observations, in order.
struct RunRounds {
  obs::RunInfo info;
  std::vector<RoundObservation> rounds;
};

RunRounds rounds_of(std::span<const obs::TraceRecord> run) {
  RunRounds out;
  for (const auto& record : run) {
    if (record.kind == obs::TraceRecordKind::RunBegin) out.info = record.begin;
    if (record.kind == obs::TraceRecordKind::RoundEnd)
      out.rounds.push_back(record.round);
  }
  return out;
}

std::string composition_bar(const RoundObservation& r, std::size_t width) {
  if (r.senders == 0) return std::string(width, '.');
  const auto ones = static_cast<std::size_t>(
      static_cast<double>(r.ones) / r.senders * static_cast<double>(width) +
      0.5);
  std::string bar(width, '0');
  for (std::size_t i = 0; i < ones && i < width; ++i) bar[i] = '1';
  return bar;
}

bool same_shape(const RoundObservation& a, const RoundObservation& b) {
  return a.alive == b.alive && a.halted == b.halted &&
         a.senders == b.senders && a.ones == b.ones && a.zeros == b.zeros &&
         a.faults.crashes == b.faults.crashes && a.decided == b.decided;
}

void emit_line(std::ostream& os, const RoundObservation& r, std::size_t repeat,
               std::size_t width) {
  os << "r" << std::setw(4) << std::left << r.round << std::right << " ["
     << composition_bar(r, width) << "] " << std::setw(4) << r.ones << "x1 "
     << std::setw(4) << r.zeros << "x0  alive " << std::setw(4) << r.alive
     << "  decided " << std::setw(4) << r.decided;
  if (r.halted > 0) os << "  halted " << r.halted;
  if (r.deterministic > 0) os << "  det-stage " << r.deterministic;
  if (r.faults.crashes > 0) os << "  CRASH x" << r.faults.crashes;
  if (repeat > 1) os << "   (x" << repeat << " rounds)";
  os << '\n';
}

}  // namespace

void narrate(std::span<const obs::TraceRecord> run, std::ostream& os,
             const NarrateOptions& options) {
  const auto [info, rounds] = rounds_of(run);
  std::uint32_t crashes = 0;
  for (const auto& r : rounds) crashes += r.faults.crashes;
  os << "execution narrative: n = " << info.n << ", t = " << info.t_budget
     << ", " << rounds.size() << " rounds, " << crashes << " crashes\n";
  std::size_t i = 0;
  while (i < rounds.size()) {
    std::size_t j = i + 1;
    if (options.collapse_repeats) {
      while (j < rounds.size() && same_shape(rounds[i], rounds[j])) ++j;
    }
    emit_line(os, rounds[i], j - i, options.bar_width);
    i = j;
  }
}

InvariantReport check_model_invariants(std::span<const obs::TraceRecord> run) {
  const auto [info, rounds] = rounds_of(run);
  InvariantReport report;
  std::uint32_t prev_alive = info.n;
  std::uint32_t prev_halted = 0;
  std::uint32_t budget = info.t_budget;
  std::uint32_t prev_crashes = 0;

  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundObservation& r = rounds[i];
    const std::string at = "round " + std::to_string(r.round) + ": ";

    if (r.alive > prev_alive)
      report.fail(at + "alive grew (" + std::to_string(prev_alive) + " -> " +
                  std::to_string(r.alive) + ")");
    if (i > 0 && prev_alive - r.alive != prev_crashes)
      report.fail(at + "alive drop does not match last round's crashes");
    if (r.halted < prev_halted)
      report.fail(at + "halted shrank");
    if (r.halted > r.alive)
      report.fail(at + "more halted than alive");
    if (r.senders != r.alive - r.halted)
      report.fail(at + "senders != alive - halted (" +
                  std::to_string(r.senders) + " vs " +
                  std::to_string(r.alive - r.halted) + ")");
    // Mask-carrying payloads (FloodMin, SynRan's det stage) may support
    // both values, so each side is bounded by the sender count separately.
    if (r.ones > r.senders || r.zeros > r.senders)
      report.fail(at + "payload value counts exceed senders");
    if (r.budget_left != budget)
      report.fail(at + "budget accounting diverged");
    if (r.faults.crashes > budget)
      report.fail(at + "crashes exceed remaining budget");
    if (r.faults.crashes > r.senders)
      report.fail(at + "crashed a non-sender");

    budget -= std::min(budget, r.faults.crashes);
    prev_alive = r.alive;
    prev_halted = r.halted;
    prev_crashes = r.faults.crashes;
  }
  return report;
}

}  // namespace synran
