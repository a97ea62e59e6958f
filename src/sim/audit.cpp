#include "sim/audit.hpp"

#include "common/check.hpp"
#include "net/fabric.hpp"
#include "sim/process.hpp"

namespace synran {

void RunAuditor::begin(std::uint32_t n, std::uint32_t t_budget,
                       std::uint32_t per_round_cap,
                       std::uint32_t omission_budget,
                       std::uint32_t omission_round_cap,
                       std::uint32_t byzantine_budget,
                       std::uint32_t byzantine_round_cap) {
  SYNRAN_REQUIRE(n >= 1, "auditor needs at least one process");
  n_ = n;
  t_budget_ = t_budget;
  per_round_cap_ = per_round_cap;
  cum_crashes_ = 0;
  omission_budget_ = omission_budget;
  omission_round_cap_ = omission_round_cap;
  cum_omissions_ = 0;
  byzantine_budget_ = byzantine_budget;
  byzantine_round_cap_ = byzantine_round_cap;
  cum_corruptions_ = 0;
  // A kept auditor clears its buffers in place; only a larger n allocates.
  crashed_.assign(n);
  plan_.victims.assign(n);
  crash_round_.assign(n, 0);
  was_decided_.assign(n, false);
  decision_was_.assign(n, Bit::Zero);
  was_halted_.assign(n, false);
}

void RunAuditor::fail(Round round, const std::string& what) const {
  throw InvariantError(str_cat("audit: round ", round, ": ", what));
}

void RunAuditor::on_phase_a(
    Round round, std::span<const std::optional<Payload>> payloads,
    const DynBitset& halted,
    std::span<const std::unique_ptr<Process>> processes) {
  SYNRAN_CHECK_MSG(n_ > 0, "RunAuditor used before begin()");
  if (payloads.size() != n_ || halted.size() != n_ ||
      processes.size() != n_) {
    fail(round, "phase-A views disagree about the process count");
  }
  // Silence of the dead, for every crashed slot at once: the occupied slots
  // of the whole span must all be live ones. The whole-span count is one
  // branch-free pass; the offender is searched for only on a mismatch.
  std::size_t occupied = 0;
  for (const auto& p : payloads)
    occupied += static_cast<std::size_t>(p.has_value());
  std::size_t live_occupied = 0;
  // Reports the lowest-numbered violation: a live process's check may fire
  // only after every crashed slot below it is known to be silent.
  const auto fail_at = [&](std::size_t i, const std::string& what) {
    check_dead_silent(round, payloads, i);
    fail(round, what);
  };
  crashed_.for_each_clear([&](std::size_t i) {
    live_occupied += static_cast<std::size_t>(payloads[i].has_value());
    const bool halts = halted.test(i);
    // Only halting, a past halt and strict latching read the verdict; any
    // other live process has nothing to check this round.
    if (!halts && !was_halted_[i] && !strict_decisions_) return;
    const Process& p = *processes[i];
    if (was_halted_[i]) {
      if (!halts)
        fail_at(i, str_cat("process ", i,
                           " resumed after halting — STOP is final"));
      if (!p.decided() || p.decision() != decision_was_[i])
        fail_at(i, str_cat("halted process ", i,
                           " changed its verdict (halted with decision ",
                           to_int(decision_was_[i]), ")"));
    }
    if (halts) {
      if (payloads[i].has_value())
        fail_at(i, str_cat("halted process ", i, " kept broadcasting"));
      if (!p.decided())
        fail_at(i, str_cat("process ", i, " halted without deciding"));
    }
    if (strict_decisions_ && was_decided_[i]) {
      if (!p.decided())
        fail_at(i, str_cat("process ", i, " rescinded its decision under ",
                           "the strict (latching) policy"));
      if (p.decision() != decision_was_[i])
        fail_at(i, str_cat("process ", i, " flipped its decision from ",
                           to_int(decision_was_[i]), " to ",
                           to_int(p.decision())));
    }
    was_decided_[i] = p.decided();
    if (was_decided_[i]) decision_was_[i] = p.decision();
    was_halted_[i] = halts;
  });
  if (occupied != live_occupied) check_dead_silent(round, payloads, n_);
}

void RunAuditor::check_dead_silent(
    Round round, std::span<const std::optional<Payload>> payloads,
    std::size_t below) const {
  for (std::size_t i = 0; i < below; ++i) {
    if (!crashed_.test(i) || !payloads[i].has_value()) continue;
    fail(round, str_cat("process ", i, " broadcast a payload although it ",
                        "was crashed in round ", crash_round_[i],
                        " — the dead must stay silent"));
  }
}

void RunAuditor::on_plan(Round round, const FaultPlan& plan,
                         std::span<const std::optional<Payload>> payloads) {
  SYNRAN_CHECK_MSG(n_ > 0, "RunAuditor used before begin()");
  const auto k = static_cast<std::uint32_t>(plan.crash_count());
  const auto m = static_cast<std::uint32_t>(plan.omission_count());
  const auto b = static_cast<std::uint32_t>(plan.corruption_count());
  if (per_round_cap_ != 0 && k > per_round_cap_)
    fail(round, str_cat("plan crashes ", k, " processes but the per-round ",
                        "cap is ", per_round_cap_));
  if (cum_crashes_ + k > t_budget_)
    fail(round, str_cat("plan crashes ", k, " more processes on top of ",
                        cum_crashes_, " already crashed, exceeding the ",
                        "fault budget t=", t_budget_));
  if (omission_round_cap_ != 0 && m > omission_round_cap_)
    fail(round, str_cat("plan issues ", m, " omission directives but the ",
                        "per-round omission cap is ", omission_round_cap_));
  if (cum_omissions_ + m > omission_budget_)
    fail(round, str_cat("plan issues ", m, " omission directives on top of ",
                        cum_omissions_, " already spent, exceeding the ",
                        "omission budget ", omission_budget_,
                        omission_budget_ == 0
                            ? " (omissions are forbidden under the "
                              "fail-stop model unless EngineOptions grants "
                              "a budget)"
                            : ""));
  if (byzantine_round_cap_ != 0 && b > byzantine_round_cap_)
    fail(round, str_cat("plan issues ", b, " corruption directives but the ",
                        "per-round corruption cap is ",
                        byzantine_round_cap_));
  if (cum_corruptions_ + b > byzantine_budget_)
    fail(round, str_cat("plan issues ", b, " corruption directives on top ",
                        "of ", cum_corruptions_, " already spent, exceeding ",
                        "the byzantine budget ", byzantine_budget_,
                        byzantine_budget_ == 0
                            ? " (corrupted values are forbidden under the "
                              "fail-stop model unless EngineOptions grants "
                              "a byzantine budget)"
                            : ""));
  // A re-crash is named before the shape check, which would only see a
  // silent slot.
  for (const auto& c : plan.crashes) {
    if (c.victim < n_ && crashed_.test(c.victim))
      fail(round, str_cat("process ", c.victim, " re-crashed — it already ",
                          "failed in round ", crash_round_[c.victim]));
  }
  if (const std::string why =
          check_plan(n_, RoundTraffic{payloads, &plan}, plan_);
      !why.empty())
    fail(round, why);
  for (const auto& c : plan.crashes) {
    crashed_.set(c.victim);
    crash_round_[c.victim] = round;
  }
  cum_crashes_ += k;
  cum_omissions_ += m;
  cum_corruptions_ += b;
}

void RunAuditor::on_deliveries(
    Round round, const FaultPlan& plan,
    std::span<const std::optional<Payload>> payloads,
    const DynBitset& active_receivers, std::uint64_t delivered) {
  SYNRAN_CHECK_MSG(n_ > 0, "RunAuditor used before begin()");
  // Full senders are the occupied slots outside crashed_, which on_plan has
  // already extended by this round's victims. Phase A verified that the
  // slots of earlier crashes are empty, so this walks the auditor's own
  // live set and never the engine's.
  std::uint64_t full_senders = 0;
  crashed_.for_each_clear([&](std::size_t i) {
    full_senders += static_cast<std::uint64_t>(payloads[i].has_value());
  });
  // Each crashed sender reaches deliver_to ∩ active. A run of consecutive
  // directives with equal masks (the grouping apply_crash_groups uses) is
  // counted once and multiplied by its length; a shared handle compares
  // equal in O(1).
  const auto& crashes = plan.crashes;
  std::uint64_t partial = 0;
  for (std::size_t g = 0; g < crashes.size();) {
    const SharedMask& mask = crashes[g].deliver_to;
    std::uint64_t run = 0;
    do {
      ++run;
      ++g;
    } while (g < crashes.size() && crashes[g].deliver_to == mask);
    partial += run * mask.count_and(active_receivers);
  }
  std::uint64_t omitted = 0;
  for (const auto& o : plan.omissions) {
    omitted += o.drop_for.count_and(active_receivers);
  }
  const std::uint64_t expected =
      full_senders * active_receivers.count() + partial - omitted;
  if (delivered != expected)
    fail(round, str_cat("delivered ", delivered, " point-to-point messages ",
                        "but the surviving-sender broadcast count is ",
                        expected, " (", full_senders, " full broadcasts to ",
                        active_receivers.count(), " active receivers plus ",
                        partial, " partial deliveries from ",
                        plan.crash_count(), " crashed senders minus ",
                        omitted, " omitted links)"));
}

void AuditedAdversary::begin(std::uint32_t n, std::uint32_t t_budget) {
  auditor_.begin(n, t_budget, 0);
  begun_ = true;
  omission_budget_synced_ = false;
  inner_->begin(n, t_budget);
}

FaultPlan AuditedAdversary::plan_round(const WorldView& world) {
  SYNRAN_CHECK_MSG(begun_, "AuditedAdversary::plan_round before begin()");
  auditor_.set_per_round_cap(world.round_cap());
  auditor_.set_omission_round_cap(world.omission_round_cap());
  auditor_.set_byzantine_round_cap(world.corruption_round_cap());
  if (!omission_budget_synced_) {
    auditor_.set_omission_budget(world.omission_budget_left());
    auditor_.set_byzantine_budget(world.corruption_budget_left());
    omission_budget_synced_ = true;
  }
  const auto agree = [&](std::uint32_t engine, std::uint32_t audited,
                         const char* what) {
    if (engine != audited)
      throw InvariantError(str_cat("audit: round ", world.round(),
                                   ": engine reports ", engine, " ", what,
                                   " left but the audited spend leaves ",
                                   audited));
  };
  agree(world.budget_left(), auditor_.budget_left(), "crashes");
  agree(world.omission_budget_left(), auditor_.omission_budget_left(),
        "omissions");
  agree(world.corruption_budget_left(), auditor_.corruption_budget_left(),
        "corruptions");
  auditor_.on_phase_a(world.round(), world.payloads(), world.halted(),
                      world.processes());
  FaultPlan plan = inner_->plan_round(world);
  auditor_.on_plan(world.round(), plan, world.payloads());
  return plan;
}

}  // namespace synran
