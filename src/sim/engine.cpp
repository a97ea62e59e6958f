#include "sim/engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "net/fabric.hpp"
#include "obs/observer.hpp"
#include "sim/audit.hpp"

namespace synran {

namespace {

/// Snapshot of the engine state right after phase A, in observer vocabulary.
obs::RoundObservation observe_round(
    Round round, const DynBitset& alive, const DynBitset& halted,
    const std::vector<std::optional<Payload>>& payloads,
    const std::vector<std::unique_ptr<Process>>& procs,
    std::uint32_t budget_left) {
  obs::RoundObservation ro;
  ro.round = round;
  ro.alive = static_cast<std::uint32_t>(alive.count());
  ro.halted = static_cast<std::uint32_t>(halted.count());
  ro.budget_left = budget_left;
  // Crashed processes' slots are empty, so the live set covers every sender.
  alive.for_each_set([&](std::size_t i) {
    if (procs[i]->decided()) ++ro.decided;
    const auto& p = payloads[i];
    if (!p.has_value()) return;
    ++ro.senders;
    if (payload::supports(*p, Bit::One)) ++ro.ones;
    if (payload::supports(*p, Bit::Zero)) ++ro.zeros;
    if (*p & payload::kDeterministicFlag) ++ro.deterministic;
  });
  return ro;
}

}  // namespace

RunSummary Engine::run(const ProcessFactory& factory,
                       std::span<const Bit> inputs, Adversary& adversary,
                       const EngineOptions& options) {
  return run_impl(factory, inputs, adversary, options, nullptr);
}

RunSummary Engine::run(const ProcessFactory& factory,
                       std::span<const Bit> inputs, Adversary& adversary,
                       const EngineOptions& options, RunResult& full) {
  return run_impl(factory, inputs, adversary, options, &full);
}

RunSummary Engine::run_impl(const ProcessFactory& factory,
                            std::span<const Bit> inputs, Adversary& adversary,
                            const EngineOptions& options, RunResult* full) {
  SYNRAN_REQUIRE(!inputs.empty(), "need at least one process");
  SYNRAN_REQUIRE(options.t_budget <= inputs.size(),
                 "fault budget exceeds process count");
  const auto n = static_cast<std::uint32_t>(inputs.size());
  SeedSequence seeds(options.seed);

  ws_.prepare(n);
  auto& procs = ws_.procs_;
  auto& coins = ws_.coins_;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (procs[i] == nullptr || !factory.remake(*procs[i], i, n, inputs[i]))
      procs[i] = factory.make(i, n, inputs[i]);
    coins[i].reseed(seeds.stream(i));
  }

  adversary.begin(n, options.t_budget);

  obs::EngineObserver* observer = options.observer;
  if (observer != nullptr) {
    observer->on_run_begin(obs::RunInfo{
        n, options.t_budget, options.per_round_cap, options.seed,
        options.omission_budget, options.omission_round_cap,
        options.byzantine_budget, options.byzantine_round_cap});
  }

  // Always-on model audit (§3.1): cheap per-round predicates that validate
  // the adversary's spend and the engine's own delivery accounting.
  RunAuditor& auditor = ws_.auditor_;
  auditor.begin(n, options.t_budget, options.per_round_cap,
                options.omission_budget, options.omission_round_cap,
                options.byzantine_budget, options.byzantine_round_cap);
  auditor.set_strict_decisions(options.strict_decision_audit);

  DynBitset& alive = ws_.alive_;    // not crashed by the adversary
  DynBitset& halted = ws_.halted_;  // voluntarily stopped
  DynBitset& active = ws_.active_;  // this round's receivers
  auto& payloads = ws_.payloads_;
  auto& receipts = ws_.receipts_;
  auto& have_receipt = ws_.have_receipt_;

  RunSummary sum;

  for (Round r = 1; r <= options.max_rounds; ++r) {
    // --- Phase A: local computation, coins, message preparation. Only live
    // processes run, in increasing order. A halted process's slot was
    // cleared when it returned nullopt and a crashed one's when its crash
    // committed, so no other slot needs touching.
    //
    // Decision bookkeeping rides along. A process decides while digesting
    // the previous round's receipt, so "all decided as of phase A of round
    // r" means the protocol reached decision in round r-1 (paper counting).
    bool anyone_sending = false;
    bool all_decided = sum.rounds_to_decision == 0 && r > 1;
    alive.for_each_set([&](std::size_t i) {
      if (!halted.test(i)) {
        const Receipt* prev = have_receipt[i] != 0 ? &receipts[i] : nullptr;
        payloads[i] = procs[i]->on_round(prev, coins[i]);
        if (!payloads[i].has_value()) {
          SYNRAN_CHECK_MSG(procs[i]->decided(),
                           "process halted without deciding");
          halted.set(i);
        } else {
          anyone_sending = true;
        }
      }
      if (all_decided && !procs[i]->decided()) all_decided = false;
    });
    if (all_decided) sum.rounds_to_decision = r - 1;

    auditor.on_phase_a(r, payloads, halted, procs);

    if (!anyone_sending) {
      // Everyone alive has halted: the last communication round was r-1.
      sum.rounds_to_halt = r - 1;
      sum.terminated = true;
      break;
    }

    // Each budget left is its limit minus the run's spend so far.
    const std::uint32_t budget_left = options.t_budget - sum.faults.crashes;
    obs::RoundObservation round_obs;
    if (observer != nullptr) {
      round_obs =
          observe_round(r, alive, halted, payloads, procs, budget_left);
      observer->on_round_begin(round_obs);
    }

    // --- Adversary intervention.
    WorldView world(r, n, alive, halted, payloads, procs, budget_left,
                    options.per_round_cap,
                    options.omission_budget - sum.faults.omissions,
                    options.omission_round_cap,
                    options.byzantine_budget - sum.faults.corruptions,
                    options.byzantine_round_cap);
    FaultPlan plan = adversary.plan_round(world);
    auditor.on_plan(r, plan, payloads);
    if (observer != nullptr) observer->on_fault_plan(r, plan);

    // --- Phase B: delivery to surviving, non-halted receivers.
    FaultTally round;
    round.crashes = static_cast<std::uint32_t>(plan.crash_count());
    round.omissions = static_cast<std::uint32_t>(plan.omission_count());
    round.corruptions = static_cast<std::uint32_t>(plan.corruption_count());
    active = alive;
    for (const auto& c : plan.crashes) active.reset(c.victim);
    halted.for_each_set([&](std::size_t i) { active.reset(i); });
    // on_plan checked the plan's shape and left its victims. Crashed slots
    // are empty (on_phase_a), so the live set covers every sender.
    deliver_checked_into(n, RoundTraffic{payloads, &plan, &alive},
                         auditor.plan_victims(), active, receipts);
    active.for_each_set([&](std::size_t i) {
      have_receipt[i] = 1;
      round.delivered += receipts[i].count;
    });
    for (const auto& o : plan.omissions)
      round.omitted += o.drop_for.count_and(active);
    for (const auto& cd : plan.corruptions)
      for (const auto& fg : cd.forgeries)
        if (active.test(fg.target)) ++round.corrupted;
    auditor.on_deliveries(r, plan, payloads, active, round.delivered);
    if (observer != nullptr) observer->on_deliveries(r, round.delivered);

    // Commit the crashes and the round's spend.
    sum.faults += round;
    if (full != nullptr) ws_.crashes_per_round_.push_back(round.crashes);
    for (const auto& c : plan.crashes) {
      alive.reset(c.victim);
      payloads[c.victim].reset();  // the dead stay silent from next round on
    }
    if (observer != nullptr) {
      round_obs.faults = round;
      observer->on_round_end(round_obs);
    }
  }

  // Harvest final status: agreement across surviving deciders, and the
  // validity verdict while the inputs are still in hand.
  bool first = true;
  bool agree = true;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!alive.test(i) || !procs[i]->decided()) continue;
    const Bit d = procs[i]->decision();
    sum.has_decision = true;
    if (first) {
      sum.decision = d;
      first = false;
    } else if (d != sum.decision) {
      agree = false;
    }
  }
  sum.agreement = sum.has_decision && agree;
  if (!sum.terminated) sum.rounds_to_halt = options.max_rounds;

  if (sum.has_decision) {
    const bool all0 = std::all_of(inputs.begin(), inputs.end(),
                                  [](Bit b) { return b == Bit::Zero; });
    const bool all1 = std::all_of(inputs.begin(), inputs.end(),
                                  [](Bit b) { return b == Bit::One; });
    if (all0 || all1) {
      const Bit required = all0 ? Bit::Zero : Bit::One;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!alive.test(i) || !procs[i]->decided()) continue;
        if (procs[i]->decision() != required) {
          sum.validity = false;
          break;
        }
      }
    }
  }

  if (full != nullptr) {
    static_cast<RunSummary&>(*full) = sum;
    full->crashes_per_round = ws_.crashes_per_round_;
    full->crashed.assign(n, false);
    full->decided.assign(n, false);
    full->decisions.assign(n, Bit::Zero);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!alive.test(i)) {
        full->crashed[i] = true;
        continue;
      }
      full->decided[i] = procs[i]->decided();
      if (full->decided[i]) full->decisions[i] = procs[i]->decision();
    }
  }

  if (observer != nullptr) {
    obs::RunObservation ro;
    ro.terminated = sum.terminated;
    ro.agreement = sum.agreement;
    ro.has_decision = sum.has_decision;
    ro.decision = to_int(sum.decision);
    ro.rounds_to_decision = sum.rounds_to_decision;
    ro.rounds_to_halt = sum.rounds_to_halt;
    ro.faults = sum.faults;
    ro.survivors = static_cast<std::uint32_t>(alive.count());
    observer->on_run_end(ro);
  }
  return sum;
}

RunResult run_once(const ProcessFactory& factory, std::vector<Bit> inputs,
                   Adversary& adversary, EngineOptions options) {
  EngineWorkspace ws;
  Engine e(ws);
  RunResult res;
  e.run(factory, inputs, adversary, options, res);
  return res;
}

bool validity_holds(const std::vector<Bit>& inputs, const RunResult& result) {
  if (!result.has_decision) return true;  // vacuous
  const bool all0 = std::all_of(inputs.begin(), inputs.end(),
                                [](Bit b) { return b == Bit::Zero; });
  const bool all1 = std::all_of(inputs.begin(), inputs.end(),
                                [](Bit b) { return b == Bit::One; });
  if (!all0 && !all1) return true;
  const Bit required = all0 ? Bit::Zero : Bit::One;
  for (std::size_t i = 0; i < result.decisions.size(); ++i) {
    if (result.crashed[i] || !result.decided[i]) continue;
    if (result.decisions[i] != required) return false;
  }
  return true;
}

}  // namespace synran
