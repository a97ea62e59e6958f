// Runtime invariant auditor for the §3.1 adversary model.
//
// The engine's correctness story has two layers: check_model_invariants
// (runner/narrate) re-verifies a *finished* execution from its recorded
// rounds, while this auditor validates every round *as it happens*, with
// enough context to name the offender. It enforces, per round:
//
//   * cumulative crashes never exceed the global budget t;
//   * per-round crashes respect the per-round cap (class-B adversaries);
//   * omission directives target live senders only, never duplicate or
//     overlap a crash victim, and respect their own global budget and
//     per-round cap (0 budget = omissions forbidden, the fail-stop default);
//   * corruption directives likewise target live senders only, never
//     duplicate or overlap a crash/omission directive, never forge the same
//     receiver twice, and respect the byzantine budget and per-round cap
//     (0 budget = corrupted values forbidden, the fail-stop default);
//   * a crashed process never acts again (no payloads, no halting, no
//     re-crash) — "silence of the dead";
//   * a decided process never flips its decision, and decided() never
//     reverts (the paper's "cannot change its decision");
//   * a round's delivered count is exactly the surviving-sender broadcast
//     count: full broadcasts reach every active receiver, a crashed sender
//     reaches exactly deliver_to ∩ active, and each omission subtracts
//     exactly drop_for ∩ active.
//
// The directive-shape rules are net/fabric.hpp's `check_plan`, which
// on_plan runs after its budget, cap and re-crash checks, in a PlanScratch
// the auditor keeps across rounds and runs; the engine delivers with the
// victims it leaves, so a round checks its plan once and allocates nothing
// for the check.
//
// Violations throw InvariantError with a round-stamped narrative naming the
// process and the budget arithmetic involved. The predicates are cheap, so
// the engine keeps them always on. Per round they cost one branch-free
// count of the occupied payload slots (which verifies every crashed slot
// is empty), O(live) for the walks over the auditor's own live set (the
// complement of its crashed set) in phase A and in the full-sender
// recount, O(halted) virtual decided()/decision() calls in phase A (every
// live process in strict mode), O(1) per directive and forgery plus n/64
// words per `check_plan` bitset cleared (one for a crash-only plan, two
// with omissions, four with corruptions) for the plan checks, and for the
// delivery count one count_and (O(n/64) words) per run of consecutive
// crash directives with equal masks. Directives sharing one mask handle
// compare equal in O(1), so an adversary that hides a whole camp behind
// one mask pays one popcount pass, not one per victim.
// AuditedAdversary additionally lets tests and fuzzers wrap any
// third-party Adversary and validate it in isolation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/dynbitset.hpp"
#include "common/ids.hpp"
#include "net/fabric.hpp"
#include "net/types.hpp"
#include "sim/adversary.hpp"

namespace synran {

/// Stateful round-by-round validator. Drive it in engine order:
/// begin → (on_phase_a → on_plan → on_deliveries)* per round.
class RunAuditor {
 public:
  /// Resets all state for a fresh execution, clearing its buffers in place
  /// when n is unchanged. Omissions and corruptions default to forbidden
  /// (budget 0), matching the paper's fail-stop model.
  void begin(std::uint32_t n, std::uint32_t t_budget,
             std::uint32_t per_round_cap, std::uint32_t omission_budget = 0,
             std::uint32_t omission_round_cap = 0,
             std::uint32_t byzantine_budget = 0,
             std::uint32_t byzantine_round_cap = 0);

  /// After phase A: `payloads[i]` is what process i wants to broadcast
  /// (nullopt = halted or silent), `decided/decisions` its current verdict
  /// state, `halted` the voluntary-stop set. Checks silence of the dead and
  /// decision latching. A violation names the lowest-numbered offender.
  void on_phase_a(Round round,
                  std::span<const std::optional<Payload>> payloads,
                  const DynBitset& halted,
                  std::span<const std::unique_ptr<Process>> processes);

  /// Validates a fault plan against the §3.1 budget, cap and re-crash rules
  /// and then its shape (net/fabric.hpp's `check_plan`), and records its
  /// crashes. Call before applying the plan.
  void on_plan(Round round, const FaultPlan& plan,
               std::span<const std::optional<Payload>> payloads);

  /// Cross-checks one round's delivery count against the surviving-sender
  /// broadcast count implied by (payloads, plan, active receivers).
  /// `delivered` is the point-to-point total the engine accumulated for
  /// this round.
  void on_deliveries(Round round, const FaultPlan& plan,
                     std::span<const std::optional<Payload>> payloads,
                     const DynBitset& active_receivers,
                     std::uint64_t delivered);

  /// Strict mode additionally requires decisions to latch: decided() never
  /// reverts and the decision bit never changes. Off by default because the
  /// paper's SynRan rescinds decisions until STOP (only halting freezes the
  /// verdict); latching protocols (FloodMin, k-FloodMin) can opt in. Set it
  /// before a run's first on_phase_a: only strict mode records every live
  /// process's verdict each round.
  void set_strict_decisions(bool strict) { strict_decisions_ = strict; }
  /// The cap is fixed per execution in the engine but only visible to a
  /// wrapper through WorldView, hence a setter rather than a begin() arg.
  void set_per_round_cap(std::uint32_t cap) { per_round_cap_ = cap; }
  /// Same late-binding story for the omission limits (AuditedAdversary syncs
  /// them from the WorldView; the engine passes them to begin() directly).
  void set_omission_budget(std::uint32_t budget) { omission_budget_ = budget; }
  void set_omission_round_cap(std::uint32_t cap) {
    omission_round_cap_ = cap;
  }
  void set_byzantine_budget(std::uint32_t budget) {
    byzantine_budget_ = budget;
  }
  void set_byzantine_round_cap(std::uint32_t cap) {
    byzantine_round_cap_ = cap;
  }

  std::uint32_t crashes_so_far() const { return cum_crashes_; }
  std::uint32_t budget_left() const { return t_budget_ - cum_crashes_; }
  std::uint32_t omissions_so_far() const { return cum_omissions_; }
  std::uint32_t omission_budget_left() const {
    return omission_budget_ - cum_omissions_;
  }
  std::uint32_t corruptions_so_far() const { return cum_corruptions_; }
  std::uint32_t corruption_budget_left() const {
    return byzantine_budget_ - cum_corruptions_;
  }
  const DynBitset& crashed() const { return crashed_; }
  /// The crash victims of the plan the last on_plan accepted, for
  /// `deliver_checked_into`.
  const DynBitset& plan_victims() const { return plan_.victims; }

 private:
  [[noreturn]] void fail(Round round, const std::string& what) const;
  /// Fails on the lowest crashed slot below `below` that holds a payload.
  void check_dead_silent(Round round,
                         std::span<const std::optional<Payload>> payloads,
                         std::size_t below) const;

  std::uint32_t n_ = 0;
  std::uint32_t t_budget_ = 0;
  std::uint32_t per_round_cap_ = 0;
  std::uint32_t cum_crashes_ = 0;
  std::uint32_t omission_budget_ = 0;
  std::uint32_t omission_round_cap_ = 0;
  std::uint32_t cum_omissions_ = 0;
  std::uint32_t byzantine_budget_ = 0;
  std::uint32_t byzantine_round_cap_ = 0;
  std::uint32_t cum_corruptions_ = 0;
  bool strict_decisions_ = false;
  DynBitset crashed_;
  /// Kept across rounds and runs, so checking an omission or corruption
  /// plan allocates nothing once the sets hold n bits.
  PlanScratch plan_;
  std::vector<Round> crash_round_;
  std::vector<bool> was_decided_;
  std::vector<Bit> decision_was_;
  std::vector<bool> was_halted_;
};

/// Wraps any Adversary and audits each plan it emits before handing it to
/// the engine. The engine runs its own auditor regardless; this wrapper
/// exists so tests and fuzz drivers can pinpoint *which* adversary
/// misbehaved, and so adversaries can be validated against hand-built
/// WorldViews without an engine at all.
class AuditedAdversary final : public Adversary {
 public:
  explicit AuditedAdversary(Adversary& inner) : inner_(&inner) {}

  void begin(std::uint32_t n, std::uint32_t t_budget) override;
  FaultPlan plan_round(const WorldView& world) override;
  const char* name() const override { return "audited"; }

  const RunAuditor& auditor() const { return auditor_; }
  Adversary& inner() { return *inner_; }

 private:
  Adversary* inner_;
  RunAuditor auditor_;
  bool begun_ = false;
  /// The omission and byzantine budgets are invisible to Adversary::begin,
  /// so they are adopted from the first WorldView (nothing can have been
  /// spent before round 1) and cross-checked against the engine's
  /// arithmetic afterwards.
  bool omission_budget_synced_ = false;
};

}  // namespace synran
