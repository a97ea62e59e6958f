// Byzantine corrupted-value injectors: a seeded equivocator and an adaptive
// collective-coin attacker, both spending the engine's byzantine budget
// (EngineOptions::byzantine_budget) instead of crashes or omissions.
//
// Corrupted values are the furthest extension beyond the paper's fail-stop
// model (§3.1) this library supports: a directive replaces one live sender's
// round message with per-receiver forged payloads, the corrupted-value
// regime of the Byzantine-agreement literature (King & Saia, JACM 2016
// correction). ByzantineAdversary equivocates King–Saia style — different
// receivers are shown conflicting values — while AdaptiveCoinAttacker is
// shaped after the adaptively-secure coin-flip adversary of Haitner &
// Karidi-Heller (2020): it observes each round's realized coin flips and
// spends its corruption budget flipping the visible minority until the
// collective coin leans its way. Experiment E17 races both against the
// protocol zoo.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/adversary.hpp"

namespace synran {

struct ByzantineOptions {
  /// Per-sender corruption probability: each live sender's round message is
  /// independently chosen for equivocation with this probability. Must lie
  /// in [0, 1].
  double corrupt_rate = 0.1;
  /// Seed for the corruption coins. Bit-reproducible: the same seed and
  /// world evolution produce the same forgeries at any --threads count.
  std::uint64_t seed = 23;
};

/// Equivocating value-corruptor: each corrupted sender's receivers are split
/// into two alternating camps that observe conflicting forged values — camp
/// A a message vouching for value 0, camp B one vouching for value 1 (both
/// in the low-bit and flooding value-set payload conventions), the classic
/// King–Saia split. One directive (one budget unit) covers all of a sender's
/// forged links in a round; senders are processed in id order and left
/// honest once the round's corruption budget runs out. Self-delivery is
/// never forged — a process always trusts its own memory.
///
/// Optionally decorates an inner adversary: the inner plan's directives are
/// kept, and senders it crashes/omits/corrupts are skipped (overlap between
/// directive families is outside the model).
class ByzantineAdversary final : public Adversary {
 public:
  explicit ByzantineAdversary(ByzantineOptions opts = {},
                              std::unique_ptr<Adversary> inner = nullptr)
      : opts_(opts), rng_(opts.seed), inner_(std::move(inner)) {}

  void begin(std::uint32_t n, std::uint32_t t_budget) override;
  FaultPlan plan_round(const WorldView& world) override;
  const char* name() const override { return "byzantine"; }

  /// Corruption directives spent so far across the execution.
  std::uint32_t corruptions_spent() const { return corruptions_spent_; }

 private:
  ByzantineOptions opts_;
  Xoshiro256 rng_;
  std::unique_ptr<Adversary> inner_;
  std::uint32_t corruptions_spent_ = 0;
  /// The senders the inner plan already uses, reused every round.
  DynBitset taken_;
};

struct CoinAttackOptions {
  /// The collective-coin outcome the attacker drives toward.
  Bit target = Bit::One;
  /// Fraction of visible probabilistic-stage coins that must favor `target`
  /// before the attacker stands down for the round. Must lie in (0.5, 1].
  double push_ratio = 0.65;
  /// Seed for victim selection among the disfavored senders.
  std::uint64_t seed = 29;
};

/// Adaptive coin attacker (Haitner & Karidi-Heller shape): each round it
/// reads the realized coin flips straight off the probabilistic-stage
/// payloads (full information), then corrupts senders whose coin came up
/// against `target`, forging a favoring payload to every active receiver,
/// until the visible favored fraction reaches `push_ratio` or the corruption
/// budget runs out. Victims are drawn uniformly from the disfavored senders
/// so repeated runs attack different processes. Deterministic-stage senders
/// are left alone — their messages carry no coin to bias.
class AdaptiveCoinAttacker final : public Adversary {
 public:
  explicit AdaptiveCoinAttacker(CoinAttackOptions opts = {})
      : opts_(opts), rng_(opts.seed) {}

  void begin(std::uint32_t n, std::uint32_t t_budget) override;
  FaultPlan plan_round(const WorldView& world) override;
  const char* name() const override { return "coin-attack"; }

  std::uint32_t corruptions_spent() const { return corruptions_spent_; }

 private:
  CoinAttackOptions opts_;
  Xoshiro256 rng_;
  std::uint32_t corruptions_spent_ = 0;
  /// Per-round buffers, reused every round: the senders whose coin went
  /// against the target, and the receivers that digest this round.
  std::vector<ProcessId> disfavored_;
  DynBitset active_;
};

}  // namespace synran
