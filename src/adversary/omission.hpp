// Omission-fault injectors: a seeded link-drop chaos monkey and a targeted
// threshold attacker, both spending the engine's omission budget
// (EngineOptions::omission_budget) instead of crashes.
//
// Omissions are a deliberate extension beyond the paper's fail-stop model
// (§3.1): a directive suppresses one live sender's round message for a chosen
// receiver subset without killing the sender, the classic send-omission
// failure of the general-omission literature. The graceful-degradation study
// (experiment E15) uses these adversaries to measure how SynRan's agreement
// probability and expected round count decay as the per-link drop rate grows.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/adversary.hpp"

namespace synran {

struct ChaosOptions {
  /// Per-link drop probability: each (sender, receiver ≠ sender) link fails
  /// independently with this probability, every round. Must lie in [0, 1].
  double drop_rate = 0.1;
  /// Seed for the link coins. Bit-reproducible: the same seed and world
  /// evolution produce the same drops at any --threads count (batches hand
  /// every repetition its own derived seed).
  std::uint64_t seed = 17;
};

/// Drops each point-to-point link independently with probability
/// `drop_rate`, bounded by the omission budget the engine grants. One
/// directive (one budget unit) covers all of a sender's dropped links in a
/// round; senders are processed in id order and the remainder are left
/// intact once the round's omission budget runs out. Self-delivery is never
/// dropped — a process always hears itself; chaos models network links.
///
/// Optionally decorates an inner adversary: the inner plan's crashes are
/// kept, and senders it crashes are skipped (a crash's deliver_to already
/// fixes their delivery; crash+omit overlap is outside the model).
class ChaosAdversary final : public Adversary {
 public:
  explicit ChaosAdversary(ChaosOptions opts = {},
                          std::unique_ptr<Adversary> inner = nullptr)
      : opts_(opts), rng_(opts.seed), inner_(std::move(inner)) {}

  void begin(std::uint32_t n, std::uint32_t t_budget) override;
  FaultPlan plan_round(const WorldView& world) override;
  const char* name() const override { return "chaos"; }

  /// Omission directives spent so far across the execution.
  std::uint32_t omissions_spent() const { return omissions_spent_; }

 private:
  ChaosOptions opts_;
  Xoshiro256 rng_;
  std::unique_ptr<Adversary> inner_;
  std::uint32_t omissions_spent_ = 0;
};

struct OmissionAttackOptions {
  /// Fraction of N^{r-1} the attacker steers the visible 1-count toward when
  /// trimming a 1-surplus; must lie strictly inside (0.5, 0.6].
  double target_ratio = 0.55;
  /// Seed for victim shuffling.
  std::uint64_t seed = 13;
};

/// The omission-only mirror of CoinBiasAdversary: it attacks SynRan's
/// counted-threshold margins without killing anyone, so the same process
/// set stays alive while the information flow degrades.
///
///   * 1-surplus (visible 1-count above the 6/10 proposal threshold):
///     suppress the surplus 1-senders for most receivers, keeping a ~20%
///     reserve group that still sees them and re-proposes 1 next round.
///   * 0-surplus (1-count below the 5/10 threshold): hide *all* zero-senders
///     from half the receivers — the Z=0 split of the paper's one-side-bias
///     rule, here without spending a single crash.
///
/// Deterministic-stage senders are left alone, mirroring CoinBias. Every
/// directive costs one unit of the omission budget; the attacker stands down
/// when the budget (or the per-round cap) is exhausted.
class OmissionAdversary final : public Adversary {
 public:
  explicit OmissionAdversary(OmissionAttackOptions opts = {})
      : opts_(opts), rng_(opts.seed) {}

  void begin(std::uint32_t n, std::uint32_t t_budget) override;
  FaultPlan plan_round(const WorldView& world) override;
  const char* name() const override { return "omission"; }

  std::uint32_t omissions_spent() const { return omissions_spent_; }

 private:
  void note_deliveries(const WorldView& world, const FaultPlan& plan);

  OmissionAttackOptions opts_;
  Xoshiro256 rng_;
  /// Predicted N^{r-1} per receiver (full information: the adversary counts
  /// the deliveries it allowed, omissions included).
  std::vector<std::uint32_t> last_count_;
  /// This round's receivers, reused every round.
  DynBitset receivers_;
  std::uint32_t omissions_spent_ = 0;
  bool split_parity_ = false;  ///< alternates which half gets hidden zeros
};

}  // namespace synran
