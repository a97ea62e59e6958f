// SynRan — the paper's §4 randomized synchronous consensus protocol.
//
// Faithful to the published pseudocode:
//   * counted thresholds against N_i^{r-1} (the previous round's message
//     count), with the decide margins 7/10 and 4/10 and the propose margins
//     6/10 and 5/10;
//   * the one-side-bias rule "Z_i^r = 0 ⇒ b_i = 1" that makes the collective
//     coin biasable only toward 0 (the heart of the upper bound);
//   * the halting rule: after deciding at round r, stop at round r+1 iff
//     N^{r-2} − N^{r+1} ≤ N^{r-1}/10 (the adversary must keep killing 10% of
//     the survivors every few rounds to block halting), else un-decide;
//   * the hand-off to a deterministic flooding stage once fewer than
//     √(n/ln n) messages arrive in a round.
//
// Two ablations used by the experiment suite are exposed as options:
//   * CoinRule::Symmetric replaces the one-side-bias machinery with the
//     symmetric-threshold variant of Ben-Or's protocol (thresholds relative
//     to the current round's count, no Z=0 rule) — the "simple variation of
//     [BO83]" the paper contrasts against;
//   * det_handoff=false removes the deterministic stage.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/process.hpp"

namespace synran {

enum class CoinRule : std::uint8_t {
  OneSideBias,  ///< the paper's SynRan rules
  Symmetric,    ///< Ben-Or-style symmetric thresholds (ablation baseline)
};

struct SynRanOptions {
  CoinRule coin_rule = CoinRule::OneSideBias;
  /// Hand off to the deterministic flooding stage below √(n/ln n) survivors.
  bool det_handoff = true;
  /// Extra flooding rounds beyond ⌈√(n/ln n)⌉ for crash-tolerance margin
  /// (the stage must outlast every crash pattern among its participants,
  /// including processes that joined the stage one round late).
  std::uint32_t det_margin = 2;

  /// The threshold numerators over a denominator of 10. The paper uses
  /// 7/6/5/4 — decide-1 above 7/10, propose-1 above 6/10, propose-0 below
  /// 5/10, decide-0 below 4/10 — and its correctness lemmas (4.1/4.2) rely
  /// on decide/propose gaps of at least 1/10. Exposed for the threshold
  /// sensitivity ablation (experiment E12); the defaults are the paper's.
  std::uint32_t decide_one_num = 7;
  std::uint32_t propose_one_num = 6;
  std::uint32_t propose_zero_num = 5;
  std::uint32_t decide_zero_num = 4;

  bool margins_valid() const {
    return decide_one_num > propose_one_num &&
           propose_one_num >= propose_zero_num &&
           propose_zero_num > decide_zero_num && decide_one_num <= 10;
  }
};

class SynRanProcess final : public Process {
 public:
  SynRanProcess(ProcessId id, std::uint32_t n, Bit input, SynRanOptions opts);

  std::optional<Payload> on_round(const Receipt* prev,
                                  CoinSource& coins) override;
  bool decided() const override { return decided_; }
  Bit decision() const override { return b_; }
  bool halted() const override { return halted_; }
  ProcessView view() const override;
  std::uint64_t state_digest() const override;
  std::unique_ptr<Process> clone() const override;

  /// Current estimate b_i (exposed for adversaries/tests beyond view()).
  Bit estimate() const { return b_; }
  bool in_deterministic_stage() const { return mode_ != Mode::Probabilistic; }

 private:
  friend class SynRanFactory;
  /// As the public constructor, but takes the hand-off threshold from
  /// `kept` when it was built for the same n (the value is a pure function
  /// of n, so only its recomputation is saved).
  SynRanProcess(ProcessId id, std::uint32_t n, Bit input, SynRanOptions opts,
                const SynRanProcess* kept);

  enum class Mode : std::uint8_t {
    Probabilistic,  ///< the randomized stage of §4
    DetSync,        ///< hand-off round: broadcast b_i once more
    DetFlood,       ///< FloodMin over the survivors' b values
  };

  std::optional<Payload> probabilistic_round(const Receipt* prev,
                                             CoinSource& coins);
  std::optional<Payload> deterministic_round(const Receipt* prev);
  /// N_i^k with the paper's convention N^{-1} = N^0 = n.
  std::uint32_t n_history(std::int64_t k) const;
  void record_n(std::uint32_t round, std::uint32_t count);

  SynRanOptions opts_;
  std::uint32_t n_ = 0;
  ProcessId id_ = 0;

  Bit b_ = Bit::Zero;
  bool decided_ = false;
  bool halted_ = false;
  bool flipped_coin_ = false;

  Mode mode_ = Mode::Probabilistic;
  std::uint32_t next_round_ = 1;  ///< round of the message about to be sent

  /// Ring of the last 4 message counts, indexed by round mod 4.
  std::uint32_t nhist_[4] = {0, 0, 0, 0};
  std::uint32_t nhist_latest_ = 0;  ///< largest round recorded

  double det_threshold_ = 0.0;   ///< √(n/ln n)
  std::uint32_t det_rounds_ = 0; ///< flooding rounds to run
  Payload det_mask_ = 0;         ///< values seen during the flooding stage
  std::uint32_t det_floods_sent_ = 0;
};

class SynRanFactory final : public ProcessFactory {
 public:
  explicit SynRanFactory(SynRanOptions opts = {}) : opts_(opts) {}
  std::unique_ptr<Process> make(ProcessId id, std::uint32_t n,
                                Bit input) const override {
    return std::make_unique<SynRanProcess>(id, n, input, opts_);
  }
  bool remake(Process& process, ProcessId id, std::uint32_t n,
              Bit input) const override {
    return remake_as<SynRanProcess>(process, [&](const SynRanProcess& kept) {
      return SynRanProcess(id, n, input, opts_, &kept);
    });
  }
  const char* name() const override {
    if (opts_.coin_rule == CoinRule::Symmetric) return "benor-sym";
    return opts_.det_handoff ? "synran" : "synran-nodet";
  }

 private:
  SynRanOptions opts_;
};

}  // namespace synran
