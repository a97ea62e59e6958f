// LeaderCoin — a Chor-Merritt-Shmoys-style [CMS89] constant-expected-round
// protocol for NON-adaptive fail-stop adversaries.
//
// §1.2 of the paper: "Chor, Merritt and Shmoys provide a randomized O(1)
// expected number of rounds protocol for non-adaptive fail-stop
// adversaries. In particular this shows that our lower bound does not hold
// without the adaptive selection of the faulty processes." This protocol
// makes that contrast executable:
//
//   * round r's pre-agreed leader is process (r−1) mod n; it embeds a fresh
//     coin flip in its broadcast;
//   * counted thresholds (relative to the current round's count) decide and
//     propose as usual; in the undecided middle zone every process adopts
//     the leader's coin if it arrived, else its own local coin;
//   * a decided process keeps broadcasting for two more rounds (so everyone
//     else crosses the decide threshold), then halts.
//
// Against an oblivious adversary the round-r leader is unlikely to die at
// exactly round r, so one or two leader rounds produce unanimity: O(1)
// expected rounds. An ADAPTIVE adversary simply kills each round's leader
// mid-broadcast (one crash per round) and stalls the protocol for ~t rounds
// — the cheapest possible demonstration of why the paper's lower bound
// needs adaptivity.
//
// Safety note: like the symmetric SynRan ablation, this protocol's
// agreement is NOT robust against adaptive partial-delivery attacks (it was
// never meant to be); the experiment suite runs it against view-preserving
// adversaries only.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/process.hpp"

namespace synran {

class LeaderCoinProcess final : public Process {
 public:
  LeaderCoinProcess(ProcessId id, std::uint32_t n, Bit input);

  std::optional<Payload> on_round(const Receipt* prev,
                                  CoinSource& coins) override;
  bool decided() const override { return decided_; }
  Bit decision() const override { return b_; }
  bool halted() const override { return halted_; }
  ProcessView view() const override;
  std::uint64_t state_digest() const override;
  std::unique_ptr<Process> clone() const override;

  /// The pre-agreed leader of round r.
  static ProcessId leader_of(std::uint32_t round, std::uint32_t n) {
    return (round - 1) % n;
  }

  /// Payload flags for the leader's embedded coin (only one sender per
  /// round sets them, so the receipt's or_mask recovers the coin exactly).
  static constexpr Payload kLeaderCoinZero = 1ULL << 3;
  static constexpr Payload kLeaderCoinOne = 1ULL << 4;

 private:
  Payload make_payload(CoinSource& coins);

  ProcessId id_ = 0;
  std::uint32_t n_ = 0;
  Bit b_ = Bit::Zero;
  bool decided_ = false;
  bool halted_ = false;
  bool flipped_coin_ = false;
  std::uint32_t next_round_ = 1;
  std::uint32_t help_rounds_left_ = 2;
};

class LeaderCoinFactory final : public ProcessFactory {
 public:
  std::unique_ptr<Process> make(ProcessId id, std::uint32_t n,
                                Bit input) const override {
    return std::make_unique<LeaderCoinProcess>(id, n, input);
  }
  bool remake(Process& process, ProcessId id, std::uint32_t n,
              Bit input) const override {
    return remake_as<LeaderCoinProcess>(process, [&](const LeaderCoinProcess&) {
      return LeaderCoinProcess(id, n, input);
    });
  }
  const char* name() const override { return "leadercoin"; }
};

}  // namespace synran
