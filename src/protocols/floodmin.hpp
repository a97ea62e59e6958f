// FloodMin — the classic deterministic t+1-round crash-tolerant consensus
// (see e.g. Lynch, "Distributed Algorithms", ch. 6). Serves two roles here:
//
//  * the paper's deterministic baseline: any deterministic protocol needs
//    t+1 rounds in the worst case, and this one always takes exactly t+1
//    (experiment E7);
//  * a reference point for the early-deciding variant, which decides in
//    min(f+2, t+1) rounds when the adversary actually crashes only f
//    processes — the "adaptivity gap" the randomized protocol exploits.
//
// Each process floods the set of input values it has seen (as the low-2-bit
// payload mask) for R = t+1 rounds, then decides the minimum value present.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/process.hpp"

namespace synran {

struct FloodMinOptions {
  /// Fault tolerance t; the protocol runs t+1 exchange rounds.
  std::uint32_t t = 0;
  /// Decide early at the first "clean" round (identical heard-from counts in
  /// two consecutive rounds). The process keeps flooding until round t+1 so
  /// that late deciders still receive everything, but the decision itself is
  /// fixed at the clean round.
  bool early_deciding = false;
};

class FloodMinProcess final : public Process {
 public:
  FloodMinProcess(ProcessId id, std::uint32_t n, Bit input,
                  FloodMinOptions opts);

  std::optional<Payload> on_round(const Receipt* prev,
                                  CoinSource& coins) override;
  bool decided() const override { return decided_; }
  Bit decision() const override { return decision_; }
  bool halted() const override { return halted_; }
  ProcessView view() const override;
  std::uint64_t state_digest() const override;
  std::unique_ptr<Process> clone() const override;

  /// Exchange round in which the decision was fixed (for E7 reporting).
  std::uint32_t decision_round() const { return decision_round_; }

 private:
  Bit min_of_mask() const;

  FloodMinOptions opts_;
  std::uint32_t n_ = 0;
  ProcessId id_ = 0;

  Payload mask_ = 0;  ///< values seen (low-2-bit convention)
  std::uint32_t next_round_ = 1;
  std::uint32_t last_count_ = 0;  ///< N of the previous receipt
  bool have_last_count_ = false;

  bool decided_ = false;
  bool halted_ = false;
  Bit decision_ = Bit::Zero;
  std::uint32_t decision_round_ = 0;
};

class FloodMinFactory final : public ProcessFactory {
 public:
  explicit FloodMinFactory(FloodMinOptions opts) : opts_(opts) {}
  std::unique_ptr<Process> make(ProcessId id, std::uint32_t n,
                                Bit input) const override {
    return std::make_unique<FloodMinProcess>(id, n, input, opts_);
  }
  bool remake(Process& process, ProcessId id, std::uint32_t n,
              Bit input) const override {
    return remake_as<FloodMinProcess>(process, [&](const FloodMinProcess&) {
      return FloodMinProcess(id, n, input, opts_);
    });
  }
  const char* name() const override {
    return opts_.early_deciding ? "floodmin-early" : "floodmin";
  }

 private:
  FloodMinOptions opts_;
};

}  // namespace synran
