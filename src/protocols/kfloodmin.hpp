// K-valued FloodMin: the natural multi-valued extension of the
// deterministic baseline. The synchronous fail-stop model makes multi-value
// consensus a direct generalization — flood the set of seen values for t+1
// rounds and decide the minimum. Payloads carry the value set as a bitmask
// in the (protocol-specific) upper payload bits, while the low two bits keep
// the binary convention so receipts stay meaningful to the fabric.
//
// The validity-hardened variant (corrupt_tolerance > 0) additionally
// survives corrupted-value faults (CorruptionDirective): plain FloodMin
// adopts any value it ever sees, so a single forged "0" in an all-1 system
// destroys validity. Hardening filters admissions per round — values 0/1
// need more supporting senders than the tolerance (a forged link contributes
// at most one supporter per corruption directive), values ≥ 2 must persist
// across more rounds than the tolerance — and runs tolerance extra exchange
// rounds so honest values still flood to everyone.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "sim/process.hpp"

namespace synran {

/// A value in {0..k-1}, k ≤ 32.
using KValue = std::uint8_t;

struct KFloodMinOptions {
  std::uint32_t t = 0;  ///< tolerance; runs t+1 exchange rounds
  std::uint32_t k = 2;  ///< value domain size (≤ 32)
  /// Max corrupted-value directives tolerated per round; 0 — the default —
  /// is plain FloodMin, bit for bit. When positive, admissions are filtered
  /// (see the header comment) and the protocol runs t+1+corrupt_tolerance
  /// exchange rounds.
  std::uint32_t corrupt_tolerance = 0;
};

class KFloodMinProcess final : public Process {
 public:
  /// `input` (the Bit from the factory interface) is ignored when a k-ary
  /// input was provided through the k-ary constructor.
  KFloodMinProcess(ProcessId id, std::uint32_t n, KValue input,
                   KFloodMinOptions opts);

  std::optional<Payload> on_round(const Receipt* prev,
                                  CoinSource& coins) override;
  bool decided() const override { return decided_; }
  Bit decision() const override {
    return decision_value_ == 0 ? Bit::Zero : Bit::One;
  }
  bool halted() const override { return halted_; }
  ProcessView view() const override;
  std::uint64_t state_digest() const override;
  std::unique_ptr<Process> clone() const override;

  /// The k-ary decision (only valid once decided()).
  KValue decision_value() const { return decision_value_; }
  KValue min_seen() const;

 private:
  static constexpr int kSetShift = 8;  ///< value-set bitmask position

  KFloodMinOptions opts_;
  std::uint32_t n_ = 0;
  ProcessId id_ = 0;
  std::uint32_t set_ = 0;  ///< bitmask of seen values
  /// Hardened mode only: per-value count of rounds the value was observed
  /// in the receipt or_mask without yet being admitted (values ≥ 2).
  std::array<std::uint32_t, 32> seen_rounds_{};
  std::uint32_t next_round_ = 1;
  bool decided_ = false;
  bool halted_ = false;
  KValue decision_value_ = 0;
};

/// Factory over k-ary inputs. The base-class `make` maps Bit inputs to the
/// values 0/1 so the binary engine APIs keep working.
class KFloodMinFactory final : public ProcessFactory {
 public:
  explicit KFloodMinFactory(KFloodMinOptions opts) : opts_(opts) {}

  std::unique_ptr<Process> make(ProcessId id, std::uint32_t n,
                                Bit input) const override {
    return std::make_unique<KFloodMinProcess>(
        id, n, static_cast<KValue>(to_int(input)), opts_);
  }
  bool remake(Process& process, ProcessId id, std::uint32_t n,
              Bit input) const override {
    return remake_as<KFloodMinProcess>(process, [&](const KFloodMinProcess&) {
      return KFloodMinProcess(id, n, static_cast<KValue>(to_int(input)),
                              opts_);
    });
  }
  std::unique_ptr<KFloodMinProcess> make_k(ProcessId id, std::uint32_t n,
                                           KValue input) const {
    return std::make_unique<KFloodMinProcess>(id, n, input, opts_);
  }
  const char* name() const override {
    return opts_.corrupt_tolerance > 0 ? "kfloodmin-hardened" : "kfloodmin";
  }

 private:
  KFloodMinOptions opts_;
};

}  // namespace synran
