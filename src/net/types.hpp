// Message-fabric vocabulary for the synchronous broadcast model of §3.1.
//
// Every protocol in this library broadcasts one small payload per round.
// Payload convention (shared by all protocols so receipts can aggregate
// uniformly):
//   bit 0 — the message "supports value 0"
//   bit 1 — the message "supports value 1"
//   bits 2..63 — protocol-specific flags (e.g. SynRan's deterministic-stage
//                marker). Aggregated only through `or_mask`.
// A probabilistic-stage SynRan message carrying b_i sets exactly one of the
// low two bits; a FloodMin message may set both.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/dynbitset.hpp"
#include "common/ids.hpp"

namespace synran {

using Payload = std::uint64_t;

/// Payload helpers for the low-two-bit value-mask convention.
namespace payload {
constexpr Payload kSupports0 = 1ULL << 0;
constexpr Payload kSupports1 = 1ULL << 1;
/// Marks a message sent by a process already in its deterministic stage.
constexpr Payload kDeterministicFlag = 1ULL << 2;

constexpr Payload of_bit(Bit b) {
  return b == Bit::One ? kSupports1 : kSupports0;
}
constexpr bool supports(Payload p, Bit b) {
  return (p & (b == Bit::One ? kSupports1 : kSupports0)) != 0;
}
}  // namespace payload

/// What one process received in one round, in aggregate form. This is all the
/// paper's protocols ever need: N_i^r (count), O_i^r (ones), Z_i^r (zeros),
/// and the OR of payload masks for flooding.
struct Receipt {
  std::uint32_t count = 0;  ///< N_i^r — number of messages received
  std::uint32_t ones = 0;   ///< O_i^r — messages supporting 1
  std::uint32_t zeros = 0;  ///< Z_i^r — messages supporting 0
  Payload or_mask = 0;      ///< OR of all received payloads

  friend bool operator==(const Receipt&, const Receipt&) = default;
};

/// An immutable recipient mask that many directives can share. Copies share
/// one `DynBitset`, so an adversary that hides a whole camp from one
/// receiver set builds the mask once per round and hands every victim a
/// handle to it. Equality is true on shared identity before words are
/// compared, which makes "same mask as the previous directive" O(1) for
/// shared handles. A default-constructed mask is empty with size 0.
class SharedMask {
 public:
  SharedMask() = default;
  // Implicit on purpose: `{victim, DynBitset(n)}` initialisers keep working.
  SharedMask(DynBitset bits)
      : bits_(std::make_shared<const DynBitset>(std::move(bits))) {}

  const DynBitset& bits() const { return bits_ ? *bits_ : empty(); }

  std::size_t size() const { return bits().size(); }
  bool test(std::size_t i) const { return bits().test(i); }
  std::size_t count() const { return bits().count(); }
  std::size_t count_and(const DynBitset& o) const {
    return bits().count_and(o);
  }
  bool any() const { return bits().any(); }
  bool none() const { return bits().none(); }
  template <typename F>
  void for_each_set(F&& f) const {
    bits().for_each_set(std::forward<F>(f));
  }

  friend bool operator==(const SharedMask& a, const SharedMask& b) {
    return a.bits_ == b.bits_ || a.bits() == b.bits();
  }

 private:
  static const DynBitset& empty() {
    static const DynBitset kEmpty;
    return kEmpty;
  }

  std::shared_ptr<const DynBitset> bits_;
};

/// One process the adversary crashes during the current exchange phase, with
/// the subset of recipients that still receive its round message (§3.1: "the
/// adversary can decide which subset of its messages will be sent").
/// `deliver_to` is a shared, immutable mask: directives that hide their
/// victims from the same receivers should hold copies of one handle, which
/// the fabric and the auditor then fold as one group in O(1) per directive.
/// Build a mask in a local `DynBitset` and assign it once.
struct CrashDirective {
  ProcessId victim = 0;
  SharedMask deliver_to;  ///< size n; recipients that still get the message
};

/// A transient, non-crashing fault: one live sender's round message is
/// suppressed for a chosen subset of receivers. Unlike a crash the sender
/// stays alive and broadcasts normally in later rounds. This extends the
/// paper's strictly fail-stop §3.1 model (see DESIGN.md, "Omission faults").
struct OmissionDirective {
  ProcessId sender = 0;
  DynBitset drop_for;  ///< size n; receivers that do NOT get the message
};

/// A Byzantine value fault: one live sender's round message is *replaced* by
/// forged payloads for chosen receivers — the corrupted-value regime of the
/// Byzantine-agreement literature (King & Saia, JACM 2016 correction), well
/// beyond the paper's fail-stop §3.1 model. The sender stays alive and
/// honest in later rounds; each targeted receiver observes `forged` in place
/// of the true payload, and different receivers may be shown different
/// values (equivocation). Receivers not listed get the genuine message.
struct CorruptionDirective {
  /// One receiver's forged view of the sender's round message.
  struct Forgery {
    ProcessId target = 0;  ///< receiver shown the forged payload
    Payload forged = 0;    ///< what it observes instead of the truth
  };

  ProcessId sender = 0;
  std::vector<Forgery> forgeries;  ///< no duplicate targets
};

/// The adversary's action for one round. Processes not listed deliver to all
/// alive recipients; crash victims are failed and silent forever after;
/// omission senders lose this round's message to `drop_for` receivers but
/// keep running; corruption senders have this round's message replaced by
/// per-receiver forged values but keep running. A sender may appear in at
/// most one of the three directive families per plan (a crash's deliver_to
/// already fully determines its delivery, and an omitted link has no value
/// left to forge).
struct FaultPlan {
  std::vector<CrashDirective> crashes;
  std::vector<OmissionDirective> omissions;
  std::vector<CorruptionDirective> corruptions;

  bool empty() const {
    return crashes.empty() && omissions.empty() && corruptions.empty();
  }
  std::size_t crash_count() const { return crashes.size(); }
  std::size_t omission_count() const { return omissions.size(); }
  std::size_t corruption_count() const { return corruptions.size(); }
};

/// What the adversary spent and the fabric carried over one span of an
/// execution — a round, an async interval, or a whole run — named as the
/// trace keys. Spans add up: a run's tally is the sum of its rounds'.
struct FaultTally {
  std::uint32_t crashes = 0;      ///< crash directives (victims)
  std::uint64_t delivered = 0;    ///< point-to-point deliveries
  std::uint32_t omissions = 0;    ///< omission directives
  std::uint64_t omitted = 0;      ///< links they suppressed
  std::uint32_t corruptions = 0;  ///< corruption directives
  std::uint64_t corrupted = 0;    ///< links they forged

  FaultTally& operator+=(const FaultTally& o) {
    crashes += o.crashes;
    delivered += o.delivered;
    omissions += o.omissions;
    omitted += o.omitted;
    corruptions += o.corruptions;
    corrupted += o.corrupted;
    return *this;
  }
  friend bool operator==(const FaultTally&, const FaultTally&) = default;
};

}  // namespace synran
