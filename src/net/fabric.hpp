// Broadcast delivery for one synchronous round.
//
// The fast path exploits that almost all senders deliver to *everyone*: it
// aggregates full-delivery senders once (O(n)) and then adjusts per receiver
// only for the few partially-delivered senders — crashed-this-round victims
// add their payload to the recipients that still hear them, omission senders
// (live, but suppressed for a drop set) have their deliveries *subtracted*
// from the aggregate, and corruption senders have the true payload swapped
// for each target's forged one (subtract truth, add forgery; `count` stays
// put because the message still arrives), with the non-invertible or_mask
// rebuilt exactly from per-bit sender counts and forged masks OR'd back on
// top. Consecutive crash victims with equal deliver_to masks form one group
// whose payloads are folded once and added once per recipient, so an
// adversary hiding a whole camp from one receiver set pays for the mask,
// not for every victim; victims holding one shared mask handle are grouped
// in O(1) each. Total cost stays
// O(L + Σ over groups |mask| + directives + Σ|omitted and forged links|)
// per round instead of the naive O(n²), where L is |traffic.live| when the
// caller supplies a live set and n otherwise, plus n/64 words per bitset
// `check_plan` clears (one for a crash-only plan) and per distinct mask
// handle compared. A deliberately naive reference implementation is
// provided for cross-checking in tests.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "net/types.hpp"

namespace synran {

/// Inputs to one round of delivery.
struct RoundTraffic {
  /// Per-process outgoing payload; nullopt = sends nothing this round
  /// (crashed earlier, or voluntarily halted).
  std::span<const std::optional<Payload>> payloads;
  /// The fault plan chosen by the adversary for this round; its shape rules
  /// are `check_plan`'s.
  const FaultPlan* plan = nullptr;
  /// Optional size-n superset of the processes whose slot holds a payload
  /// (the engine passes its alive set: crashed slots are empty). When given,
  /// the full-sender aggregate and the link-fault base counts walk its set
  /// bits instead of all n slots, so they cost O(|live|) rather than O(n);
  /// every directive's sender must lie in it (checked). A payload outside
  /// `live` would be missed, which the auditor's independent delivery count
  /// catches in the engine. Null walks every slot, as `deliver_naive` always
  /// does.
  const DynBitset* live = nullptr;
};

/// The §3.1 plan-shape rules every delivery and the runtime auditor share:
/// each directive names a process (below n) that sends this round and lies
/// in `traffic.live` when one is given; no process appears twice in one
/// family or in two; every mask holds n bits; a corruption's forgery
/// targets are distinct processes. Returns the first violation, naming the
/// offender, or "" for a well-formed (or null) plan, whose crash victims it
/// leaves in `victims`. `victims` is resized only when it does not hold n
/// bits, so a bitset kept across rounds checks crash-only plans without
/// allocating.
std::string check_plan(std::uint32_t n, const RoundTraffic& traffic,
                       DynBitset& victims);

/// Writes the receipt of every process in `receivers` (set bits) into its
/// slot of `out`, which must hold `n` receipts; the slots of non-receivers
/// are left untouched. `n` is the system size. Runs `check_plan` first and
/// throws its violation as ArgumentError.
void deliver_into(std::uint32_t n, const RoundTraffic& traffic,
                  const DynBitset& receivers, std::span<Receipt> out);

/// `deliver_into` without the check, for a plan that passed `check_plan`
/// over the same payloads and left `victims`: how the engine delivers once
/// its runtime auditor has checked the round's plan.
void deliver_checked_into(std::uint32_t n, const RoundTraffic& traffic,
                          const DynBitset& victims,
                          const DynBitset& receivers, std::span<Receipt> out);

/// `deliver_into` a fresh vector: receipts for non-receiver indices are
/// value-initialized.
std::vector<Receipt> deliver(std::uint32_t n, const RoundTraffic& traffic,
                             const DynBitset& receivers);

/// Reference implementation: materializes every (sender → receiver) pair
/// after the same `check_plan`. Used only by tests to validate `deliver`.
std::vector<Receipt> deliver_naive(std::uint32_t n, const RoundTraffic& traffic,
                                   const DynBitset& receivers);

}  // namespace synran
