// Broadcast delivery for one synchronous round.
//
// The fast path exploits that almost all senders deliver to *everyone*: it
// aggregates full-delivery senders once (O(n)) and then adjusts per receiver
// only for the few partially-delivered senders — crashed-this-round victims
// add their payload to the recipients that still hear them, omission senders
// (live, but suppressed for a drop set) have their deliveries *subtracted*
// from the aggregate, and corruption senders have the true payload swapped
// for each target's forged one (subtract truth, add forgery; `count` stays
// put because the message still arrives). The OR of payload masks is not
// invertible, but each of a plan's D omission and corruption directives
// takes at most one true payload from a receiver, so a payload bit that
// more than D full-aggregate senders carry survives everywhere; only the
// rare bits, carried by D or fewer, are rebuilt per receiver, with the
// forged masks OR'd back on top. Consecutive crash victims with equal
// deliver_to masks form one group whose payloads are folded once and added
// once per recipient, so an adversary hiding a whole camp from one receiver
// set pays for the mask, not for every victim; victims holding one shared
// mask handle are grouped in O(1) each. A round costs
// O(L + Σ over groups |mask| + directives) for its crashes, where L is
// |traffic.live| when the caller supplies a live set and n otherwise, and
// O(n + dropped links + forged links + n · rare bits) for its omissions
// and corruptions, instead of the naive O(n²); plus n/64 words per bitset
// `check_plan` clears (one for a crash-only plan) and per distinct mask
// handle compared. A deliberately naive reference implementation is
// provided for cross-checking in tests.
//
// Scratch: the checks and the link-fault rebuild work in buffers their
// caller keeps and that each call clears in place, so a kept buffer
// allocates only when n outgrows it. The engine's `RunAuditor` keeps the
// `PlanScratch` its per-round `check_plan` uses, and the engine's
// `EngineWorkspace` the `DeliveryScratch` of `deliver_checked_into`; an
// adversary that follows N^{r-1} through `count_into` keeps its own
// `PlanScratch`. The one-shot `deliver`, `deliver_into` and
// `deliver_naive` build theirs per call.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

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

/// What `check_plan` leaves and works in. Each check sizes and clears the
/// sets it uses in place: `victims` always, `omitted` for a plan that omits
/// or corrupts, `corrupted` and `targets` for one that corrupts.
struct PlanScratch {
  DynBitset victims;    ///< the accepted plan's crash victims
  DynBitset omitted;    ///< omission senders checked so far
  DynBitset corrupted;  ///< corruption senders checked so far
  DynBitset targets;    ///< the forgery targets of the current directive
};

/// What `deliver_checked_into` works in when a plan omits or corrupts: per
/// receiver, for each rare payload bit, how many of the bit's carriers the
/// receiver lost. Reassigned, not reallocated, by each call.
struct DeliveryScratch {
  std::vector<std::uint32_t> lost;
};

/// The §3.1 plan-shape rules every delivery and the runtime auditor share:
/// each directive names a process (below n) that sends this round and lies
/// in `traffic.live` when one is given; no process appears twice in one
/// family or in two; every mask holds n bits; a corruption's forgery
/// targets are distinct processes. Returns the first violation, naming the
/// offender, or "" for a well-formed (or null) plan, whose crash victims it
/// leaves in `scratch.victims`. A scratch kept across rounds checks every
/// plan without allocating once it has held n bits.
std::string check_plan(std::uint32_t n, const RoundTraffic& traffic,
                       PlanScratch& scratch);

/// Writes the receipt of every process in `receivers` (set bits) into its
/// slot of `out`, which must hold `n` receipts; the slots of non-receivers
/// are left untouched. `n` is the system size. Runs `check_plan` first and
/// throws its violation as ArgumentError.
void deliver_into(std::uint32_t n, const RoundTraffic& traffic,
                  const DynBitset& receivers, std::span<Receipt> out);

/// `deliver_into` without the check, for a plan that passed `check_plan`
/// over the same payloads and left `victims`: how the engine delivers once
/// its runtime auditor has checked the round's plan. Omissions and
/// corruptions work in `scratch`, which the caller keeps across rounds.
void deliver_checked_into(std::uint32_t n, const RoundTraffic& traffic,
                          const DynBitset& victims,
                          const DynBitset& receivers, std::span<Receipt> out,
                          DeliveryScratch& scratch);

/// Writes only what `deliver_into` would write into each receiver's
/// `Receipt::count`: into `counts[i]` for every process i in `receivers`,
/// leaving the other slots untouched. `counts` must hold `n` entries. Runs
/// `check_plan` first and throws its violation as ArgumentError, exactly
/// as `deliver_into` does. A count is the non-victim senders (walked over
/// `traffic.live` when given), minus the receiver's omitted links, plus
/// the size of each crash group whose mask holds the receiver, so it costs
/// O(L + Σ over groups |mask| + Σ|omitted links| + directives) with no
/// receipt arithmetic: how an adversary that only needs each receiver's
/// N^{r-1} follows the deliveries it allowed. The check runs in `scratch`,
/// which such an adversary keeps across rounds.
void count_into(std::uint32_t n, const RoundTraffic& traffic,
                const DynBitset& receivers, std::span<std::uint32_t> counts,
                PlanScratch& scratch);

/// `deliver_into` a fresh vector: receipts for non-receiver indices are
/// value-initialized.
std::vector<Receipt> deliver(std::uint32_t n, const RoundTraffic& traffic,
                             const DynBitset& receivers);

/// Reference implementation: materializes every (sender → receiver) pair
/// after the same `check_plan`. Used only by tests to validate `deliver`.
std::vector<Receipt> deliver_naive(std::uint32_t n, const RoundTraffic& traffic,
                                   const DynBitset& receivers);

}  // namespace synran
