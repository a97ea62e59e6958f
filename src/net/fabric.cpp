#include "net/fabric.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "common/check.hpp"

namespace synran {

namespace {

void accumulate(Receipt& r, Payload p) {
  ++r.count;
  if (p & payload::kSupports1) ++r.ones;
  if (p & payload::kSupports0) ++r.zeros;
  r.or_mask |= p;
}

/// Adds a folded group of messages to `r`: what accumulating each member
/// payload in turn would have produced, since a receipt is sums and an OR.
void merge(Receipt& r, const Receipt& group) {
  r.count += group.count;
  r.ones += group.ones;
  r.zeros += group.zeros;
  r.or_mask |= group.or_mask;
}

/// Calls `f(i)` for every slot that may hold a payload: the set bits of
/// `traffic.live` when the caller supplies it, otherwise all `n` slots.
template <typename F>
void for_each_candidate(std::uint32_t n, const RoundTraffic& traffic, F&& f) {
  if (traffic.live != nullptr) {
    traffic.live->for_each_set(f);
    return;
  }
  for (std::uint32_t i = 0; i < n; ++i) f(i);
}

/// Calls `f(b)` for each set bit b of `bits`, lowest first.
template <typename F>
void for_each_bit(Payload bits, F&& f) {
  while (bits != 0) {
    f(static_cast<std::size_t>(std::countr_zero(bits)));
    bits &= bits - 1;
  }
}

/// Applies the plan's link-level faults — omitted deliveries and corrupted
/// (forged) deliveries — to receipts pre-filled with the full-sender
/// aggregate. Counts are additive, so removing a true payload is a decrement
/// (an omission removes it outright; a corruption removes it and accumulates
/// the forged payload in its place). The OR of payload masks is not
/// invertible, but each of the plan's D omission and corruption directives
/// removes at most one true payload per receiver, so a bit that more than D
/// full-aggregate senders carry survives at every receiver. Only the rare
/// bits, with D or fewer carriers, get a per-receiver count of lost
/// carriers in `scratch`: a receiver keeps such a bit iff it lost fewer
/// carriers than the bit has, and its forged masks are OR'd on after. With
/// no rare bit no receiver is revisited. Total cost O(n + Σ dropped links +
/// Σ forged links + n · rare bits), allocating only when `scratch` grows.
void apply_link_faults(std::uint32_t n, const RoundTraffic& traffic,
                       const DynBitset& receivers, const DynBitset& crashed,
                       const Receipt& full, DeliveryScratch& scratch,
                       std::span<Receipt> out) {
  const FaultPlan& plan = *traffic.plan;
  // Per-bit population over the full-aggregate senders (every sender that is
  // sending and not crashed this round; omitted senders are among them).
  std::array<std::uint32_t, 64> carriers{};
  for_each_candidate(n, traffic, [&](std::size_t i) {
    if (!traffic.payloads[i].has_value() || crashed.test(i)) return;
    for_each_bit(*traffic.payloads[i], [&](std::size_t b) { ++carriers[b]; });
  });

  const std::size_t directives =
      plan.omissions.size() + plan.corruptions.size();
  Payload rare = 0;
  std::array<std::uint8_t, 64> column{};  // a rare bit's slot in `lost`
  std::size_t columns = 0;
  for_each_bit(full.or_mask, [&](std::size_t b) {
    if (carriers[b] > directives) return;  // survives at every receiver
    rare |= Payload{1} << b;
    column[b] = static_cast<std::uint8_t>(columns++);
  });
  std::vector<std::uint32_t>& lost = scratch.lost;  // receiver-major
  lost.assign(columns * n, 0);

  const auto drop_true_payload = [&](Payload p, std::size_t r) {
    Receipt& out_r = out[r];
    if (p & payload::kSupports1) --out_r.ones;
    if (p & payload::kSupports0) --out_r.zeros;
    for_each_bit(p & rare,
                 [&](std::size_t b) { ++lost[r * columns + column[b]]; });
  };
  for (const auto& o : plan.omissions) {
    const Payload p = *traffic.payloads[o.sender];
    o.drop_for.for_each_set([&](std::size_t r) {
      if (!receivers.test(r)) return;
      --out[r].count;
      drop_true_payload(p, r);
    });
  }

  // A corrupted link substitutes the forged payload for the true one: the
  // true payload is dropped exactly like an omission and the forged counts
  // are added directly. The message itself still arrives, so `count` is
  // untouched. The forged mask is OR'd on last, after the rebuild, which
  // must see the true bits alone.
  for (const auto& cd : plan.corruptions) {
    const Payload p = *traffic.payloads[cd.sender];
    for (const auto& fg : cd.forgeries) {
      const std::size_t r = fg.target;
      if (!receivers.test(r)) continue;
      drop_true_payload(p, r);
      Receipt& out_r = out[r];
      if (fg.forged & payload::kSupports1) ++out_r.ones;
      if (fg.forged & payload::kSupports0) ++out_r.zeros;
    }
  }

  // Each receiver's or_mask is still full.or_mask: it loses the rare bits
  // whose every carrier it lost, then gets its forged masks back.
  if (rare != 0) {
    receivers.for_each_set([&](std::size_t r) {
      Payload gone = 0;
      for_each_bit(rare, [&](std::size_t b) {
        if (lost[r * columns + column[b]] == carriers[b])
          gone |= Payload{1} << b;
      });
      out[r].or_mask &= ~gone;
    });
  }
  for (const auto& cd : plan.corruptions)
    for (const auto& fg : cd.forgeries)
      if (receivers.test(fg.target)) out[fg.target].or_mask |= fg.forged;
}

/// Calls `f(mask, first, last)` for each crash group: a run
/// [first, last) of consecutive directives with equal masks (an adversary
/// hiding a whole camp from one receiver set). Directives that share one
/// mask handle compare equal in O(1); only distinct handles compare words.
template <typename F>
void for_each_crash_group(const std::vector<CrashDirective>& crashes, F&& f) {
  for (std::size_t g = 0; g < crashes.size();) {
    const std::size_t first = g;
    const SharedMask& mask = crashes[g].deliver_to;
    do {
      ++g;
    } while (g < crashes.size() && crashes[g].deliver_to == mask);
    f(mask, first, g);
  }
}

/// Adds each crash victim's payload to the receivers its deliver_to still
/// reaches. Each crash group is folded into one group receipt first and
/// added once per receiver in the mask, which by `merge` equals adding the
/// members one by one. Cost O(Σ over groups |mask| + directives) for shared
/// masks, plus n/64 words per comparison of distinct handles.
void apply_crash_groups(const RoundTraffic& traffic, const DynBitset& receivers,
                        std::span<Receipt> out) {
  const auto& crashes = traffic.plan->crashes;
  for_each_crash_group(crashes, [&](const SharedMask& mask, std::size_t first,
                                    std::size_t last) {
    Receipt group{};
    for (std::size_t k = first; k < last; ++k)
      accumulate(group, *traffic.payloads[crashes[k].victim]);
    mask.for_each_set([&](std::size_t i) {
      if (receivers.test(i)) merge(out[i], group);
    });
  });
}

/// Runs `check_plan` in `scratch`, throwing its violation as ArgumentError.
void check_or_throw(std::uint32_t n, const RoundTraffic& traffic,
                    PlanScratch& scratch) {
  if (const std::string why = check_plan(n, traffic, scratch); !why.empty())
    throw ArgumentError("deliver: " + why);
}

}  // namespace

std::string check_plan(std::uint32_t n, const RoundTraffic& traffic,
                       PlanScratch& scratch) {
  if (traffic.payloads.size() != n)
    return str_cat("payload span holds ", traffic.payloads.size(),
                   " slots, expected n=", n);
  if (traffic.live != nullptr && traffic.live->size() != n)
    return str_cat("live set has size ", traffic.live->size(),
                   ", expected n=", n);
  DynBitset& victims = scratch.victims;
  victims.assign(n);
  if (traffic.plan == nullptr) return {};
  const FaultPlan& plan = *traffic.plan;
  const auto& sends = traffic.payloads;
  const auto outside_live = [&](ProcessId p) {
    return traffic.live != nullptr && !traffic.live->test(p);
  };

  for (const auto& c : plan.crashes) {
    if (c.victim >= n)
      return str_cat("crash victim ", c.victim, " is not a process (n=", n,
                     ")");
    if (victims.test(c.victim))
      return str_cat("process ", c.victim, " appears twice in one fault plan");
    if (!sends[c.victim])
      return str_cat("plan crashes process ", c.victim,
                     ", which is not sending this round (crashing the "
                     "silent buys the adversary nothing and is outside the "
                     "model)");
    if (outside_live(c.victim))
      return str_cat("crash victim ", c.victim, " is outside the live set");
    if (c.deliver_to.size() != n)
      return str_cat("deliver_to mask for victim ", c.victim, " has size ",
                     c.deliver_to.size(), ", expected n=", n);
    victims.set(c.victim);
  }
  // A crash-only plan is done here, having cleared one set.
  if (plan.omissions.empty() && plan.corruptions.empty()) return {};

  DynBitset& omitted = scratch.omitted;
  omitted.assign(n);
  for (const auto& o : plan.omissions) {
    if (o.sender >= n)
      return str_cat("omission sender ", o.sender, " is not a process (n=",
                     n, ")");
    if (victims.test(o.sender))
      return str_cat("process ", o.sender, " is both crashed and omitted in ",
                     "one fault plan — a crash's deliver_to already fixes ",
                     "its delivery");
    if (omitted.test(o.sender))
      return str_cat("omission sender ", o.sender,
                     " appears twice in one fault plan");
    if (!sends[o.sender])
      return str_cat("plan omits messages of process ", o.sender,
                     ", which is not sending this round (an omission for a "
                     "non-sender suppresses nothing and is outside the "
                     "model)");
    if (outside_live(o.sender))
      return str_cat("omission sender ", o.sender, " is outside the live set");
    if (o.drop_for.size() != n)
      return str_cat("drop_for mask for omission sender ", o.sender,
                     " has size ", o.drop_for.size(), ", expected n=", n);
    omitted.set(o.sender);
  }

  if (plan.corruptions.empty()) return {};
  // `targets` is cleared here, not only after each directive, because a
  // check that failed mid-directive left it dirty.
  DynBitset& corrupted = scratch.corrupted;
  DynBitset& targets = scratch.targets;
  corrupted.assign(n);
  targets.assign(n);
  for (const auto& cd : plan.corruptions) {
    if (cd.sender >= n)
      return str_cat("corruption sender ", cd.sender, " is not a process (n=",
                     n, ")");
    if (victims.test(cd.sender))
      return str_cat("process ", cd.sender, " is both crashed and corrupted ",
                     "in one fault plan — a crash's deliver_to already ",
                     "fixes its delivery");
    if (omitted.test(cd.sender))
      return str_cat("process ", cd.sender, " is both omitted and corrupted ",
                     "in one fault plan — an omitted link has no value left ",
                     "to forge");
    if (corrupted.test(cd.sender))
      return str_cat("corruption sender ", cd.sender,
                     " appears twice in one fault plan");
    if (!sends[cd.sender])
      return str_cat("plan corrupts messages of process ", cd.sender,
                     ", which is not sending this round (there is no "
                     "message whose value could be forged)");
    if (outside_live(cd.sender))
      return str_cat("corruption sender ", cd.sender,
                     " is outside the live set");
    for (const auto& fg : cd.forgeries) {
      if (fg.target >= n)
        return str_cat("forgery target ", fg.target, " of corruption sender ",
                       cd.sender, " is not a process (n=", n, ")");
      if (targets.test(fg.target))
        return str_cat("forgery target ", fg.target, " of corruption sender ",
                       cd.sender, " appears twice in one directive");
      targets.set(fg.target);
    }
    for (const auto& fg : cd.forgeries) targets.reset(fg.target);
    corrupted.set(cd.sender);
  }
  return {};
}

void deliver_into(std::uint32_t n, const RoundTraffic& traffic,
                  const DynBitset& receivers, std::span<Receipt> out) {
  PlanScratch plan;
  check_or_throw(n, traffic, plan);
  DeliveryScratch scratch;
  deliver_checked_into(n, traffic, plan.victims, receivers, out, scratch);
}

void deliver_checked_into(std::uint32_t n, const RoundTraffic& traffic,
                          const DynBitset& victims,
                          const DynBitset& receivers, std::span<Receipt> out,
                          DeliveryScratch& scratch) {
  SYNRAN_REQUIRE(victims.size() == n, "victims mask has wrong size");
  SYNRAN_REQUIRE(receivers.size() == n, "receivers mask has wrong size");
  SYNRAN_REQUIRE(out.size() == n, "receipt span has wrong size");

  // Aggregate over senders that deliver everywhere. Omitted senders stay in
  // the aggregate; their dropped links are subtracted per receiver below.
  Receipt full{};
  for_each_candidate(n, traffic, [&](std::size_t i) {
    if (!traffic.payloads[i].has_value() || victims.test(i)) return;
    accumulate(full, *traffic.payloads[i]);
  });
  receivers.for_each_set([&](std::size_t i) { out[i] = full; });
  if (traffic.plan == nullptr) return;

  // Link-fault application must precede the crash additions: it rebuilds
  // receivers' or_mask from the aggregate senders alone, and the partial
  // crash deliveries then OR their payloads back on top.
  if (!traffic.plan->omissions.empty() || !traffic.plan->corruptions.empty())
    apply_link_faults(n, traffic, receivers, victims, full, scratch, out);
  apply_crash_groups(traffic, receivers, out);
}

void count_into(std::uint32_t n, const RoundTraffic& traffic,
                const DynBitset& receivers, std::span<std::uint32_t> counts,
                PlanScratch& scratch) {
  check_or_throw(n, traffic, scratch);
  SYNRAN_REQUIRE(receivers.size() == n, "receivers mask has wrong size");
  SYNRAN_REQUIRE(counts.size() == n, "count span has wrong size");

  // check_plan left every crash victim a distinct sender, so the senders
  // that deliver everywhere are all the senders but the victims.
  std::uint32_t full = 0;
  for_each_candidate(n, traffic, [&](std::size_t i) {
    full += static_cast<std::uint32_t>(traffic.payloads[i].has_value());
  });
  if (traffic.plan != nullptr)
    full -= static_cast<std::uint32_t>(traffic.plan->crashes.size());
  receivers.for_each_set([&](std::size_t i) { counts[i] = full; });
  if (traffic.plan == nullptr) return;

  for (const auto& o : traffic.plan->omissions) {
    o.drop_for.for_each_set([&](std::size_t r) {
      if (receivers.test(r)) --counts[r];
    });
  }
  for_each_crash_group(traffic.plan->crashes, [&](const SharedMask& mask,
                                                  std::size_t first,
                                                  std::size_t last) {
    const auto group = static_cast<std::uint32_t>(last - first);
    mask.for_each_set([&](std::size_t r) {
      if (receivers.test(r)) counts[r] += group;
    });
  });
}

std::vector<Receipt> deliver(std::uint32_t n, const RoundTraffic& traffic,
                             const DynBitset& receivers) {
  std::vector<Receipt> out(n);
  deliver_into(n, traffic, receivers, out);
  return out;
}

std::vector<Receipt> deliver_naive(std::uint32_t n, const RoundTraffic& traffic,
                                   const DynBitset& receivers) {
  PlanScratch scratch;
  check_or_throw(n, traffic, scratch);
  SYNRAN_REQUIRE(receivers.size() == n, "receivers mask has wrong size");

  // Build the full delivery matrix, then fold.
  std::vector<Receipt> out(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!traffic.payloads[s].has_value()) continue;
    const Payload p = *traffic.payloads[s];
    const SharedMask* mask = nullptr;
    const DynBitset* drop = nullptr;
    const CorruptionDirective* corrupt = nullptr;
    if (traffic.plan != nullptr) {
      for (const auto& c : traffic.plan->crashes) {
        if (c.victim == s) {
          mask = &c.deliver_to;
          break;
        }
      }
      for (const auto& o : traffic.plan->omissions) {
        if (o.sender == s) {
          drop = &o.drop_for;
          break;
        }
      }
      for (const auto& cd : traffic.plan->corruptions) {
        if (cd.sender == s) {
          corrupt = &cd;
          break;
        }
      }
    }
    for (std::uint32_t r = 0; r < n; ++r) {
      if (!receivers.test(r)) continue;
      if (mask != nullptr && !mask->test(r)) continue;
      if (drop != nullptr && drop->test(r)) continue;
      Payload observed = p;
      if (corrupt != nullptr) {
        for (const auto& fg : corrupt->forgeries) {
          if (fg.target == r) {
            observed = fg.forged;
            break;
          }
        }
      }
      accumulate(out[r], observed);
    }
  }
  return out;
}

}  // namespace synran
