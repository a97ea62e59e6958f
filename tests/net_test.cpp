// Unit tests for src/net: payload conventions, fault-plan validation, and
// equivalence of the fast delivery path with the naive reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "net/types.hpp"

namespace synran {
namespace {

std::vector<std::optional<Payload>> bits_payloads(
    const std::vector<int>& bits) {
  std::vector<std::optional<Payload>> out;
  out.reserve(bits.size());
  for (int b : bits) {
    if (b < 0)
      out.emplace_back(std::nullopt);  // silent process
    else
      out.emplace_back(payload::of_bit(b ? Bit::One : Bit::Zero));
  }
  return out;
}

TEST(PayloadTest, OfBitAndSupports) {
  EXPECT_TRUE(payload::supports(payload::of_bit(Bit::One), Bit::One));
  EXPECT_FALSE(payload::supports(payload::of_bit(Bit::One), Bit::Zero));
  EXPECT_TRUE(payload::supports(payload::kSupports0 | payload::kSupports1,
                                Bit::Zero));
}

TEST(FabricTest, FullDeliveryCountsEveryone) {
  const auto payloads = bits_payloads({1, 0, 1, 1});
  DynBitset receivers(4, true);
  RoundTraffic traffic{payloads, nullptr};
  const auto r = deliver(4, traffic, receivers);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(r[i].count, 4u);
    EXPECT_EQ(r[i].ones, 3u);
    EXPECT_EQ(r[i].zeros, 1u);
    EXPECT_EQ(r[i].or_mask, payload::kSupports0 | payload::kSupports1);
  }
}

TEST(FabricTest, SilentSendersAreSkipped) {
  const auto payloads = bits_payloads({1, -1, 0});
  DynBitset receivers(3, true);
  RoundTraffic traffic{payloads, nullptr};
  const auto r = deliver(3, traffic, receivers);
  EXPECT_EQ(r[0].count, 2u);
  EXPECT_EQ(r[0].ones, 1u);
}

TEST(FabricTest, CrashWithEmptyDeliveryHidesMessage) {
  const auto payloads = bits_payloads({1, 1, 0});
  FaultPlan plan;
  plan.crashes.push_back({0, DynBitset(3)});
  DynBitset receivers(3, true);
  receivers.reset(0);  // victim no longer receives
  RoundTraffic traffic{payloads, &plan};
  const auto r = deliver(3, traffic, receivers);
  EXPECT_EQ(r[1].count, 2u);
  EXPECT_EQ(r[1].ones, 1u);
  EXPECT_EQ(r[2].count, 2u);
}

TEST(FabricTest, PartialDeliverySplitsViews) {
  const auto payloads = bits_payloads({1, 0, 0, 0});
  FaultPlan plan;
  DynBitset mask(4);
  mask.set(1);  // only process 1 still hears the crashed 1-sender
  plan.crashes.push_back({0, mask});
  DynBitset receivers(4, true);
  receivers.reset(0);
  RoundTraffic traffic{payloads, &plan};
  const auto r = deliver(4, traffic, receivers);
  EXPECT_EQ(r[1].count, 4u);
  EXPECT_EQ(r[1].ones, 1u);
  EXPECT_EQ(r[2].count, 3u);
  EXPECT_EQ(r[2].ones, 0u);
  EXPECT_EQ(r[3].ones, 0u);
}

TEST(FabricTest, NonReceiversGetNothing) {
  const auto payloads = bits_payloads({1, 1});
  DynBitset receivers(2);
  receivers.set(1);
  RoundTraffic traffic{payloads, nullptr};
  const auto r = deliver(2, traffic, receivers);
  EXPECT_EQ(r[0].count, 0u);
  EXPECT_EQ(r[1].count, 2u);
}

TEST(FabricTest, ValidationRejectsBadPlans) {
  const auto payloads = bits_payloads({1, -1});
  DynBitset receivers(2, true);

  FaultPlan silent_victim;
  silent_victim.crashes.push_back({1, DynBitset(2)});
  RoundTraffic t1{payloads, &silent_victim};
  EXPECT_THROW(deliver(2, t1, receivers), ArgumentError);

  FaultPlan dup;
  dup.crashes.push_back({0, DynBitset(2)});
  dup.crashes.push_back({0, DynBitset(2)});
  RoundTraffic t2{payloads, &dup};
  EXPECT_THROW(deliver(2, t2, receivers), ArgumentError);

  FaultPlan bad_mask;
  bad_mask.crashes.push_back({0, DynBitset(3)});
  RoundTraffic t3{payloads, &bad_mask};
  EXPECT_THROW(deliver(2, t3, receivers), ArgumentError);

  FaultPlan out_of_range;
  out_of_range.crashes.push_back({5, DynBitset(2)});
  RoundTraffic t4{payloads, &out_of_range};
  EXPECT_THROW(deliver(2, t4, receivers), ArgumentError);
}

TEST(FabricTest, WrongPayloadSizeThrows) {
  const auto payloads = bits_payloads({1, 1});
  DynBitset receivers(3, true);
  RoundTraffic traffic{payloads, nullptr};
  EXPECT_THROW(deliver(3, traffic, receivers), ArgumentError);
}

TEST(FabricTest, DeliverIntoWritesOnlyReceiverSlots) {
  // Two crashed 1-senders share one mask, which also reaches a
  // non-receiver (4): only receiver slots may be written.
  const auto payloads = bits_payloads({1, 0, 1, 0, 1});
  FaultPlan plan;
  DynBitset mask(5);
  mask.set(1);
  mask.set(4);
  plan.crashes.push_back({0, mask});
  plan.crashes.push_back({2, mask});
  DynBitset receivers(5, true);
  receivers.reset(0);
  receivers.reset(2);
  receivers.reset(4);
  const Receipt sentinel{77, 88, 99, 0xdead};
  std::vector<Receipt> out(5, sentinel);
  RoundTraffic traffic{payloads, &plan};
  deliver_into(5, traffic, receivers, out);
  const auto naive = deliver_naive(5, traffic, receivers);
  for (std::uint32_t i = 0; i < 5; ++i) {
    if (receivers.test(i))
      EXPECT_EQ(out[i], naive[i]) << "receiver " << i;
    else
      EXPECT_EQ(out[i], sentinel) << "non-receiver " << i;
  }
  EXPECT_EQ(out[1].count, 5u);  // three full senders + both victims
  EXPECT_EQ(out[1].ones, 3u);
  EXPECT_EQ(out[3].count, 3u);  // the full senders only
  EXPECT_EQ(out[3].ones, 1u);
}

TEST(FabricTest, DeliverIntoRejectsWrongSpanSize) {
  const auto payloads = bits_payloads({1, 0, 1});
  DynBitset receivers(3, true);
  RoundTraffic traffic{payloads, nullptr};
  const Receipt sentinel{1, 2, 3, 4};
  std::vector<Receipt> too_short(2, sentinel), too_long(4, sentinel);
  EXPECT_THROW(deliver_into(3, traffic, receivers, too_short), ArgumentError);
  EXPECT_THROW(deliver_into(3, traffic, receivers, too_long), ArgumentError);
  for (const auto& r : too_long) EXPECT_EQ(r, sentinel);
}

/// One round's inputs: the system size, the payloads, the fault plan and
/// the receivers.
struct FabricCase {
  std::uint32_t n = 0;
  std::vector<std::optional<Payload>> payloads;
  FaultPlan plan;
  DynBitset receivers;
};

// count_into is one more input to every equivalence suite below: it writes
// exactly the naive receipts' counts into the receivers' slots and leaves
// every other slot alone, and a malformed plan makes it throw deliver_into's
// ArgumentError.
void expect_counts_match(std::uint32_t n, const RoundTraffic& traffic,
                         const DynBitset& receivers,
                         const std::vector<Receipt>& naive) {
  constexpr std::uint32_t kUntouched = 0xdeadbeef;
  std::vector<std::uint32_t> counts(n, kUntouched);
  PlanScratch scratch;
  count_into(n, traffic, receivers, counts, scratch);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(counts[i], receivers.test(i) ? naive[i].count : kUntouched)
        << "slot " << i << " n=" << n;
  }

  const FaultPlan plan = traffic.plan != nullptr ? *traffic.plan : FaultPlan{};
  std::vector<FaultPlan> malformed(1, plan);
  malformed[0].crashes.push_back({n, DynBitset(n)});  // not a process
  if (!plan.crashes.empty()) {
    malformed.push_back(plan);  // a victim crashed twice
    malformed.back().crashes.push_back(plan.crashes.front());
  }
  if (!plan.omissions.empty()) {
    malformed.push_back(plan);  // a drop set of the wrong size
    malformed.back().omissions.front().drop_for = DynBitset(n + 1);
  }
  for (const FaultPlan& bad : malformed) {
    const RoundTraffic bad_traffic{traffic.payloads, &bad, traffic.live};
    std::vector<Receipt> receipts(n);
    std::string delivered_error;
    try {
      deliver_into(n, bad_traffic, receivers, receipts);
      ADD_FAILURE() << "deliver_into accepted a malformed plan, n=" << n;
    } catch (const ArgumentError& e) {
      delivered_error = e.what();
    }
    try {
      count_into(n, bad_traffic, receivers, counts, scratch);
      ADD_FAILURE() << "count_into accepted a malformed plan, n=" << n;
    } catch (const ArgumentError& e) {
      EXPECT_EQ(std::string(e.what()), delivered_error);
    }
  }
}

// Every equivalence suite below also runs its traffic through scratch a
// caller keeps, the way the engine and the adversaries do: the auditor's
// and the adversaries' PlanScratch and the workspace's DeliveryScratch.
struct KeptScratch {
  PlanScratch plan;
  DeliveryScratch delivery;
};

/// The sizes a kept scratch is carried through: a shrink to one word, a
/// word edge, and a regrowth to the first size.
constexpr std::uint32_t kKeptScratchSizes[] = {200, 3, 65, 200};

/// The kept-scratch path — check_plan, deliver_checked_into with the
/// victims it left, count_into — against deliver_naive, with `kept`
/// carried over from whatever rounds it served before.
void expect_kept_scratch_matches(const FabricCase& c, const DynBitset* live,
                                 KeptScratch& kept) {
  const std::uint32_t n = c.n;
  const RoundTraffic traffic{c.payloads, &c.plan, live};
  const auto naive = deliver_naive(n, traffic, c.receivers);
  ASSERT_EQ(check_plan(n, traffic, kept.plan), "") << "n=" << n;
  const Receipt sentinel{7, 7, 7, 0x7777};
  std::vector<Receipt> into(n, sentinel);
  deliver_checked_into(n, traffic, kept.plan.victims, c.receivers, into,
                       kept.delivery);
  constexpr std::uint32_t kUntouched = 0xdeadbeef;
  std::vector<std::uint32_t> counts(n, kUntouched);
  count_into(n, traffic, c.receivers, counts, kept.plan);
  for (std::uint32_t i = 0; i < n; ++i) {
    const bool receives = c.receivers.test(i);
    EXPECT_EQ(into[i], receives ? naive[i] : sentinel)
        << "slot " << i << " n=" << n;
    EXPECT_EQ(counts[i], receives ? naive[i].count : kUntouched)
        << "slot " << i << " n=" << n;
  }
}

/// Runs two cases `make(k, n)` (k = 0, 1) at each kept-scratch size through
/// one scratch, so every call finds it dirty: left at another n, or by
/// another plan at the same n.
template <typename Make>
void expect_kept_scratch_across_sizes(Make make) {
  KeptScratch kept;
  for (const std::uint32_t n : kKeptScratchSizes)
    for (std::uint64_t k = 0; k < 2; ++k)
      expect_kept_scratch_matches(make(k, n), nullptr, kept);
}

/// A payload bit no generator's true payloads carry (they keep to the low
/// three bits), so its carriers are exactly the senders given it below.
constexpr Payload kRareBit = Payload{1} << 4;

/// Turns `c` into a boundary plan for the fabric's rare-bit or_mask
/// rebuild. kRareBit goes to exactly the senders of the plan's D omission
/// and corruption directives, plus one more full-aggregate sender when
/// `extra_carrier`, and every directive drops its message to one receiver
/// r or forges it without the bit. So r loses all D carriers: the bit must
/// leave r's or_mask at D carriers and stay at D + 1. A plan without link
/// faults first gains an omission with an empty drop set. Returns r, or
/// nullopt when `c` has no receiver or too few spare senders.
std::optional<ProcessId> make_rare_bit_boundary(FabricCase& c,
                                                bool extra_carrier) {
  const std::uint32_t n = c.n;
  std::optional<ProcessId> r;
  c.receivers.for_each_set([&](std::size_t i) {
    if (!r.has_value()) r = static_cast<ProcessId>(i);
  });
  if (!r.has_value()) return std::nullopt;
  DynBitset used(n);
  for (const auto& d : c.plan.crashes) used.set(d.victim);
  for (const auto& d : c.plan.omissions) used.set(d.sender);
  for (const auto& d : c.plan.corruptions) used.set(d.sender);
  std::vector<ProcessId> spare;
  for (ProcessId i = 0; i < n; ++i)
    if (c.payloads[i].has_value() && !used.test(i)) spare.push_back(i);
  if (c.plan.omissions.empty() && c.plan.corruptions.empty()) {
    if (spare.empty()) return std::nullopt;
    c.plan.omissions.push_back({spare.back(), DynBitset(n)});
    spare.pop_back();
  }
  if (extra_carrier) {
    if (spare.empty()) return std::nullopt;
    *c.payloads[spare.front()] |= kRareBit;
  }
  for (auto& o : c.plan.omissions) {
    *c.payloads[o.sender] |= kRareBit;
    o.drop_for.set(*r);
  }
  for (auto& cd : c.plan.corruptions) {
    *c.payloads[cd.sender] |= kRareBit;
    const auto it =
        std::find_if(cd.forgeries.begin(), cd.forgeries.end(),
                     [&](const auto& fg) { return fg.target == *r; });
    if (it == cd.forgeries.end())
      cd.forgeries.push_back({*r, payload::kSupports1});
    else
      it->forged &= ~kRareBit;
  }
  return r;
}

/// The D- and the (D + 1)-carrier boundary plans built from `base`,
/// through the one-shot, the counting and the kept-scratch paths.
void expect_rare_bit_boundaries(const FabricCase& base,
                                const DynBitset* live = nullptr) {
  KeptScratch kept;
  for (const bool extra_carrier : {false, true}) {
    FabricCase c = base;
    const std::optional<ProcessId> r = make_rare_bit_boundary(c, extra_carrier);
    if (!r.has_value()) continue;
    const std::uint32_t n = c.n;
    const RoundTraffic traffic{c.payloads, &c.plan, live};
    const auto naive = deliver_naive(n, traffic, c.receivers);
    EXPECT_EQ((naive[*r].or_mask & kRareBit) != 0, extra_carrier)
        << "receiver " << *r << " n=" << n;
    EXPECT_EQ(deliver(n, traffic, c.receivers), naive) << "n=" << n;
    expect_counts_match(n, traffic, c.receivers, naive);
    expect_kept_scratch_matches(c, live, kept);
  }
}

// Property: fast path == naive path on random traffic.
class FabricEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

/// A random crash-only round drawn from `seed`, over 3 to 62 processes
/// unless `size` fixes n (the rest of the draw is unchanged).
FabricCase random_traffic_case(std::uint64_t seed,
                               std::optional<std::uint32_t> size = {}) {
  Xoshiro256 rng(seed);
  const std::uint32_t drawn = 3 + static_cast<std::uint32_t>(rng.below(60));
  FabricCase c;
  c.n = size.value_or(drawn);
  const std::uint32_t n = c.n;

  std::vector<std::optional<Payload>>& payloads = c.payloads;
  payloads.resize(n);
  std::vector<ProcessId> senders;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.8) {
      payloads[i] = rng.next() & 0x7;  // random low-3-bit payloads
      senders.push_back(i);
    }
  }

  FaultPlan& plan = c.plan;
  DynBitset& receivers = c.receivers;
  receivers = DynBitset(n, true);
  if (!senders.empty()) {
    const std::uint32_t crashes = static_cast<std::uint32_t>(
        rng.below(std::min<std::uint64_t>(senders.size(), 5) + 1));
    for (std::uint32_t k = 0; k < crashes; ++k) {
      const std::size_t j = k + rng.below(senders.size() - k);
      std::swap(senders[k], senders[j]);
      DynBitset mask(n);
      for (std::uint32_t r = 0; r < n; ++r)
        if (rng.flip()) mask.set(r);
      plan.crashes.push_back({senders[k], mask});
      receivers.reset(senders[k]);
    }
  }
  for (std::uint32_t i = 0; i < n; ++i)
    if (rng.uniform() < 0.2) receivers.reset(i);
  return c;
}

TEST_P(FabricEquivalence, FastMatchesNaive) {
  const FabricCase c = random_traffic_case(GetParam());
  const std::uint32_t n = c.n;
  RoundTraffic traffic{c.payloads, &c.plan};
  const auto fast = deliver(n, traffic, c.receivers);
  const auto naive = deliver_naive(n, traffic, c.receivers);
  ASSERT_EQ(fast.size(), naive.size());
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_EQ(fast[i], naive[i]) << "receiver " << i << " n=" << n;
  expect_counts_match(n, traffic, c.receivers, naive);
  expect_rare_bit_boundaries(c);
}

TEST_P(FabricEquivalence, KeptScratchMatchesNaiveAsNChanges) {
  expect_kept_scratch_across_sizes(
      [&](std::uint64_t k, std::uint32_t n) {
        return random_traffic_case(GetParam() + 1000 * k, n);
      });
}

INSTANTIATE_TEST_SUITE_P(RandomTraffic, FabricEquivalence,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(OmissionFabricTest, DropsLinksForChosenReceivers) {
  const auto payloads = bits_payloads({1, 0, 1, 0});
  FaultPlan plan;
  DynBitset drop(4);
  drop.set(1);
  drop.set(2);  // sender 0's message vanishes for receivers 1 and 2
  plan.omissions.push_back({0, drop});
  DynBitset receivers(4, true);
  RoundTraffic traffic{payloads, &plan};
  const auto r = deliver(4, traffic, receivers);
  EXPECT_EQ(r[0].count, 4u);
  EXPECT_EQ(r[1].count, 3u);
  EXPECT_EQ(r[1].ones, 1u);  // only sender 2's 1 remains
  EXPECT_EQ(r[2].count, 3u);
  EXPECT_EQ(r[3].count, 4u);
  EXPECT_EQ(r[3].ones, 2u);
}

TEST(OmissionFabricTest, OrMaskRebuiltExactly) {
  // Senders 0 and 1 are the only kSupports1 carriers; hiding both from
  // receiver 2 must clear that bit in its or_mask, while receiver 3 (which
  // loses only sender 0) keeps it.
  const auto payloads = bits_payloads({1, 1, 0, 0});
  FaultPlan plan;
  DynBitset drop_both(4);
  drop_both.set(2);
  DynBitset drop_one(4);
  drop_one.set(2);
  drop_one.set(3);
  plan.omissions.push_back({1, drop_both});
  plan.omissions.push_back({0, drop_one});
  DynBitset receivers(4, true);
  RoundTraffic traffic{payloads, &plan};
  const auto r = deliver(4, traffic, receivers);
  EXPECT_EQ(r[2].count, 2u);
  EXPECT_EQ(r[2].ones, 0u);
  EXPECT_FALSE(r[2].or_mask & payload::kSupports1);
  EXPECT_TRUE(r[2].or_mask & payload::kSupports0);
  EXPECT_EQ(r[3].count, 3u);
  EXPECT_EQ(r[3].ones, 1u);
  EXPECT_TRUE(r[3].or_mask & payload::kSupports1);
}

TEST(OmissionFabricTest, ValidationRejectsBadOmissions) {
  const auto payloads = bits_payloads({1, -1, 1});
  DynBitset receivers(3, true);

  FaultPlan non_sender;
  non_sender.omissions.push_back({1, DynBitset(3)});
  RoundTraffic t1{payloads, &non_sender};
  EXPECT_THROW(deliver(3, t1, receivers), ArgumentError);

  FaultPlan dup;
  dup.omissions.push_back({0, DynBitset(3)});
  dup.omissions.push_back({0, DynBitset(3)});
  RoundTraffic t2{payloads, &dup};
  EXPECT_THROW(deliver(3, t2, receivers), ArgumentError);

  FaultPlan bad_mask;
  bad_mask.omissions.push_back({0, DynBitset(2)});
  RoundTraffic t3{payloads, &bad_mask};
  EXPECT_THROW(deliver(3, t3, receivers), ArgumentError);

  FaultPlan out_of_range;
  out_of_range.omissions.push_back({7, DynBitset(3)});
  RoundTraffic t4{payloads, &out_of_range};
  EXPECT_THROW(deliver(3, t4, receivers), ArgumentError);

  FaultPlan crash_and_omit;
  crash_and_omit.crashes.push_back({0, DynBitset(3)});
  crash_and_omit.omissions.push_back({0, DynBitset(3)});
  RoundTraffic t5{payloads, &crash_and_omit};
  EXPECT_THROW(deliver(3, t5, receivers), ArgumentError);
}

// Property: fast path == naive path under mixed crash + omission plans.
class OmissionFabricEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

/// A random crash and omission round drawn from `seed`, over 3 to 62
/// processes unless `size` fixes n (the rest of the draw is unchanged).
FabricCase omission_traffic_case(std::uint64_t seed,
                                 std::optional<std::uint32_t> size = {}) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const std::uint32_t drawn = 3 + static_cast<std::uint32_t>(rng.below(60));
  FabricCase c;
  c.n = size.value_or(drawn);
  const std::uint32_t n = c.n;

  std::vector<std::optional<Payload>>& payloads = c.payloads;
  payloads.resize(n);
  std::vector<ProcessId> senders;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.8) {
      payloads[i] = rng.next() & 0x7;  // random low-3-bit payloads
      senders.push_back(i);
    }
  }

  FaultPlan& plan = c.plan;
  DynBitset& receivers = c.receivers;
  receivers = DynBitset(n, true);
  std::size_t used = 0;  // prefix of `senders` consumed by crash directives
  if (!senders.empty()) {
    const std::uint32_t crashes = static_cast<std::uint32_t>(
        rng.below(std::min<std::uint64_t>(senders.size(), 4) + 1));
    for (std::uint32_t k = 0; k < crashes; ++k) {
      const std::size_t j = used + rng.below(senders.size() - used);
      std::swap(senders[used], senders[j]);
      DynBitset mask(n);
      for (std::uint32_t r = 0; r < n; ++r)
        if (rng.flip()) mask.set(r);
      plan.crashes.push_back({senders[used], mask});
      receivers.reset(senders[used]);
      ++used;
    }
  }
  // Omissions target live senders only (the remaining suffix of `senders`).
  if (used < senders.size()) {
    const std::uint32_t omissions = static_cast<std::uint32_t>(rng.below(
        std::min<std::uint64_t>(senders.size() - used, 6) + 1));
    for (std::uint32_t k = 0; k < omissions; ++k) {
      const std::size_t j = used + rng.below(senders.size() - used);
      std::swap(senders[used], senders[j]);
      DynBitset drop(n);
      for (std::uint32_t r = 0; r < n; ++r)
        if (rng.uniform() < 0.4) drop.set(r);
      plan.omissions.push_back({senders[used], drop});
      ++used;
    }
  }
  for (std::uint32_t i = 0; i < n; ++i)
    if (rng.uniform() < 0.2) receivers.reset(i);
  return c;
}

TEST_P(OmissionFabricEquivalence, FastMatchesNaive) {
  const FabricCase c = omission_traffic_case(GetParam());
  const std::uint32_t n = c.n;
  RoundTraffic traffic{c.payloads, &c.plan};
  const auto fast = deliver(n, traffic, c.receivers);
  const auto naive = deliver_naive(n, traffic, c.receivers);
  ASSERT_EQ(fast.size(), naive.size());
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_EQ(fast[i], naive[i]) << "receiver " << i << " n=" << n;
  expect_counts_match(n, traffic, c.receivers, naive);
  expect_rare_bit_boundaries(c);
}

TEST_P(OmissionFabricEquivalence, KeptScratchMatchesNaiveAsNChanges) {
  expect_kept_scratch_across_sizes(
      [&](std::uint64_t k, std::uint32_t n) {
        return omission_traffic_case(GetParam() + 1000 * k, n);
      });
}

INSTANTIATE_TEST_SUITE_P(MixedFaultTraffic, OmissionFabricEquivalence,
                         ::testing::Range<std::uint64_t>(1, 61));

TEST(CorruptFabricTest, ForgerySubstitutesPayloadPerReceiver) {
  // Sender 0 truly sends 1; receivers 1 and 2 instead observe a forged 0
  // (receiver 2's forgery also carries a high marker bit). The message still
  // arrives, so counts are untouched — only the value flips.
  const auto payloads = bits_payloads({1, 0, 1, 0});
  FaultPlan plan;
  CorruptionDirective cd;
  cd.sender = 0;
  cd.forgeries.push_back({1, payload::kSupports0});
  cd.forgeries.push_back({2, payload::kSupports0 | (Payload{1} << 8)});
  plan.corruptions.push_back(std::move(cd));
  DynBitset receivers(4, true);
  RoundTraffic traffic{payloads, &plan};
  const auto r = deliver(4, traffic, receivers);
  EXPECT_EQ(r[0].count, 4u);  // untouched receiver sees the truth
  EXPECT_EQ(r[0].ones, 2u);
  EXPECT_EQ(r[1].count, 4u);  // forged link still delivers a message
  EXPECT_EQ(r[1].ones, 1u);
  EXPECT_EQ(r[1].zeros, 3u);
  EXPECT_EQ(r[2].count, 4u);
  EXPECT_EQ(r[2].ones, 1u);
  EXPECT_TRUE(r[2].or_mask & (Payload{1} << 8));
  EXPECT_FALSE(r[1].or_mask & (Payload{1} << 8));
  EXPECT_EQ(r[3], r[0]);
}

TEST(CorruptFabricTest, OrMaskRebuiltAfterForgery) {
  // Sender 0 is the sole kSupports1 carrier; forging its message to
  // receiver 1 as a pure 0 must clear kSupports1 from that receiver's
  // or_mask while everyone else keeps it.
  const auto payloads = bits_payloads({1, 0, 0});
  FaultPlan plan;
  CorruptionDirective cd;
  cd.sender = 0;
  cd.forgeries.push_back({1, payload::kSupports0});
  plan.corruptions.push_back(std::move(cd));
  DynBitset receivers(3, true);
  RoundTraffic traffic{payloads, &plan};
  const auto r = deliver(3, traffic, receivers);
  EXPECT_FALSE(r[1].or_mask & payload::kSupports1);
  EXPECT_TRUE(r[1].or_mask & payload::kSupports0);
  EXPECT_TRUE(r[0].or_mask & payload::kSupports1);
  EXPECT_TRUE(r[2].or_mask & payload::kSupports1);
}

TEST(CorruptFabricTest, ValidationRejectsBadCorruptions) {
  const auto payloads = bits_payloads({1, -1, 1});
  DynBitset receivers(3, true);
  const auto one_forgery = [](ProcessId sender, ProcessId target) {
    CorruptionDirective cd;
    cd.sender = sender;
    cd.forgeries.push_back({target, payload::kSupports0});
    return cd;
  };

  FaultPlan non_sender;  // silent processes have nothing to corrupt
  non_sender.corruptions.push_back(one_forgery(1, 0));
  RoundTraffic t1{payloads, &non_sender};
  EXPECT_THROW(deliver(3, t1, receivers), ArgumentError);

  FaultPlan dup_sender;
  dup_sender.corruptions.push_back(one_forgery(0, 1));
  dup_sender.corruptions.push_back(one_forgery(0, 2));
  RoundTraffic t2{payloads, &dup_sender};
  EXPECT_THROW(deliver(3, t2, receivers), ArgumentError);

  FaultPlan dup_target;
  dup_target.corruptions.push_back(one_forgery(0, 1));
  dup_target.corruptions.back().forgeries.push_back(
      {1, payload::kSupports1});
  RoundTraffic t3{payloads, &dup_target};
  EXPECT_THROW(deliver(3, t3, receivers), ArgumentError);

  FaultPlan sender_range;
  sender_range.corruptions.push_back(one_forgery(9, 0));
  RoundTraffic t4{payloads, &sender_range};
  EXPECT_THROW(deliver(3, t4, receivers), ArgumentError);

  FaultPlan target_range;
  target_range.corruptions.push_back(one_forgery(0, 9));
  RoundTraffic t5{payloads, &target_range};
  EXPECT_THROW(deliver(3, t5, receivers), ArgumentError);

  FaultPlan crash_overlap;
  crash_overlap.crashes.push_back({0, DynBitset(3)});
  crash_overlap.corruptions.push_back(one_forgery(0, 1));
  RoundTraffic t6{payloads, &crash_overlap};
  EXPECT_THROW(deliver(3, t6, receivers), ArgumentError);

  FaultPlan omit_overlap;
  omit_overlap.omissions.push_back({0, DynBitset(3)});
  omit_overlap.corruptions.push_back(one_forgery(0, 1));
  RoundTraffic t7{payloads, &omit_overlap};
  EXPECT_THROW(deliver(3, t7, receivers), ArgumentError);
}

// Property: fast path == naive path under mixed crash + omission +
// corruption plans, including forged payload bits outside the value
// conventions (they must round-trip through the or_mask rebuild exactly).
class CorruptFabricEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

/// A random crash, omission and corruption round drawn from `seed`, over 3
/// to 62 processes unless `size` fixes n (the rest of the draw is
/// unchanged).
FabricCase corrupt_traffic_case(std::uint64_t seed,
                                std::optional<std::uint32_t> size = {}) {
  Xoshiro256 rng(seed * 0xd1b54a32d192ed03ULL + 1);
  const std::uint32_t drawn = 3 + static_cast<std::uint32_t>(rng.below(60));
  FabricCase c;
  c.n = size.value_or(drawn);
  const std::uint32_t n = c.n;

  std::vector<std::optional<Payload>>& payloads = c.payloads;
  payloads.resize(n);
  std::vector<ProcessId> senders;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.8) {
      payloads[i] = rng.next() & 0x7;  // random low-3-bit payloads
      senders.push_back(i);
    }
  }

  FaultPlan& plan = c.plan;
  DynBitset& receivers = c.receivers;
  receivers = DynBitset(n, true);
  std::size_t used = 0;  // prefix of `senders` consumed by directives so far
  if (!senders.empty()) {
    const std::uint32_t crashes = static_cast<std::uint32_t>(
        rng.below(std::min<std::uint64_t>(senders.size(), 3) + 1));
    for (std::uint32_t k = 0; k < crashes; ++k) {
      const std::size_t j = used + rng.below(senders.size() - used);
      std::swap(senders[used], senders[j]);
      DynBitset mask(n);
      for (std::uint32_t r = 0; r < n; ++r)
        if (rng.flip()) mask.set(r);
      plan.crashes.push_back({senders[used], mask});
      receivers.reset(senders[used]);
      ++used;
    }
  }
  if (used < senders.size()) {
    const std::uint32_t omissions = static_cast<std::uint32_t>(rng.below(
        std::min<std::uint64_t>(senders.size() - used, 4) + 1));
    for (std::uint32_t k = 0; k < omissions; ++k) {
      const std::size_t j = used + rng.below(senders.size() - used);
      std::swap(senders[used], senders[j]);
      DynBitset drop(n);
      for (std::uint32_t r = 0; r < n; ++r)
        if (rng.uniform() < 0.4) drop.set(r);
      plan.omissions.push_back({senders[used], drop});
      ++used;
    }
  }
  // Corruptions claim live senders disjoint from the crash and omission
  // prefixes; forged payloads roam a wider bit range than the true ones.
  if (used < senders.size()) {
    const std::uint32_t corruptions = static_cast<std::uint32_t>(rng.below(
        std::min<std::uint64_t>(senders.size() - used, 4) + 1));
    for (std::uint32_t k = 0; k < corruptions; ++k) {
      const std::size_t j = used + rng.below(senders.size() - used);
      std::swap(senders[used], senders[j]);
      CorruptionDirective cd;
      cd.sender = senders[used];
      DynBitset targeted(n);
      const std::uint32_t forgeries =
          1 + static_cast<std::uint32_t>(rng.below(n));
      for (std::uint32_t f = 0; f < forgeries; ++f) {
        const auto target = static_cast<ProcessId>(rng.below(n));
        if (targeted.test(target)) continue;
        targeted.set(target);
        cd.forgeries.push_back({target, rng.next() & 0x3ff});
      }
      plan.corruptions.push_back(std::move(cd));
      ++used;
    }
  }
  for (std::uint32_t i = 0; i < n; ++i)
    if (rng.uniform() < 0.2) receivers.reset(i);
  return c;
}

TEST_P(CorruptFabricEquivalence, FastMatchesNaive) {
  const FabricCase c = corrupt_traffic_case(GetParam());
  const std::uint32_t n = c.n;
  RoundTraffic traffic{c.payloads, &c.plan};
  const auto fast = deliver(n, traffic, c.receivers);
  const auto naive = deliver_naive(n, traffic, c.receivers);
  ASSERT_EQ(fast.size(), naive.size());
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_EQ(fast[i], naive[i]) << "receiver " << i << " n=" << n;
  expect_counts_match(n, traffic, c.receivers, naive);
  expect_rare_bit_boundaries(c);
}

TEST_P(CorruptFabricEquivalence, KeptScratchMatchesNaiveAsNChanges) {
  expect_kept_scratch_across_sizes(
      [&](std::uint64_t k, std::uint32_t n) {
        return corrupt_traffic_case(GetParam() + 1000 * k, n);
      });
}

INSTANTIATE_TEST_SUITE_P(MixedFaultTraffic, CorruptFabricEquivalence,
                         ::testing::Range<std::uint64_t>(1, 66));

// Property: fast path == naive path when crash victims share masks, the
// shape the grouped crash path folds. Every victim's mask comes from a pool
// of two or three (drawn from the empty mask, the all-ones mask and two
// random ones), so consecutive victims form runs of equal masks, distinct
// masks interleave, and masks reach non-receivers; omissions and
// corruptions ride along. n spans one to four bitset words, word edges
// included.
using GroupedCrashCase = FabricCase;

constexpr std::uint64_t kGroupedCrashSeeds = 60;

/// `size`, when given, fixes n; the rest of the draw is unchanged.
GroupedCrashCase grouped_crash_case(std::uint64_t seed,
                                    std::optional<std::uint32_t> size = {}) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 5);
  constexpr std::uint32_t kEdgeSizes[] = {64, 65, 128, 3, 200};
  GroupedCrashCase c;
  c.n = seed <= std::size(kEdgeSizes)
            ? kEdgeSizes[seed - 1]
            : 3 + static_cast<std::uint32_t>(rng.below(198));
  c.n = size.value_or(c.n);
  const std::uint32_t n = c.n;

  c.payloads.resize(n);
  std::vector<ProcessId> senders;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.85) {
      c.payloads[i] = rng.next() & 0x7;
      senders.push_back(i);
    }
  }

  std::vector<DynBitset> pool{DynBitset(n), DynBitset(n, true)};
  for (int k = 0; k < 2; ++k) {
    DynBitset m(n);
    for (std::uint32_t r = 0; r < n; ++r)
      if (rng.flip()) m.set(r);
    pool.push_back(std::move(m));
  }
  for (std::size_t k = 0; k + 1 < pool.size(); ++k)
    std::swap(pool[k], pool[k + rng.below(pool.size() - k)]);
  pool.resize(2 + rng.below(2));

  c.receivers = DynBitset(n, true);
  std::size_t used = 0;  // prefix of `senders` consumed by directives so far
  const std::size_t crashes = rng.below(senders.size() + 1);
  std::size_t pick = rng.below(pool.size());
  for (; used < crashes; ++used) {
    const std::size_t j = used + rng.below(senders.size() - used);
    std::swap(senders[used], senders[j]);
    if (rng.uniform() < 0.3) pick = rng.below(pool.size());
    c.plan.crashes.push_back({senders[used], pool[pick]});
    c.receivers.reset(senders[used]);
  }
  if (used < senders.size()) {
    const std::size_t omissions =
        rng.below(std::min<std::size_t>(senders.size() - used, 4) + 1);
    for (std::size_t k = 0; k < omissions; ++k, ++used) {
      const std::size_t j = used + rng.below(senders.size() - used);
      std::swap(senders[used], senders[j]);
      DynBitset drop(n);
      for (std::uint32_t r = 0; r < n; ++r)
        if (rng.uniform() < 0.4) drop.set(r);
      c.plan.omissions.push_back({senders[used], drop});
    }
  }
  if (used < senders.size()) {
    const std::size_t corruptions =
        rng.below(std::min<std::size_t>(senders.size() - used, 3) + 1);
    for (std::size_t k = 0; k < corruptions; ++k, ++used) {
      const std::size_t j = used + rng.below(senders.size() - used);
      std::swap(senders[used], senders[j]);
      CorruptionDirective cd;
      cd.sender = senders[used];
      DynBitset targeted(n);
      for (std::uint32_t f = 0; f < 8; ++f) {
        const auto target = static_cast<ProcessId>(rng.below(n));
        if (targeted.test(target)) continue;
        targeted.set(target);
        cd.forgeries.push_back({target, rng.next() & 0x3ff});
      }
      c.plan.corruptions.push_back(std::move(cd));
    }
  }
  for (std::uint32_t i = 0; i < n; ++i)
    if (rng.uniform() < 0.2) c.receivers.reset(i);
  return c;
}

TEST(GroupedCrashFabricTest, GeneratorReachesSharedAndWideMasks) {
  // The property below is only as strong as its plans: across its seeds
  // they must hold multi-victim groups (some of them on multi-word masks),
  // a mask that recurs after a different one, and the empty and all-ones
  // masks.
  int grouped = 0, wide_grouped = 0, interleaved = 0, empty = 0, full = 0;
  for (std::uint64_t seed = 1; seed <= kGroupedCrashSeeds; ++seed) {
    const GroupedCrashCase c = grouped_crash_case(seed);
    const auto& cr = c.plan.crashes;
    bool has_group = false, has_interleave = false;
    for (std::size_t k = 1; k < cr.size(); ++k) {
      if (cr[k].deliver_to == cr[k - 1].deliver_to) has_group = true;
      if (k >= 2 && cr[k].deliver_to == cr[k - 2].deliver_to &&
          !(cr[k].deliver_to == cr[k - 1].deliver_to))
        has_interleave = true;
    }
    grouped += has_group;
    wide_grouped += has_group && c.n > 64;
    interleaved += has_interleave;
    for (const auto& d : cr) {
      if (d.deliver_to.none()) ++empty;
      if (d.deliver_to.count() == c.n) ++full;
    }
  }
  EXPECT_GE(grouped, 30);
  EXPECT_GE(wide_grouped, 20);
  EXPECT_GE(interleaved, 10);
  EXPECT_GT(empty, 0);
  EXPECT_GT(full, 0);
}

class GroupedCrashFabricEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupedCrashFabricEquivalence, FastMatchesNaive) {
  const GroupedCrashCase c = grouped_crash_case(GetParam());
  const std::uint32_t n = c.n;
  RoundTraffic traffic{c.payloads, &c.plan};
  const auto naive = deliver_naive(n, traffic, c.receivers);
  const auto fast = deliver(n, traffic, c.receivers);
  ASSERT_EQ(fast.size(), naive.size());
  const Receipt sentinel{7, 7, 7, 0x7777};
  std::vector<Receipt> into(n, sentinel);
  deliver_into(n, traffic, c.receivers, into);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(fast[i], naive[i]) << "receiver " << i << " n=" << n;
    EXPECT_EQ(into[i], c.receivers.test(i) ? naive[i] : sentinel)
        << "slot " << i << " n=" << n;
  }
  expect_counts_match(n, traffic, c.receivers, naive);
  expect_rare_bit_boundaries(c);
}

TEST_P(GroupedCrashFabricEquivalence, KeptScratchMatchesNaiveAsNChanges) {
  expect_kept_scratch_across_sizes(
      [&](std::uint64_t k, std::uint32_t n) {
        return grouped_crash_case(GetParam() + kGroupedCrashSeeds * k, n);
      });
}

INSTANTIATE_TEST_SUITE_P(
    GroupedCrashTraffic, GroupedCrashFabricEquivalence,
    ::testing::Range<std::uint64_t>(1, kGroupedCrashSeeds + 1));

// ------------------------------------------------------------- SharedMask

TEST(SharedMaskTest, ConstructsImplicitlyFromADynBitset) {
  static_assert(std::is_convertible_v<DynBitset, SharedMask>);
  static_assert(std::is_convertible_v<const DynBitset&, SharedMask>);
  DynBitset bits(70);
  bits.set(3);
  bits.set(69);
  const CrashDirective c{4, bits};  // the aggregate initialiser still works
  EXPECT_EQ(c.deliver_to.bits(), bits);
  EXPECT_EQ(c.deliver_to.size(), 70u);
  EXPECT_TRUE(c.deliver_to.test(69));
  EXPECT_FALSE(c.deliver_to.test(4));
  EXPECT_EQ(c.deliver_to.count(), 2u);
  EXPECT_EQ(c.deliver_to.count_and(DynBitset(70, true)), 2u);
  EXPECT_TRUE(c.deliver_to.any());
  EXPECT_FALSE(c.deliver_to.none());
  std::vector<std::size_t> seen;
  c.deliver_to.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 69}));
  bits.set(5);  // the handle holds its own copy
  EXPECT_EQ(c.deliver_to.count(), 2u);
}

TEST(SharedMaskTest, DefaultIsEmptyWithSizeZero) {
  const SharedMask none;
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.count(), 0u);
  EXPECT_TRUE(none.none());
  EXPECT_EQ(none, SharedMask());
  EXPECT_EQ(none, SharedMask(DynBitset()));
  EXPECT_FALSE(none == SharedMask(DynBitset(1)));
}

TEST(SharedMaskTest, CopiesShareStorage) {
  const SharedMask a = DynBitset(130, true);
  const SharedMask b = a;
  SharedMask c;
  c = b;
  EXPECT_EQ(&a.bits(), &b.bits());
  EXPECT_EQ(&a.bits(), &c.bits());
  const SharedMask moved = std::move(c);
  EXPECT_EQ(&moved.bits(), &a.bits());
}

TEST(SharedMaskTest, EqualityByIdentityAndByContent) {
  DynBitset bits(65);
  bits.set(64);
  const SharedMask a = bits;
  const SharedMask same = a;
  const SharedMask twin = bits;  // equal words, separate storage
  DynBitset other_bits(65);
  other_bits.set(63);
  const SharedMask other = other_bits;
  EXPECT_EQ(&a.bits(), &same.bits());
  EXPECT_NE(&a.bits(), &twin.bits());
  EXPECT_EQ(a, same);
  EXPECT_EQ(a, twin);
  EXPECT_FALSE(a == other);
  EXPECT_FALSE(a == SharedMask(DynBitset(64)));  // sizes differ
}

// Property: the fast path equals the naive one, and a caller-supplied live
// set changes nothing, when crash directives share mask handles. Each plan
// draws its masks from a palette of handles: the empty and all-ones masks,
// two random ones, and a twin of one of them (equal words, separate
// storage). Directives reuse a handle in runs and after other handles
// (A, B, A), so grouping by identity and by content are both exercised;
// omissions and corruptions ride along. `live` is given as exactly the
// senders, as the senders plus random extras, and as all ones.
struct SharedMaskCase {
  std::uint32_t n = 0;
  std::vector<std::optional<Payload>> payloads;
  FaultPlan plan;
  DynBitset receivers;
  DynBitset senders;
  std::vector<std::size_t> palette_index;  ///< per crash directive
};

constexpr std::uint32_t kSharedMaskSizes[] = {3, 63, 64, 65, 130, 200};
constexpr std::uint64_t kSharedMaskTrials = 12;

SharedMaskCase shared_mask_case(std::uint32_t n, std::uint64_t trial) {
  Xoshiro256 rng(n * 0x9e3779b97f4a7c15ULL + trial * 31 + 17);
  SharedMaskCase c;
  c.n = n;
  c.payloads.resize(n);
  c.senders = DynBitset(n);
  std::vector<ProcessId> senders;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.8) {
      c.payloads[i] = rng.next() & 0x7;
      c.senders.set(i);
      senders.push_back(i);
    }
  }
  std::vector<SharedMask> palette{DynBitset(n), DynBitset(n, true)};
  for (int k = 0; k < 2; ++k) {
    DynBitset m(n);
    for (std::uint32_t r = 0; r < n; ++r)
      if (rng.flip()) m.set(r);
    palette.emplace_back(std::move(m));
  }
  palette.emplace_back(palette[2 + rng.below(2)].bits());  // a twin

  c.receivers = DynBitset(n, true);
  std::size_t used = 0;
  const std::size_t crashes = rng.below(senders.size() + 1);
  while (used < crashes) {
    const std::size_t pick = rng.below(palette.size());
    const std::size_t run = 1 + rng.below(4);
    for (std::size_t k = 0; k < run && used < crashes; ++k, ++used) {
      const std::size_t j = used + rng.below(senders.size() - used);
      std::swap(senders[used], senders[j]);
      c.plan.crashes.push_back({senders[used], palette[pick]});
      c.palette_index.push_back(pick);
      c.receivers.reset(senders[used]);
    }
  }
  if (used < senders.size() && rng.flip()) {
    const std::size_t j = used + rng.below(senders.size() - used);
    std::swap(senders[used], senders[j]);
    DynBitset drop(n);
    for (std::uint32_t r = 0; r < n; ++r)
      if (rng.uniform() < 0.3) drop.set(r);
    c.plan.omissions.push_back({senders[used], drop});
    ++used;
  }
  if (used < senders.size() && rng.flip()) {
    CorruptionDirective cd;
    cd.sender = senders[used + rng.below(senders.size() - used)];
    cd.forgeries.push_back({static_cast<ProcessId>(rng.below(n)),
                            rng.next() & 0x3ff});
    c.plan.corruptions.push_back(std::move(cd));
  }
  for (std::uint32_t i = 0; i < n; ++i)
    if (rng.uniform() < 0.2) c.receivers.reset(i);
  return c;
}

TEST(SharedMaskFabricTest, GeneratorReachesSharedTwinAndEdgeMasks) {
  int shared_runs = 0, interleaved = 0, twins = 0, empty = 0, full = 0;
  for (const std::uint32_t n : kSharedMaskSizes) {
    for (std::uint64_t trial = 0; trial < kSharedMaskTrials; ++trial) {
      const SharedMaskCase c = shared_mask_case(n, trial);
      const auto& cr = c.plan.crashes;
      const auto shared = [&](std::size_t a, std::size_t b) {
        return &cr[a].deliver_to.bits() == &cr[b].deliver_to.bits();
      };
      for (std::size_t k = 1; k < cr.size(); ++k) {
        if (shared(k, k - 1)) ++shared_runs;
        if (!shared(k, k - 1) && cr[k].deliver_to == cr[k - 1].deliver_to)
          ++twins;
        for (std::size_t e = 0; e + 1 < k; ++e) {
          if (shared(e, k) && !shared(k - 1, k)) {
            ++interleaved;
            break;
          }
        }
      }
      for (const auto& d : cr) {
        if (d.deliver_to.none()) ++empty;
        if (d.deliver_to.count() == n) ++full;
      }
    }
  }
  EXPECT_GE(shared_runs, 20);
  EXPECT_GE(interleaved, 10);
  EXPECT_GE(twins, 1);
  EXPECT_GT(empty, 0);
  EXPECT_GT(full, 0);
}

class SharedMaskFabricEquivalence
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SharedMaskFabricEquivalence, LivePathMatchesNullPathAndNaive) {
  const std::uint32_t n = GetParam();
  for (std::uint64_t trial = 0; trial < kSharedMaskTrials; ++trial) {
    const SharedMaskCase c = shared_mask_case(n, trial);
    const RoundTraffic null_live{c.payloads, &c.plan};
    const auto naive = deliver_naive(n, null_live, c.receivers);
    const auto fast = deliver(n, null_live, c.receivers);
    for (std::uint32_t i = 0; i < n; ++i)
      ASSERT_EQ(fast[i], naive[i]) << "n=" << n << " trial " << trial
                                   << " receiver " << i;
    expect_counts_match(n, null_live, c.receivers, naive);

    Xoshiro256 rng(trial + 101);
    DynBitset extras = c.senders;
    for (std::uint32_t i = 0; i < n; ++i)
      if (rng.flip()) extras.set(i);
    const DynBitset everyone(n, true);
    const std::array<const DynBitset*, 3> lives{&c.senders, &extras,
                                                &everyone};
    for (const DynBitset* live : lives) {
      const RoundTraffic with_live{c.payloads, &c.plan, live};
      EXPECT_EQ(deliver_naive(n, with_live, c.receivers), naive);
      expect_counts_match(n, with_live, c.receivers, naive);
      const Receipt sentinel{7, 7, 7, 0x7777};
      std::vector<Receipt> into(n, sentinel);
      deliver_into(n, with_live, c.receivers, into);
      for (std::uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(into[i], c.receivers.test(i) ? fast[i] : sentinel)
            << "n=" << n << " trial " << trial << " live "
            << live->count() << " slot " << i;
      }
    }
    expect_rare_bit_boundaries(
        FabricCase{n, c.payloads, c.plan, c.receivers}, &c.senders);
  }
}

/// The plan of a shared-mask case, with its senders as the live set.
struct SharedMaskRound {
  FabricCase round;
  DynBitset live;
};

SharedMaskRound shared_mask_round(std::uint32_t n, std::uint64_t trial) {
  SharedMaskCase c = shared_mask_case(n, trial);
  return {FabricCase{n, std::move(c.payloads), std::move(c.plan),
                     std::move(c.receivers)},
          std::move(c.senders)};
}

TEST_P(SharedMaskFabricEquivalence, KeptScratchMatchesNaiveAsNChanges) {
  // Each parameter draws its own trials; the sizes are the fixed sequence.
  const std::uint64_t first = kSharedMaskTrials + 2 * GetParam();
  KeptScratch null_live, with_live;
  for (const std::uint32_t n : kKeptScratchSizes) {
    for (std::uint64_t k = 0; k < 2; ++k) {
      const SharedMaskRound r = shared_mask_round(n, first + k);
      expect_kept_scratch_matches(r.round, nullptr, null_live);
      expect_kept_scratch_matches(r.round, &r.live, with_live);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SharedMaskTraffic, SharedMaskFabricEquivalence,
                         ::testing::ValuesIn(kSharedMaskSizes));

TEST(RareBitBoundaryTest, EverySuiteHostsBothBoundaries) {
  // The boundary inputs above are only as strong as the cases that host
  // them: each suite's generator must host both boundaries for most of its
  // seeds.
  const auto hosted = [](const FabricCase& c) {
    FabricCase at_d = c, past_d = c;
    return make_rare_bit_boundary(at_d, false).has_value() &&
           make_rare_bit_boundary(past_d, true).has_value();
  };
  int crash_only = 0, omission = 0, corrupt = 0, grouped = 0, shared = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    crash_only += hosted(random_traffic_case(seed));
    omission += hosted(omission_traffic_case(seed));
    corrupt += hosted(corrupt_traffic_case(seed));
    grouped += hosted(grouped_crash_case(seed));
  }
  for (const std::uint32_t n : kSharedMaskSizes)
    for (std::uint64_t trial = 0; trial < kSharedMaskTrials; ++trial)
      shared += hosted(shared_mask_round(n, trial).round);
  EXPECT_GE(crash_only, 30);
  EXPECT_GE(omission, 30);
  EXPECT_GE(corrupt, 30);
  EXPECT_GE(grouped, 20);
  EXPECT_GE(shared, 40);
}

TEST(SharedMaskFabricTest, LiveSetMustCoverEveryDirectiveSender) {
  const auto payloads = bits_payloads({1, 0, 1, 0});
  DynBitset receivers(4, true);
  DynBitset live(4, true);
  live.reset(2);

  FaultPlan crash;
  crash.crashes.push_back({2, DynBitset(4)});
  receivers.reset(2);
  EXPECT_THROW(deliver(4, RoundTraffic{payloads, &crash, &live}, receivers),
               ArgumentError);
  FaultPlan omit;
  omit.omissions.push_back({2, DynBitset(4)});
  EXPECT_THROW(deliver(4, RoundTraffic{payloads, &omit, &live}, receivers),
               ArgumentError);
  FaultPlan corrupt;
  corrupt.corruptions.push_back({2, {{0, payload::kSupports1}}});
  EXPECT_THROW(deliver(4, RoundTraffic{payloads, &corrupt, &live}, receivers),
               ArgumentError);

  const DynBitset short_live(3, true);
  EXPECT_THROW(
      deliver(4, RoundTraffic{payloads, nullptr, &short_live}, receivers),
      ArgumentError);
  // A sender outside `live` with no directive is simply not walked: `live`
  // is the caller's promise, and the engine's auditor recounts deliveries
  // without it.
  const auto r = deliver(4, RoundTraffic{payloads, nullptr, &live}, receivers);
  EXPECT_EQ(r[0].count, 3u);
}

}  // namespace
}  // namespace synran
