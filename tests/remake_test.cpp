// ProcessFactory::remake: a process kept from an earlier run and rebuilt in
// place must be exactly what make() returns. Each of the four factories
// rebuilds a process driven part-way (decided, halted, and for SynRan into
// its deterministic stage), and the rebuilt process then steps in lockstep
// with a fresh one over the same receipts and coins. A factory declines a
// process of another type and leaves it untouched, and SynRan recomputes
// its hand-off threshold when n changes.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "net/types.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/kfloodmin.hpp"
#include "protocols/leadercoin.hpp"
#include "protocols/synran.hpp"
#include "sim/process.hpp"

namespace synran {
namespace {

/// One factory under test and the payloads its processes exchange, from
/// which the receipts below are folded.
struct Case {
  std::string name;
  std::shared_ptr<const ProcessFactory> factory;
  std::vector<Payload> alphabet;
  std::uint32_t n;
};

std::vector<Case> cases() {
  using payload::kDeterministicFlag;
  using payload::kSupports0;
  using payload::kSupports1;
  const std::vector<Payload> synran_alphabet = {
      kSupports0, kSupports1, kSupports0 | kDeterministicFlag,
      kSupports1 | kDeterministicFlag};
  SynRanOptions symmetric;
  symmetric.coin_rule = CoinRule::Symmetric;
  SynRanOptions no_handoff;
  no_handoff.det_handoff = false;
  const Payload coin1 = LeaderCoinProcess::kLeaderCoinOne;
  const Payload coin0 = LeaderCoinProcess::kLeaderCoinZero;
  return {
      {"synran", std::make_shared<SynRanFactory>(), synran_alphabet, 48},
      {"benor-sym", std::make_shared<SynRanFactory>(symmetric),
       synran_alphabet, 48},
      {"synran-nodet", std::make_shared<SynRanFactory>(no_handoff),
       synran_alphabet, 48},
      {"floodmin", std::make_shared<FloodMinFactory>(FloodMinOptions{4, false}),
       {kSupports0, kSupports1, kSupports0 | kSupports1}, 16},
      {"floodmin-early",
       std::make_shared<FloodMinFactory>(FloodMinOptions{4, true}),
       {kSupports0, kSupports1, kSupports0 | kSupports1}, 16},
      {"kfloodmin-hardened",
       std::make_shared<KFloodMinFactory>(KFloodMinOptions{4, 4, 2}),
       {(1u << 8) | kSupports0, (2u << 8) | kSupports1,
        (4u << 8) | kSupports1, (9u << 8) | kSupports0},
       16},
      {"leadercoin", std::make_shared<LeaderCoinFactory>(),
       {kSupports0, kSupports1, kSupports0 | coin1, kSupports1 | coin0}, 16},
  };
}

/// `m` payloads drawn from `alphabet`, folded as the fabric folds them.
Receipt fold(const std::vector<Payload>& alphabet, std::uint32_t m,
             Xoshiro256& rng) {
  Receipt r;
  for (std::uint32_t k = 0; k < m; ++k) {
    const Payload p = alphabet[rng.below(alphabet.size())];
    ++r.count;
    if (p & payload::kSupports1) ++r.ones;
    if (p & payload::kSupports0) ++r.zeros;
    r.or_mask |= p;
  }
  return r;
}

/// Steps `p` with receipts from `next` (round 1 gets none) until `done`
/// holds or `p` halts; returns whether `done` was reached.
bool drive(Process& p, const std::function<Receipt(std::uint32_t)>& next,
           const std::function<bool(const Process&)>& done,
           std::uint64_t coin_seed) {
  RandomCoinSource coins(coin_seed);
  std::optional<Receipt> prev;
  for (std::uint32_t round = 1; round <= 400; ++round) {
    if (done(p)) return true;
    if (p.halted()) return false;
    if (!p.on_round(prev ? &*prev : nullptr, coins).has_value()) continue;
    prev = next(round);
  }
  return done(p);
}

void expect_same(const Process& a, const Process& b, const std::string& at) {
  const ProcessView va = a.view();
  const ProcessView vb = b.view();
  EXPECT_EQ(va.estimate, vb.estimate) << at;
  EXPECT_EQ(va.decided, vb.decided) << at;
  EXPECT_EQ(va.halted, vb.halted) << at;
  EXPECT_EQ(va.flipped_coin, vb.flipped_coin) << at;
  EXPECT_EQ(va.deterministic, vb.deterministic) << at;
  EXPECT_EQ(a.decided(), b.decided()) << at;
  EXPECT_EQ(a.decision(), b.decision()) << at;
  EXPECT_EQ(a.halted(), b.halted()) << at;
  EXPECT_EQ(a.state_digest(), b.state_digest()) << at;
}

/// Steps `rebuilt` and `fresh` over the same seeded receipts and coins
/// until both halt, comparing every round's payload and state.
void expect_lockstep(Process& rebuilt, Process& fresh, const Case& c,
                     std::uint64_t seed, const std::string& label) {
  expect_same(rebuilt, fresh, label + " before round 1");
  RandomCoinSource coins_a(seed), coins_b(seed);
  Xoshiro256 rng(seed ^ 0xA5A5A5A5ULL);
  std::optional<Receipt> prev;
  for (std::uint32_t round = 1; round <= 120 && !fresh.halted(); ++round) {
    const std::string at = label + " round " + std::to_string(round);
    const auto pa = rebuilt.on_round(prev ? &*prev : nullptr, coins_a);
    const auto pb = fresh.on_round(prev ? &*prev : nullptr, coins_b);
    EXPECT_EQ(pa, pb) << at;
    expect_same(rebuilt, fresh, at);
    if (::testing::Test::HasFailure()) return;
    prev = fold(c.alphabet, 1 + static_cast<std::uint32_t>(rng.below(c.n)),
                rng);
  }
  EXPECT_EQ(rebuilt.halted(), fresh.halted()) << label;
}

/// The states a kept process is rebuilt from.
struct Stage {
  std::string name;
  std::function<bool(const Process&)> done;
  /// Receipt for round r; all-ones unanimity drives deciding and halting.
  std::function<Receipt(std::uint32_t)> receipts;
};

std::vector<Stage> stages(const Case& c) {
  const auto unanimous = [n = c.n](std::uint32_t) {
    return Receipt{n, n, 0, payload::kSupports1};
  };
  std::vector<Stage> out = {
      {"fresh", [](const Process&) { return true; }, unanimous},
      {"decided", [](const Process& p) { return p.decided(); }, unanimous},
      {"halted", [](const Process& p) { return p.halted(); }, unanimous},
  };
  if (c.name == "synran") {
    // One message in a round is below √(n/ln n): the hand-off fires.
    out.push_back({"deterministic",
                   [](const Process& p) { return p.view().deterministic; },
                   [](std::uint32_t) {
                     return Receipt{1, 0, 1, payload::kSupports0};
                   }});
  }
  return out;
}

TEST(ProcessRemake, RebuiltProcessStepsLikeAFreshOne) {
  for (const Case& c : cases()) {
    for (const Stage& stage : stages(c)) {
      const std::string label = c.name + " from " + stage.name;
      auto kept = c.factory->make(3, c.n, Bit::Zero);
      ASSERT_TRUE(drive(*kept, stage.receipts, stage.done, 17)) << label;
      ASSERT_TRUE(c.factory->remake(*kept, 5, c.n, Bit::One)) << label;
      auto fresh = c.factory->make(5, c.n, Bit::One);
      expect_lockstep(*kept, *fresh, c, 29, label);
    }
  }
}

TEST(ProcessRemake, AnotherTypesProcessIsLeftUntouched) {
  const std::vector<Case> all = cases();
  for (const Case& owner : all) {
    auto p = owner.factory->make(2, owner.n, Bit::One);
    ASSERT_TRUE(drive(
        *p, [n = owner.n](std::uint32_t) {
          return Receipt{n, n, 0, payload::kSupports1};
        },
        [](const Process& q) { return q.decided(); }, 5));
    const std::uint64_t digest = p->state_digest();
    const ProcessView view = p->view();
    for (const Case& other : all) {
      const auto probe = other.factory->make(0, owner.n, Bit::Zero);
      const Process& probed = *probe;
      const Process& owned = *p;
      if (typeid(probed) == typeid(owned)) continue;
      EXPECT_FALSE(other.factory->remake(*p, 0, owner.n, Bit::Zero))
          << other.name << " rebuilt a " << owner.name << " process";
      EXPECT_EQ(p->state_digest(), digest) << other.name << " / " << owner.name;
      EXPECT_EQ(p->view().estimate, view.estimate);
      EXPECT_EQ(p->decided(), view.decided);
    }
  }
}

TEST(ProcessRemake, AFactoryWithoutRemakeDeclines) {
  struct MakeOnly final : ProcessFactory {
    std::unique_ptr<Process> make(ProcessId id, std::uint32_t n,
                                  Bit input) const override {
      return SynRanFactory().make(id, n, input);
    }
    const char* name() const override { return "make-only"; }
  };
  auto p = SynRanFactory().make(1, 8, Bit::One);
  const std::uint64_t digest = p->state_digest();
  EXPECT_FALSE(MakeOnly().remake(*p, 0, 8, Bit::Zero));
  EXPECT_EQ(p->state_digest(), digest);
}

TEST(ProcessRemake, SynRanTakesTheRebuildingFactorysOptions) {
  // Same process type, other options: the rebuilt process is what the
  // rebuilding factory makes, not what the first one made.
  SynRanOptions symmetric;
  symmetric.coin_rule = CoinRule::Symmetric;
  const SynRanFactory paper;
  const SynRanFactory ablation(symmetric);
  const Case c = cases().front();
  auto kept = paper.make(4, c.n, Bit::Zero);
  ASSERT_TRUE(drive(
      *kept, [n = c.n](std::uint32_t) {
        return Receipt{n, n, 0, payload::kSupports1};
      },
      [](const Process& p) { return p.decided(); }, 3));
  ASSERT_TRUE(ablation.remake(*kept, 4, c.n, Bit::Zero));
  auto fresh = ablation.make(4, c.n, Bit::Zero);
  expect_lockstep(*kept, *fresh, c, 41, "paper -> benor-sym");
}

TEST(ProcessRemake, SynRanRecomputesItsThresholdAcrossN) {
  // √(n/ln n) is about 22.3 at n = 4096 and 3.5 at n = 48, so a round of
  // 10 messages hands off at 4096 but not at 48. A threshold carried over
  // from the other n would get it wrong.
  const SynRanFactory factory;
  auto kept = factory.make(0, 4096, Bit::One);
  for (const std::uint32_t n : {48u, 4096u, 48u, 4096u}) {
    ASSERT_TRUE(factory.remake(*kept, 0, n, Bit::One));
    auto fresh = factory.make(0, n, Bit::One);
    RandomCoinSource coins_a(7), coins_b(7);
    ASSERT_TRUE(kept->on_round(nullptr, coins_a).has_value());
    ASSERT_TRUE(fresh->on_round(nullptr, coins_b).has_value());
    const Receipt r{10, 5, 5, payload::kSupports0 | payload::kSupports1};
    const auto pa = kept->on_round(&r, coins_a);
    const auto pb = fresh->on_round(&r, coins_b);
    EXPECT_EQ(pa, pb) << "n=" << n;
    EXPECT_EQ(kept->view().deterministic, n == 4096) << "n=" << n;
    EXPECT_EQ(fresh->view().deterministic, n == 4096) << "n=" << n;
  }
  // And at an unchanged n the carried threshold is the recomputed one.
  const Case c{"synran", std::make_shared<SynRanFactory>(),
               cases().front().alphabet, 4096};
  ASSERT_TRUE(factory.remake(*kept, 9, 4096, Bit::Zero));
  auto fresh = factory.make(9, 4096, Bit::Zero);
  expect_lockstep(*kept, *fresh, c, 53, "4096 -> 4096");
}

TEST(ProcessRemake, SynRanRebuildStillChecksItsArguments) {
  const SynRanFactory factory;
  auto kept = factory.make(0, 8, Bit::One);
  const std::uint64_t digest = kept->state_digest();
  EXPECT_THROW(factory.remake(*kept, 0, 0, Bit::One), ArgumentError);
  EXPECT_EQ(kept->state_digest(), digest);  // a failed rebuild changes nothing
}

}  // namespace
}  // namespace synran
