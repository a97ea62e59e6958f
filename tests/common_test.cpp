// Unit tests for src/common: PRNG streams, coin sources, DynBitset, Table,
// and the check macros.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/check.hpp"
#include "common/dynbitset.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace synran {
namespace {

// ----------------------------------------------------------------- SplitMix

TEST(SplitMix64Test, KnownSequence) {
  // Reference values for seed 0 from the published splitmix64.c.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(SplitMix64Test, DistinctSeedsDiverge) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

// ----------------------------------------------------------------- Xoshiro

TEST(Xoshiro256Test, DeterministicForSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256Test, SeedsProduceDifferentStreams) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro256Test, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Xoshiro256Test, BelowRespectsBound) {
  Xoshiro256 rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) ASSERT_LT(rng.below(bound), bound);
  }
}

TEST(Xoshiro256Test, BelowCoversAllResidues) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Xoshiro256Test, BelowZeroBoundThrows) {
  Xoshiro256 rng(1);
  EXPECT_THROW(rng.below(0), ArgumentError);
}

TEST(Xoshiro256Test, BelowPinnedLemireSequence) {
  // Regression pin for Lemire's multiply-shift rejection: below() feeds
  // every seeded adversary and experiment, so its exact outputs for a fixed
  // seed are part of the bit-for-bit reproducibility contract. If this test
  // breaks, every recorded experiment number is stale.
  Xoshiro256 rng(0x5eed);
  const struct {
    std::uint64_t bound;
    std::uint64_t want;
  } pins[] = {
      {1, 0x0},
      {2, 0x1},
      {3, 0x2},
      {7, 0x6},
      {10, 0x6},
      {100, 0x34},
      {1000, 0x131},
      {1ULL << 33, 0xd827fa4bULL},
      {0xffffffffffffffffULL, 0xc68396bba4130cfbULL},
      {6, 0x4},
      {6, 0x1},
      {6, 0x4},
  };
  for (const auto& pin : pins) {
    EXPECT_EQ(rng.below(pin.bound), pin.want) << "bound " << pin.bound;
  }
}

TEST(Xoshiro256Test, BelowIsHighWordOfProductForPowerOfTwo) {
  // For bound 2^k the multiply-shift map is exactly the top k bits of
  // next() — a closed form that pins the algorithm (the old modulo-rejection
  // method would return the *bottom* bits instead).
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.below(1ULL << 32), b.next() >> 32);
  }
}

TEST(Xoshiro256Test, FlipIsRoughlyFair) {
  Xoshiro256 rng(11);
  int heads = 0;
  const int reps = 20000;
  for (int i = 0; i < reps; ++i)
    if (rng.flip()) ++heads;
  EXPECT_NEAR(static_cast<double>(heads) / reps, 0.5, 0.02);
}

// ------------------------------------------------------------ SeedSequence

TEST(SeedSequenceTest, StreamsAreDistinct) {
  SeedSequence seq(99);
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(seq.stream(i));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(SeedSequenceTest, StreamsAreStable) {
  SeedSequence a(5), b(5);
  EXPECT_EQ(a.stream(3), b.stream(3));
  EXPECT_NE(a.stream(3), a.stream(4));
  EXPECT_EQ(a.master(), 5u);
}

TEST(SeedSequenceTest, DistinctMastersDecorrelate) {
  // The same stream id under different master seeds must not collide —
  // otherwise two "independent" experiment repetitions share randomness.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t master = 0; master < 500; ++master) {
    seeds.insert(SeedSequence(master).stream(7));
  }
  EXPECT_EQ(seeds.size(), 500u);
}

TEST(SeedSequenceTest, StreamsSeedDecorrelatedGenerators) {
  // Adjacent stream ids are the common case (one per process id); the
  // generators they seed must diverge immediately. Distinct sub-seeds alone
  // are not enough if the expansion collapses them.
  SeedSequence seq(42);
  std::set<std::uint64_t> first_outputs;
  for (std::uint64_t id = 0; id < 500; ++id) {
    Xoshiro256 rng(seq.stream(id));
    first_outputs.insert(rng.next());
  }
  EXPECT_EQ(first_outputs.size(), 500u);
}

// ------------------------------------------------------------- CoinSources

TEST(TapeCoinSourceTest, ReplaysTapeInOrder) {
  TapeCoinSource tape({true, false, true});
  EXPECT_TRUE(tape.flip());
  EXPECT_FALSE(tape.flip());
  EXPECT_TRUE(tape.flip());
  EXPECT_EQ(tape.consumed(), 3u);
}

TEST(TapeCoinSourceTest, ExhaustionThrows) {
  TapeCoinSource tape({true});
  tape.flip();
  EXPECT_THROW(tape.flip(), InvariantError);
}

TEST(TapeCoinSourceTest, ResetStartsOver) {
  TapeCoinSource tape({true});
  tape.flip();
  tape.reset({false, false});
  EXPECT_FALSE(tape.flip());
  EXPECT_EQ(tape.consumed(), 1u);
}

TEST(TapeCoinSourceTest, EmptyTapeIsExhaustedImmediately) {
  TapeCoinSource empty;
  EXPECT_EQ(empty.consumed(), 0u);
  EXPECT_THROW(empty.flip(), InvariantError);
}

TEST(TapeCoinSourceTest, ResetRearmsAnExhaustedTape) {
  // The valency engine reuses one tape object across enumerated branches:
  // exhaustion must be recoverable by reset, and consumed() must restart.
  TapeCoinSource tape({true, false});
  tape.flip();
  tape.flip();
  EXPECT_THROW(tape.flip(), InvariantError);
  tape.reset({false});
  EXPECT_EQ(tape.consumed(), 0u);
  EXPECT_FALSE(tape.flip());
  EXPECT_EQ(tape.consumed(), 1u);
  EXPECT_THROW(tape.flip(), InvariantError);
}

TEST(TapeCoinSourceTest, ResetToEmptyLeavesNothingToFlip) {
  TapeCoinSource tape({true});
  tape.reset({});
  EXPECT_EQ(tape.consumed(), 0u);
  EXPECT_THROW(tape.flip(), InvariantError);
}

TEST(CountingCoinSourceTest, CountsDemands) {
  CountingCoinSource c;
  EXPECT_EQ(c.count(), 0u);
  c.flip();
  c.flip();
  EXPECT_EQ(c.count(), 2u);
}

TEST(CountingCoinSourceTest, AlwaysReturnsTailsWhileCounting) {
  // The counting pass discovers how many coins a round wants *before*
  // enumeration; its answers must be deterministic (all false) so the probe
  // run itself is reproducible.
  CountingCoinSource c;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(c.flip());
  EXPECT_EQ(c.count(), 100u);
}

TEST(RandomCoinSourceTest, SeededDeterminism) {
  RandomCoinSource a(17), b(17);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.flip(), b.flip());
}

// --------------------------------------------------------------- DynBitset

TEST(DynBitsetTest, StartsClear) {
  DynBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
}

TEST(DynBitsetTest, FilledConstructor) {
  DynBitset b(70, true);
  EXPECT_EQ(b.count(), 70u);
  EXPECT_TRUE(b.test(69));
}

TEST(DynBitsetTest, SetResetTest) {
  DynBitset b(100);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 3u);
}

TEST(DynBitsetTest, OutOfRangeThrows) {
  DynBitset b(10);
  EXPECT_THROW(b.test(10), InvariantError);
  EXPECT_THROW(b.set(10), InvariantError);
}

TEST(DynBitsetTest, BitwiseOps) {
  DynBitset a(65), b(65);
  a.set(1);
  a.set(64);
  b.set(1);
  b.set(2);
  EXPECT_EQ((a & b).count(), 1u);
  EXPECT_EQ((a | b).count(), 3u);
  EXPECT_EQ((a ^ b).count(), 2u);
}

TEST(DynBitsetTest, SetAllRespectsTrailingBits) {
  DynBitset b(66);
  b.set_all();
  EXPECT_EQ(b.count(), 66u);
  b.clear_all();
  EXPECT_EQ(b.count(), 0u);
}

TEST(DynBitsetTest, ForEachSetVisitsInOrder) {
  DynBitset b(200);
  const std::vector<std::size_t> expected{3, 63, 64, 128, 199};
  for (auto i : expected) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(DynBitsetTest, EqualityAndHash) {
  DynBitset a(50), b(50);
  a.set(7);
  b.set(7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(8);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(DynBitsetTest, MismatchedSizesThrow) {
  DynBitset a(10), b(11);
  EXPECT_THROW(a &= b, InvariantError);
  EXPECT_THROW(a.count_and(b), InvariantError);
}

TEST(DynBitsetTest, CountAndMatchesMaterializedIntersection) {
  // Word-boundary sizes: empty, one short of a word, exactly one, one past,
  // and a partial third word.
  Xoshiro256 rng(2027);
  for (std::size_t n : {0u, 63u, 64u, 65u, 130u}) {
    for (int trial = 0; trial < 20; ++trial) {
      DynBitset a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.flip()) a.set(i);
        if (rng.flip()) b.set(i);
      }
      EXPECT_EQ(a.count_and(b), (a & b).count()) << "n=" << n;
      EXPECT_EQ(b.count_and(a), (a & b).count()) << "n=" << n;
    }
    const DynBitset full(n, true), none(n);
    EXPECT_EQ(full.count_and(full), n);
    EXPECT_EQ(full.count_and(none), 0u);
  }
}

TEST(DynBitsetTest, AssignEqualsAFreshBitsetAtEverySize) {
  // A bitset kept across calls is reassigned through shrinks, word edges
  // and regrowth, dirty each time; after each assign it must equal a
  // freshly built clear one, the unused high bits of its last word
  // included.
  Xoshiro256 rng(2032);
  DynBitset kept(200, true);
  for (std::size_t n : {200u, 3u, 65u, 64u, 0u, 130u, 200u}) {
    kept.assign(n);
    EXPECT_TRUE(kept == DynBitset(n)) << "n=" << n;
    EXPECT_EQ(kept.count(), 0u) << "n=" << n;
    EXPECT_EQ(kept.hash(), DynBitset(n).hash()) << "n=" << n;
    kept.set_all();
    for (std::size_t i = 0; i < n; ++i)
      if (rng.flip()) kept.reset(i);
  }
}

TEST(DynBitsetTest, ForEachClearVisitsTheComplementInOrder) {
  // Word-boundary sizes; the walk must stop at size() even though the last
  // word's unused high bits are clear.
  Xoshiro256 rng(2031);
  for (std::size_t n : {0u, 1u, 63u, 64u, 65u, 130u}) {
    for (int trial = 0; trial < 20; ++trial) {
      DynBitset b(n);
      for (std::size_t i = 0; i < n; ++i)
        if (rng.below(3) == 0) b.set(i);
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < n; ++i)
        if (!b.test(i)) expected.push_back(i);
      std::vector<std::size_t> seen;
      b.for_each_clear([&](std::size_t i) { seen.push_back(i); });
      EXPECT_EQ(seen, expected) << "n=" << n << " trial " << trial;
    }
    std::vector<std::size_t> seen;
    DynBitset(n, true).for_each_clear(
        [&](std::size_t i) { seen.push_back(i); });
    EXPECT_TRUE(seen.empty()) << "n=" << n;
    DynBitset(n).for_each_clear([&](std::size_t i) { seen.push_back(i); });
    ASSERT_EQ(seen.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], i);
  }
}

// ------------------------------------------------------------------- Table

TEST(TableTest, AlignsColumnsAndPrintsTitle) {
  Table t("demo");
  t.header({"name", "value"});
  t.row({std::string("x"), 42LL});
  t.row({std::string("longer"), 7LL});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| longer"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(TableTest, DoublePrecision) {
  Table t;
  t.header({"v"});
  t.precision(2);
  t.row({3.14159});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("3.14"), std::string::npos);
  EXPECT_EQ(os.str().find("3.142"), std::string::npos);
}

TEST(TableTest, CsvEscapesCommas) {
  Table t;
  t.header({"a", "b"});
  t.row({std::string("x,y"), 1LL});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\"x,y\",1"), std::string::npos);
}

TEST(TableTest, RowCount) {
  Table t;
  t.header({"a"});
  EXPECT_EQ(t.row_count(), 0u);
  t.row({1LL});
  t.row({2LL});
  EXPECT_EQ(t.row_count(), 2u);
}

// ------------------------------------------------------------------ Checks

TEST(CheckTest, RequireThrowsArgumentError) {
  EXPECT_THROW(SYNRAN_REQUIRE(false, "boom"), ArgumentError);
}

TEST(CheckTest, CheckThrowsInvariantError) {
  EXPECT_THROW(SYNRAN_CHECK(1 == 2), InvariantError);
}

TEST(CheckTest, PassingChecksAreSilent) {
  EXPECT_NO_THROW(SYNRAN_CHECK(true));
  EXPECT_NO_THROW(SYNRAN_REQUIRE(true, "fine"));
}

// --------------------------------------------------------------------- ids

TEST(BitTest, FlipAndConvert) {
  EXPECT_EQ(flip(Bit::Zero), Bit::One);
  EXPECT_EQ(flip(Bit::One), Bit::Zero);
  EXPECT_EQ(to_int(Bit::One), 1);
  EXPECT_EQ(bit_of(true), Bit::One);
  EXPECT_EQ(bit_of(false), Bit::Zero);
}

}  // namespace
}  // namespace synran
