// E8 — failure-budget accounting: the lower-bound adversary stays inside
// 4√(n·ln n)+1 crashes per round (adversary class B, §3.2); the upper-bound
// analysis says keeping SynRan alive costs ≳ √(p·ln p)/16 expected kills per
// 3-round block (Lemma 4.6 / Theorem 2). Ablation A3 contrasts the capped
// and uncapped adversary.
#include "bench_util.hpp"

#include <cmath>

namespace synran::bench {
namespace {

void tables() {
  std::cout << "E8 — crashes per round: measured vs the paper's budgets "
               "(§3.2, Lemma 4.6)\n\n";

  Table table("E8a: per-round spend of the capped coin-bias adversary");
  table.header({"n", "t", "rounds", "crashes/round (mean)",
                "cap 4√(n·ln n)+1", "block spend /3 rounds",
                "√(p·ln p)/16 @ p=n"});
  SynRanFactory synran;
  for (std::uint32_t n : {64u, 256u, 1024u, 4096u}) {
    const std::uint32_t t = n / 2;
    SeedSequence seeds(kSeed + n);
    Xoshiro256 input_rng(seeds.stream(1));
    Summary per_round, rounds, total;
    const std::size_t reps = reps_for(n);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      CoinBiasAdversary adv({0.55, true, seeds.stream(100 + rep)});
      EngineOptions opts;
      opts.t_budget = t;
      opts.per_round_cap = static_cast<std::uint32_t>(
          theory::per_round_budget(static_cast<double>(n)));
      opts.seed = seeds.stream(5000 + rep);
      opts.max_rounds = 200000;
      auto inputs = make_inputs(n, InputPattern::Half, input_rng);
      const auto res = run_once(synran, inputs, adv, opts);
      rounds.add(static_cast<double>(res.rounds_to_decision));
      total.add(static_cast<double>(res.faults.crashes));
      for (auto c : res.crashes_per_round)
        per_round.add(static_cast<double>(c));
    }
    const double lemma46 =
        std::sqrt(static_cast<double>(n) * std::log(double(n))) / 16.0;
    table.row({static_cast<long long>(n), static_cast<long long>(t),
               rounds.mean(), per_round.mean(),
               theory::per_round_budget(static_cast<double>(n)),
               3.0 * per_round.mean(), lemma46});
  }
  emit(table);

  Table abl("E8b (ablation A3): capped vs uncapped adversary, n = 1024");
  abl.header({"variant", "rounds(mean)", "crashes(mean)",
              "crashes/round"});
  const std::uint32_t n = 1024;
  for (bool capped : {true, false}) {
    const auto stats = attack_run(synran, n, n / 2, InputPattern::Half,
                                  reps_for(n), kSeed + (capped ? 1 : 2),
                                  capped);
    abl.row({std::string(capped ? "capped (class B)" : "uncapped"),
             stats.rounds_to_decision().mean(), stats.crashes_used().mean(),
             stats.crashes_used().mean() /
                 std::max(1.0, stats.rounds_to_decision().mean())});
  }
  emit(abl);

  Table stall("E8c: the 10%-rule after unanimity (Lemma 4.1)");
  stall.header({"stall enabled", "rounds(mean)", "crashes(mean)"});
  for (bool stall_opt : {false, true}) {
    const auto stats =
        attack_run(synran, 512, 511, InputPattern::AllOne, 60,
                   kSeed + (stall_opt ? 3 : 4), false, stall_opt);
    stall.row({std::string(stall_opt ? "yes" : "no"),
               stats.rounds_to_decision().mean(), stats.crashes_used().mean()});
  }
  emit(stall);
}

void BM_CoinBiasPlanning(::benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  SynRanFactory factory;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    CoinBiasAdversary adv({0.55, true, ++seed});
    EngineOptions opts;
    opts.t_budget = n / 2;
    opts.seed = seed;
    opts.max_rounds = 200000;
    Xoshiro256 rng(seed);
    auto inputs = make_inputs(n, InputPattern::Half, rng);
    const auto res = run_once(factory, inputs, adv, opts);
    ::benchmark::DoNotOptimize(res.faults.crashes);
  }
}
BENCHMARK(BM_CoinBiasPlanning)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace synran::bench

SYNRAN_BENCH_MAIN(synran::bench::tables)
