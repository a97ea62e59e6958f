// E14 (supplementary) — two cost views the paper leaves implicit:
//  * communication complexity: every protocol here broadcasts, so messages
//    ≈ (rounds × survivors²); SynRan's round advantage over the t+1
//    deterministic baseline translates directly into message savings;
//  * influence profiles of the one-round deciding functions ([BOL89]): the
//    structural quantity behind which games are cheap to control (E3/E4).
#include "bench_util.hpp"

#include <cmath>

#include "coin/influence.hpp"
#include "coin/recursive_games.hpp"
#include "protocols/floodmin.hpp"

namespace synran::bench {
namespace {

void tables() {
  std::cout << "E14 — message complexity and influence profiles\n\n";

  Table msg("E14a: messages delivered to decision (n = 128, mean)");
  msg.header({"t", "synran (coinbias)", "floodmin", "ratio"});
  const std::uint32_t n = 128;
  SynRanFactory synran;
  for (std::uint32_t t : {8u, 32u, 64u, 127u}) {
    // SynRan under attack.
    Summary sr_msgs;
    SeedSequence seeds(kSeed + t);
    Xoshiro256 input_rng(seeds.stream(1));
    for (std::size_t rep = 0; rep < 40; ++rep) {
      CoinBiasAdversary adv({0.55, true, seeds.stream(100 + rep)});
      EngineOptions opts;
      opts.t_budget = t;
      opts.seed = seeds.stream(5000 + rep);
      opts.max_rounds = 100000;
      auto inputs = make_inputs(n, InputPattern::Half, input_rng);
      const auto res = run_once(synran, inputs, adv, opts);
      sr_msgs.add(static_cast<double>(res.faults.delivered));
    }
    // FloodMin, failure-free (its message count is schedule-determined).
    FloodMinFactory flood({t, false});
    NoAdversary none;
    EngineOptions fopts;
    Xoshiro256 rng(kSeed);
    const auto fres =
        run_once(flood, make_inputs(n, InputPattern::Half, rng), none,
                 fopts);
    msg.row({static_cast<long long>(t), sr_msgs.mean(),
             static_cast<double>(fres.faults.delivered),
             static_cast<double>(fres.faults.delivered) /
                 std::max(1.0, sr_msgs.mean())});
  }
  emit(msg);

  Table infl("E14b: influence profiles of the §2 deciding functions");
  infl.header({"game", "n", "max I_i", "total I", "E[f]",
               "√(2/πn) anchor"});
  infl.precision(4);
  {
    const std::uint32_t gn = 15;
    MajorityPresentGame maj(gn);
    MajorityDefaultZeroGame mdz(gn);
    ParityPresentGame par(gn);
    LeaderBitGame lead(gn);
    TribesGame tribes(5, 3);
    RecursiveMajorityGame rec(2);
    const CoinGame* games[] = {&maj, &mdz, &par, &lead, &tribes, &rec};
    for (const CoinGame* g : games) {
      const auto prof = game_influences(*g);
      infl.row({std::string(g->name()),
                static_cast<long long>(g->players()), prof.max(),
                prof.total(), prof.expectation,
                std::sqrt(2.0 / (M_PI * g->players()))});
    }
  }
  emit(infl);
  std::cout
      << "  reading: high-influence functions (leader, parity) hand the\n"
         "  adversary cheap control; majority spreads influence to the\n"
         "  √(2/πn) floor — which is why its control price is Θ(√n)\n"
         "  hidings (E3/E4) and why the paper prices a ROUND of SynRan at\n"
         "  Θ(√(n·log n)) kills.\n\n";
}

void BM_Influences(::benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  MajorityPresentGame game(n);
  for (auto _ : state) {
    const auto prof = game_influences(game);
    ::benchmark::DoNotOptimize(prof.expectation);
  }
}
BENCHMARK(BM_Influences)->Arg(15)->Arg(19);

}  // namespace
}  // namespace synran::bench

SYNRAN_BENCH_MAIN(synran::bench::tables)
