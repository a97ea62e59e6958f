// Quickstart: run the SynRan consensus protocol in the synchronous
// simulator, first failure-free, then against the adaptive full-information
// coin-bias adversary.
//
//   ./quickstart [n] [t] [seed]
#include <cstdlib>
#include <iostream>

#include "adversary/coinbias.hpp"
#include "common/table.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "sim/engine.hpp"

int main(int argc, char** argv) {
  using namespace synran;

  const std::uint32_t n = argc > 1 ? std::atoi(argv[1]) : 128;
  const std::uint32_t t = argc > 2 ? std::atoi(argv[2]) : n / 2;
  const std::uint64_t seed = argc > 3 ? std::atoll(argv[3]) : 42;

  std::cout << "SynRan quickstart: n = " << n << ", t = " << t
            << ", seed = " << seed << "\n\n";

  // Inputs: half zeros, half ones — the contested case.
  Xoshiro256 rng(seed);
  const auto inputs = make_inputs(n, InputPattern::Half, rng);

  Table table("one execution per adversary");
  table.header({"adversary", "rounds to decide", "rounds to halt",
                "decision", "crashes", "agreement"});

  const auto report = [&table](const char* name, const RunResult& res) {
    table.row({std::string(name),
               static_cast<long long>(res.rounds_to_decision),
               static_cast<long long>(res.rounds_to_halt),
               std::string(res.has_decision
                               ? (res.decision == Bit::One ? "1" : "0")
                               : "-"),
               static_cast<long long>(res.faults.crashes),
               std::string(res.agreement ? "yes" : "NO")});
  };

  SynRanFactory factory;
  EngineOptions opts;
  opts.t_budget = t;
  opts.seed = seed;
  opts.max_rounds = 100000;

  {
    NoAdversary none;
    report("none", run_once(factory, inputs, none, opts));
  }
  {
    CoinBiasAdversary adv({0.55, true, seed});
    report("coin-bias (adaptive)", run_once(factory, inputs, adv, opts));
  }

  table.print(std::cout);

  // A batch for statistics: expected rounds under attack.
  RepeatSpec spec;
  spec.n = n;
  spec.pattern = InputPattern::Half;
  spec.reps = 100;
  spec.seed = seed;
  spec.engine = opts;
  const auto stats = run_repeated(
      factory,
      [](std::uint64_t s) {
        return std::make_unique<CoinBiasAdversary>(
            CoinBiasOptions{0.55, true, s});
      },
      spec);

  std::cout << "\nover " << stats.reps()
            << " attacked executions: mean rounds = "
            << stats.rounds_to_decision().mean()
            << " (sd " << stats.rounds_to_decision().stddev() << "), "
            << "agreement failures = " << stats.agreement_failures()
            << ", validity failures = " << stats.validity_failures() << "\n";
  return stats.all_safe() ? 0 : 1;
}
