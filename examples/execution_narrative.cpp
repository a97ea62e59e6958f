// Watch one execution unfold round by round: the protocol's traffic
// composition, the adversary's spend, and the decision dance — the story
// the paper's lemmas tell, on a real run.
//
//   ./execution_narrative [n] [t] [seed] [adversary: none|coinbias|chain]
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "adversary/basic.hpp"
#include "adversary/coinbias.hpp"
#include "obs/trace_record.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "runner/narrate.hpp"
#include "sim/engine.hpp"

int main(int argc, char** argv) {
  using namespace synran;

  const std::uint32_t n = argc > 1 ? std::atoi(argv[1]) : 96;
  const std::uint32_t t = argc > 2 ? std::atoi(argv[2]) : n - 1;
  const std::uint64_t seed = argc > 3 ? std::atoll(argv[3]) : 11;
  const char* which = argc > 4 ? argv[4] : "coinbias";

  std::unique_ptr<Adversary> inner;
  if (std::strcmp(which, "none") == 0)
    inner = std::make_unique<NoAdversary>();
  else if (std::strcmp(which, "chain") == 0)
    inner = std::make_unique<ChainHidingAdversary>();
  else
    inner = std::make_unique<CoinBiasAdversary>(
        CoinBiasOptions{0.55, true, seed});

  std::vector<obs::TraceRecord> records;
  obs::TraceRecorder recorder(records);
  SynRanFactory factory;
  EngineOptions opts;
  opts.t_budget = t;
  opts.seed = seed;
  opts.max_rounds = 100000;
  opts.observer = &recorder;

  Xoshiro256 rng(seed);
  const auto inputs = make_inputs(n, InputPattern::Half, rng);
  const auto res = run_once(factory, inputs, *inner, opts);

  narrate(records, std::cout);

  std::cout << "\noutcome: " << (res.terminated ? "terminated" : "CAPPED")
            << ", decision "
            << (res.has_decision ? (res.decision == Bit::One ? "1" : "0")
                                 : "-")
            << " at round " << res.rounds_to_decision << ", halted by round "
            << res.rounds_to_halt << ", " << res.faults.crashes << "/" << t
            << " crashes spent, " << res.faults.delivered
            << " messages delivered, agreement "
            << (res.agreement ? "yes" : "NO") << "\n";

  const auto report = check_model_invariants(records);
  std::cout << "model invariants: " << (report.ok ? "all hold" : "VIOLATED")
            << "\n";
  return res.agreement && report.ok ? 0 : 1;
}
