// E9 — the §3.2–3.6 machinery, literally: exact (interval-bounded) min/max
// r(α) for every initial state of tiny systems, the exhaustive+exclusive
// classification, and the executable Lemma 3.5 initial-state search.
#include "bench_util.hpp"

#include "adversary/exact_valency.hpp"
#include "lowerbound/valency.hpp"
#include "protocols/floodmin.hpp"

namespace synran::bench {
namespace {

std::string classes_to_string(std::uint8_t mask) {
  std::string out;
  for (int v = 0; v < 4; ++v) {
    if (mask & (1u << v)) {
      if (!out.empty()) out += "|";
      out += to_string(static_cast<Valency>(v));
    }
  }
  return out.empty() ? "?" : out;
}

std::string inputs_to_string(const std::vector<Bit>& inputs) {
  std::string s;
  for (auto b : inputs) s += b == Bit::One ? '1' : '0';
  return s;
}

void initial_state_table(const char* title, const ProcessFactory& factory,
                         std::uint32_t n, const ValencyOptions& opts) {
  Table table(title);
  table.header({"inputs", "min r ∈", "max r ∈", "classes", "states"});
  table.precision(4);
  for (std::uint32_t x = 0; x < (1u << n); ++x) {
    std::vector<Bit> inputs;
    for (std::uint32_t i = 0; i < n; ++i)
      inputs.push_back((x >> i) & 1 ? Bit::One : Bit::Zero);
    const auto v = evaluate_initial_state(factory, inputs, opts);
    table.row({inputs_to_string(inputs),
               "[" + std::to_string(v.min_r.lo).substr(0, 6) + "," +
                   std::to_string(v.min_r.hi).substr(0, 6) + "]",
               "[" + std::to_string(v.max_r.lo).substr(0, 6) + "," +
                   std::to_string(v.max_r.hi).substr(0, 6) + "]",
               classes_to_string(v.classes),
               static_cast<long long>(v.states_visited)});
    if (v.saw_disagreement)
      std::cout << "!! disagreement detected for inputs "
                << inputs_to_string(inputs) << "\n";
  }
  emit(table);
}

void tables() {
  std::cout << "E9 — exact valency of initial states and Lemma 3.5 "
               "(tiny systems, exhaustive game tree)\n\n";

  ValencyOptions fopts;
  fopts.t_budget = 1;
  fopts.max_depth = 6;
  FloodMinFactory flood({1, false});
  initial_state_table("E9a: FloodMin (t = 1), n = 3 — exact", flood, 3,
                      fopts);

  ValencyOptions sopts;
  sopts.t_budget = 1;
  sopts.max_depth = 14;
  SynRanFactory synran;
  initial_state_table("E9b: SynRan (t = 1), n = 3 — interval bounds", synran,
                      3, sopts);

  // The §3.3–3.5 strategy, played move by move: at each round the adversary
  // queries the exact valency of every candidate fault action and keeps the
  // execution bivalent/null-valent when any action can.
  Table played("E9d: the exact adversary playing §3.3–3.5 (SynRan, n = 3, "
               "t = 2)");
  played.header({"seed", "rounds (exact adv)", "rounds (none)",
                 "crashes spent", "decision", "baseline decision",
                 "agreement"});
  {
    SynRanFactory synran2;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      ExactValencyAdversary adv({10});
      EngineOptions opts;
      opts.t_budget = 2;
      opts.per_round_cap = 1;
      opts.seed = seed;
      opts.max_rounds = 500;
      const auto res = run_once(
          synran2, {Bit::Zero, Bit::One, Bit::One}, adv, opts);
      NoAdversary none;
      const auto base = run_once(
          synran2, {Bit::Zero, Bit::One, Bit::One}, none, opts);
      played.row({static_cast<long long>(seed),
                  static_cast<long long>(res.rounds_to_decision),
                  static_cast<long long>(base.rounds_to_decision),
                  static_cast<long long>(res.faults.crashes),
                  std::string(res.decision == Bit::One ? "1" : "0"),
                  std::string(base.decision == Bit::One ? "1" : "0"),
                  std::string(res.agreement ? "yes" : "NO")});
    }
  }
  emit(played);

  Table lemma("E9c: Lemma 3.5 — bivalent/null-valent initial state exists");
  lemma.header({"protocol", "found", "witness inputs", "classes"});
  {
    const auto f = find_bivalent_or_null_initial_state(flood, 3, fopts);
    lemma.row({std::string("floodmin"), std::string(f.found ? "yes" : "NO"),
               inputs_to_string(f.inputs),
               classes_to_string(f.verdict.classes)});
  }
  {
    const auto f = find_bivalent_or_null_initial_state(synran, 3, sopts);
    lemma.row({std::string("synran"), std::string(f.found ? "yes" : "NO"),
               inputs_to_string(f.inputs),
               classes_to_string(f.verdict.classes)});
  }
  emit(lemma);
}

void BM_ExactValency(::benchmark::State& state) {
  SynRanFactory factory;
  ValencyOptions opts;
  opts.t_budget = 1;
  opts.max_depth = static_cast<std::uint32_t>(state.range(0));
  const std::vector<Bit> inputs{Bit::Zero, Bit::One, Bit::One};
  for (auto _ : state) {
    const auto v = evaluate_initial_state(factory, inputs, opts);
    ::benchmark::DoNotOptimize(v.states_visited);
  }
}
BENCHMARK(BM_ExactValency)->Arg(8)->Arg(12);

}  // namespace
}  // namespace synran::bench

SYNRAN_BENCH_MAIN(synran::bench::tables)
