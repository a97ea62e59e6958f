#include "lowerbound/valency.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/check.hpp"
#include "common/dynbitset.hpp"
#include "common/rng.hpp"
#include "net/fabric.hpp"

namespace synran {

const char* to_string(Valency v) {
  switch (v) {
    case Valency::Bivalent:
      return "bivalent";
    case Valency::ZeroValent:
      return "0-valent";
    case Valency::OneValent:
      return "1-valent";
    case Valency::NullValent:
      return "null-valent";
  }
  return "?";
}

Valency classify(double min_r, double max_r, double n, double round_k) {
  const double eps = std::max(0.0, 1.0 / std::sqrt(n) - round_k / n);
  const bool low = min_r < eps;          // min r < 1/√n − k/n
  const bool high = max_r > 1.0 - eps;   // max r > 1 − 1/√n + k/n
  if (low && high) return Valency::Bivalent;
  if (low) return Valency::ZeroValent;
  if (high) return Valency::OneValent;
  return Valency::NullValent;
}

std::uint8_t classify_bounds(const PInterval& min_r, const PInterval& max_r,
                             double n, double round_k) {
  const double eps = std::max(0.0, 1.0 / std::sqrt(n) - round_k / n);
  // Each predicate can be definitely-true, definitely-false, or unknown;
  // enumerate the consistent combinations.
  const bool low_possible = min_r.lo < eps;
  const bool low_certain = min_r.hi < eps;
  const bool high_possible = max_r.hi > 1.0 - eps;
  const bool high_certain = max_r.lo > 1.0 - eps;

  std::uint8_t mask = 0;
  for (int low = 0; low < 2; ++low) {
    if (low ? !low_possible : low_certain) continue;
    for (int high = 0; high < 2; ++high) {
      if (high ? !high_possible : high_certain) continue;
      Valency v;
      if (low && high)
        v = Valency::Bivalent;
      else if (low)
        v = Valency::ZeroValent;
      else if (high)
        v = Valency::OneValent;
      else
        v = Valency::NullValent;
      mask |= static_cast<std::uint8_t>(1u << static_cast<int>(v));
    }
  }
  return mask;
}

bool bounds_decide_unique(std::uint8_t mask) {
  return mask != 0 && (mask & (mask - 1)) == 0;
}

namespace {

/// Mid-execution state at a start-of-round boundary (pending receipts not
/// yet digested).
struct State {
  std::uint32_t n = 0;
  std::vector<std::unique_ptr<Process>> procs;
  DynBitset alive;
  DynBitset halted;
  std::vector<Receipt> receipts;
  std::vector<bool> have_receipt;
  std::uint32_t budget = 0;

  State deep_copy() const {
    State s;
    s.n = n;
    s.procs.reserve(procs.size());
    for (const auto& p : procs) s.procs.push_back(p->clone());
    s.alive = alive;
    s.halted = halted;
    s.receipts = receipts;
    s.have_receipt = have_receipt;
    s.budget = budget;
    return s;
  }

  std::uint64_t digest() const {
    auto mix = [](std::uint64_t h, std::uint64_t x) {
      h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return h;
    };
    std::uint64_t h = alive.hash();
    h = mix(h, halted.hash());
    h = mix(h, budget);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!alive.test(i)) continue;
      h = mix(h, procs[i]->state_digest());
      if (!halted.test(i)) {
        h = mix(h, have_receipt[i] ? 1 : 0);
        if (have_receipt[i]) {
          h = mix(h, receipts[i].count);
          h = mix(h, receipts[i].ones);
          h = mix(h, (static_cast<std::uint64_t>(receipts[i].zeros) << 32) ^
                         receipts[i].or_mask);
        }
      }
    }
    return h;
  }
};

struct EvalValue {
  PInterval min_r{0.0, 1.0};
  PInterval max_r{0.0, 1.0};
};

class Evaluator {
 public:
  Evaluator(const ValencyOptions& opts) : opts_(opts) {
    SYNRAN_REQUIRE(opts.per_round_cap <= 1,
                   "valency engine supports per-round cap 0 or 1");
  }

  EvalValue eval(const State& state, std::uint32_t depth) {
    ++visited_;
    // Terminal: every alive process halted. (A halted process has decided —
    // the Process contract — so the outcome is fixed.)
    {
      bool all_halted = true;
      for (std::uint32_t i = 0; i < state.n && all_halted; ++i)
        if (state.alive.test(i) && !state.halted.test(i)) all_halted = false;
      if (all_halted) return terminal_value(state);
    }
    if (depth == 0) return EvalValue{};  // [0,1] both

    const std::uint64_t key = state.digest() ^ (0x9e3779b9ULL * depth);
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;

    // --- Phase A: how many coins does each active process want?
    std::vector<std::uint32_t> coin_need(state.n, 0);
    std::uint32_t total_coins = 0;
    for (std::uint32_t i = 0; i < state.n; ++i) {
      if (!state.alive.test(i) || state.halted.test(i)) continue;
      auto probe = state.procs[i]->clone();
      CountingCoinSource counter;
      const Receipt* prev =
          state.have_receipt[i] ? &state.receipts[i] : nullptr;
      (void)probe->on_round(prev, counter);
      coin_need[i] = static_cast<std::uint32_t>(counter.count());
      total_coins += coin_need[i];
    }
    SYNRAN_REQUIRE(total_coins <= 20,
                   "too many coins per round for exhaustive enumeration");

    EvalValue acc;
    acc.min_r = {0.0, 0.0};
    acc.max_r = {0.0, 0.0};
    const std::uint64_t assignments = 1ULL << total_coins;
    const double w = 1.0 / static_cast<double>(assignments);

    for (std::uint64_t bits = 0; bits < assignments; ++bits) {
      const EvalValue v = eval_after_coins(state, coin_need, bits, depth);
      acc.min_r.lo += w * v.min_r.lo;
      acc.min_r.hi += w * v.min_r.hi;
      acc.max_r.lo += w * v.max_r.lo;
      acc.max_r.hi += w * v.max_r.hi;
    }

    memo_.emplace(key, acc);
    return acc;
  }

  std::uint64_t visited() const { return visited_; }
  bool saw_disagreement() const { return saw_disagreement_; }

 private:
  EvalValue terminal_value(const State& state) {
    std::optional<Bit> value;
    bool disagree = false;
    for (std::uint32_t i = 0; i < state.n; ++i) {
      if (!state.alive.test(i)) continue;
      SYNRAN_CHECK(state.procs[i]->decided());
      const Bit d = state.procs[i]->decision();
      if (!value.has_value())
        value = d;
      else if (*value != d)
        disagree = true;
    }
    if (disagree || !value.has_value()) {
      saw_disagreement_ = disagree;
      return EvalValue{};  // [0,1]: no meaningful probability
    }
    const double p = *value == Bit::One ? 1.0 : 0.0;
    return EvalValue{{p, p}, {p, p}};
  }

  /// Runs phase A under one concrete coin assignment, then min/maxes over
  /// the adversary's fault plans.
  EvalValue eval_after_coins(const State& state,
                             const std::vector<std::uint32_t>& coin_need,
                             std::uint64_t bits, std::uint32_t depth) {
    State post = state.deep_copy();
    std::vector<std::optional<Payload>> payloads(post.n);
    std::uint32_t offset = 0;
    bool anyone_sending = false;
    for (std::uint32_t i = 0; i < post.n; ++i) {
      if (!post.alive.test(i) || post.halted.test(i)) continue;
      std::vector<bool> tape(coin_need[i]);
      for (std::uint32_t c = 0; c < coin_need[i]; ++c)
        tape[c] = (bits >> (offset + c)) & 1;
      offset += coin_need[i];
      TapeCoinSource coins(std::move(tape));
      const Receipt* prev = post.have_receipt[i] ? &post.receipts[i] : nullptr;
      payloads[i] = post.procs[i]->on_round(prev, coins);
      if (!payloads[i].has_value())
        post.halted.set(i);
      else
        anyone_sending = true;
    }

    if (!anyone_sending) return terminal_value(post);

    // Active receivers (will digest this round's receipt).
    DynBitset active = post.alive;
    post.halted.for_each_set([&](std::size_t i) { active.reset(i); });

    // Candidate plans: no-crash, plus (victim, delivery-mask) for every
    // sender and every subset of the other active receivers.
    EvalValue best;
    bool first = true;
    const auto consider = [&](const FaultPlan& plan) {
      State child = post.deep_copy();
      DynBitset receivers = active;
      for (const auto& c : plan.crashes) receivers.reset(c.victim);
      deliver_into(child.n, RoundTraffic{payloads, &plan}, receivers,
                   child.receipts);
      receivers.for_each_set(
          [&](std::size_t i) { child.have_receipt[i] = true; });
      for (const auto& c : plan.crashes) child.alive.reset(c.victim);
      child.budget -= static_cast<std::uint32_t>(plan.crash_count());

      const EvalValue v = eval(child, depth - 1);
      if (first) {
        best = v;
        first = false;
      } else {
        best.min_r.lo = std::min(best.min_r.lo, v.min_r.lo);
        best.min_r.hi = std::min(best.min_r.hi, v.min_r.hi);
        best.max_r.lo = std::max(best.max_r.lo, v.max_r.lo);
        best.max_r.hi = std::max(best.max_r.hi, v.max_r.hi);
      }
    };

    consider(FaultPlan{});
    if (post.budget > 0 && opts_.per_round_cap >= 1) {
      for (std::uint32_t s = 0; s < post.n; ++s) {
        if (!payloads[s].has_value()) continue;
        // Delivery subsets range over the other active receivers.
        std::vector<std::uint32_t> others;
        for (std::uint32_t r = 0; r < post.n; ++r)
          if (r != s && active.test(r)) others.push_back(r);
        const std::uint64_t subsets = 1ULL << others.size();
        SYNRAN_REQUIRE(others.size() <= 16,
                       "delivery-mask enumeration too large");
        for (std::uint64_t m = 0; m < subsets; ++m) {
          FaultPlan plan;
          DynBitset mask(post.n);
          for (std::size_t j = 0; j < others.size(); ++j)
            if ((m >> j) & 1) mask.set(others[j]);
          plan.crashes.push_back({s, std::move(mask)});
          consider(plan);
        }
      }
    }
    return best;
  }

  ValencyOptions opts_;
  std::unordered_map<std::uint64_t, EvalValue> memo_;
  std::uint64_t visited_ = 0;
  bool saw_disagreement_ = false;
};

State initial_state(const ProcessFactory& factory,
                    const std::vector<Bit>& inputs,
                    const ValencyOptions& options) {
  State s;
  s.n = static_cast<std::uint32_t>(inputs.size());
  s.alive = DynBitset(s.n, true);
  s.halted = DynBitset(s.n, false);
  s.receipts.assign(s.n, Receipt{});
  s.have_receipt.assign(s.n, false);
  s.budget = options.t_budget;
  s.procs.reserve(s.n);
  for (std::uint32_t i = 0; i < s.n; ++i)
    s.procs.push_back(factory.make(i, s.n, inputs[i]));
  return s;
}

}  // namespace

ValencyVerdict evaluate_initial_state(const ProcessFactory& factory,
                                      const std::vector<Bit>& inputs,
                                      const ValencyOptions& options) {
  SYNRAN_REQUIRE(!inputs.empty() && inputs.size() <= kValencyMaxN,
                 "valency engine is for tiny systems (n <= 6)");
  SYNRAN_REQUIRE(options.t_budget < inputs.size(),
                 "t must leave at least one process alive");

  Evaluator ev(options);
  const State s0 = initial_state(factory, inputs, options);
  const EvalValue v = ev.eval(s0, options.max_depth);

  ValencyVerdict out;
  out.min_r = v.min_r;
  out.max_r = v.max_r;
  out.classes = classify_bounds(v.min_r, v.max_r,
                                static_cast<double>(inputs.size()), 1.0);
  out.states_visited = ev.visited();
  out.saw_disagreement = ev.saw_disagreement();
  return out;
}

ValencyVerdict evaluate_after_plan(const WorldView& world,
                                   const FaultPlan& plan,
                                   const ValencyOptions& options,
                                   double round_for_classification) {
  SYNRAN_REQUIRE(world.n() <= kValencyMaxN,
                 "valency engine is for tiny systems");
  SYNRAN_REQUIRE(plan.crash_count() <= world.budget_left(),
                 "plan exceeds the execution's remaining budget");

  // Reconstruct a start-of-round state: clone the processes (already past
  // phase A), apply the plan's deliveries, and charge the budget.
  State post;
  post.n = world.n();
  post.alive = world.alive();
  post.halted = world.halted();
  post.receipts.assign(post.n, Receipt{});
  post.have_receipt.assign(post.n, false);
  post.budget =
      world.budget_left() - static_cast<std::uint32_t>(plan.crash_count());
  post.procs.reserve(post.n);
  for (ProcessId i = 0; i < post.n; ++i)
    post.procs.push_back(world.process(i).clone());

  DynBitset active = post.alive;
  for (const auto& c : plan.crashes) active.reset(c.victim);
  post.halted.for_each_set([&](std::size_t i) { active.reset(i); });

  deliver_into(post.n, RoundTraffic{world.payloads(), &plan}, active,
               post.receipts);
  active.for_each_set([&](std::size_t i) { post.have_receipt[i] = true; });
  for (const auto& c : plan.crashes) post.alive.reset(c.victim);

  Evaluator ev(options);
  const EvalValue v = ev.eval(post, options.max_depth);

  ValencyVerdict out;
  out.min_r = v.min_r;
  out.max_r = v.max_r;
  out.classes = classify_bounds(v.min_r, v.max_r,
                                static_cast<double>(world.n()),
                                round_for_classification);
  out.states_visited = ev.visited();
  out.saw_disagreement = ev.saw_disagreement();
  return out;
}

InitialStateFinding find_bivalent_or_null_initial_state(
    const ProcessFactory& factory, std::uint32_t n,
    const ValencyOptions& options) {
  InitialStateFinding best;
  const std::uint8_t wanted =
      static_cast<std::uint8_t>(1u << static_cast<int>(Valency::Bivalent)) |
      static_cast<std::uint8_t>(1u << static_cast<int>(Valency::NullValent));

  // The Lemma 3.5 chain: 0^n, then flip inputs one at a time up to 1^n.
  std::vector<Bit> inputs(n, Bit::Zero);
  for (std::uint32_t flipped = 0; flipped <= n; ++flipped) {
    if (flipped > 0) inputs[flipped - 1] = Bit::One;
    const auto verdict = evaluate_initial_state(factory, inputs, options);
    const bool is_wanted =
        verdict.classes != 0 && (verdict.classes & ~wanted) == 0;
    if (is_wanted) {
      best.inputs = inputs;
      best.verdict = verdict;
      best.found = true;
      return best;
    }
    // Remember the most informative near-miss for reporting.
    if (best.inputs.empty() ||
        (verdict.classes & wanted) != 0) {
      best.inputs = inputs;
      best.verdict = verdict;
    }
  }
  return best;
}

}  // namespace synran
