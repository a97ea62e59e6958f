// Exact valency evaluation for tiny systems (§3.2 of the paper).
//
// The lower-bound proof classifies an execution state α_k by
//     min r(α_k) and max r(α_k),   r(α_k) = {Pr[1 | α_k, b] : b ∈ B},
// where B is the class of adversaries failing ≤ 4√(n·ln n)+1 processes per
// round. For tiny n this library evaluates those quantities *exactly* by
// exhausting the game tree: every coin assignment of every round (protocols
// draw coins through CoinSource, so a TapeCoinSource enumerates them) and
// every fault action of a per-round-capped adversary.
//
// Because randomized protocols terminate with probability 1 but not within a
// bounded horizon, the recursion carries interval bounds: subtrees cut off at
// the depth limit contribute [0,1]. The deeper the horizon, the tighter the
// intervals; terminating branches are exact.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "sim/adversary.hpp"
#include "sim/process.hpp"

namespace synran {

/// Closed interval bound on a probability.
struct PInterval {
  double lo = 0.0;
  double hi = 1.0;
  double width() const { return hi - lo; }
  bool exact(double tol = 1e-12) const { return width() <= tol; }
};

/// The four §3.2 classes. The table's margins are ε_k = 1/√n − k/n.
enum class Valency : std::uint8_t {
  Bivalent = 0,
  ZeroValent = 1,
  OneValent = 2,
  NullValent = 3,
};

const char* to_string(Valency v);

/// Exact classification given exact min/max r values.
Valency classify(double min_r, double max_r, double n, double round_k);

/// With interval bounds, several classes may remain possible; returns a
/// bitmask over Valency values (bit v set = class v consistent).
std::uint8_t classify_bounds(const PInterval& min_r, const PInterval& max_r,
                             double n, double round_k);
bool bounds_decide_unique(std::uint8_t mask);

struct ValencyOptions {
  /// Adversary class: crashes allowed per round. Only 0 and 1 are supported
  /// (the branching over simultaneous multi-crash delivery masks explodes;
  /// the paper's round-1 argument needs exactly one).
  std::uint32_t per_round_cap = 1;
  /// Total crash budget t.
  std::uint32_t t_budget = 1;
  /// Horizon: rounds explored before a subtree returns [0,1].
  std::uint32_t max_depth = 12;
};

/// The engine's verdict for one state.
struct ValencyVerdict {
  PInterval min_r;  ///< bounds on min over adversaries of Pr[decide 1]
  PInterval max_r;  ///< bounds on max over adversaries of Pr[decide 1]
  std::uint8_t classes = 0;  ///< consistent §3.2 classes at the queried round
  std::uint64_t states_visited = 0;
  /// True when an explored terminal branch ended in disagreement — a
  /// protocol bug the engine surfaces rather than tolerates.
  bool saw_disagreement = false;
};

/// Largest system the exact engine evaluates: its tree enumerates coin
/// vectors and fault actions of every process.
inline constexpr std::uint32_t kValencyMaxN = 6;

/// Evaluates the initial state of `factory` on `inputs`.
ValencyVerdict evaluate_initial_state(const ProcessFactory& factory,
                                      const std::vector<Bit>& inputs,
                                      const ValencyOptions& options);

/// Evaluates the state reached from a live execution's adversary decision
/// point (`world`, i.e. after phase A) by applying `plan` and delivering.
/// This is what lets an adversary *play* the §3.3–3.5 strategy: query the
/// exact valency of every candidate fault action mid-execution and pick the
/// one that stays bivalent/null-valent. `round_for_classification` sets the
/// ε_k margin (usually the next round's index). Tiny systems only.
ValencyVerdict evaluate_after_plan(const WorldView& world,
                                   const FaultPlan& plan,
                                   const ValencyOptions& options,
                                   double round_for_classification);

/// Lemma 3.5 executable: searches the input chain 0^n → 1^n (flipping one
/// input at a time) for an initial state that is bivalent or null-valent —
/// possibly after the adversary's first-round single crash (which the
/// engine's round-1 min/max already ranges over).
struct InitialStateFinding {
  std::vector<Bit> inputs;
  ValencyVerdict verdict;
  bool found = false;  ///< a provably bivalent-or-null-valent state exists
};
InitialStateFinding find_bivalent_or_null_initial_state(
    const ProcessFactory& factory, std::uint32_t n,
    const ValencyOptions& options);

}  // namespace synran
