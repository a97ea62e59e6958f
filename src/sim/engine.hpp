// The synchronous execution engine.
//
// Drives n Process instances against one Adversary under the round structure
// of §3.1, enforcing the fault budget, collecting the execution metrics every
// experiment needs (rounds to decision, crashes per round, agreement /
// validity verdicts), and staying bit-for-bit reproducible from a seed.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "sim/adversary.hpp"
#include "sim/process.hpp"
#include "sim/workspace.hpp"

namespace synran {

namespace obs {
class EngineObserver;
}  // namespace obs

struct EngineOptions {
  /// Global fault budget t (max processes the adversary may crash).
  std::uint32_t t_budget = 0;
  /// Optional per-round crash cap (0 = no per-round cap). The lower-bound
  /// adversary class B uses 4√(n·ln n)+1 (§3.2).
  std::uint32_t per_round_cap = 0;
  /// Global omission budget: max omission directives (one live sender's
  /// message suppressed for a receiver subset) over the whole execution.
  /// 0 — the default — forbids omissions entirely, preserving the paper's
  /// fail-stop model bit for bit.
  std::uint32_t omission_budget = 0;
  /// Optional per-round omission-directive cap (0 = no per-round cap),
  /// mirroring per_round_cap.
  std::uint32_t omission_round_cap = 0;
  /// Global byzantine budget: max corruption directives (one live sender's
  /// message replaced by per-receiver forged values) over the whole
  /// execution. 0 — the default — forbids corrupted values entirely,
  /// preserving the paper's fail-stop model bit for bit.
  std::uint32_t byzantine_budget = 0;
  /// Optional per-round corruption-directive cap (0 = no per-round cap),
  /// mirroring per_round_cap.
  std::uint32_t byzantine_round_cap = 0;
  /// Safety valve: abort the run (marking it non-terminating) after this many
  /// rounds. Must comfortably exceed any expected run length.
  std::uint32_t max_rounds = 100000;
  /// Master seed; every process stream derives from it.
  std::uint64_t seed = 1;
  /// Audit decisions as latching (see RunAuditor::set_strict_decisions).
  /// Leave off for SynRan-family protocols, which rescind until STOP.
  bool strict_decision_audit = false;
  /// Optional observability hook (borrowed, may be null): receives the
  /// round-granular callbacks of obs/observer.hpp. Use obs::MultiObserver to
  /// install several. Observers see, they never steer.
  obs::EngineObserver* observer = nullptr;
};

/// Outcome of one execution: the summary plus the per-round crash counts
/// and the final per-process status.
struct RunResult : RunSummary {
  std::vector<std::uint32_t> crashes_per_round;

  /// Final per-process status (survivors only meaningful).
  std::vector<bool> crashed;
  std::vector<bool> decided;
  std::vector<Bit> decisions;
};

/// Runs executions to completion. An Engine binds to one EngineWorkspace
/// and is reusable: each run() resets the workspace buffers in place, so a
/// batch of repetitions pays no per-rep allocation for engine state. One
/// engine serves one thread at a time.
class Engine {
 public:
  explicit Engine(EngineWorkspace& workspace) : ws_(workspace) {}

  /// Summary-only hot path: runs one execution and returns the aggregate
  /// scalars. Per-process status vectors and per-round crash counts are not
  /// materialized. `inputs` may alias workspace.inputs().
  RunSummary run(const ProcessFactory& factory, std::span<const Bit> inputs,
                 Adversary& adversary, const EngineOptions& options);

  /// Full-detail run: additionally fills `full` with the per-process status
  /// vectors and per-round crash counts (narration, audits, tests).
  RunSummary run(const ProcessFactory& factory, std::span<const Bit> inputs,
                 Adversary& adversary, const EngineOptions& options,
                 RunResult& full);

 private:
  RunSummary run_impl(const ProcessFactory& factory,
                      std::span<const Bit> inputs, Adversary& adversary,
                      const EngineOptions& options, RunResult* full);

  EngineWorkspace& ws_;
};

/// Convenience: run one execution with a throwaway workspace and collect the
/// full result.
RunResult run_once(const ProcessFactory& factory, std::vector<Bit> inputs,
                   Adversary& adversary, EngineOptions options);

/// Checks validity against the inputs: if all inputs equal v, the decision
/// (when any) must be v. Returns true when the validity condition holds.
bool validity_holds(const std::vector<Bit>& inputs, const RunResult& result);

}  // namespace synran
