// Reusable per-thread execution state for the synchronous engine.
//
// Every repeated-run experiment used to pay one full set of heap
// allocations per repetition: payload/receipt/status vectors inside
// Engine::run, the auditor's bitsets, the per-process coin sources and the
// n processes themselves. An EngineWorkspace owns all of them once; the
// engine resets the buffers in place at the start of each run and rebuilds
// each kept process in place through ProcessFactory::remake (make() fills
// only an empty slot or one the factory cannot rebuild), so a run allocates
// only what its adversary and protocol allocate while running. The batch
// executors keep one workspace per thread across batches (exec/executor.hpp,
// rule 2). One workspace serves one thread — workspaces are never shared
// concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/dynbitset.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/types.hpp"
#include "sim/audit.hpp"
#include "sim/process.hpp"

namespace synran {

/// The aggregate-facing outcome of one execution: every scalar the repeated
/// harness folds into its statistics, and nothing per-process. The full
/// RunResult (per-process status vectors, per-round crash counts) is
/// materialized only on request — narration and tests want it, the
/// hot aggregate path does not.
struct RunSummary {
  /// First round by whose end every non-crashed process had decided;
  /// 0 if that never happened (see `terminated`).
  std::uint32_t rounds_to_decision = 0;
  /// Round by whose end every non-crashed process had halted.
  std::uint32_t rounds_to_halt = 0;
  bool terminated = false;  ///< all survivors decided within max_rounds

  bool agreement = false;     ///< all survivor decisions equal
  bool has_decision = false;  ///< at least one survivor decided
  Bit decision = Bit::Zero;   ///< the common value when agreement holds
  /// Validity verdict against this run's inputs (computed while the engine
  /// still holds the inputs, so summary-only callers never need them back).
  bool validity = true;

  /// The adversary's spend and the deliveries, summed over the rounds.
  /// `delivered` is the communication complexity (a broadcast to k
  /// receivers counts k); `omitted` counts |drop_for ∩ active receivers|
  /// per omission directive and `corrupted` the forgeries whose target is
  /// an active receiver. All but crashes and deliveries stay 0 under the
  /// fail-stop default.
  FaultTally faults;
};

/// Pre-sized buffers for Engine runs, reused across repetitions. The input
/// buffer is writable by callers (make_inputs fills it in place); everything
/// else belongs to the engine.
class EngineWorkspace {
 public:
  EngineWorkspace() = default;
  EngineWorkspace(const EngineWorkspace&) = delete;
  EngineWorkspace& operator=(const EngineWorkspace&) = delete;

  /// Scratch input vector for the next run; callers may fill and pass it to
  /// Engine::run (the engine reads inputs through a span, so any vector
  /// works — this one just recycles its allocation).
  std::vector<Bit>& inputs() { return inputs_; }
  const std::vector<Bit>& inputs() const { return inputs_; }

 private:
  friend class Engine;

  /// Sizes every buffer for system size `n` (first use or n change) or
  /// clears them in place (steady state; no allocation). Kept processes
  /// stay in their slots for the engine to rebuild; `alive_` is sized last,
  /// so a resize cut short by an exception is redone by the next run.
  void prepare(std::uint32_t n) {
    if (alive_.size() != n) {
      halted_ = DynBitset(n, false);
      payloads_.assign(n, std::nullopt);
      receipts_.assign(n, Receipt{});
      have_receipt_.assign(n, 0);
      procs_.resize(n);
      coins_.assign(n, RandomCoinSource(0));
      alive_ = DynBitset(n, true);
    } else {
      alive_.set_all();
      halted_.clear_all();
      for (auto& p : payloads_) p.reset();
      for (auto& h : have_receipt_) h = 0;
    }
    crashes_per_round_.clear();
  }

  std::vector<Bit> inputs_;
  /// The last run's processes, rebuilt in place by the next run. They
  /// outlive their batch and the factory that made them (until a later run
  /// replaces them or the workspace dies), so a Process owns what it uses.
  std::vector<std::unique_ptr<Process>> procs_;
  RunAuditor auditor_;
  std::vector<RandomCoinSource> coins_;
  DynBitset alive_;
  DynBitset halted_;
  DynBitset active_;  ///< the current round's receivers (engine-assigned)
  std::vector<std::optional<Payload>> payloads_;
  std::vector<Receipt> receipts_;
  std::vector<std::uint8_t> have_receipt_;
  std::vector<std::uint32_t> crashes_per_round_;  ///< full-result runs only
};

}  // namespace synran
