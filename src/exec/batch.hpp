// Batch-execution vocabulary shared by the executor, the runner harness,
// tests, examples, and the bench tables: input patterns, the per-rep seeding
// schema, and aggregate verdicts.
//
// Seeding schema (version 2, "synran-seed/2"): with S = SeedSequence(seed),
// repetition k of a batch uses
//   inputs     Xoshiro256(S.stream(kInputStreamBase + k))
//   adversary  S.stream(kAdversaryStreamBase + k)
//   engine     S.stream(kEngineStreamBase + k)
// Every stream is a pure function of (master seed, k): repetition k's inputs,
// adversary, and coins do not depend on repetitions 0..k-1, so any scheduler
// — serial, sharded across threads, or resumed mid-batch — reproduces the
// same executions. Schema 1 drew Random/SingleZero inputs from one shared
// sequential RNG, which coupled rep k to every rep before it; bumping to 2
// changed those two patterns' input streams (AllZero/AllOne/Half never
// consume input randomness and are unchanged).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/stats.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/adversary.hpp"
#include "sim/engine.hpp"
#include "sim/workspace.hpp"

namespace synran {

/// Version of the per-rep seed derivation documented above. Bumped whenever
/// the mapping (master seed, rep) → (inputs, adversary seed, engine seed)
/// changes, because every seeded expectation downstream moves with it.
inline constexpr int kSeedSchemaVersion = 2;

/// Stream-id bases for SeedSequence::stream. Disjoint for any batch with
/// fewer than ~2^31 repetitions.
inline constexpr std::uint64_t kAdversaryStreamBase = 1000;
inline constexpr std::uint64_t kEngineStreamBase = 2000000;
inline constexpr std::uint64_t kInputStreamBase = 0x494e505554ULL;  // "INPUT"

/// Input assignments used across the experiment suite.
enum class InputPattern : std::uint8_t {
  AllZero,
  AllOne,
  Half,      ///< first half 0, second half 1
  Random,    ///< i.i.d. fair bits (fresh per rep)
  SingleZero ///< one 0 among 1s (the chain adversary's workload)
};

const char* to_string(InputPattern p);

/// Fills `out` (resized to n) with the pattern, drawing any randomness from
/// `rng`. The in-place form lets workspaces recycle the input allocation.
void make_inputs(std::vector<Bit>& out, std::uint32_t n, InputPattern pattern,
                 Xoshiro256& rng);

std::vector<Bit> make_inputs(std::uint32_t n, InputPattern pattern,
                             Xoshiro256& rng);

/// The input RNG for repetition `rep` of a batch with master seed `seed`
/// (seeding schema 2): a fresh stream per rep, independent of all others.
Xoshiro256 input_rng_for_rep(std::uint64_t seed, std::size_t rep);

/// Per-rep adversary and engine seeds of the same schema.
std::uint64_t adversary_seed_for_rep(std::uint64_t seed, std::size_t rep);
std::uint64_t engine_seed_for_rep(std::uint64_t seed, std::size_t rep);

/// Builds a fresh adversary for one repetition; `seed` decorrelates
/// adversary randomness across reps. Factories are invoked from worker
/// threads when a batch runs parallel, so they must be safe to call
/// concurrently (stateless lambdas — the norm everywhere in this repo —
/// trivially are).
using AdversaryFactory =
    std::function<std::unique_ptr<Adversary>(std::uint64_t seed)>;

AdversaryFactory no_adversary_factory();

/// What the executor does with a repetition that still throws after its
/// retry budget (RepeatSpec::max_rep_retries) is spent.
enum class FailurePolicy : std::uint8_t {
  /// Abort the whole batch: the earliest failing rep's exception is
  /// rethrown as a RepError naming the rep and its engine seed.
  FailFast,
  /// Record a RepFailure, skip the rep, and fold the survivors in rep
  /// order. The batch completes; RepeatedRunStats reports the quarantined
  /// count and the structured failures.
  Quarantine,
};

const char* to_string(FailurePolicy policy);

/// One repetition that exhausted its attempts without producing a
/// RunSummary. `seed` is the rep's engine seed (schema-2 derived from the
/// master seed), which together with the rep index is enough to replay the
/// failure in isolation.
struct RepFailure {
  std::size_t rep = 0;
  std::uint64_t seed = 0;
  std::uint32_t attempts = 0;  ///< attempts made (retries + 1)
  std::string error;           ///< exception text of the last attempt

  obs::JsonValue to_json() const;
};

/// Thrown by fail-fast batches: wraps the failing rep's exception text with
/// the rep index and engine seed, so an aborted sweep names exactly which
/// execution to replay.
class RepError : public std::runtime_error {
 public:
  RepError(std::size_t rep, std::uint64_t seed, const std::string& what);

  std::size_t rep() const { return rep_; }
  std::uint64_t seed() const { return seed_; }

 private:
  std::size_t rep_ = 0;
  std::uint64_t seed_ = 0;
};

/// The aggregate both batch models share, backed by a metrics registry so
/// the whole batch serializes to JSON in one call (metrics().to_json()):
/// the six verdict counters, the quarantine list, and the exact checkpoint
/// payload with its checked restore. RepeatedRunStats and AsyncRunStats
/// (exec/async_batch.hpp) add their own summaries and add(); anything a new
/// experiment wants to track rides along in the same registry.
///
/// Registry counters: reps, agreement_failures, validity_failures,
/// non_terminated, decided_one, reps_quarantined.
class BatchStats {
 public:
  /// Records a quarantined repetition (executor-only in practice): bumps
  /// the reps_quarantined counter and keeps the structured failure.
  /// Quarantined reps contribute to no summary.
  void note_quarantined(RepFailure failure);

  std::size_t reps() const;
  std::size_t agreement_failures() const;
  std::size_t validity_failures() const;
  std::size_t non_terminated() const;
  /// Reps whose common decision was 1.
  std::size_t decided_one() const;
  /// Reps that exhausted their retry budget and were skipped (always 0
  /// under FailurePolicy::FailFast, which throws instead).
  std::size_t reps_quarantined() const;

  /// The quarantined reps, in rep order.
  const std::vector<RepFailure>& failures() const { return failures_; }

  bool all_safe() const {
    return agreement_failures() == 0 && validity_failures() == 0 &&
           non_terminated() == 0;
  }

  /// Exact checkpoint payload: {"stats":<registry snapshot with raw
  /// Welford state>,"failures":[...]} — see obs/checkpoint.hpp. An
  /// aggregate rebuilt via its from_checkpoint() serializes and behaves
  /// identically to the original.
  obs::JsonValue checkpoint_json() const;

  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 protected:
  /// Pre-registers the counters and the subclass's `summaries` (a static
  /// list) so a zero-rep aggregate still reads back as zeros instead of
  /// "unknown metric". `label` opens every restore error message.
  BatchStats(const char* label, std::span<const char* const> summaries);

  /// Counts one folded repetition's verdicts.
  void count_rep(bool terminated, bool disagreed, bool valid, bool one);

  /// Replaces the registry and quarantine list with a checkpoint_json()
  /// payload. Throws ArgumentError when the payload is malformed or is
  /// missing a pre-registered metric.
  void restore(const obs::JsonValue& payload);

  obs::MetricsRegistry metrics_;

 private:
  const char* label_;
  std::span<const char* const> summaries_;
  std::vector<RepFailure> failures_;
};

/// Aggregates over repeated synchronous executions.
///
/// Registry summaries: rounds_to_decision, rounds_to_halt (terminated reps
/// only), crashes_used, messages_delivered, omissions_used,
/// messages_omitted, corruptions_used, messages_corrupted (all reps).
class RepeatedRunStats : public BatchStats {
 public:
  RepeatedRunStats();

  /// Folds one repetition's summary into the aggregate. The registry's
  /// floating-point state depends on fold order; callers that must match the
  /// serial run fold in rep order.
  void add(const RunSummary& rep);

  /// Expected rounds to decision across terminated reps.
  const Summary& rounds_to_decision() const;
  const Summary& rounds_to_halt() const;
  /// Adversary crash spend per rep (all reps).
  const Summary& crashes_used() const;
  /// Point-to-point deliveries per rep (communication complexity).
  const Summary& messages_delivered() const;
  /// Omission directives spent per rep (all zero under fail-stop defaults).
  const Summary& omissions_used() const;
  /// Links actually suppressed by omissions per rep.
  const Summary& messages_omitted() const;
  /// Corruption directives spent per rep (all zero under fail-stop
  /// defaults).
  const Summary& corruptions_used() const;
  /// Links actually forged by corruptions per rep.
  const Summary& messages_corrupted() const;

  /// Inverse of checkpoint_json(). Throws ArgumentError when the payload
  /// is malformed or missing a pre-registered metric.
  static RepeatedRunStats from_checkpoint(const obs::JsonValue& payload);
};

struct RepeatSpec {
  std::uint32_t n = 0;
  InputPattern pattern = InputPattern::Random;
  EngineOptions engine;  ///< engine.seed is re-derived per rep
  std::size_t reps = 1;
  std::uint64_t seed = 1;  ///< master seed for the whole batch
  /// Worker threads for the batch: 1 = serial on the calling thread,
  /// N > 1 = that many workers, 0 = auto (SYNRAN_THREADS when set, else
  /// serial). Statistics are bit-identical at every thread count.
  unsigned threads = 0;
  /// What to do with a rep that throws after its retries are spent.
  FailurePolicy policy = FailurePolicy::FailFast;
  /// How many times a repetition that throws is re-attempted with its
  /// identical per-rep seeds before it counts as failed (0 = no retries).
  /// Retrying with the same seeds preserves determinism — a rep either
  /// produces its one canonical RunSummary or is quarantined/fails the
  /// batch, depending on `policy`. The executor rejects 4294967295, whose
  /// attempt count (retries + 1) would not fit in 32 bits.
  std::uint32_t max_rep_retries = 0;
};

/// Fingerprint of everything a repeated batch's statistics depend on: the
/// protocol, a caller-chosen tag (e.g. ablation variant), every
/// result-bearing spec field, and the seed schema version. Deliberately
/// excludes `threads` (results are thread-count invariant) and the
/// observer. Checkpoint ledgers store this key per cell and refuse to
/// reload a cell whose key changed.
std::string spec_cell_key(const RepeatSpec& spec, std::string_view protocol,
                          std::string_view tag);

}  // namespace synran
