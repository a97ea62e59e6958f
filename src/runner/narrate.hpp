// Human-readable execution narration: renders one recorded run as the
// round-by-round story the paper's arguments are about — population,
// traffic composition, adversary spend — so a single execution can be read
// like the proof sketches read. check_model_invariants re-checks the §3.1
// rules on the same record, independently of the runtime auditor. Both
// read one run's obs::TraceRecords (an obs::TraceRecorder capture, or a
// trace file read back), and only its RunBegin and RoundEnd records, whose
// fields both trace formats persist.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "obs/trace_record.hpp"

namespace synran {

struct NarrateOptions {
  /// Collapse runs of identical-looking rounds into one "× k" line.
  bool collapse_repeats = true;
  /// Width of the ones/zeros composition bar.
  std::size_t bar_width = 30;
};

/// Writes a header and one line per round (or per collapsed run) to `os`.
void narrate(std::span<const obs::TraceRecord> run, std::ostream& os,
             const NarrateOptions& options = {});

/// Result of checking a recorded run against the §3.1 model invariants.
struct InvariantReport {
  bool ok = true;
  std::vector<std::string> violations;

  void fail(std::string what) {
    ok = false;
    violations.push_back(std::move(what));
  }
};

/// Checks: alive non-increasing; halted non-decreasing; senders ≤ alive −
/// halted; ones + zeros bounded by senders (a det-stage payload may carry
/// both bits, so the sum may exceed senders only by `deterministic`);
/// crashes ≤ budget remaining and consistent with the alive drop; decided
/// non-decreasing only while nobody rescinds (SynRan may rescind, so the
/// decided check is optional).
InvariantReport check_model_invariants(std::span<const obs::TraceRecord> run);

}  // namespace synran
