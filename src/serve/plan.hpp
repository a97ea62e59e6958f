// Canonical config → executable batch.
//
// build_plan reads the canonical synran-req/1 config back through
// runner/run_config, the one plan builder `synran run` also uses, so the
// daemon and the CLI wire the same factories and spec from one config.
// Execution returns the batch's EXACT checkpoint payload
// (RepeatedRunStats/AsyncRunStats::checkpoint_json), which is what the
// content-addressed cache stores; the client-facing result object is then
// derived from that payload by result_from_payload() on BOTH the compute
// and the cache-hit path, so a hit is byte-identical to a fresh run by
// construction, not by luck.
#pragma once

#include "obs/json.hpp"
#include "runner/run_config.hpp"

namespace synran::serve {

/// One executable batch: runner/run_config's plan.
using RunPlan = synran::RunPlan;

/// Builds the plan for a canonical config (as produced by parse_request).
/// `threads` is the server's worker count — an execution resource, never
/// part of the cache key (statistics are thread-count invariant).
RunPlan build_plan(const obs::JsonValue& canonical_config, unsigned threads);

/// Runs the batch. Returns the exact checkpoint payload. Propagates
/// exec::Interrupted when a deadline or drain stop lands mid-batch.
obs::JsonValue execute_plan(const RunPlan& plan);

/// Derives the client-facing result object from a checkpoint payload by
/// restoring the aggregate and re-reading it: headline verdict counters, a
/// few headline means, and the full payload under "checkpoint" so clients
/// can rebuild the aggregate exactly. Throws on a foreign/corrupt payload
/// (the cache validator treats that as a torn entry).
obs::JsonValue result_from_payload(bool is_async,
                                   const obs::JsonValue& payload);

}  // namespace synran::serve
