// synran-req/1 request parsing, validation, and canonicalization.
//
// The run config is read by runner/run_config, the key table and rules
// `synran run` applies to its flags: unknown names, unparsable or
// out-of-range values, and unknown keys are all structured rejections,
// never crashes. It comes back in CANONICAL form: every key of the model
// present (defaults applied), fixed key order, compact serialization. Two
// requests that describe the same batch — one spelling out defaults, one
// omitting them — canonicalize to the same bytes, and those bytes (plus
// the seed schema version and git_rev) are what the content-addressed
// result cache hashes. See EXPERIMENTS.md "synran-req/1" for the schema
// and the canonicalization rules.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"

namespace synran::serve {

/// A malformed request: the serve-side UsageError. `code` is the machine-
/// readable error code echoed in the response ("bad_request" for all
/// validation failures); what() is the human-readable diagnostic.
class BadRequest : public std::runtime_error {
 public:
  explicit BadRequest(const std::string& message)
      : std::runtime_error(message) {}
};

enum class Command : std::uint8_t { Run, Ping, Stats, Shutdown };

const char* to_string(Command cmd);

/// One validated request.
struct ServeRequest {
  std::string id;  ///< client-chosen correlation tag, echoed verbatim
  Command cmd = Command::Ping;
  /// Canonical run configuration (Run only): defaults applied, fixed key
  /// order. This exact serialization feeds the cache key.
  obs::JsonValue config;
  /// Per-request deadline in milliseconds; 0 = use the server default.
  /// Clamped to the server default when that default is tighter.
  std::uint64_t deadline_ms = 0;
};

/// Parses and validates one frame body. Throws BadRequest on anything
/// malformed: non-JSON, wrong schema tag, unknown command, unknown or
/// ill-typed config keys, out-of-range values, sync-only fields on an
/// async run.
ServeRequest parse_request(const std::string& body);

/// The canonical cache-key string for a run config:
///   "<canonical config dump>|seed_schema=<N>|git_rev=<rev>"
/// Everything a result depends on and nothing more — thread counts and
/// deadlines are execution resources, not result inputs, and are excluded
/// (statistics are thread-count invariant by the executor's contract).
std::string cache_key_string(const obs::JsonValue& canonical_config,
                             const std::string& git_rev);

}  // namespace synran::serve
