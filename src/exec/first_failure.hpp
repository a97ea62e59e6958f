// The fail-fast bookkeeping shared by the sync and async batch executors.
#pragma once

#include <atomic>
#include <cstddef>
#include <limits>
#include <optional>

namespace synran::exec {

/// The earliest failed repetition of a fail-fast parallel batch, shared by
/// its workers. A worker skips only reps after it, so every rep before the
/// one finally reported has run: the batch reports the serial run's
/// failure, however the workers' failures interleave in wall time.
class FirstFailure {
 public:
  /// Records that `rep` failed; the earliest failure wins.
  void note(std::size_t rep) {
    std::size_t seen = rep_.load();
    while (rep < seen && !rep_.compare_exchange_weak(seen, rep)) {
    }
  }
  /// True once a rep before `rep` has failed: `rep` need not run.
  bool precedes(std::size_t rep) const { return rep_.load() < rep; }
  /// The earliest failed rep, if any (read after the workers have joined).
  std::optional<std::size_t> rep() const {
    const std::size_t r = rep_.load();
    if (r == kNone) return std::nullopt;
    return r;
  }

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::atomic<std::size_t> rep_{kNone};
};

}  // namespace synran::exec
