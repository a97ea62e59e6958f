// Measurement vocabulary shared by every workload: the percentile rule,
// output digests, and the in-memory span log of the traced run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Seconds since the clock's construction: the time axis of a span log.
class TraceClock {
 public:
  TraceClock() : origin_(Clock::now()) {}
  double now() const { return seconds_between(origin_, Clock::now()); }

 private:
  Clock::time_point origin_;
};

/// Six significant digits, for report lines.
std::string fmt(double v);

// ------------------------------------------------------------ percentiles

/// Samples strictly above the nearest-rank p-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// A percentile is reported only when at least ten samples lie beyond it.
bool percentile_supported(std::size_t n, double p);

/// The highest of p99.9, p99, p90 and p50 that n samples support; 0 when
/// even the median is unsupported.
double highest_supported_percentile(std::size_t n);

/// Nearest-rank p-quantile (p in (0, 1]); 0 for an empty sample.
double percentile(std::vector<double> samples, double p);

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// One latency class of a run: its samples in milliseconds.
struct LatencySample {
  std::vector<double> ms;

  double p50() const { return percentile(ms, 0.5); }
  double p90() const { return percentile(ms, 0.9); }
  /// "p50 1.234 ms, p90 2.345 ms (n=812; highest supported p99 = …)".
  std::string describe() const;
};

/// Throughput of a timed phase as the median over consecutive windows of
/// at least `window_s` (each closed after whole units of work). A shared
/// machine slows some windows down in bursts; the median window resists
/// that, where one total-over-wall figure absorbs every burst whole.
class WindowRate {
 public:
  explicit WindowRate(double window_s = 0.5) : window_s_(window_s) {}
  void start(Clock::time_point t);
  /// Records `units` of completed work at time `now`.
  void add(double units, Clock::time_point now);
  /// Median window rate, units per second; 0 before the first full window.
  double median_rate() const { return median(rates_); }
  std::size_t windows() const { return rates_.size(); }

 private:
  double window_s_;
  Clock::time_point begin_{};
  double units_ = 0;
  std::vector<double> rates_;
};

// ---------------------------------------------------------------- digests

/// Chained content digest of a run's outputs: each item is hashed with the
/// serve cache's FNV-1a, and the chain folds the item hashes in order.
class Digest {
 public:
  void add(std::string_view bytes);
  /// 16 lowercase hex digits of the chain; "empty" before the first item.
  std::string hex() const;

 private:
  std::string chain_;
  std::size_t items_ = 0;
};

/// Pinned-output check: on the default seed the digest of a run's first
/// outputs must equal the pinned value; on other seeds only the
/// seed-independent checks apply, so the verdict is "not pinned".
struct DigestVerdict {
  bool pinned = false;   ///< a pinned value applied to this run
  bool matches = true;   ///< always true when !pinned
  std::string expected;  ///< pinned hex ("" when !pinned)
  std::string actual;

  /// "<actual> (matches the pin)", "(pin: <expected>)" or "(not pinned …)".
  std::string describe() const;
};

DigestVerdict check_pinned(const Digest& digest, bool default_seed,
                           std::string_view pinned_hex);

// ------------------------------------------------------------------ spans

/// One timed interval of the traced run. Times are seconds from the log's
/// origin; `parent` indexes the enclosing span (-1 at top level); `unit`
/// is the rep (batch workloads) or request (serve) the span belongs to.
struct Span {
  std::uint16_t name = 0;
  std::int32_t parent = -1;
  std::uint64_t unit = 0;
  double start = 0;
  double end = 0;
};

/// Spans kept in memory and written out when the run ends. Totals are
/// exact for every span ever added; only the first `keep` spans are kept
/// verbatim for the span file, which bounds memory on long runs.
class SpanLog {
 public:
  explicit SpanLog(std::size_t keep = 50000) : keep_(keep) {}

  /// Interns a span name; ids are stable for the log's lifetime.
  std::uint16_t name_id(std::string_view name);

  /// Records a span and returns its index (for children's `parent`). A
  /// child must be added after its parent and lie inside it.
  std::int32_t add(std::uint16_t name, double start, double end,
                   std::int32_t parent, std::uint64_t unit);

  /// Duration of every span with this name, minus its children's; 0 for a
  /// name never seen.
  double self_seconds(std::string_view name) const;
  /// Spans added under this name; 0 for a name never seen.
  std::uint64_t count(std::string_view name) const;
  /// Sum of top-level span durations: the attributed part of the wall.
  double attributed_seconds() const { return top_level_; }
  /// Wall time minus the attributed spans.
  double residual_seconds(double wall) const { return wall - top_level_; }

  std::size_t size() const { return added_; }
  std::size_t kept() const { return spans_.size(); }
  /// Tab-separated: index, name, start_s, end_s, parent, unit.
  void write(std::ostream& out) const;

 private:
  std::size_t keep_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<double> self_;            ///< per name id
  std::vector<std::uint64_t> counts_;  ///< per name id
  /// Name of every span added, kept or not, so a child can always charge
  /// its duration against its parent's self time.
  std::vector<std::uint16_t> all_names_;
  double top_level_ = 0;
  std::size_t added_ = 0;
};

}  // namespace perfbench
