// Deterministic metrics registry: counters, gauges, fixed-bucket histograms,
// and Welford summaries, addressable by name.
//
// The registry is the aggregation substrate for every quantity the paper's
// arguments track (rounds to decision, per-round crash spend, message
// complexity, coin outcomes): engines and harnesses write into it through
// plain value types, and reports read it back out as JSON. Two rules keep it
// reproducible: no wall-clock anywhere (time belongs to google-benchmark, in
// bench/), and name-ordered storage (std::map) so serialization is
// byte-identical for identical runs. All types are value types — registries
// copy, merge, and live inside result structs without ownership ceremony.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/stats.hpp"
#include "obs/json.hpp"

namespace synran::obs {

/// Monotone event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  void merge(const Counter& other) { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }
  /// Merging gauges keeps the other side's value (last writer wins, and the
  /// merged-in registry is the newer one by convention).
  void merge(const Gauge& other) { value_ = other.value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: bucket i counts samples ≤ bounds[i] (first
/// matching bucket), with one implicit overflow bucket past the last bound.
/// Bounds are fixed at creation so cross-rep and cross-registry merges are
/// exact.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<double> upper_bounds);

  void add(double x);

  const std::vector<double>& bounds() const { return bounds_; }
  /// counts().size() == bounds().size() + 1; the last entry is overflow.
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::uint64_t count() const { return total_; }
  double sum() const { return sum_; }

  /// Requires identical bounds.
  void merge(const Histogram& other);

  /// Rebuilds a histogram from a snapshot of bounds()/counts()/sum().
  /// `counts` must have bounds.size() + 1 entries (the overflow bucket).
  static Histogram restore(std::vector<double> upper_bounds,
                           std::vector<std::uint64_t> counts, double sum);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// Named metrics, one namespace per kind. Mutable lookups create on first
/// use, in one map lookup either way, and build a key string only for a
/// new name; const lookups require the metric to exist (reports read only
/// what something wrote).
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_bounds` applies on first creation only and must match on every
  /// later lookup of the same name.
  Histogram& histogram(std::string_view name,
                       const std::vector<double>& upper_bounds);
  Summary& summary(std::string_view name);

  const Counter& counter_at(std::string_view name) const;
  const Gauge& gauge_at(std::string_view name) const;
  const Histogram& histogram_at(std::string_view name) const;
  const Summary& summary_at(std::string_view name) const;

  bool has_counter(std::string_view name) const;
  bool has_summary(std::string_view name) const;

  /// Folds `other` into this registry: counters add, gauges overwrite,
  /// histograms add bucket-wise, summaries merge (Welford).
  void merge(const MetricsRegistry& other);

  /// Snapshot of everything, grouped by kind, name-ordered:
  /// {"counters":{...},"gauges":{...},"histograms":{...},"summaries":{...}}
  JsonValue to_json() const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() &&
           summaries_.empty();
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, Summary, std::less<>> summaries_;
};

}  // namespace synran::obs
