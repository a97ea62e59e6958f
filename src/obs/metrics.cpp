#include "obs/metrics.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace synran::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  SYNRAN_REQUIRE(!bounds_.empty(), "histogram needs at least one bound");
  SYNRAN_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must be sorted ascending");
}

void Histogram::add(double x) {
  SYNRAN_CHECK_MSG(!counts_.empty(), "histogram used before construction");
  std::size_t i = 0;
  while (i < bounds_.size() && x > bounds_[i]) ++i;
  ++counts_[i];
  ++total_;
  sum_ += x;
}

void Histogram::merge(const Histogram& other) {
  if (other.counts_.empty()) return;
  if (counts_.empty()) {
    *this = other;
    return;
  }
  SYNRAN_REQUIRE(bounds_ == other.bounds_,
                 "cannot merge histograms with different bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  total_ += other.total_;
  sum_ += other.sum_;
}

Histogram Histogram::restore(std::vector<double> upper_bounds,
                             std::vector<std::uint64_t> counts, double sum) {
  Histogram h{std::move(upper_bounds)};
  SYNRAN_REQUIRE(counts.size() == h.bounds_.size() + 1,
                 "Histogram::restore: counts must cover every bucket plus "
                 "overflow");
  h.counts_ = std::move(counts);
  h.total_ = 0;
  for (const std::uint64_t c : h.counts_) h.total_ += c;
  h.sum_ = sum;
  return h;
}

namespace {

/// Where `name` is or would be inserted in `map`, and whether it is there:
/// one lookup, and no key string built, whether or not the name exists.
template <typename Map>
std::pair<typename Map::iterator, bool> locate(Map& map,
                                               std::string_view name) {
  const auto it = map.lower_bound(name);
  return {it, it != map.end() && it->first == name};
}

/// The metric named `name`, value-initialized first if it is new.
template <typename Map>
typename Map::mapped_type& find_or_add(Map& map, std::string_view name) {
  auto [it, found] = locate(map, name);
  if (!found)
    it = map.emplace_hint(it, std::string(name), typename Map::mapped_type{});
  return it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  return find_or_add(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return find_or_add(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<double>& upper_bounds) {
  auto [it, found] = locate(histograms_, name);
  if (!found)
    return histograms_.emplace_hint(it, std::string(name),
                                    Histogram(upper_bounds))
        ->second;
  SYNRAN_REQUIRE(it->second.bounds() == upper_bounds,
                 "histogram re-registered with different bounds");
  return it->second;
}

Summary& MetricsRegistry::summary(std::string_view name) {
  return find_or_add(summaries_, name);
}

namespace {
template <typename Map>
const typename Map::mapped_type& at_or_throw(const Map& map,
                                             std::string_view name,
                                             const char* kind) {
  const auto it = map.find(name);
  SYNRAN_REQUIRE(it != map.end(),
                 std::string("unknown ") + kind + " metric: " +
                     std::string(name));
  return it->second;
}
}  // namespace

const Counter& MetricsRegistry::counter_at(std::string_view name) const {
  return at_or_throw(counters_, name, "counter");
}

const Gauge& MetricsRegistry::gauge_at(std::string_view name) const {
  return at_or_throw(gauges_, name, "gauge");
}

const Histogram& MetricsRegistry::histogram_at(std::string_view name) const {
  return at_or_throw(histograms_, name, "histogram");
}

const Summary& MetricsRegistry::summary_at(std::string_view name) const {
  return at_or_throw(summaries_, name, "summary");
}

bool MetricsRegistry::has_counter(std::string_view name) const {
  return counters_.find(name) != counters_.end();
}

bool MetricsRegistry::has_summary(std::string_view name) const {
  return summaries_.find(name) != summaries_.end();
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].merge(c);
  for (const auto& [name, g] : other.gauges_) gauges_[name].merge(g);
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
  for (const auto& [name, s] : other.summaries_) summaries_[name].merge(s);
}

JsonValue MetricsRegistry::to_json() const {
  JsonValue counters = JsonValue::object();
  for (const auto& [name, c] : counters_)
    counters.set(name, JsonValue(c.value()));

  JsonValue gauges = JsonValue::object();
  for (const auto& [name, g] : gauges_) gauges.set(name, JsonValue(g.value()));

  JsonValue histograms = JsonValue::object();
  for (const auto& [name, h] : histograms_) {
    JsonValue bounds = JsonValue::array();
    for (const double b : h.bounds()) bounds.push(JsonValue(b));
    JsonValue counts = JsonValue::array();
    for (const std::uint64_t c : h.counts()) counts.push(JsonValue(c));
    histograms.set(name, JsonValue::object()
                             .set("bounds", std::move(bounds))
                             .set("counts", std::move(counts))
                             .set("count", JsonValue(h.count()))
                             .set("sum", JsonValue(h.sum())));
  }

  JsonValue summaries = JsonValue::object();
  for (const auto& [name, s] : summaries_) {
    summaries.set(name,
                  JsonValue::object()
                      .set("count", JsonValue(std::uint64_t{s.count()}))
                      .set("mean", JsonValue(s.mean()))
                      .set("stddev", JsonValue(s.stddev()))
                      .set("min", JsonValue(s.min()))
                      .set("max", JsonValue(s.max())));
  }

  return JsonValue::object()
      .set("counters", std::move(counters))
      .set("gauges", std::move(gauges))
      .set("histograms", std::move(histograms))
      .set("summaries", std::move(summaries));
}

}  // namespace synran::obs
