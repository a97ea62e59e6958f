#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "serve/cache.hpp"

namespace perfbench {

namespace {

/// 1-based nearest rank of the p-quantile among n samples. The epsilon keeps
/// p·n from rounding past an exact integer (0.9 · 100 must give 90).
std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::string fmt(double v) {
  std::ostringstream out;
  out.precision(6);
  out << v;
  return out.str();
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

double highest_supported_percentile(std::size_t n) {
  for (double p : {0.999, 0.99, 0.9, 0.5})
    if (percentile_supported(n, p)) return p;
  return 0.0;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::string LatencySample::describe() const {
  std::ostringstream out;
  out << std::setprecision(4) << "p50 " << p50() << " ms, p90 " << p90()
      << " ms (n=" << ms.size() << "; ";
  const double top = highest_supported_percentile(ms.size());
  if (top == 0.0)
    out << "too few samples for any percentile";
  else
    out << "highest supported p" << top * 100 << " = " << percentile(ms, top)
        << " ms";
  if (!percentile_supported(ms.size(), 0.9)) out << "; p90 UNSUPPORTED";
  out << ")";
  return out.str();
}

void WindowRate::start(Clock::time_point t) {
  begin_ = t;
  units_ = 0;
}

void WindowRate::add(double units, Clock::time_point now) {
  units_ += units;
  const double elapsed = seconds_between(begin_, now);
  if (elapsed < window_s_) return;
  rates_.push_back(units_ / elapsed);
  start(now);
}

void Digest::add(std::string_view bytes) {
  chain_ = synran::serve::cache_file_stem(
      chain_ + synran::serve::cache_file_stem(bytes));
  ++items_;
}

std::string Digest::hex() const { return items_ == 0 ? "empty" : chain_; }

DigestVerdict check_pinned(const Digest& digest, bool default_seed,
                           std::string_view pinned_hex) {
  DigestVerdict v;
  v.actual = digest.hex();
  if (!default_seed || pinned_hex.empty()) return v;
  v.pinned = true;
  v.expected = std::string(pinned_hex);
  v.matches = v.actual == v.expected;
  return v;
}

std::string DigestVerdict::describe() const {
  if (!pinned) return actual + " (not pinned for this seed)";
  return actual + (matches ? " (matches the pin)" : " (pin: " + expected + ")");
}

std::uint16_t SpanLog::name_id(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  names_.emplace_back(name);
  self_.push_back(0.0);
  counts_.push_back(0);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::int32_t SpanLog::add(std::uint16_t name, double start, double end,
                          std::int32_t parent, std::uint64_t unit) {
  if (name >= names_.size()) throw std::logic_error("span name not interned");
  if (parent >= static_cast<std::int32_t>(added_))
    throw std::logic_error("span parent added after its child");
  const double d = end - start;
  self_[name] += d;
  ++counts_[name];
  if (parent < 0)
    top_level_ += d;
  else
    self_[all_names_[static_cast<std::size_t>(parent)]] -= d;
  all_names_.push_back(name);
  if (spans_.size() < keep_) spans_.push_back(Span{name, parent, unit, start, end});
  return static_cast<std::int32_t>(added_++);
}

double SpanLog::self_seconds(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return self_[i];
  return 0.0;
}

std::uint64_t SpanLog::count(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return counts_[i];
  return 0;
}

void SpanLog::write(std::ostream& out) const {
  out << "# index\tname\tstart_s\tend_s\tparent\tunit\n";
  out << std::setprecision(9) << std::fixed;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << names_[s.name] << '\t' << s.start << '\t' << s.end
        << '\t' << s.parent << '\t' << s.unit << '\n';
  }
  if (spans_.size() < added_)
    out << "# " << added_ - spans_.size()
        << " later spans counted in the totals but not kept\n";
}

}  // namespace perfbench
