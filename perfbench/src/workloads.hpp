// The benchmark's workloads and the result every run reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The seed whose outputs are pinned (see pinned.hpp).
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string synran_bin;  ///< the `synran` CLI (serve workload)
  std::string work_dir;    ///< scratch space inside the checkout
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string detail;  ///< sample count, definition notes (report only)
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Exactly the metrics of the run's kind (end-to-end or per-layer), in
  /// report order; these go into the JSON line.
  std::vector<Metric> metrics;
  /// Metrics printed in the report but not bounded in BENCHMARK.json.
  std::vector<Metric> unbounded;
  /// Extra report lines (checks, sampling notes), printed before the table.
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit,
           std::string detail = {}) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(detail)});
  }
  /// Records a failed check: the run is not correct and `units` more of
  /// its attempts count as failed.
  void fail(const std::string& what, std::uint64_t units) {
    correct = false;
    failed += units;
    notes.push_back("CHECK FAILED: " + what);
  }
};

/// attack, tournament, async.
Result run_batch_workload(const Options& options);
/// serve.
Result run_serve_workload(const Options& options);

/// Fills `result.metrics` with every per-layer metric, in BENCHMARK.json
/// order and with its unit, from the measured names, values and details.
/// Layers a workload does not exercise read 0.
void emit_layers(Result& result, const std::vector<Metric>& measured);

}  // namespace perfbench
