// perfbench — runs one workload and reports its metrics.
//
//   perfbench --workload attack|tournament|async|serve --seed N --seconds S
//             --trace 0|1 --synran PATH --work DIR
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value","unit"}}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// perfbench/run.py builds this binary and is the command users run.
#include <algorithm>
#include <csignal>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <stdexcept>

#include "obs/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Every per-layer metric, in BENCHMARK.json order, with its unit.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"protocols.phase_a_s", "s"},   {"protocols.senders", "count"},
      {"adversary.plan_round_s", "s"}, {"adversary.plan_calls", "count"},
      {"adversary.directives", "count"}, {"sim.audit_plan_s", "s"},
      {"net.deliver_phase_s", "s"},   {"net.deliver_s", "s"},
      {"net.deliver_calls", "count"}, {"net.partial_links", "count"},
      {"sim.commit_s", "s"},          {"sim.harvest_s", "s"},
      {"sim.rounds", "count"},        {"exec.rep_setup_s", "s"},
      {"exec.fold_s", "s"},           {"exec.reps", "count"},
      {"exec.speedup", "ratio"},      {"obs.trace_write_s", "s"},
      {"obs.trace_bytes", "bytes"},   {"obs.trace_events", "count"},
      {"async.scheduler_s", "s"},     {"async.scheduler_steps", "count"},
      {"async.delay_s", "s"},         {"async.delay_calls", "count"},
      {"async.protocol_s", "s"},      {"async.protocol_calls", "count"},
      {"async.core_s", "s"},          {"serve.recover_s", "s"},
      {"serve.parse_s", "s"},         {"serve.cache_lookup_s", "s"},
      {"serve.respond_s", "s"},       {"serve.plan_s", "s"},
      {"serve.execute_s", "s"},       {"serve.cache_store_s", "s"},
      {"serve.hit_ratio", "ratio"},   {"serve.server_ms_mean", "ms"},
      {"serve.transport_ms", "ms"},   {"residual_s", "s"},
      {"trace_overhead", "ratio"}};
  return kLayers;
}

}  // namespace

void emit_layers(Result& result, const std::vector<Metric>& measured) {
  for (const auto& [name, unit] : layer_metrics()) {
    const auto m = std::find_if(measured.begin(), measured.end(),
                                [&](const Metric& x) { return x.name == name; });
    if (m == measured.end())
      result.add(name, 0, unit, "not on this workload");
    else
      result.add(name, m->value, unit, m->detail);
  }
}

namespace {

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw UsageError("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload")
      o.workload = value;
    else if (flag == "--seed")
      o.seed = std::stoull(value);
    else if (flag == "--seconds")
      o.seconds = std::stod(value);
    else if (flag == "--trace")
      o.trace = value == "1";
    else if (flag == "--synran")
      o.synran_bin = value;
    else if (flag == "--work")
      o.work_dir = value;
    else
      throw UsageError("unknown flag " + flag);
  }
  if (o.workload != "attack" && o.workload != "tournament" &&
      o.workload != "async" && o.workload != "serve")
    throw UsageError("--workload must be attack, tournament, async or serve");
  if (!(o.seconds > 0)) throw UsageError("--seconds must be positive");
  if (o.work_dir.empty()) throw UsageError("--work is required");
  if (o.workload == "serve" && o.synran_bin.empty())
    throw UsageError("serve needs --synran");
  return o;
}

void report(const Options& o, const Result& r) {
  std::cout << "perfbench " << o.workload << "  seed " << o.seed << "  "
            << o.seconds << " s  " << (o.trace ? "traced" : "timed") << "\n";
  for (const auto& line : r.notes) std::cout << "  " << line << "\n";
  const auto row = [](const Metric& m) {
    std::cout << "  " << std::left << std::setw(24) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << std::left << std::setw(7) << m.unit << std::right
              << (m.detail.empty() ? "" : "  (" + m.detail + ")") << "\n";
  };
  for (const Metric& m : r.metrics) row(m);
  const double ratio = r.attempted == 0 ? 0.0
                                        : static_cast<double>(r.failed) /
                                              static_cast<double>(r.attempted);
  row({"fail_ratio", ratio, "1",
       std::to_string(r.failed) + " of " + std::to_string(r.attempted) +
           " failed; not bounded"});
  for (const Metric& m : r.unbounded) row(m);

  using synran::obs::JsonValue;
  JsonValue metrics = JsonValue::object();
  for (const Metric& m : r.metrics)
    metrics.set(m.name, JsonValue::object()
                            .set("value", JsonValue(m.value))
                            .set("unit", JsonValue(m.unit)));
  JsonValue line = JsonValue::object();
  line.set("correct", JsonValue(r.correct && r.failed == 0));
  line.set("attempted", JsonValue(std::max<std::uint64_t>(r.attempted, 1)));
  line.set("failed", JsonValue(r.failed));
  line.set("metrics", std::move(metrics));
  std::cout << line.dump() << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A daemon that dies mid-request must surface as a write error, not kill
  // the benchmark.
  std::signal(SIGPIPE, SIG_IGN);
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    std::filesystem::create_directories(o.work_dir);
    const Result r = o.workload == "serve" ? run_serve_workload(o)
                                           : run_batch_workload(o);
    report(o, r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  return 0;
}
