#include "synran_lint/include_graph.hpp"

#include <algorithm>

namespace synran::lint {
namespace {

/// Transitive closure of layer_direct_deps(), built once.
const std::map<std::string, std::set<std::string>>& layer_closure() {
  static const std::map<std::string, std::set<std::string>> closure = [] {
    std::map<std::string, std::set<std::string>> out;
    const auto& direct = layer_direct_deps();
    // The table is tiny; iterate to a fixed point.
    for (const auto& [m, deps] : direct)
      out[m] = std::set<std::string>(deps.begin(), deps.end());
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto& [m, deps] : out) {
        std::set<std::string> add;
        for (const auto& d : deps) {
          const auto it = out.find(d);
          if (it == out.end()) continue;
          for (const auto& dd : it->second)
            if (deps.count(dd) == 0) add.insert(dd);
        }
        if (!add.empty()) {
          deps.insert(add.begin(), add.end());
          changed = true;
        }
      }
    }
    return out;
  }();
  return closure;
}

}  // namespace

std::string module_of(std::string_view rel_path) {
  constexpr std::string_view prefix = "src/";
  if (rel_path.substr(0, prefix.size()) != prefix) return "";
  const std::string_view rest = rel_path.substr(prefix.size());
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos || slash == 0) return "";
  return std::string(rest.substr(0, slash));
}

const std::map<std::string, std::vector<std::string>>& layer_direct_deps() {
  static const std::map<std::string, std::vector<std::string>> deps = {
      {"common", {}},
      {"net", {"common"}},
      {"analysis", {"common"}},
      {"coin", {"common"}},
      {"obs", {"net", "analysis"}},
      {"sim", {"net", "obs"}},
      // The event-driven async core reports runs through the observer
      // layer (trace hooks), hence async -> obs.
      {"async", {"net", "obs"}},
      {"protocols", {"analysis", "sim"}},
      {"lowerbound", {"net", "sim"}},
      {"adversary", {"net", "sim", "protocols", "lowerbound"}},
      {"exec", {"analysis", "async", "obs", "sim"}},
      {"runner",
       {"analysis", "adversary", "async", "coin", "exec", "lowerbound",
        "net", "obs", "protocols", "sim"}},
      // The serve daemon sits on top of the whole execution stack: it
      // reads and canonicalizes run configs and builds their factories
      // through runner/run_config, the CLI's own config reader, and
      // schedules on the batch executors through the runner front.
      {"serve", {"runner"}},
  };
  return deps;
}

bool layer_known(const std::string& module) {
  return layer_direct_deps().count(module) != 0;
}

bool layer_allows(const std::string& from, const std::string& to) {
  if (from == to) return true;
  const auto& closure = layer_closure();
  const auto it = closure.find(from);
  return it != closure.end() && it->second.count(to) != 0;
}

std::vector<IncludeEdge> project_edges(const std::vector<LexedFile>& files) {
  std::set<std::string> present;  // modules that exist in this project
  for (const auto& f : files) {
    const std::string m = module_of(f.rel_path);
    if (!m.empty()) present.insert(m);
  }

  std::vector<IncludeEdge> edges;
  for (const auto& f : files) {
    const std::string from = module_of(f.rel_path);
    if (from.empty()) continue;  // layering governs src/ only
    for (const auto& inc : f.includes) {
      if (inc.angled) continue;  // system/third-party headers
      const std::size_t slash = inc.target.find('/');
      if (slash == std::string::npos || slash == 0) continue;
      const std::string to = inc.target.substr(0, slash);
      if (to == from) continue;
      if (present.count(to) == 0 && !layer_known(to)) continue;
      edges.push_back(IncludeEdge{f.rel_path, inc.line, from, to});
    }
  }
  return edges;
}

std::set<std::string> cyclic_modules(const std::vector<IncludeEdge>& edges) {
  // Module graphs here have ~a dozen nodes; a simple reachability check
  // (m is cyclic iff m reaches itself through at least one edge) is plenty.
  std::map<std::string, std::set<std::string>> adj;
  std::set<std::string> nodes;
  for (const auto& e : edges) {
    adj[e.from_module].insert(e.to_module);
    nodes.insert(e.from_module);
    nodes.insert(e.to_module);
  }
  std::set<std::string> cyclic;
  for (const auto& start : nodes) {
    std::vector<std::string> stack(adj[start].begin(), adj[start].end());
    std::set<std::string> seen;
    while (!stack.empty()) {
      const std::string m = stack.back();
      stack.pop_back();
      if (m == start) {
        cyclic.insert(start);
        break;
      }
      if (!seen.insert(m).second) continue;
      const auto it = adj.find(m);
      if (it != adj.end())
        stack.insert(stack.end(), it->second.begin(), it->second.end());
    }
  }
  return cyclic;
}

}  // namespace synran::lint
