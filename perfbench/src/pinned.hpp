// Output digests pinned for the default seed (workloads.hpp: kDefaultSeed).
//
// Each is the chained digest (stats.hpp: Digest) of the first outputs of a
// run: every batch's checkpoint_json() bytes, plus every trace/2 file on
// `tournament`, over the passes named below; on `serve`, every reply of
// the pre-warm phase. A change that is not meant to alter results must
// leave them alone; one that is must say so and re-pin them from the
// "digest" line of a `--seed 1` run.
#pragma once

#include <cstddef>
#include <string_view>

namespace perfbench {

struct Pin {
  std::string_view workload;
  std::size_t passes;   ///< leading passes covered (batch workloads)
  std::string_view hex;
};

inline constexpr Pin kPins[] = {
    {"attack", 8, "aec5c785c1e1dfd7"},
    {"tournament", 2, "40b14bea61e98f3f"},
    {"async", 2, "513986635f2ca0ad"},
    {"serve", 0, "ede3a65a10ef6c25"},
};

inline const Pin& pin_for(std::string_view workload) {
  for (const Pin& p : kPins)
    if (p.workload == workload) return p;
  return kPins[0];
}

}  // namespace perfbench
