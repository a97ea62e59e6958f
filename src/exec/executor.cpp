#include "exec/executor.hpp"

#include <charconv>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/check.hpp"
#include "exec/run_batch.hpp"

namespace synran::exec {

std::optional<std::uint32_t> env_count(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return std::nullopt;
  const std::string_view text = env;
  std::uint32_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  SYNRAN_REQUIRE(ec == std::errc() && end == text.data() + text.size(),
                 std::string(name) +
                     " must be a whole number from 0 to 4294967295, got '" +
                     env + "'");
  return value;
}

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  const std::uint32_t env = env_count("SYNRAN_THREADS").value_or(1);
  return env >= 1 ? env : 1u;
}

RepeatedRunStats BatchExecutor::run(const ProcessFactory& factory,
                                    const AdversaryFactory& adversaries,
                                    const RepeatSpec& spec) const {
  return detail::run_batch<RepeatedRunStats>(spec, options_.threads, [&] {
    // The worker's kept workspace: its reps, and the thread's later
    // batches, reuse one set of buffers and processes.
    return [&, ws = detail::KeptWorkspace<EngineWorkspace>()](
               std::size_t rep, obs::EngineObserver* observer) {
      Xoshiro256 input_rng = input_rng_for_rep(spec.seed, rep);
      make_inputs(ws->inputs(), spec.n, spec.pattern, input_rng);
      auto adversary = adversaries(adversary_seed_for_rep(spec.seed, rep));
      EngineOptions opts = spec.engine;
      opts.seed = engine_seed_for_rep(spec.seed, rep);
      opts.observer = observer;
      return Engine(*ws).run(factory, ws->inputs(), *adversary, opts);
    };
  });
}

}  // namespace synran::exec
