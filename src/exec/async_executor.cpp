#include "exec/async_executor.hpp"

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "exec/run_batch.hpp"

namespace synran::exec {

AsyncRunStats AsyncBatchExecutor::run(const AsyncProcessFactory& factory,
                                      const AsyncSchedulerFactory& schedulers,
                                      const AsyncDelayFactory& delays,
                                      const AsyncRepeatSpec& spec) const {
  SYNRAN_REQUIRE(static_cast<bool>(schedulers), "need a scheduler factory");
  return detail::run_batch<AsyncRunStats>(spec, options_.threads, [&] {
    // One workspace per worker: its reps reuse one set of engine buffers.
    return [&, ws = std::make_unique<AsyncWorkspace>()](
               std::size_t rep, obs::EngineObserver* observer) {
      Xoshiro256 input_rng = input_rng_for_rep(spec.seed, rep);
      const std::vector<Bit> inputs =
          make_inputs(spec.n, spec.pattern, input_rng);
      auto scheduler = schedulers(adversary_seed_for_rep(spec.seed, rep));
      std::unique_ptr<DelayModel> delay;
      if (delays) delay = delays(delay_seed_for_rep(spec.seed, rep));
      AsyncEngineOptions opts = spec.engine;
      opts.seed = engine_seed_for_rep(spec.seed, rep);
      if (delay != nullptr) opts.delay = delay.get();
      opts.observer = observer;
      return run_async(factory, inputs, *scheduler, opts, *ws);
    };
  });
}

}  // namespace synran::exec
