// The protocol-side interface of the synchronous engine.
//
// One Process object is one participant. The engine drives it in the round
// structure of §3.1: phase A (coins + local computation + message
// preparation), adversary intervention, phase B (delivery). A Process sees
// phase B's result at the *start* of its next phase A, which is equivalent to
// the paper's ordering and keeps the interface to a single call per round.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <typeinfo>
#include <utility>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/types.hpp"

namespace synran {

/// Snapshot of a process's externally meaningful state, exposed to the
/// full-information adversary (§3.1: the adversary "can examine their local
/// coins and variables, and the messages they wish to send").
struct ProcessView {
  Bit estimate = Bit::Zero;   ///< current choice b_i
  bool decided = false;       ///< has irrevocably decided
  bool halted = false;        ///< voluntarily stopped participating
  bool flipped_coin = false;  ///< drew a coin in the latest phase A
  bool deterministic = false; ///< in SynRan's deterministic stage
};

/// A consensus protocol participant.
///
/// Contract:
///  * `on_round` is called once per round while the process is alive and not
///    halted. `prev` is the receipt of the previous round's exchange
///    (nullptr in round 1). The process updates its state — drawing any
///    randomness only from `coins` — and returns the payload to broadcast
///    this round, or nullopt to halt voluntarily.
///  * Once decided() turns true it must stay true and decision() must never
///    change (the paper's "cannot change its decision").
///  * A process may halt only after deciding.
///  * `clone` must produce an independent deep copy (used by the valency
///    engine to branch executions).
class Process {
 public:
  virtual ~Process() = default;

  virtual std::optional<Payload> on_round(const Receipt* prev,
                                          CoinSource& coins) = 0;

  virtual bool decided() const = 0;
  virtual Bit decision() const = 0;
  virtual bool halted() const = 0;

  virtual ProcessView view() const = 0;

  /// Mixes the full internal state into 64 bits; equal states must produce
  /// equal digests (used for memoization in the valency engine).
  virtual std::uint64_t state_digest() const = 0;

  virtual std::unique_ptr<Process> clone() const = 0;
};

/// Creates the n participants of one execution.
class ProcessFactory {
 public:
  virtual ~ProcessFactory() = default;
  /// `input` is x_i. `n` is the system size.
  virtual std::unique_ptr<Process> make(ProcessId id, std::uint32_t n,
                                        Bit input) const = 0;
  /// Rebuilds `process`, kept from an earlier run, in place into exactly
  /// what make(id, n, input) returns, and returns true. Returns false and
  /// leaves `process` untouched when it cannot, so the caller falls back to
  /// make(): the default, and the answer for a process of another type.
  virtual bool remake(Process& /*process*/, ProcessId /*id*/,
                      std::uint32_t /*n*/, Bit /*input*/) const {
    return false;
  }
  /// Human-readable protocol name for reports.
  virtual const char* name() const = 0;
};

/// The one body of every ProcessFactory::remake override: when `process`
/// is exactly a `P`, assigns it `build(kept)`, a freshly constructed `P`
/// (so a rebuilt process is what make() returns), and returns true. `build`
/// sees the kept value only to carry over what its constructor would
/// recompute identically.
template <typename P, typename Build>
bool remake_as(Process& process, Build&& build) {
  if (typeid(process) != typeid(P)) return false;
  P& kept = static_cast<P&>(process);
  kept = std::forward<Build>(build)(std::as_const(kept));
  return true;
}

}  // namespace synran
