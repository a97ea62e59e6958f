#include "exec/stopper.hpp"

#include <atomic>
#include <csignal>

namespace synran::exec {

namespace {

// Lock-free atomics are both signal-safe (C++17 [support.signal]) and
// race-free between threads: the signal handler, the serve daemon's
// deadline watchdog and a batch worker may each raise the flag while the
// workers poll it. The flag is monotonic (0 -> 1) until clear_stop().
static_assert(std::atomic<int>::is_always_lock_free);
std::atomic<int> g_stop{0};
// Signals seen since the last clear. The serve drain logic needs "zero vs
// non-zero", not an exact count.
std::atomic<int> g_signals{0};

void on_stop_signal(int /*signum*/) {
  g_signals.fetch_add(1);
  g_stop.store(1);
}

}  // namespace

void install_stop_handlers() {
  // std::signal is async-signal-safe to install and the handler only
  // writes the flags. Installing twice is harmless (same handler).
  std::signal(SIGINT, &on_stop_signal);
  std::signal(SIGTERM, &on_stop_signal);
}

bool stop_requested() noexcept { return g_stop.load() != 0; }

void request_stop() noexcept { g_stop.store(1); }

void note_signal_stop() noexcept { on_stop_signal(0); }

int stop_signals() noexcept { return g_signals.load(); }

void clear_stop() noexcept {
  g_stop.store(0);
  g_signals.store(0);
}

}  // namespace synran::exec
