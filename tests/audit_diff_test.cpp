// Differential test for RunAuditor's live-set passes (src/sim/audit.cpp).
//
// on_phase_a and on_deliveries walk the auditor's own live set and verify
// the crashed slots with one occupied-slot count. ReferenceAuditor below is
// the earlier full-scan formulation of the same two passes: every slot,
// every round, with decided()/decision() read for every live process. Random
// multi-round executions drive both with identical inputs: crashed slots
// with and without payloads, halting, resumption after a halt, decision
// flips and rescinds, strict mode on and off, and delivery totals that are
// right or off by one. The two must agree on accept or throw and on the
// message, round by round.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/dynbitset.hpp"
#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "sim/audit.hpp"
#include "sim/process.hpp"

namespace synran {
namespace {

/// A process whose verdict the test sets directly.
class ScriptedProcess final : public Process {
 public:
  std::optional<Payload> on_round(const Receipt*, CoinSource&) override {
    return std::nullopt;
  }
  bool decided() const override { return decided_; }
  Bit decision() const override { return decision_; }
  bool halted() const override { return false; }
  ProcessView view() const override {
    return {decision_, decided_, false, false, false};
  }
  std::uint64_t state_digest() const override {
    return (decided_ ? 2u : 0u) | static_cast<unsigned>(to_int(decision_));
  }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<ScriptedProcess>(*this);
  }

  bool decided_ = false;
  Bit decision_ = Bit::Zero;
};

/// The full-scan phase-A and delivery passes, kept as the oracle.
class ReferenceAuditor {
 public:
  ReferenceAuditor(std::uint32_t n, bool strict)
      : n_(n),
        strict_decisions_(strict),
        crashed_(n),
        crash_round_(n, 0),
        was_decided_(n, false),
        decision_was_(n, Bit::Zero),
        was_halted_(n, false) {}

  void record_crashes(Round round, const FaultPlan& plan) {
    for (const auto& c : plan.crashes) {
      crashed_.set(c.victim);
      crash_round_[c.victim] = round;
    }
  }

  void on_phase_a(Round round,
                  std::span<const std::optional<Payload>> payloads,
                  const DynBitset& halted,
                  std::span<const std::unique_ptr<Process>> processes) {
    for (std::uint32_t i = 0; i < n_; ++i) {
      const Process& p = *processes[i];
      if (crashed_.test(i)) {
        if (payloads[i].has_value()) {
          std::ostringstream os;
          os << "process " << i << " broadcast a payload although it was "
             << "crashed in round " << crash_round_[i]
             << " — the dead must stay silent";
          fail(round, os.str());
        }
        continue;
      }
      if (was_halted_[i]) {
        if (!halted.test(i)) {
          std::ostringstream os;
          os << "process " << i << " resumed after halting — STOP is final";
          fail(round, os.str());
        }
        if (!p.decided() || p.decision() != decision_was_[i]) {
          std::ostringstream os;
          os << "halted process " << i << " changed its verdict (halted with "
             << "decision " << to_int(decision_was_[i]) << ")";
          fail(round, os.str());
        }
      }
      if (halted.test(i)) {
        if (payloads[i].has_value()) {
          std::ostringstream os;
          os << "halted process " << i << " kept broadcasting";
          fail(round, os.str());
        }
        if (!p.decided()) {
          std::ostringstream os;
          os << "process " << i << " halted without deciding";
          fail(round, os.str());
        }
      }
      if (strict_decisions_ && was_decided_[i]) {
        if (!p.decided()) {
          std::ostringstream os;
          os << "process " << i << " rescinded its decision under the "
             << "strict (latching) policy";
          fail(round, os.str());
        }
        if (p.decision() != decision_was_[i]) {
          std::ostringstream os;
          os << "process " << i << " flipped its decision from "
             << to_int(decision_was_[i]) << " to " << to_int(p.decision());
          fail(round, os.str());
        }
      }
      was_decided_[i] = p.decided();
      if (p.decided()) decision_was_[i] = p.decision();
      was_halted_[i] = halted.test(i);
    }
  }

  void on_deliveries(Round round, const FaultPlan& plan,
                     std::span<const std::optional<Payload>> payloads,
                     const DynBitset& active_receivers,
                     std::uint64_t delivered) const {
    DynBitset crashed_now(n_);
    for (const auto& c : plan.crashes) crashed_now.set(c.victim);
    std::uint64_t full_senders = 0;
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (payloads[i].has_value() && !crashed_now.test(i)) ++full_senders;
    }
    std::uint64_t partial = 0;
    for (const auto& c : plan.crashes)
      partial += c.deliver_to.count_and(active_receivers);
    std::uint64_t omitted = 0;
    for (const auto& o : plan.omissions)
      omitted += o.drop_for.count_and(active_receivers);
    const std::uint64_t expected =
        full_senders * active_receivers.count() + partial - omitted;
    if (delivered != expected) {
      std::ostringstream os;
      os << "delivered " << delivered << " point-to-point messages but the "
         << "surviving-sender broadcast count is " << expected << " ("
         << full_senders << " full broadcasts to "
         << active_receivers.count() << " active receivers plus " << partial
         << " partial deliveries from " << plan.crash_count()
         << " crashed senders minus " << omitted << " omitted links)";
      fail(round, os.str());
    }
  }

 private:
  [[noreturn]] static void fail(Round round, const std::string& what) {
    std::ostringstream os;
    os << "audit: round " << round << ": " << what;
    throw InvariantError(os.str());
  }

  std::uint32_t n_;
  bool strict_decisions_;
  DynBitset crashed_;
  std::vector<Round> crash_round_;
  std::vector<bool> was_decided_;
  std::vector<Bit> decision_was_;
  std::vector<bool> was_halted_;
};

/// Runs `f` and returns its InvariantError message, or "" if it accepted.
template <typename F>
std::string verdict(F&& f) {
  try {
    f();
  } catch (const InvariantError& err) {
    return err.what();
  }
  return "";
}

/// Which violation families the random executions reached.
struct Coverage {
  int accepted_rounds = 0;
  int dead_speaker = 0;
  int resumed = 0;
  int verdict_changed = 0;
  int kept_broadcasting = 0;
  int halted_undecided = 0;
  int rescinded = 0;
  int flipped = 0;
  int delivery_mismatch = 0;

  void note(const std::string& what) {
    const auto has = [&](const char* s) {
      return what.find(s) != std::string::npos;
    };
    if (has("the dead must stay silent")) ++dead_speaker;
    if (has("resumed after halting")) ++resumed;
    if (has("changed its verdict")) ++verdict_changed;
    if (has("kept broadcasting")) ++kept_broadcasting;
    if (has("halted without deciding")) ++halted_undecided;
    if (has("rescinded its decision")) ++rescinded;
    if (has("flipped its decision")) ++flipped;
    if (has("surviving-sender broadcast count")) ++delivery_mismatch;
  }
};

/// One random execution of up to 12 rounds, driven through both auditors.
void run_trial(std::uint32_t n, bool strict, std::uint64_t seed,
               Coverage& cov) {
  Xoshiro256 rng(seed);
  RunAuditor auditor;
  auditor.begin(n, n, 0, /*omission_budget=*/1000, /*omission_round_cap=*/0);
  auditor.set_strict_decisions(strict);
  ReferenceAuditor reference(n, strict);

  std::vector<std::unique_ptr<Process>> procs;
  std::vector<ScriptedProcess*> scripted;
  for (std::uint32_t i = 0; i < n; ++i) {
    auto p = std::make_unique<ScriptedProcess>();
    scripted.push_back(p.get());
    procs.push_back(std::move(p));
  }
  DynBitset alive(n, true);
  DynBitset halted(n);
  std::vector<std::optional<Payload>> payloads(n);

  for (Round r = 1; r <= 12; ++r) {
    // --- A legal phase A: live non-halted processes broadcast or stay
    // silent, and decide; without strict latching they may also rescind
    // or flip. Some decided ones halt.
    alive.for_each_set([&](std::size_t i) {
      ScriptedProcess& p = *scripted[i];
      if (halted.test(i)) {
        payloads[i].reset();
        return;
      }
      if (rng.below(4) == 0 && (!strict || !p.decided_)) {
        p.decided_ = rng.below(3) != 0;
        p.decision_ = rng.flip() ? Bit::One : Bit::Zero;
      }
      if (p.decided_ && rng.below(6) == 0) {
        halted.set(i);
        payloads[i].reset();
        return;
      }
      if (rng.below(10) == 0)
        payloads[i].reset();
      else
        payloads[i] = rng.next() & 0x7;
    });
    // --- Then up to two injected violations, at random processes.
    const std::uint64_t injections =
        rng.below(3) == 0 ? 1 + rng.below(2) : 0;
    for (std::uint64_t k = 0; k < injections; ++k) {
      const auto i = static_cast<std::size_t>(rng.below(n));
      ScriptedProcess& p = *scripted[i];
      if (!alive.test(i)) {
        payloads[i] = payload::kSupports1;  // the dead speak
        continue;
      }
      switch (rng.below(4)) {
        case 0:  // resume after a halt, or halt without deciding
          if (halted.test(i)) {
            halted.reset(i);
          } else {
            halted.set(i);
            p.decided_ = false;
            payloads[i].reset();
          }
          break;
        case 1:  // a halted process keeps broadcasting
          if (halted.test(i)) payloads[i] = payload::kSupports0;
          break;
        case 2:  // flip the verdict (illegal once halted or under strict)
          p.decision_ = p.decision_ == Bit::One ? Bit::Zero : Bit::One;
          break;
        default:  // rescind the decision
          p.decided_ = false;
          break;
      }
    }

    const std::string got = verdict(
        [&] { auditor.on_phase_a(r, payloads, halted, procs); });
    const std::string want = verdict(
        [&] { reference.on_phase_a(r, payloads, halted, procs); });
    ASSERT_EQ(got, want) << "phase A, n=" << n << " strict=" << strict
                         << " seed=" << seed << " round " << r;
    if (!got.empty()) {
      cov.note(got);
      return;
    }

    // --- A valid plan: victims share a few mask handles; one omission.
    std::vector<ProcessId> senders;
    for (std::uint32_t i = 0; i < n; ++i)
      if (payloads[i].has_value()) senders.push_back(i);
    for (std::size_t k = senders.size(); k > 1; --k)
      std::swap(senders[k - 1], senders[rng.below(k)]);
    DynBitset random_mask(n);
    for (std::uint32_t i = 0; i < n; ++i)
      if (rng.flip()) random_mask.set(i);
    const std::vector<SharedMask> palette{DynBitset(n), DynBitset(n, true),
                                          std::move(random_mask)};
    FaultPlan plan;
    const std::size_t victims =
        senders.empty() ? 0 : rng.below(senders.size() / 3 + 1);
    for (std::size_t k = 0; k < victims; ++k)
      plan.crashes.push_back(
          {senders[k], palette[rng.below(palette.size())]});
    if (victims < senders.size() && rng.flip()) {
      DynBitset drop(n);
      for (std::uint32_t i = 0; i < n; ++i)
        if (rng.below(3) == 0) drop.set(i);
      plan.omissions.push_back({senders[victims], std::move(drop)});
    }
    auditor.on_plan(r, plan, payloads);
    reference.record_crashes(r, plan);

    DynBitset active = alive;
    for (const auto& c : plan.crashes) active.reset(c.victim);
    halted.for_each_set([&](std::size_t i) { active.reset(i); });
    const auto receipts =
        deliver(n, RoundTraffic{payloads, &plan, &alive}, active);
    std::uint64_t delivered = 0;
    active.for_each_set([&](std::size_t i) { delivered += receipts[i].count; });
    if (rng.below(8) == 0) delivered = rng.flip() ? delivered + 1 : delivered - 1;

    const std::string got_d = verdict([&] {
      auditor.on_deliveries(r, plan, payloads, active, delivered);
    });
    const std::string want_d = verdict([&] {
      reference.on_deliveries(r, plan, payloads, active, delivered);
    });
    ASSERT_EQ(got_d, want_d) << "deliveries, n=" << n << " strict=" << strict
                             << " seed=" << seed << " round " << r;
    if (!got_d.empty()) {
      cov.note(got_d);
      return;
    }
    ++cov.accepted_rounds;

    // Commit: the dead go silent.
    for (const auto& c : plan.crashes) {
      alive.reset(c.victim);
      payloads[c.victim].reset();
    }
  }
}

TEST(AuditDifferential, LiveSetPassesMatchTheFullScan) {
  Coverage cov;
  std::uint64_t seed = 1;
  for (const std::uint32_t n : {1u, 3u, 63u, 64u, 65u, 130u, 200u}) {
    for (const bool strict : {false, true}) {
      for (int trial = 0; trial < 60; ++trial) {
        run_trial(n, strict, seed++, cov);
        if (HasFatalFailure()) return;
      }
    }
  }
  // The property is only as strong as the executions behind it.
  EXPECT_GT(cov.accepted_rounds, 500);
  EXPECT_GT(cov.dead_speaker, 0);
  EXPECT_GT(cov.resumed, 0);
  EXPECT_GT(cov.verdict_changed, 0);
  EXPECT_GT(cov.kept_broadcasting, 0);
  EXPECT_GT(cov.halted_undecided, 0);
  EXPECT_GT(cov.rescinded, 0);
  EXPECT_GT(cov.flipped, 0);
  EXPECT_GT(cov.delivery_mismatch, 0);
}

TEST(AuditDifferential, LowestOffenderIsNamedAcrossDeadAndLive) {
  // The live walk finds a live offender before the occupied-slot count can
  // expose a dead one, so the dead slots below it are checked first.
  for (const bool dead_first : {true, false}) {
    const std::uint32_t n = 8;
    const std::size_t dead = dead_first ? 2 : 5;
    const std::size_t live = dead_first ? 5 : 2;
    RunAuditor auditor;
    auditor.begin(n, n, 0);
    ReferenceAuditor reference(n, false);
    std::vector<std::unique_ptr<Process>> procs;
    for (std::uint32_t i = 0; i < n; ++i)
      procs.push_back(std::make_unique<ScriptedProcess>());
    std::vector<std::optional<Payload>> payloads(n, payload::kSupports0);
    DynBitset halted(n);

    FaultPlan plan;
    plan.crashes.push_back({static_cast<ProcessId>(dead), DynBitset(n)});
    auditor.on_plan(1, plan, payloads);
    reference.record_crashes(1, plan);
    // Round 2: the dead process speaks and a live one halts undecided.
    halted.set(live);
    payloads[live].reset();
    const std::string got = verdict(
        [&] { auditor.on_phase_a(2, payloads, halted, procs); });
    const std::string want = verdict(
        [&] { reference.on_phase_a(2, payloads, halted, procs); });
    EXPECT_EQ(got, want);
    const std::string named =
        "process " + std::to_string(std::min(dead, live)) + " ";
    EXPECT_NE(got.find(named), std::string::npos) << got;
    EXPECT_NE(got.find(dead_first ? "the dead must stay silent"
                                  : "halted without deciding"),
              std::string::npos)
        << got;
  }
}

}  // namespace
}  // namespace synran
