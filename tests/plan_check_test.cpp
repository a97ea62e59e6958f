// Differential test for the shared plan-shape check (net/fabric.hpp's
// check_plan).
//
// The fabric's validate() and RunAuditor::on_plan once held a copy each of
// the directive rules. old_validate and OldPlanAuditor below are those two
// copies, kept as the oracles. Random fault plans go through the old and
// the new paths at n ∈ {3, 63, 64, 65, 130}, with no live set, the exact
// sender set and a strict superset of it. The plans come clean, with one
// injected defect of a known class, with several, or raw from a generator
// that ignores the model, like audit_fuzz_test's MalformedPlanAdversary.
// Directive processes may be dead, silent, duplicated, out of range or in
// two families; masks may have the wrong size; forgery targets may repeat
// or fall out of range. Checked:
//   * deliver, deliver_into, deliver_naive and check_plan reject exactly
//     the plans the old validate() rejected, and accepted plans leave the
//     same crash victims;
//   * RunAuditor::on_plan throws exactly when the old on_plan did, with the
//     same message for a one-defect plan, and that message names the
//     defect;
//   * the generator produced every defect class.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/dynbitset.hpp"
#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "sim/audit.hpp"

namespace synran {
namespace {

// ------------------------------------------------------------- oracles

bool old_outside_live(const RoundTraffic& traffic, std::size_t i) {
  return traffic.live != nullptr && !traffic.live->test(i);
}

/// The fabric's validate() before the rules were shared.
DynBitset old_validate(std::uint32_t n, const RoundTraffic& traffic) {
  SYNRAN_REQUIRE(traffic.payloads.size() == n, "payloads size != n");
  SYNRAN_REQUIRE(traffic.live == nullptr || traffic.live->size() == n,
                 "live mask has wrong size");
  DynBitset seen(n);
  if (traffic.plan == nullptr) return seen;
  for (const auto& c : traffic.plan->crashes) {
    SYNRAN_REQUIRE(c.victim < n, "crash victim out of range");
    SYNRAN_REQUIRE(traffic.payloads[c.victim].has_value(),
                   "crash victim is not sending this round");
    SYNRAN_REQUIRE(!old_outside_live(traffic, c.victim),
                   "crash victim is outside the live set");
    SYNRAN_REQUIRE(!seen.test(c.victim), "duplicate crash victim");
    SYNRAN_REQUIRE(c.deliver_to.size() == n, "deliver_to mask has wrong size");
    seen.set(c.victim);
  }
  DynBitset omitted(n);
  for (const auto& o : traffic.plan->omissions) {
    SYNRAN_REQUIRE(o.sender < n, "omission sender out of range");
    SYNRAN_REQUIRE(traffic.payloads[o.sender].has_value(),
                   "omission sender is not sending this round");
    SYNRAN_REQUIRE(!old_outside_live(traffic, o.sender),
                   "omission sender is outside the live set");
    SYNRAN_REQUIRE(!seen.test(o.sender),
                   "omission sender is also a crash victim");
    SYNRAN_REQUIRE(!omitted.test(o.sender), "duplicate omission sender");
    SYNRAN_REQUIRE(o.drop_for.size() == n, "drop_for mask has wrong size");
    omitted.set(o.sender);
  }
  DynBitset corrupted(n);
  DynBitset targets(n);
  for (const auto& cd : traffic.plan->corruptions) {
    SYNRAN_REQUIRE(cd.sender < n, "corruption sender out of range");
    SYNRAN_REQUIRE(traffic.payloads[cd.sender].has_value(),
                   "corruption sender is not sending this round");
    SYNRAN_REQUIRE(!old_outside_live(traffic, cd.sender),
                   "corruption sender is outside the live set");
    SYNRAN_REQUIRE(!seen.test(cd.sender),
                   "corruption sender is also a crash victim");
    SYNRAN_REQUIRE(!omitted.test(cd.sender),
                   "corruption sender is also an omission sender");
    SYNRAN_REQUIRE(!corrupted.test(cd.sender), "duplicate corruption sender");
    corrupted.set(cd.sender);
    targets.clear_all();
    for (const auto& fg : cd.forgeries) {
      SYNRAN_REQUIRE(fg.target < n, "forgery target out of range");
      SYNRAN_REQUIRE(!targets.test(fg.target), "duplicate forgery target");
      targets.set(fg.target);
    }
  }
  return seen;
}

/// RunAuditor::on_plan before the shape rules moved to check_plan: its
/// budget, cap and re-crash checks interleaved with its own copy of them.
class OldPlanAuditor {
 public:
  void begin(std::uint32_t n, std::uint32_t t_budget) {
    n_ = n;
    t_budget_ = t_budget;
    crashed_ = DynBitset(n);
    crash_round_.assign(n, 0);
  }
  void set_per_round_cap(std::uint32_t cap) { per_round_cap_ = cap; }
  void set_omission_budget(std::uint32_t budget) { omission_budget_ = budget; }
  void set_omission_round_cap(std::uint32_t cap) {
    omission_round_cap_ = cap;
  }
  void set_byzantine_budget(std::uint32_t budget) {
    byzantine_budget_ = budget;
  }
  void set_byzantine_round_cap(std::uint32_t cap) {
    byzantine_round_cap_ = cap;
  }

  void on_plan(Round round, const FaultPlan& plan,
               std::span<const std::optional<Payload>> payloads) {
    const auto k = static_cast<std::uint32_t>(plan.crash_count());
    if (per_round_cap_ != 0 && k > per_round_cap_) {
      std::ostringstream os;
      os << "plan crashes " << k << " processes but the per-round cap is "
         << per_round_cap_;
      fail(round, os.str());
    }
    if (cum_crashes_ + k > t_budget_) {
      std::ostringstream os;
      os << "plan crashes " << k << " more processes on top of "
         << cum_crashes_ << " already crashed, exceeding the fault budget t="
         << t_budget_;
      fail(round, os.str());
    }
    DynBitset in_plan(n_);
    for (const auto& c : plan.crashes) {
      if (c.victim >= n_) {
        std::ostringstream os;
        os << "crash victim " << c.victim << " is not a process (n=" << n_
           << ")";
        fail(round, os.str());
      }
      if (crashed_.test(c.victim)) {
        std::ostringstream os;
        os << "process " << c.victim << " re-crashed — it already failed in "
           << "round " << crash_round_[c.victim];
        fail(round, os.str());
      }
      if (in_plan.test(c.victim)) {
        std::ostringstream os;
        os << "process " << c.victim << " appears twice in one fault plan";
        fail(round, os.str());
      }
      if (!payloads[c.victim].has_value()) {
        std::ostringstream os;
        os << "plan crashes process " << c.victim
           << ", which is not sending this round (crashing the silent "
           << "buys the adversary nothing and is outside the model)";
        fail(round, os.str());
      }
      if (c.deliver_to.size() != n_) {
        std::ostringstream os;
        os << "deliver_to mask for victim " << c.victim << " has size "
           << c.deliver_to.size() << ", expected n=" << n_;
        fail(round, os.str());
      }
      in_plan.set(c.victim);
    }
    const auto m = static_cast<std::uint32_t>(plan.omission_count());
    if (omission_round_cap_ != 0 && m > omission_round_cap_) {
      std::ostringstream os;
      os << "plan issues " << m << " omission directives but the per-round "
         << "omission cap is " << omission_round_cap_;
      fail(round, os.str());
    }
    if (cum_omissions_ + m > omission_budget_) {
      std::ostringstream os;
      os << "plan issues " << m << " omission directives on top of "
         << cum_omissions_ << " already spent, exceeding the omission budget "
         << omission_budget_
         << (omission_budget_ == 0
                 ? " (omissions are forbidden under the fail-stop model "
                   "unless EngineOptions grants a budget)"
                 : "");
      fail(round, os.str());
    }
    DynBitset omitted(n_);
    for (const auto& o : plan.omissions) {
      if (o.sender >= n_) {
        std::ostringstream os;
        os << "omission sender " << o.sender << " is not a process (n="
           << n_ << ")";
        fail(round, os.str());
      }
      if (in_plan.test(o.sender)) {
        std::ostringstream os;
        os << "process " << o.sender << " is both crashed and omitted in one "
           << "fault plan — a crash's deliver_to already fixes its delivery";
        fail(round, os.str());
      }
      if (omitted.test(o.sender)) {
        std::ostringstream os;
        os << "omission sender " << o.sender
           << " appears twice in one fault plan";
        fail(round, os.str());
      }
      if (!payloads[o.sender].has_value()) {
        std::ostringstream os;
        os << "plan omits messages of process " << o.sender
           << ", which is not sending this round (an omission for a "
           << "non-sender suppresses nothing and is outside the model)";
        fail(round, os.str());
      }
      if (o.drop_for.size() != n_) {
        std::ostringstream os;
        os << "drop_for mask for omission sender " << o.sender
           << " has size " << o.drop_for.size() << ", expected n=" << n_;
        fail(round, os.str());
      }
      omitted.set(o.sender);
    }
    const auto b = static_cast<std::uint32_t>(plan.corruption_count());
    if (byzantine_round_cap_ != 0 && b > byzantine_round_cap_) {
      std::ostringstream os;
      os << "plan issues " << b << " corruption directives but the per-round "
         << "corruption cap is " << byzantine_round_cap_;
      fail(round, os.str());
    }
    if (cum_corruptions_ + b > byzantine_budget_) {
      std::ostringstream os;
      os << "plan issues " << b << " corruption directives on top of "
         << cum_corruptions_ << " already spent, exceeding the byzantine "
         << "budget " << byzantine_budget_
         << (byzantine_budget_ == 0
                 ? " (corrupted values are forbidden under the fail-stop "
                   "model unless EngineOptions grants a byzantine budget)"
                 : "");
      fail(round, os.str());
    }
    DynBitset corrupted(n_);
    DynBitset forged(n_);
    for (const auto& cd : plan.corruptions) {
      if (cd.sender >= n_) {
        std::ostringstream os;
        os << "corruption sender " << cd.sender << " is not a process (n="
           << n_ << ")";
        fail(round, os.str());
      }
      if (in_plan.test(cd.sender)) {
        std::ostringstream os;
        os << "process " << cd.sender << " is both crashed and corrupted in "
           << "one fault plan — a crash's deliver_to already fixes its "
           << "delivery";
        fail(round, os.str());
      }
      if (omitted.test(cd.sender)) {
        std::ostringstream os;
        os << "process " << cd.sender << " is both omitted and corrupted in "
           << "one fault plan — an omitted link has no value left to forge";
        fail(round, os.str());
      }
      if (corrupted.test(cd.sender)) {
        std::ostringstream os;
        os << "corruption sender " << cd.sender
           << " appears twice in one fault plan";
        fail(round, os.str());
      }
      if (!payloads[cd.sender].has_value()) {
        std::ostringstream os;
        os << "plan corrupts messages of process " << cd.sender
           << ", which is not sending this round (there is no message whose "
           << "value could be forged)";
        fail(round, os.str());
      }
      forged.clear_all();
      for (const auto& fg : cd.forgeries) {
        if (fg.target >= n_) {
          std::ostringstream os;
          os << "forgery target " << fg.target << " of corruption sender "
             << cd.sender << " is not a process (n=" << n_ << ")";
          fail(round, os.str());
        }
        if (forged.test(fg.target)) {
          std::ostringstream os;
          os << "forgery target " << fg.target << " of corruption sender "
             << cd.sender << " appears twice in one directive";
          fail(round, os.str());
        }
        forged.set(fg.target);
      }
      corrupted.set(cd.sender);
    }
    for (const auto& c : plan.crashes) {
      crashed_.set(c.victim);
      crash_round_[c.victim] = round;
    }
    cum_crashes_ += k;
    cum_omissions_ += m;
    cum_corruptions_ += b;
  }

 private:
  [[noreturn]] void fail(Round round, const std::string& what) const {
    std::ostringstream os;
    os << "audit: round " << round << ": " << what;
    throw InvariantError(os.str());
  }

  std::uint32_t n_ = 0;
  std::uint32_t t_budget_ = 0;
  std::uint32_t per_round_cap_ = 0;
  std::uint32_t cum_crashes_ = 0;
  std::uint32_t omission_budget_ = 0;
  std::uint32_t omission_round_cap_ = 0;
  std::uint32_t cum_omissions_ = 0;
  std::uint32_t byzantine_budget_ = 0;
  std::uint32_t byzantine_round_cap_ = 0;
  std::uint32_t cum_corruptions_ = 0;
  DynBitset crashed_;
  std::vector<Round> crash_round_;
};

// ----------------------------------------------------------- generator

enum class Defect {
  CrashCap,
  CrashBudget,
  OmissionCap,
  OmissionBudget,
  CorruptionCap,
  CorruptionBudget,
  CrashRange,
  ReCrash,
  CrashTwice,
  CrashSilent,
  CrashMaskSize,
  CrashOutsideLive,
  OmissionRange,
  OmissionCrashed,
  OmissionTwice,
  OmissionSilent,
  OmissionMaskSize,
  OmissionOutsideLive,
  CorruptionRange,
  CorruptionCrashed,
  CorruptionOmitted,
  CorruptionTwice,
  CorruptionSilent,
  CorruptionOutsideLive,
  ForgeryRange,
  ForgeryTwice,
};
constexpr std::size_t kDefects = 26;

constexpr std::array<const char*, kDefects> kDefectNames = {
    "CrashCap",         "CrashBudget",         "OmissionCap",
    "OmissionBudget",   "CorruptionCap",       "CorruptionBudget",
    "CrashRange",       "ReCrash",             "CrashTwice",
    "CrashSilent",      "CrashMaskSize",       "CrashOutsideLive",
    "OmissionRange",    "OmissionCrashed",     "OmissionTwice",
    "OmissionSilent",   "OmissionMaskSize",    "OmissionOutsideLive",
    "CorruptionRange",  "CorruptionCrashed",   "CorruptionOmitted",
    "CorruptionTwice",  "CorruptionSilent",    "CorruptionOutsideLive",
    "ForgeryRange",     "ForgeryTwice"};

bool is_limit(Defect d) { return d <= Defect::CorruptionBudget; }

enum class LiveSet { None, Exact, Superset };

/// The auditor's limits for round 2.
struct Limits {
  std::uint32_t t = 0;
  std::uint32_t cap = 0;
  std::uint32_t omission_budget = 0;
  std::uint32_t omission_cap = 0;
  std::uint32_t byzantine_budget = 0;
  std::uint32_t byzantine_cap = 0;
};

/// Round 1 crashes the dead (and may spend an omission and a corruption)
/// with everyone sending; round 2's plan is the one under test.
struct Scenario {
  std::uint32_t n = 0;
  std::vector<std::optional<Payload>> round1_payloads;
  FaultPlan round1;
  std::vector<std::optional<Payload>> payloads;
  FaultPlan plan;
  Limits limits;
  std::optional<DynBitset> live;
  std::vector<Defect> defects;
  /// For a one-defect plan: a substring of the auditor's message (empty
  /// when the auditor must accept) and of check_plan's (empty when the
  /// fabric must accept).
  std::string audit_expect;
  std::string fabric_expect;

  std::string label() const {
    std::string out = "n=" + std::to_string(n) + " defects:";
    for (const Defect d : defects)
      out += std::string(" ") + kDefectNames[static_cast<std::size_t>(d)];
    return out;
  }
};

DynBitset random_mask(Xoshiro256& rng, std::uint32_t size) {
  DynBitset mask(size);
  for (std::uint32_t i = 0; i < size; ++i)
    if (rng.flip()) mask.set(i);
  return mask;
}

Payload random_payload(Xoshiro256& rng) {
  return rng.below(8) == 0 ? (payload::kSupports0 | payload::kSupports1 |
                              payload::kDeterministicFlag)
                           : payload::of_bit(bit_of(rng.flip()));
}

/// Up to three distinct in-range forgery targets.
std::vector<CorruptionDirective::Forgery> random_forgeries(
    Xoshiro256& rng, std::uint32_t n) {
  std::vector<CorruptionDirective::Forgery> out;
  DynBitset used(n);
  const std::uint64_t f = rng.below(4);
  for (std::uint64_t j = 0; j < f; ++j) {
    const auto target = static_cast<ProcessId>(rng.below(n));
    if (used.test(target)) continue;
    used.set(target);
    out.push_back({target, rng.next()});
  }
  return out;
}

template <typename T>
void insert_anywhere(std::vector<T>& v, T item, Xoshiro256& rng) {
  v.insert(v.begin() + static_cast<std::ptrdiff_t>(rng.below(v.size() + 1)),
           std::move(item));
}

template <typename T>
const T& pick(const std::vector<T>& v, Xoshiro256& rng) {
  return v[rng.below(v.size())];
}

class ScenarioBuilder {
 public:
  ScenarioBuilder(Xoshiro256& rng, std::uint32_t n, LiveSet live_kind)
      : rng_(rng) {
    s_.n = n;
    // Process states: dead (crashed in round 1), silent (live, no payload
    // this round: halted or quiet), or sending.
    for (ProcessId i = 0; i < n; ++i) {
      const std::uint64_t r = rng_.below(10);
      (r < 2 ? dead_ : r < 4 ? silent_ : senders_).push_back(i);
    }
    s_.round1_payloads.assign(n, std::nullopt);
    for (auto& p : s_.round1_payloads) p = random_payload(rng_);
    for (const ProcessId d : dead_)
      s_.round1.crashes.push_back({d, random_mask(rng_, n)});
    // Round 1 may also spend an omission and a corruption on the living.
    std::vector<ProcessId> living = silent_;
    living.insert(living.end(), senders_.begin(), senders_.end());
    if (living.size() >= 2 && rng_.flip()) {
      s_.round1.omissions.push_back({living[0], random_mask(rng_, n)});
      s_.round1.corruptions.push_back(
          {living[1], random_forgeries(rng_, n)});
    }

    s_.payloads.assign(n, std::nullopt);
    for (const ProcessId p : senders_) s_.payloads[p] = random_payload(rng_);
    non_senders_ = dead_;
    non_senders_.insert(non_senders_.end(), silent_.begin(), silent_.end());

    // A clean base plan over the senders, in random order. Consecutive
    // victims sometimes share one mask handle.
    std::vector<ProcessId> order = senders_;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng_.below(i)]);
    for (const ProcessId p : order) {
      switch (rng_.below(8)) {
        case 0:
        case 1:
          if (!s_.plan.crashes.empty() && rng_.below(3) == 0) {
            s_.plan.crashes.push_back({p, s_.plan.crashes.back().deliver_to});
          } else {
            s_.plan.crashes.push_back({p, random_mask(rng_, n)});
          }
          victims_.push_back(p);
          break;
        case 2:
          s_.plan.omissions.push_back({p, random_mask(rng_, n)});
          omitted_.push_back(p);
          break;
        case 3:
          s_.plan.corruptions.push_back({p, random_forgeries(rng_, n)});
          corrupted_.push_back(p);
          break;
        default:
          break;
      }
    }

    if (live_kind == LiveSet::Exact || live_kind == LiveSet::Superset) {
      DynBitset live(n);
      for (const ProcessId p : senders_) live.set(p);
      if (live_kind == LiveSet::Superset) {
        for (const ProcessId p : non_senders_)
          if (rng_.flip()) live.set(p);
        if (!non_senders_.empty()) live.set(pick(non_senders_, rng_));
      }
      s_.live = std::move(live);
    }
  }

  /// Injects `d` if the world allows it; returns whether it did.
  bool inject(Defect d) {
    if (is_limit(d)) {
      limit_defects_.push_back(d);
      return true;
    }
    const std::uint32_t n = s_.n;
    auto& plan = s_.plan;
    const auto out_of_range = [&] {
      return static_cast<ProcessId>(n + rng_.below(3));
    };
    std::string audit;
    std::string fabric;
    const auto both = [&](std::string message) { audit = fabric = message; };
    switch (d) {
      case Defect::CrashRange: {
        const ProcessId v = out_of_range();
        insert_anywhere(plan.crashes, CrashDirective{v, DynBitset(n)}, rng_);
        both(str_cat("crash victim ", v, " is not a process"));
        break;
      }
      case Defect::ReCrash: {
        if (dead_.empty()) return false;
        const ProcessId v = pick(dead_, rng_);
        insert_anywhere(plan.crashes, CrashDirective{v, DynBitset(n)}, rng_);
        audit = str_cat("process ", v, " re-crashed");
        fabric = str_cat("plan crashes process ", v, ", which is not sending");
        break;
      }
      case Defect::CrashTwice: {
        if (victims_.empty()) return false;
        const ProcessId v = pick(victims_, rng_);
        insert_anywhere(plan.crashes,
                        CrashDirective{v, random_mask(rng_, n)}, rng_);
        both(str_cat("process ", v, " appears twice in one fault plan"));
        break;
      }
      case Defect::CrashSilent: {
        if (silent_.empty()) return false;
        const ProcessId v = pick(silent_, rng_);
        insert_anywhere(plan.crashes, CrashDirective{v, DynBitset(n)}, rng_);
        both(str_cat("plan crashes process ", v, ", which is not sending"));
        break;
      }
      case Defect::CrashMaskSize: {
        if (plan.crashes.empty()) return false;
        auto& c = plan.crashes[rng_.below(plan.crashes.size())];
        c.deliver_to = DynBitset(n > 1 && rng_.flip() ? n - 1 : n + 1);
        both(str_cat("deliver_to mask for victim ", c.victim, " has size "));
        break;
      }
      case Defect::CrashOutsideLive: {
        if (!s_.live.has_value() || victims_.empty()) return false;
        const ProcessId v = pick(victims_, rng_);
        s_.live->reset(v);
        fabric = str_cat("crash victim ", v, " is outside the live set");
        break;
      }
      case Defect::OmissionRange: {
        const ProcessId o = out_of_range();
        insert_anywhere(plan.omissions, OmissionDirective{o, DynBitset(n)},
                        rng_);
        both(str_cat("omission sender ", o, " is not a process"));
        break;
      }
      case Defect::OmissionCrashed: {
        if (victims_.empty()) return false;
        const ProcessId o = pick(victims_, rng_);
        insert_anywhere(plan.omissions, OmissionDirective{o, DynBitset(n)},
                        rng_);
        both(str_cat("process ", o, " is both crashed and omitted"));
        break;
      }
      case Defect::OmissionTwice: {
        if (omitted_.empty()) return false;
        const ProcessId o = pick(omitted_, rng_);
        insert_anywhere(plan.omissions, OmissionDirective{o, DynBitset(n)},
                        rng_);
        both(str_cat("omission sender ", o,
                     " appears twice in one fault plan"));
        break;
      }
      case Defect::OmissionSilent: {
        if (non_senders_.empty()) return false;
        const ProcessId o = pick(non_senders_, rng_);
        insert_anywhere(plan.omissions, OmissionDirective{o, DynBitset(n)},
                        rng_);
        both(str_cat("plan omits messages of process ", o,
                     ", which is not sending"));
        break;
      }
      case Defect::OmissionMaskSize: {
        if (plan.omissions.empty()) return false;
        auto& o = plan.omissions[rng_.below(plan.omissions.size())];
        o.drop_for = DynBitset(n > 1 && rng_.flip() ? n - 1 : n + 1);
        both(str_cat("drop_for mask for omission sender ", o.sender,
                     " has size "));
        break;
      }
      case Defect::OmissionOutsideLive: {
        if (!s_.live.has_value() || omitted_.empty()) return false;
        const ProcessId o = pick(omitted_, rng_);
        s_.live->reset(o);
        fabric = str_cat("omission sender ", o, " is outside the live set");
        break;
      }
      case Defect::CorruptionRange: {
        const ProcessId c = out_of_range();
        insert_anywhere(plan.corruptions,
                        CorruptionDirective{c, random_forgeries(rng_, n)},
                        rng_);
        both(str_cat("corruption sender ", c, " is not a process"));
        break;
      }
      case Defect::CorruptionCrashed: {
        if (victims_.empty()) return false;
        const ProcessId c = pick(victims_, rng_);
        insert_anywhere(plan.corruptions,
                        CorruptionDirective{c, random_forgeries(rng_, n)},
                        rng_);
        both(str_cat("process ", c, " is both crashed and corrupted"));
        break;
      }
      case Defect::CorruptionOmitted: {
        if (omitted_.empty()) return false;
        const ProcessId c = pick(omitted_, rng_);
        insert_anywhere(plan.corruptions,
                        CorruptionDirective{c, random_forgeries(rng_, n)},
                        rng_);
        both(str_cat("process ", c, " is both omitted and corrupted"));
        break;
      }
      case Defect::CorruptionTwice: {
        if (corrupted_.empty()) return false;
        const ProcessId c = pick(corrupted_, rng_);
        insert_anywhere(plan.corruptions,
                        CorruptionDirective{c, random_forgeries(rng_, n)},
                        rng_);
        both(str_cat("corruption sender ", c,
                     " appears twice in one fault plan"));
        break;
      }
      case Defect::CorruptionSilent: {
        if (non_senders_.empty()) return false;
        const ProcessId c = pick(non_senders_, rng_);
        insert_anywhere(plan.corruptions,
                        CorruptionDirective{c, random_forgeries(rng_, n)},
                        rng_);
        both(str_cat("plan corrupts messages of process ", c,
                     ", which is not sending"));
        break;
      }
      case Defect::CorruptionOutsideLive: {
        if (!s_.live.has_value() || corrupted_.empty()) return false;
        const ProcessId c = pick(corrupted_, rng_);
        s_.live->reset(c);
        fabric = str_cat("corruption sender ", c, " is outside the live set");
        break;
      }
      case Defect::ForgeryRange: {
        if (plan.corruptions.empty()) return false;
        auto& cd = plan.corruptions[rng_.below(plan.corruptions.size())];
        const ProcessId target = out_of_range();
        insert_anywhere(cd.forgeries,
                        CorruptionDirective::Forgery{target, rng_.next()},
                        rng_);
        both(str_cat("forgery target ", target, " of corruption sender ",
                     cd.sender, " is not a process"));
        break;
      }
      case Defect::ForgeryTwice: {
        if (plan.corruptions.empty()) return false;
        auto& cd = plan.corruptions[rng_.below(plan.corruptions.size())];
        if (cd.forgeries.empty())
          cd.forgeries.push_back(
              {static_cast<ProcessId>(rng_.below(n)), rng_.next()});
        const auto copy = pick(cd.forgeries, rng_);
        insert_anywhere(cd.forgeries, copy, rng_);
        both(str_cat("forgery target ", copy.target, " of corruption sender ",
                     cd.sender, " appears twice in one directive"));
        break;
      }
      default:
        return false;
    }
    s_.audit_expect = audit;
    s_.fabric_expect = fabric;
    s_.defects.push_back(d);
    return true;
  }

  /// Sets roomy limits for the final plan, then applies the limit defects.
  /// Returns false when a requested limit defect has no room (a cap of
  /// k − 1 needs two directives, since a cap of 0 means uncapped).
  bool finish(Scenario& out) {
    const auto k = static_cast<std::uint32_t>(s_.plan.crash_count());
    const auto m = static_cast<std::uint32_t>(s_.plan.omission_count());
    const auto b = static_cast<std::uint32_t>(s_.plan.corruption_count());
    const auto dead = static_cast<std::uint32_t>(dead_.size());
    const auto om1 = static_cast<std::uint32_t>(s_.round1.omission_count());
    const auto byz1 =
        static_cast<std::uint32_t>(s_.round1.corruption_count());
    Limits& l = s_.limits;
    const auto roomy_cap = [&](std::uint32_t count) {
      return rng_.flip() ? 0
                         : count + static_cast<std::uint32_t>(rng_.below(2));
    };
    l.t = dead + k + static_cast<std::uint32_t>(rng_.below(3));
    l.cap = roomy_cap(k);
    l.omission_budget = om1 + m + static_cast<std::uint32_t>(rng_.below(3));
    l.omission_cap = roomy_cap(m);
    l.byzantine_budget =
        byz1 + b + static_cast<std::uint32_t>(rng_.below(3));
    l.byzantine_cap = roomy_cap(b);
    for (const Defect d : limit_defects_) {
      std::string audit;
      switch (d) {
        case Defect::CrashCap:
          if (k < 2) return false;
          l.cap = k - 1;
          audit = str_cat("plan crashes ", k,
                          " processes but the per-round cap is ", k - 1);
          break;
        case Defect::CrashBudget:
          if (k < 1) return false;
          l.t = dead + k - 1;
          audit = str_cat("exceeding the fault budget t=", l.t);
          break;
        case Defect::OmissionCap:
          if (m < 2) return false;
          l.omission_cap = m - 1;
          audit = str_cat("per-round omission cap is ", m - 1);
          break;
        case Defect::OmissionBudget:
          if (m < 1) return false;
          l.omission_budget = om1 + m - 1;
          audit = str_cat("exceeding the omission budget ", l.omission_budget);
          break;
        case Defect::CorruptionCap:
          if (b < 2) return false;
          l.byzantine_cap = b - 1;
          audit = str_cat("per-round corruption cap is ", b - 1);
          break;
        case Defect::CorruptionBudget:
          if (b < 1) return false;
          l.byzantine_budget = byz1 + b - 1;
          audit = str_cat("exceeding the byzantine budget ",
                          l.byzantine_budget);
          break;
        default:
          return false;
      }
      s_.audit_expect = audit;
      s_.fabric_expect.clear();
      s_.defects.push_back(d);
    }
    out = std::move(s_);
    return true;
  }

 private:
  Xoshiro256& rng_;
  Scenario s_;
  std::vector<ProcessId> dead_, silent_, senders_, non_senders_;
  std::vector<ProcessId> victims_, omitted_, corrupted_;
  std::vector<Defect> limit_defects_;
};

/// A plan drawn from raw randomness with no regard for the model, over a
/// random world.
Scenario raw_scenario(Xoshiro256& rng, std::uint32_t n, LiveSet live_kind) {
  Scenario s;
  s.n = n;
  s.round1_payloads.assign(n, std::nullopt);
  for (auto& p : s.round1_payloads) p = random_payload(rng);
  for (ProcessId i = 0; i < n; ++i)
    if (rng.below(6) == 0) s.round1.crashes.push_back({i, DynBitset(n)});
  s.payloads.assign(n, std::nullopt);
  DynBitset crashed(n);
  for (const auto& c : s.round1.crashes) crashed.set(c.victim);
  for (ProcessId i = 0; i < n; ++i)
    if (!crashed.test(i) && rng.below(5) != 0)
      s.payloads[i] = random_payload(rng);
  const auto id = [&] {
    return static_cast<ProcessId>(rng.below(n + (rng.below(20) == 0 ? 2 : 0)));
  };
  const auto mask = [&] {
    return random_mask(rng, rng.below(20) == 0 ? n + 1 : n);
  };
  for (std::uint64_t i = 0, k = rng.below(4); i < k; ++i)
    s.plan.crashes.push_back({id(), mask()});
  for (std::uint64_t i = 0, m = rng.below(3); i < m; ++i)
    s.plan.omissions.push_back({id(), mask()});
  for (std::uint64_t i = 0, b = rng.below(3); i < b; ++i) {
    CorruptionDirective cd{id(), {}};
    for (std::uint64_t j = 0, f = rng.below(4); j < f; ++j) {
      cd.forgeries.push_back({id(), rng.next()});
      if (rng.below(4) == 0) cd.forgeries.push_back(cd.forgeries.back());
    }
    s.plan.corruptions.push_back(std::move(cd));
  }
  if (live_kind != LiveSet::None) {
    DynBitset live(n);
    for (ProcessId i = 0; i < n; ++i)
      if (s.payloads[i].has_value() ||
          (live_kind == LiveSet::Superset && rng.flip()))
        live.set(i);
    s.live = std::move(live);
  }
  const auto k = static_cast<std::uint32_t>(s.round1.crash_count());
  s.limits.t = k + static_cast<std::uint32_t>(rng.below(4));
  s.limits.cap = static_cast<std::uint32_t>(rng.below(3));
  s.limits.omission_budget = static_cast<std::uint32_t>(rng.below(4));
  s.limits.omission_cap = static_cast<std::uint32_t>(rng.below(3));
  s.limits.byzantine_budget = static_cast<std::uint32_t>(rng.below(4));
  s.limits.byzantine_cap = static_cast<std::uint32_t>(rng.below(3));
  return s;
}

constexpr std::array<std::uint32_t, 5> kSizes = {3, 63, 64, 65, 130};
constexpr std::array<LiveSet, 3> kLiveSets = {LiveSet::None, LiveSet::Exact,
                                              LiveSet::Superset};
constexpr int kScenariosPerCell = 400;

/// Calls `f` on every generated scenario: per (n, live set), a quarter
/// clean, half with one defect (cycling through the classes) and a quarter
/// with two or three.
void for_each_scenario(const std::function<void(const Scenario&)>& f) {
  Xoshiro256 rng(0x9a7c4ec);
  for (const std::uint32_t n : kSizes) {
    for (const LiveSet live : kLiveSets) {
      for (int i = 0; i < kScenariosPerCell; ++i) {
        ScenarioBuilder builder(rng, n, live);
        std::size_t wanted = 0;
        std::size_t next_class = 0;
        switch (i % 4) {
          case 0:
            break;
          case 1:
          case 2:
            wanted = 1;
            next_class = static_cast<std::size_t>(i / 2) % kDefects;
            break;
          default:
            wanted = 2 + rng.below(2);
            next_class = rng.below(kDefects);
            break;
        }
        for (std::size_t tries = 0; tries < kDefects && wanted > 0; ++tries) {
          const auto d = static_cast<Defect>((next_class + tries) % kDefects);
          if (builder.inject(d)) --wanted;
          if (wanted > 0 && i % 4 == 3) next_class = rng.below(kDefects);
        }
        Scenario s;
        if (!builder.finish(s)) continue;
        f(s);
      }
    }
  }
}

// ------------------------------------------------------------- drivers

/// "" when `f` accepts, the InvariantError text when it rejects, and a
/// marker that never matches an oracle verdict for any other exception.
std::string audit_verdict(const std::function<void()>& f) {
  try {
    f();
  } catch (const InvariantError& e) {
    return e.what();
  } catch (const std::exception& e) {
    return std::string("unexpected exception: ") + e.what();
  }
  return {};
}

/// The fabric path against the old validate(); returns check_plan's verdict.
std::string expect_fabric_agrees(const Scenario& s) {
  const DynBitset* live = s.live.has_value() ? &*s.live : nullptr;
  const RoundTraffic traffic{s.payloads, &s.plan, live};
  std::optional<DynBitset> want;
  try {
    want = old_validate(s.n, traffic);
  } catch (const ArgumentError&) {
  }
  PlanScratch scratch;
  const std::string why = check_plan(s.n, traffic, scratch);
  EXPECT_EQ(why.empty(), want.has_value()) << s.label() << ": " << why;
  if (want.has_value() && why.empty()) {
    EXPECT_TRUE(scratch.victims == *want) << s.label();
  }

  const DynBitset receivers(s.n, true);
  std::vector<Receipt> out(s.n);
  if (want.has_value()) {
    EXPECT_NO_THROW(deliver(s.n, traffic, receivers)) << s.label();
    EXPECT_NO_THROW(deliver_into(s.n, traffic, receivers, out)) << s.label();
    EXPECT_NO_THROW(deliver_naive(s.n, traffic, receivers)) << s.label();
  } else {
    EXPECT_THROW(deliver(s.n, traffic, receivers), ArgumentError) << s.label();
    EXPECT_THROW(deliver_into(s.n, traffic, receivers, out), ArgumentError)
        << s.label();
    EXPECT_THROW(deliver_naive(s.n, traffic, receivers), ArgumentError)
        << s.label();
  }
  return why;
}

/// The auditor path against the old on_plan; returns the new verdict and
/// stores the old one in `old_verdict`.
std::string expect_auditor_agrees(const Scenario& s,
                                  std::string& old_verdict) {
  // Round 1 runs under roomy limits; round 2's are set before its plan.
  constexpr std::uint32_t kRoomy = 1u << 20;
  RunAuditor now;
  now.begin(s.n, s.limits.t, 0, kRoomy, 0, kRoomy, 0);
  OldPlanAuditor old;
  old.begin(s.n, s.limits.t);
  old.set_omission_budget(kRoomy);
  old.set_byzantine_budget(kRoomy);
  EXPECT_NO_THROW(now.on_plan(1, s.round1, s.round1_payloads)) << s.label();
  EXPECT_NO_THROW(old.on_plan(1, s.round1, s.round1_payloads)) << s.label();

  now.set_per_round_cap(s.limits.cap);
  now.set_omission_budget(s.limits.omission_budget);
  now.set_omission_round_cap(s.limits.omission_cap);
  now.set_byzantine_budget(s.limits.byzantine_budget);
  now.set_byzantine_round_cap(s.limits.byzantine_cap);
  old.set_per_round_cap(s.limits.cap);
  old.set_omission_budget(s.limits.omission_budget);
  old.set_omission_round_cap(s.limits.omission_cap);
  old.set_byzantine_budget(s.limits.byzantine_budget);
  old.set_byzantine_round_cap(s.limits.byzantine_cap);

  old_verdict = audit_verdict([&] { old.on_plan(2, s.plan, s.payloads); });
  const std::string got =
      audit_verdict([&] { now.on_plan(2, s.plan, s.payloads); });
  EXPECT_EQ(got.empty(), old_verdict.empty())
      << s.label() << "\n  new: " << got << "\n  old: " << old_verdict;
  if (got.empty() && old_verdict.empty()) {
    // What the engine hands to deliver_checked_into.
    EXPECT_TRUE(now.plan_victims() ==
                old_validate(s.n, RoundTraffic{s.payloads, &s.plan}))
        << s.label();
  }
  return got;
}

TEST(PlanCheck, FabricRejectsExactlyWhatTheOldValidateRejected) {
  std::array<int, kDefects> seen{};
  int accepted = 0;
  int rejected = 0;
  for_each_scenario([&](const Scenario& s) {
    const std::string why = expect_fabric_agrees(s);
    (why.empty() ? accepted : rejected) += 1;
    if (s.defects.size() != 1) return;
    ++seen[static_cast<std::size_t>(s.defects.front())];
    if (s.fabric_expect.empty()) {
      EXPECT_EQ(why, "") << s.label();
    } else {
      EXPECT_NE(why.find(s.fabric_expect), std::string::npos)
          << s.label() << "\n  got: " << why
          << "\n  want a message holding: " << s.fabric_expect;
    }
  });
  for (std::size_t d = 0; d < kDefects; ++d)
    EXPECT_GT(seen[d], 0) << "never generated " << kDefectNames[d];
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
}

TEST(PlanCheck, AuditorThrowsExactlyWhenTheOldOnPlanThrew) {
  std::array<int, kDefects> seen{};
  int accepted = 0;
  int rejected = 0;
  for_each_scenario([&](const Scenario& s) {
    std::string old_verdict;
    const std::string got = expect_auditor_agrees(s, old_verdict);
    (got.empty() ? accepted : rejected) += 1;
    if (s.defects.size() > 1) return;
    // Clean and one-defect plans read exactly as before.
    EXPECT_EQ(got, old_verdict) << s.label();
    if (s.defects.empty()) {
      EXPECT_EQ(got, "") << s.label();
      return;
    }
    ++seen[static_cast<std::size_t>(s.defects.front())];
    if (s.audit_expect.empty()) {
      EXPECT_EQ(got, "") << s.label();
    } else {
      EXPECT_NE(got.find(s.audit_expect), std::string::npos)
          << s.label() << "\n  got: " << got
          << "\n  want a message holding: " << s.audit_expect;
    }
  });
  for (std::size_t d = 0; d < kDefects; ++d)
    EXPECT_GT(seen[d], 0) << "never generated " << kDefectNames[d];
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
}

TEST(PlanCheck, RawRandomPlansGetTheOldVerdicts) {
  Xoshiro256 rng(0x7a3c0de);
  int rejected = 0;
  int total = 0;
  for (const std::uint32_t n : kSizes) {
    for (const LiveSet live : kLiveSets) {
      for (int i = 0; i < 200; ++i) {
        const Scenario s = raw_scenario(rng, n, live);
        const std::string why = expect_fabric_agrees(s);
        std::string old_verdict;
        expect_auditor_agrees(s, old_verdict);
        rejected += why.empty() ? 0 : 1;
        ++total;
      }
    }
  }
  EXPECT_GT(rejected, total / 4);
  EXPECT_LT(rejected, total);
}

TEST(PlanCheck, SpanAndLiveSetSizesAreChecked) {
  const std::uint32_t n = 65;
  const std::vector<std::optional<Payload>> payloads(n, payload::kSupports1);
  const std::vector<std::optional<Payload>> short_payloads(
      n - 1, payload::kSupports1);
  const DynBitset receivers(n, true);
  const DynBitset long_live(n + 1, true);
  const FaultPlan plan;
  PlanScratch scratch;
  for (const RoundTraffic& traffic :
       {RoundTraffic{short_payloads, &plan},
        RoundTraffic{payloads, &plan, &long_live}}) {
    EXPECT_THROW(old_validate(n, traffic), ArgumentError);
    EXPECT_NE(check_plan(n, traffic, scratch), "");
    EXPECT_THROW(deliver(n, traffic, receivers), ArgumentError);
    EXPECT_THROW(deliver_naive(n, traffic, receivers), ArgumentError);
  }
  // A null plan is well-formed and leaves no victims, whatever `victims`
  // held before.
  scratch.victims = DynBitset(n, true);
  EXPECT_EQ(check_plan(n, RoundTraffic{payloads, nullptr}, scratch), "");
  EXPECT_TRUE(scratch.victims == DynBitset(n));
}

}  // namespace
}  // namespace synran
