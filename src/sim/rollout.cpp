#include "sim/rollout.hpp"

#include "common/check.hpp"
#include "net/fabric.hpp"

namespace synran {

ForkState ForkState::from_world(const WorldView& world) {
  ForkState s;
  s.n_ = world.n();
  s.round_ = world.round();
  s.alive_ = world.alive();
  s.halted_ = world.halted();
  s.procs_.reserve(s.n_);
  s.payloads_.assign(world.payloads().begin(), world.payloads().end());
  for (ProcessId i = 0; i < s.n_; ++i)
    s.procs_.push_back(world.process(i).clone());
  s.receipts_.assign(s.n_, Receipt{});
  s.have_receipt_.assign(s.n_, false);
  s.budget_left_ = world.budget_left();
  s.round_cap_ = world.round_cap();
  return s;
}

ForkState::ForkState(const ForkState& o)
    : n_(o.n_),
      round_(o.round_),
      alive_(o.alive_),
      halted_(o.halted_),
      payloads_(o.payloads_),
      receipts_(o.receipts_),
      have_receipt_(o.have_receipt_),
      budget_left_(o.budget_left_),
      round_cap_(o.round_cap_) {
  procs_.reserve(o.procs_.size());
  for (const auto& p : o.procs_) procs_.push_back(p->clone());
}

void ForkState::deliver_with(const FaultPlan& plan) {
  SYNRAN_CHECK_MSG(plan.crash_count() <= budget_left_,
                   "rollout plan exceeds global budget");
  SYNRAN_CHECK_MSG(round_cap_ == 0 || plan.crash_count() <= round_cap_,
                   "rollout plan exceeds per-round cap");
  for (const auto& c : plan.crashes)
    SYNRAN_CHECK_MSG(alive_.test(c.victim), "rollout crashed a dead process");

  DynBitset active = alive_;
  for (const auto& c : plan.crashes) active.reset(c.victim);
  halted_.for_each_set([&](std::size_t i) { active.reset(i); });

  deliver_into(n_, RoundTraffic{payloads_, &plan}, active, receipts_);
  active.for_each_set([&](std::size_t i) { have_receipt_[i] = true; });

  budget_left_ -= static_cast<std::uint32_t>(plan.crash_count());
  for (const auto& c : plan.crashes) alive_.reset(c.victim);
  ++round_;
}

bool ForkState::advance(
    const std::vector<std::unique_ptr<CoinSource>>& coins) {
  SYNRAN_CHECK(coins.size() == n_);
  bool anyone_sending = false;
  for (ProcessId i = 0; i < n_; ++i) {
    if (!alive_.test(i) || halted_.test(i)) {
      payloads_[i].reset();
      continue;
    }
    const Receipt* prev = have_receipt_[i] ? &receipts_[i] : nullptr;
    payloads_[i] = procs_[i]->on_round(prev, *coins[i]);
    if (!payloads_[i].has_value()) {
      SYNRAN_CHECK_MSG(procs_[i]->decided(),
                       "process halted without deciding");
      halted_.set(i);
    } else {
      anyone_sending = true;
    }
  }
  return anyone_sending;
}

bool ForkState::all_alive_decided() const {
  for (ProcessId i = 0; i < n_; ++i)
    if (alive_.test(i) && !procs_[i]->decided()) return false;
  return true;
}

std::optional<Bit> ForkState::unanimous_decision() const {
  std::optional<Bit> value;
  for (ProcessId i = 0; i < n_; ++i) {
    if (!alive_.test(i) || !procs_[i]->decided()) continue;
    const Bit d = procs_[i]->decision();
    if (!value.has_value()) {
      value = d;
    } else if (*value != d) {
      return std::nullopt;
    }
  }
  return value;
}

WorldView ForkState::world_view() const {
  return WorldView(round_, n_, alive_, halted_, payloads_, procs_,
                   budget_left_, round_cap_);
}

RolloutOutcome rollout(const WorldView& world, const FaultPlan& first_plan,
                       Adversary& continuation, std::uint64_t seed,
                       std::uint32_t max_extra_rounds) {
  ForkState st = ForkState::from_world(world);

  SeedSequence seeds(seed);
  std::vector<std::unique_ptr<CoinSource>> coins;
  coins.reserve(st.n());
  for (ProcessId i = 0; i < st.n(); ++i)
    coins.push_back(std::make_unique<RandomCoinSource>(seeds.stream(i)));

  RolloutOutcome out;
  st.deliver_with(first_plan);
  for (std::uint32_t step = 0; step < max_extra_rounds; ++step) {
    const bool anyone = st.advance(coins);
    ++out.extra_rounds;
    if (!anyone) {
      out.terminated = true;
      break;
    }
    FaultPlan plan = continuation.plan_round(st.world_view());
    st.deliver_with(plan);
  }

  const auto decision = st.unanimous_decision();
  out.agreement = st.all_alive_decided() ? decision.has_value() : true;
  out.decided_one = decision.has_value() && *decision == Bit::One;
  return out;
}

}  // namespace synran
