#include "protocols/synran.hpp"

#include <cmath>

#include "analysis/theory.hpp"
#include "common/check.hpp"

namespace synran {

SynRanProcess::SynRanProcess(ProcessId id, std::uint32_t n, Bit input,
                             SynRanOptions opts)
    : SynRanProcess(id, n, input, opts, nullptr) {}

SynRanProcess::SynRanProcess(ProcessId id, std::uint32_t n, Bit input,
                             SynRanOptions opts, const SynRanProcess* kept)
    : opts_(opts), n_(n), id_(id), b_(input) {
  SYNRAN_REQUIRE(n >= 1, "SynRan needs at least one process");
  SYNRAN_REQUIRE(opts.margins_valid(),
                 "threshold numerators must satisfy d1 > p1 >= p0 > d0");
  det_threshold_ = kept != nullptr && kept->n_ == n
                       ? kept->det_threshold_
                       : theory::deterministic_stage_threshold(n);
  det_rounds_ = static_cast<std::uint32_t>(std::ceil(det_threshold_)) +
                opts_.det_margin;
}

std::uint32_t SynRanProcess::n_history(std::int64_t k) const {
  if (k <= 0) return n_;  // the paper's N^{-1} = N^0 = n convention
  SYNRAN_CHECK_MSG(k + 3 >= static_cast<std::int64_t>(nhist_latest_) &&
                       k <= static_cast<std::int64_t>(nhist_latest_),
                   "N history queried outside the retained window");
  return nhist_[static_cast<std::size_t>(k) & 3];
}

void SynRanProcess::record_n(std::uint32_t round, std::uint32_t count) {
  SYNRAN_CHECK(round == nhist_latest_ + 1 || nhist_latest_ == 0);
  nhist_[round & 3] = count;
  nhist_latest_ = round;
}

std::optional<Payload> SynRanProcess::on_round(const Receipt* prev,
                                               CoinSource& coins) {
  SYNRAN_CHECK_MSG(!halted_, "on_round called on a halted process");
  flipped_coin_ = false;
  std::optional<Payload> out;
  if (mode_ == Mode::Probabilistic) {
    out = probabilistic_round(prev, coins);
  } else {
    out = deterministic_round(prev);
  }
  if (out.has_value()) ++next_round_;
  return out;
}

std::optional<Payload> SynRanProcess::probabilistic_round(const Receipt* prev,
                                                          CoinSource& coins) {
  if (prev == nullptr) {
    SYNRAN_CHECK_MSG(next_round_ == 1, "missing receipt after round 1");
    return payload::of_bit(b_);  // round 1: broadcast the input
  }

  const std::uint32_t r = next_round_ - 1;  // the round `prev` belongs to
  record_n(r, prev->count);

  // Hand-off check — first, exactly as in the pseudocode: once fewer than
  // √(n/ln n) messages arrive, broadcast b_i one more time and switch to the
  // deterministic stage.
  if (opts_.det_handoff &&
      static_cast<double>(prev->count) < det_threshold_) {
    mode_ = Mode::DetSync;
    return payload::of_bit(b_) | payload::kDeterministicFlag;
  }

  // Halting rule: a process that decided at round r-1 stops at round r iff
  // the message count is no longer collapsing (diff = N^{r-3} − N^r is at
  // most N^{r-2}/10); otherwise it rescinds `decided` and keeps going.
  if (decided_) {
    const std::uint32_t n3 = n_history(static_cast<std::int64_t>(r) - 3);
    const std::uint32_t n2 = n_history(static_cast<std::int64_t>(r) - 2);
    const std::uint32_t diff = n3 >= prev->count ? n3 - prev->count : 0;
    if (10ULL * diff <= n2) {
      halted_ = true;
      return std::nullopt;  // STOP
    }
    decided_ = false;
  }

  // Threshold update on O_i^r / Z_i^r. All comparisons in exact integer
  // arithmetic (10·O vs k·N) to match the paper's strict fractions.
  const std::uint64_t ones = prev->ones;
  if (opts_.coin_rule == CoinRule::OneSideBias) {
    // The paper's rules: thresholds against N^{r-1}, and the one-side-bias
    // clause Z = 0 ⇒ 1 between the 1-side and 0-side thresholds. The
    // numerators default to the paper's 7/6/5/4 over 10.
    const std::uint64_t np = n_history(static_cast<std::int64_t>(r) - 1);
    if (10 * ones > opts_.decide_one_num * np) {
      b_ = Bit::One;
      decided_ = true;
    } else if (10 * ones > opts_.propose_one_num * np) {
      b_ = Bit::One;
    } else if (prev->zeros == 0) {
      b_ = Bit::One;
    } else if (10 * ones < opts_.decide_zero_num * np) {
      b_ = Bit::Zero;
      decided_ = true;
    } else if (10 * ones < opts_.propose_zero_num * np) {
      b_ = Bit::Zero;
    } else {
      b_ = bit_of(coins.flip());
      flipped_coin_ = true;
    }
  } else {
    // Symmetric ablation: Ben-Or-style thresholds relative to the current
    // round's count; the collective coin is biasable in both directions.
    const std::uint64_t nc = prev->count;
    if (10 * ones > 7 * nc) {
      b_ = Bit::One;
      decided_ = true;
    } else if (10 * ones > 6 * nc) {
      b_ = Bit::One;
    } else if (10 * ones < 3 * nc) {
      b_ = Bit::Zero;
      decided_ = true;
    } else if (10 * ones < 4 * nc) {
      b_ = Bit::Zero;
    } else {
      b_ = bit_of(coins.flip());
      flipped_coin_ = true;
    }
  }
  return payload::of_bit(b_);
}

std::optional<Payload> SynRanProcess::deterministic_round(const Receipt* prev) {
  SYNRAN_CHECK_MSG(prev != nullptr, "deterministic stage before any receipt");
  const Payload values = prev->or_mask & (payload::kSupports0 |
                                          payload::kSupports1);
  if (mode_ == Mode::DetSync) {
    // `prev` is the hand-off round's receipt: every surviving participant's
    // current b (self included). It seeds the flood set.
    det_mask_ = values | payload::of_bit(b_);
    mode_ = Mode::DetFlood;
    det_floods_sent_ = 1;
    return det_mask_ | payload::kDeterministicFlag;
  }

  det_mask_ |= values;
  SYNRAN_CHECK(det_mask_ != 0);
  if (det_floods_sent_ >= det_rounds_) {
    // Flooding complete: decide the minimum value present (FloodMin rule).
    b_ = (det_mask_ & payload::kSupports0) ? Bit::Zero : Bit::One;
    decided_ = true;
    halted_ = true;
    return std::nullopt;
  }
  ++det_floods_sent_;
  return det_mask_ | payload::kDeterministicFlag;
}

ProcessView SynRanProcess::view() const {
  ProcessView v;
  v.estimate = b_;
  v.decided = decided_;
  v.halted = halted_;
  v.flipped_coin = flipped_coin_;
  v.deterministic = mode_ != Mode::Probabilistic;
  return v;
}

std::uint64_t SynRanProcess::state_digest() const {
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  };
  std::uint64_t h = 0x5bd1e995u;
  h = mix(h, id_);
  h = mix(h, static_cast<std::uint64_t>(b_ == Bit::One) |
                 (static_cast<std::uint64_t>(decided_) << 1) |
                 (static_cast<std::uint64_t>(halted_) << 2) |
                 (static_cast<std::uint64_t>(mode_) << 3));
  h = mix(h, next_round_);
  for (auto nh : nhist_) h = mix(h, nh);
  h = mix(h, nhist_latest_);
  h = mix(h, det_mask_);
  h = mix(h, det_floods_sent_);
  return h;
}

std::unique_ptr<Process> SynRanProcess::clone() const {
  return std::make_unique<SynRanProcess>(*this);
}

}  // namespace synran
