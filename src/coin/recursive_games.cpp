#include "coin/recursive_games.hpp"

#include "common/check.hpp"

namespace synran {

RecursiveMajorityGame::RecursiveMajorityGame(std::uint32_t height)
    : height_(height) {
  SYNRAN_REQUIRE(height >= 1 && height <= 10,
                 "recursive majority supports height 1..10");
  leaves_ = 1;
  for (std::uint32_t h = 0; h < height; ++h) leaves_ *= 3;
}

std::uint32_t RecursiveMajorityGame::eval(std::span<const GameValue> values,
                                          const DynBitset& hidden,
                                          std::uint32_t node,
                                          std::uint32_t level) const {
  if (level == height_) {
    // Leaf `node`; hidden counts as 0.
    if (hidden.test(node)) return 0;
    return values[node] != 0 ? 1 : 0;
  }
  std::uint32_t ones = 0;
  for (std::uint32_t c = 0; c < 3; ++c)
    ones += eval(values, hidden, node * 3 + c, level + 1);
  return ones >= 2 ? 1 : 0;
}

std::uint32_t RecursiveMajorityGame::outcome(
    std::span<const GameValue> values, const DynBitset& hidden) const {
  SYNRAN_REQUIRE(values.size() == leaves_, "value vector has wrong size");
  return eval(values, hidden, 0, 0);
}

TribesGame::TribesGame(std::uint32_t tribes, std::uint32_t width)
    : tribes_(tribes), width_(width) {
  SYNRAN_REQUIRE(tribes >= 1 && width >= 1, "tribes and width must be >= 1");
  SYNRAN_REQUIRE(std::uint64_t{tribes} * width <= kTribesMaxPlayers,
                 "tribes game too large");
}

std::uint32_t TribesGame::outcome(std::span<const GameValue> values,
                                  const DynBitset& hidden) const {
  SYNRAN_REQUIRE(values.size() == players(), "value vector has wrong size");
  for (std::uint32_t b = 0; b < tribes_; ++b) {
    bool all_one = true;
    for (std::uint32_t i = 0; i < width_ && all_one; ++i) {
      const std::uint32_t idx = b * width_ + i;
      if (hidden.test(idx) || values[idx] == 0) all_one = false;
    }
    if (all_one) return 1;
  }
  return 0;
}

std::optional<DynBitset> TribesGame::analytic_force(
    std::span<const GameValue> values, std::uint32_t target,
    std::uint32_t budget) const {
  DynBitset hidden(players());
  if (outcome(values, hidden) == target) return hidden;
  if (target == 1) return std::nullopt;  // hiding can only break blocks
  // Force 0: veto every currently-winning block with one hiding each.
  std::uint32_t used = 0;
  for (std::uint32_t b = 0; b < tribes_; ++b) {
    bool all_one = true;
    for (std::uint32_t i = 0; i < width_ && all_one; ++i)
      if (values[b * width_ + i] == 0) all_one = false;
    if (!all_one) continue;
    if (++used > budget) return std::nullopt;
    hidden.set(b * width_);
  }
  SYNRAN_CHECK(outcome(values, hidden) == 0);
  return hidden;
}

}  // namespace synran
