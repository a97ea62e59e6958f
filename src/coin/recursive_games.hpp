// Structured games from the collective coin-flipping literature the paper
// cites ([BOL89], [Lin94]): recursive majority-of-three and tribes. Both
// are classic test beds for influence/control questions; here they exercise
// the generic forcing search (no analytic rule exists) and show how game
// structure changes the adversary's price.
#pragma once

#include <cstdint>

#include "coin/games.hpp"

namespace synran {

/// Recursive majority-of-3: n = 3^height players at the leaves of a ternary
/// tree; each internal node takes the majority of its children. A hidden
/// leaf assumes the adversary's preferred value — i.e. "—" counts toward
/// whichever outcome the adversary is currently testing is *not* reachable;
/// to keep the game well-defined we fix the default: a hidden leaf counts
/// as 0 (like the paper's majority-with-default-0, this makes the game
/// one-sided).
class RecursiveMajorityGame final : public CoinGame {
 public:
  explicit RecursiveMajorityGame(std::uint32_t height);

  std::uint32_t players() const override { return leaves_; }
  std::uint32_t outcomes() const override { return 2; }
  std::uint32_t domain_size() const override { return 2; }
  std::uint32_t outcome(std::span<const GameValue> values,
                        const DynBitset& hidden) const override;
  const char* name() const override { return "recursive-majority3"; }

  std::uint32_t height() const { return height_; }

 private:
  std::uint32_t eval(std::span<const GameValue> values,
                     const DynBitset& hidden, std::uint32_t node,
                     std::uint32_t level) const;

  std::uint32_t height_;
  std::uint32_t leaves_;
};

/// Largest tribes game (tribes × width players) TribesGame builds.
inline constexpr std::uint32_t kTribesMaxPlayers = 4096;

/// Tribes (OR of ANDs): players are split into `tribes` blocks of `width`;
/// the outcome is 1 iff some block is all-1. Hidden players count as 0, so
/// the adversary can veto any single block with one hiding but can never
/// create a winning block — extreme one-sidedness in the 0 direction.
class TribesGame final : public CoinGame {
 public:
  TribesGame(std::uint32_t tribes, std::uint32_t width);

  std::uint32_t players() const override { return tribes_ * width_; }
  std::uint32_t outcomes() const override { return 2; }
  std::uint32_t domain_size() const override { return 2; }
  std::uint32_t outcome(std::span<const GameValue> values,
                        const DynBitset& hidden) const override;
  std::optional<DynBitset> analytic_force(std::span<const GameValue> values,
                                          std::uint32_t target,
                                          std::uint32_t budget) const override;
  bool analytic_force_is_complete() const override { return true; }
  const char* name() const override { return "tribes"; }

 private:
  std::uint32_t tribes_;
  std::uint32_t width_;
};

}  // namespace synran
