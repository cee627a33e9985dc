#pragma once
// Plain Inverted Birthday Paradox estimator (Bawa, Garcia-Molina, Gionis,
// Motwani — Stanford TR 2003 [2]) with the naive sampling scheme
// Sample&Collide was designed to replace: samples come from the END of a
// FIXED-LENGTH random walk, whose stationary distribution is proportional to
// node degree — i.e. biased on heterogeneous graphs.
//
// Kept as a baseline to demonstrate (a) why unbiased sampling matters on
// scale-free topologies (high-degree nodes are oversampled, collisions come
// too early, sizes are under-estimated) and (b) the accuracy gain of
// Sample&Collide's l-collision generalization over first-collision stopping.

#include <cstddef>
#include <cstdint>

#include "p2pse/est/estimate.hpp"
#include "p2pse/net/graph.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::est {

struct InvertedBirthdayConfig {
  std::uint32_t walk_length = 30;  ///< fixed hop count per sample
  std::uint32_t collisions = 1;    ///< classic first-collision stopping
  std::uint64_t max_samples = 1u << 26;
};

class InvertedBirthday {
 public:
  explicit InvertedBirthday(InvertedBirthdayConfig config);

  /// Samples until `collisions` repeats and returns N-hat = C^2 / (2 l).
  /// Each degree-biased sample is the endpoint of a fixed-length walk.
  /// Runs on the interleaved walk kernel, like SampleCollide::estimate_once.
  [[nodiscard]] Estimate estimate_once(sim::Simulator& sim,
                                       net::NodeId initiator,
                                       support::RngStream& rng) const;

  /// estimate_once with `Lanes` walks in flight (same result for every
  /// Lanes; instantiated for 1, 4, 8 and 16).
  template <std::size_t Lanes>
  [[nodiscard]] Estimate estimate_lanes(sim::Simulator& sim,
                                        net::NodeId initiator,
                                        support::RngStream& rng) const;

  [[nodiscard]] const InvertedBirthdayConfig& config() const noexcept {
    return config_;
  }

 private:
  InvertedBirthdayConfig config_;
};

}  // namespace p2pse::est
