#include "p2pse/est/inverted_birthday.hpp"

#include <stdexcept>

#include "p2pse/est/walk_kernel.hpp"

namespace p2pse::est {

InvertedBirthday::InvertedBirthday(InvertedBirthdayConfig config)
    : config_(config) {
  if (config_.collisions == 0) {
    throw std::invalid_argument("InvertedBirthday: collisions must be >= 1");
  }
}

Estimate InvertedBirthday::estimate_once(sim::Simulator& sim,
                                         net::NodeId initiator,
                                         support::RngStream& rng) const {
  return estimate_lanes<detail::kWalkLanes>(sim, initiator, rng);
}

template <std::size_t Lanes>
Estimate InvertedBirthday::estimate_lanes(sim::Simulator& sim,
                                          net::NodeId initiator,
                                          support::RngStream& rng) const {
  const std::uint64_t baseline = sim.meter().total();
  if (!sim.graph().is_alive(initiator)) {
    return Estimate::invalid_at(sim.now());
  }
  // Fixed-length walks carry no timer state, so loss handling follows the
  // walk-class convention: hop-reliable forwarding, bounded-ARQ reply. A
  // permanently lost reply means the initiator never learns the sample (it
  // times out and launches the next walk, as in Sample&Collide).
  const detail::CollisionTally tally = detail::collide<Lanes>(
      sim, initiator, rng,
      {.timed = false, .max_hops = config_.walk_length, .arq_hops = false},
      config_.collisions, config_.max_samples);
  Estimate estimate;
  estimate.time = sim.now();
  estimate.messages = sim.meter().since(baseline);
  estimate.delay = tally.delay;
  if (tally.collisions < config_.collisions) {
    estimate.valid = false;
    return estimate;
  }
  estimate.value = static_cast<double>(tally.samples) *
                   static_cast<double>(tally.samples) /
                   (2.0 * static_cast<double>(config_.collisions));
  return estimate;
}

template Estimate InvertedBirthday::estimate_lanes<1>(
    sim::Simulator&, net::NodeId, support::RngStream&) const;
template Estimate InvertedBirthday::estimate_lanes<4>(
    sim::Simulator&, net::NodeId, support::RngStream&) const;
template Estimate InvertedBirthday::estimate_lanes<8>(
    sim::Simulator&, net::NodeId, support::RngStream&) const;
template Estimate InvertedBirthday::estimate_lanes<16>(
    sim::Simulator&, net::NodeId, support::RngStream&) const;

}  // namespace p2pse::est
