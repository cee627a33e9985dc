#include "p2pse/est/aggregation.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "p2pse/support/stats.hpp"

namespace p2pse::est {
namespace {

/// The pick phase hints a node's degree and extent lines this many nodes
/// ahead. Churn scrambles the alive order, so each is a likely miss.
constexpr std::size_t kNodeAhead = 16;

}  // namespace

void draw_round_peers(const net::Graph& graph, support::RngStream& rng,
                      std::vector<net::NodeId>& peers) {
  const std::span<const net::NodeId> alive = graph.alive_nodes();
  peers.resize(alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (i + kNodeAhead < alive.size()) {
      graph.prefetch_node(alive[i + kNodeAhead]);
    }
    // Alive nodes only, so degree() alone gives the list's length.
    const net::NodeId id = alive[i];
    const std::size_t degree = graph.degree(id);
    peers[i] = degree == 0
                   ? net::kInvalidNode
                   : *graph.neighbor_slot(
                         id, static_cast<std::size_t>(rng.uniform_u64(degree)));
  }
}

Aggregation::Aggregation(AggregationConfig config) : config_(config) {
  if (config_.rounds_per_epoch == 0) {
    throw std::invalid_argument("Aggregation: rounds_per_epoch must be >= 1");
  }
}

void Aggregation::ensure_capacity(std::size_t slots) {
  if (values_.size() < slots) values_.resize(slots, 0.0);
}

void Aggregation::start_epoch(sim::Simulator& sim, net::NodeId initiator) {
  if (!sim.graph().is_alive(initiator)) {
    throw std::invalid_argument("Aggregation: epoch initiator must be alive");
  }
  ensure_capacity(sim.graph().slot_count());
  for (const net::NodeId id : sim.graph().alive_nodes()) values_[id] = 0.0;
  values_[initiator] = 1.0;
  initiator_ = initiator;
  epoch_delay_ = 0.0;
  ++epoch_;
}

void Aggregation::run_round(sim::Simulator& sim, support::RngStream& rng) {
  net::Graph& graph = sim.graph();
  ensure_capacity(graph.slot_count());
  // Synchronous cycle: every alive node initiates one exchange with a
  // uniformly random alive neighbor (push + pull = 2 messages). A dropped
  // push means the peer never replies (no pull message at all); a dropped
  // pull means the initiator cannot confirm, so the peer's tentative update
  // is rolled back — either way the exchange is masked out of the round and
  // mass is conserved.
  //
  // Phase 1 draws every node's peer; phase 2 runs the exchanges strictly
  // in alive order, the order every draw, send and floating-point update
  // of a report depends on.
  draw_round_peers(graph, rng, peers_);
  const std::span<const net::NodeId> alive = graph.alive_nodes();
  double round_max = 0.0;
  bool masked = false;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (i + kRoundValueAhead < alive.size()) {
      __builtin_prefetch(&values_[alive[i + kRoundValueAhead]], 1);
      const net::NodeId ahead = peers_[i + kRoundValueAhead];
      if (ahead != net::kInvalidNode) __builtin_prefetch(&values_[ahead], 1);
    }
    const net::NodeId peer = peers_[i];
    if (peer == net::kInvalidNode) continue;  // isolated node: nothing to do
    const net::NodeId id = alive[i];
    const sim::Channel::Delivery push =
        sim.send(sim::MessageClass::kAggregationPush, id, peer);
    if (!push.delivered) {
      masked = true;
      continue;
    }
    if (config_.push_pull) {
      const sim::Channel::Delivery pull =
          sim.send(sim::MessageClass::kAggregationPull, peer, id);
      if (!pull.delivered) {
        masked = true;
        continue;
      }
      round_max = std::max(round_max, push.latency + pull.latency);
      const double mean = 0.5 * (values_[id] + values_[peer]);
      values_[id] = mean;
      values_[peer] = mean;
    } else {
      // Push-only variant: the receiver absorbs half the sender's value.
      // Mass stays conserved but mixing is slower (ablation).
      round_max = std::max(round_max, push.latency);
      const double half = 0.5 * values_[id];
      values_[id] -= half;
      values_[peer] += half;
    }
  }
  // A synchronized round ends when its slowest exchange settles; detecting
  // a masked (dropped) exchange costs the ack timeout, as in the poll
  // protocols' reply windows.
  if (masked) {
    round_max = std::max(round_max, sim.channel().config().timeout);
  }
  epoch_delay_ += round_max;
}

Estimate Aggregation::run_epoch(sim::Simulator& sim, net::NodeId initiator,
                                support::RngStream& rng, net::NodeId reader) {
  const std::uint64_t baseline = sim.meter().total();
  start_epoch(sim, initiator);
  for (std::uint32_t r = 0; r < config_.rounds_per_epoch; ++r) {
    run_round(sim, rng);
  }
  if (reader == net::kInvalidNode) reader = initiator;
  Estimate estimate = estimate_at(sim, reader);
  estimate.messages = sim.meter().since(baseline);
  return estimate;
}

double Aggregation::value_at(net::NodeId id) const noexcept {
  return id < values_.size() ? values_[id] : 0.0;
}

Estimate Aggregation::estimate_at(const sim::Simulator& sim,
                                  net::NodeId id) const noexcept {
  Estimate estimate;
  estimate.time = sim.now();
  estimate.messages = 0;
  estimate.delay = epoch_delay_;
  const double v = value_at(id);
  if (!sim.graph().is_alive(id) || v <= 0.0) {
    estimate.valid = false;
    estimate.value = 0.0;
    return estimate;
  }
  estimate.value = 1.0 / v;
  return estimate;
}

double Aggregation::value_dispersion(const sim::Simulator& sim) const {
  support::RunningStats stats;
  for (const net::NodeId id : sim.graph().alive_nodes()) {
    stats.add(value_at(id));
  }
  if (stats.count() == 0 || stats.mean() == 0.0) return 0.0;
  return stats.stddev() / std::abs(stats.mean());
}

double Aggregation::total_mass(const sim::Simulator& sim) const {
  double total = 0.0;
  for (const net::NodeId id : sim.graph().alive_nodes()) {
    total += value_at(id);
  }
  return total;
}

}  // namespace p2pse::est
