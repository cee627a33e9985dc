#include "p2pse/est/hops_sampling.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "p2pse/net/analysis.hpp"

namespace p2pse::est {
namespace {

/// A node scheduled to forward the poll: forwards with hop value
/// `send_hop` for `rounds_left` consecutive rounds.
struct Forwarder {
  net::NodeId node;
  std::uint32_t send_hop;
  std::uint32_t rounds_left;
};

/// Prefetch distances of the spread round. The pick phase hints a
/// forwarder's degree/extent lines kNodeAhead forwarders ahead and its
/// adjacency line (found through the then-cached extent) kListAhead ahead.
/// The deliver phase hints a target's per-node state kSendAhead sends ahead
/// and a sender's kSendAhead forwarders ahead. Trace churn never reuses
/// ids, so each of those lines is a likely miss in arrays spanning every
/// id the run ever handed out.
constexpr std::size_t kNodeAhead = 16;
constexpr std::size_t kListAhead = 8;
constexpr std::size_t kSendAhead = 8;

}  // namespace

HopsSampling::HopsSampling(HopsSamplingConfig config) : config_(config) {
  if (config_.gossip_to == 0) {
    throw std::invalid_argument("HopsSampling: gossipTo must be >= 1");
  }
  if (config_.gossip_for == 0) {
    throw std::invalid_argument("HopsSampling: gossipFor must be >= 1");
  }
  if (config_.gossip_until == 0) {
    throw std::invalid_argument("HopsSampling: gossipUntil must be >= 1");
  }
}

double HopsSampling::reply_probability(std::uint32_t hops) const noexcept {
  if (hops <= config_.min_hops_reporting) return 1.0;
  return std::pow(static_cast<double>(config_.gossip_to),
                  -static_cast<double>(hops - config_.min_hops_reporting));
}

void HopsSampling::spread(sim::Simulator& sim, net::NodeId initiator,
                          support::RngStream& rng,
                          std::vector<std::uint32_t>& min_hops,
                          HopsSamplingResult& result) const {
  const net::Graph& graph = sim.graph();
  std::vector<std::uint32_t> times_received(graph.slot_count(), 0);

  min_hops[initiator] = 0;
  result.reached = 1;

  std::vector<Forwarder> frontier;
  std::vector<Forwarder> next;
  frontier.push_back(Forwarder{initiator, 1, config_.gossip_for});
  // One round's sends, flat, in frontier order; forwarder f sends
  // targets[sends_end[f - 1], sends_end[f]).
  std::vector<net::NodeId> targets;
  std::vector<std::size_t> sends_end;
  std::vector<std::size_t> picks(config_.gossip_to);

  std::uint32_t rounds = 0;
  while (!frontier.empty() && rounds < config_.max_spread_rounds) {
    ++rounds;
    // Phase 1, picks: every forwarder's gossipTo distinct targets when
    // possible, all its neighbors otherwise. Picks draw from `rng` alone
    // and the graph does not change during a poll, so drawing the whole
    // round before sending any of it draws exactly what the interleaved
    // form drew (channel draws come from the channel's own stream).
    targets.clear();
    sends_end.clear();
    for (std::size_t f = 0; f < frontier.size(); ++f) {
      if (f + kNodeAhead < frontier.size()) {
        graph.prefetch_node(frontier[f + kNodeAhead].node);
      }
      if (f + kListAhead < frontier.size()) {
        const net::NodeId ahead = frontier[f + kListAhead].node;
        if (graph.degree(ahead) > 0) {
          __builtin_prefetch(graph.neighbor_slot(ahead, 0), 0);
        }
      }
      // Forwarders are alive, so degree() alone gives the list's length.
      const net::NodeId node = frontier[f].node;
      const std::size_t degree = graph.degree(node);
      const std::span<const net::NodeId> neighbors =
          degree > 0 ? std::span(graph.neighbor_slot(node, 0), degree)
                     : std::span<const net::NodeId>{};
      if (neighbors.size() <= config_.gossip_to) {
        targets.insert(targets.end(), neighbors.begin(), neighbors.end());
      } else {
        rng.sample_without_replacement(neighbors.size(), picks);
        for (const std::size_t pick : picks) {
          targets.push_back(neighbors[pick]);
        }
      }
      sends_end.push_back(targets.size());
    }

    // Phase 2, deliver, strictly in pick order. The round's forwards
    // travel in parallel; the round ends when the slowest delivered copy
    // lands.
    next.clear();
    double round_max = 0.0;
    std::size_t t = 0;
    for (std::size_t f = 0; f < frontier.size(); ++f) {
      Forwarder& fw = frontier[f];
      if (f + kSendAhead < frontier.size()) {
        sim.prefetch_endpoint(frontier[f + kSendAhead].node);
      }
      for (; t < sends_end[f]; ++t) {
        if (t + kSendAhead < targets.size()) {
          const net::NodeId ahead = targets[t + kSendAhead];
          __builtin_prefetch(&min_hops[ahead], 1);
          __builtin_prefetch(&times_received[ahead], 1);
          sim.prefetch_endpoint(ahead);
        }
        const net::NodeId target = targets[t];
        const sim::Channel::Delivery d =
            sim.send(sim::MessageClass::kGossipSpread, fw.node, target);
        if (!d.delivered) continue;  // dropped gossip: never heard
        round_max = std::max(round_max, d.latency);
        if (min_hops[target] == net::kUnreached) {
          min_hops[target] = fw.send_hop;
          ++result.reached;
        } else if (fw.send_hop < min_hops[target]) {
          min_hops[target] = fw.send_hop;
        }
        if (times_received[target]++ < config_.gossip_until) {
          next.push_back(
              Forwarder{target, min_hops[target] + 1, config_.gossip_for});
        }
      }
      // A multi-round forwarder re-enters the frontier until exhausted,
      // after the forwarders its own sends just enlisted.
      if (--fw.rounds_left > 0) next.push_back(fw);
    }
    frontier.swap(next);
    result.spread_delay += round_max;
  }
  result.spread_rounds = rounds;
}

HopsSamplingResult HopsSampling::run_once(sim::Simulator& sim,
                                          net::NodeId initiator,
                                          support::RngStream& rng) const {
  HopsSamplingResult result;
  const std::uint64_t baseline = sim.meter().total();
  const net::Graph& graph = sim.graph();
  if (!graph.is_alive(initiator)) {
    result.estimate = Estimate::invalid_at(sim.now());
    return result;
  }

  std::vector<std::uint32_t> min_hops;
  if (config_.oracle_distances) {
    // §V verification: exact BFS distances, full participation, no spread
    // traffic. Unreachable nodes still cannot participate.
    min_hops = net::bfs_distances(graph, initiator);
    result.reached = 0;
    for (const net::NodeId id : graph.alive_nodes()) {
      if (min_hops[id] != net::kUnreached) ++result.reached;
    }
  } else {
    min_hops.assign(graph.slot_count(), net::kUnreached);
    spread(sim, initiator, rng, min_hops, result);
  }

  // Reporting phase: the initiator counts itself; every other polled node
  // replies probabilistically and is weighted by the inverse probability.
  // Replies travel in parallel; a dropped reply is simply never counted
  // (the initiator cannot tell a drop from a node that chose not to reply),
  // deepening the under-estimation the paper already observes.
  // reply_probability(h) per distance, filled as distances show up.
  std::vector<double> reply_p;
  double estimate = 1.0;
  double reply_max = 0.0;
  for (const net::NodeId id : graph.alive_nodes()) {
    if (id == initiator) continue;
    const std::uint32_t h = min_hops[id];
    if (h == net::kUnreached) continue;
    result.max_distance = std::max(result.max_distance, h);
    while (reply_p.size() <= h) {
      reply_p.push_back(
          reply_probability(static_cast<std::uint32_t>(reply_p.size())));
    }
    const double p = reply_p[h];
    if (rng.bernoulli(p)) {
      const sim::Channel::Delivery d =
          sim.send(sim::MessageClass::kPollReply, id, initiator);
      ++result.replies;
      if (d.delivered) {
        reply_max = std::max(reply_max, d.latency);
        estimate += 1.0 / p;
      }
    }
  }

  result.estimate.value = estimate;
  result.estimate.time = sim.now();
  result.estimate.messages = sim.meter().since(baseline);
  result.estimate.valid = true;
  // Measured poll delay: the parallel spread plus the reply window. Under
  // loss the initiator cannot know when the last reply is in, so it keeps
  // the poll open for its full timeout.
  const sim::Channel& channel = sim.channel();
  result.estimate.delay =
      result.spread_delay + (channel.lossy()
                                 ? std::max(reply_max,
                                            channel.config().timeout)
                                 : reply_max);
  return result;
}

}  // namespace p2pse::est
