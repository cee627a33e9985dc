#pragma once
// Interleaved collision-sampling kernel, shared by Sample&Collide and the
// Inverted Birthday baseline: launch random walks from the initiator and
// collect their endpoints until `l` of them repeat an earlier one.
//
// A walk is a chain of dependent cache misses (node line -> adjacency slot
// -> next node line -> ...), so one walk at a time leaves the memory system
// idle. The kernel keeps K walks in flight in lockstep. Each step of a walk
// prefetches the line its next step reads, and the other K-1 walks advance
// while that line loads.
//
// Contract — what makes every result independent of K:
//  * Per-walk streams. Walk i draws only from base.split("walk", i), where
//    `base` is seeded by exactly ONE draw from the caller's stream. (Not
//    rng.split("walk", i): split() hashes the stream's root seed, not its
//    state, so every estimation on one stream would replay the same walks.)
//  * Walks compute, commits send. A walk only draws and reads the graph,
//    recording its path. Finished walks are committed strictly in walk
//    index order: the commit replays each hop and the reply through the
//    Simulator (meter, channel, recorder and flight sink, exactly as a
//    sequential walk sends them) and stops at the first lost hop.
//  * Speculative walks leave no trace. Walks still in flight when the stop
//    rule fires are discarded without sending anything, so channel draws
//    happen in commit order too, lossy and per-link runs included.
// Messages and estimates are therefore a pure function of (seed, spec).

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "p2pse/net/graph.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::est::detail {

/// Walks in flight in production. On a 1M-node overlay 16 lanes measured
/// ~60 ns per message against ~72 ns for 8 (and ~340 ns for one walk at a
/// time); at 100k nodes 8 and 16 tie.
inline constexpr std::size_t kWalkLanes = 16;

/// How a walk moves and how its hops are sent.
struct WalkRule {
  /// Sample&Collide's timer: at each receiving node of degree d the walk
  /// spends Exp(1)/d and ends once the timer reaches 0. Untimed walks
  /// (fixed length) draw nothing on arrival.
  bool timed = false;
  double timer = 0.0;
  /// Hop cap: the walk ends after this many hops whatever its timer.
  std::uint64_t max_hops = 0;
  /// Per-hop bounded ARQ (a lost hop kills the walk) instead of
  /// hop-reliable forwarding.
  bool arq_hops = false;
};

/// Spends one receiving node's share of the timer; true once it runs out.
/// Shared with the single-walk SampleCollide::sample so both draw alike.
[[nodiscard]] inline bool spend_timer(double& timer, std::size_t degree,
                                      support::RngStream& rng) {
  timer -= rng.exponential(1.0) / static_cast<double>(degree);
  return timer <= 0.0;
}

/// What the committed walks added up to.
struct CollisionTally {
  std::uint64_t samples = 0;     ///< C: samples the initiator received
  std::uint64_t distinct = 0;    ///< distinct sampled ids
  std::uint32_t collisions = 0;  ///< samples that repeated an earlier id
  double delay = 0.0;            ///< initiator-side wall clock of the run
};

/// Commits walks from `initiator` (alive) until `target` collisions or
/// `max_samples` walks, with K walks in flight. Draws exactly once from
/// `rng`.
template <std::size_t K>
[[nodiscard]] CollisionTally collide(sim::Simulator& sim,
                                     net::NodeId initiator,
                                     support::RngStream& rng,
                                     const WalkRule& rule,
                                     std::uint32_t target,
                                     std::uint64_t max_samples) {
  static_assert(K >= 1, "the kernel needs at least one lane");
  const net::Graph& graph = sim.graph();
  const support::RngStream base(rng.next_u64());

  struct Lane {
    support::RngStream rng{0};
    std::vector<net::NodeId> path;  ///< hops taken; reused across walks
    /// Adjacency slot picked and prefetched, read on the lane's next step.
    const net::NodeId* slot = nullptr;
    net::NodeId node = net::kInvalidNode;
    double timer = 0.0;
    bool done = false;
  };
  std::array<Lane, K> lanes;
  const auto launch = [&](Lane& lane, std::uint64_t walk) {
    lane.rng = base.split("walk", walk);
    lane.path.clear();
    lane.slot = nullptr;
    lane.node = initiator;
    lane.timer = rule.timer;
    lane.done = rule.max_hops == 0;
  };
  // One step is either half of a hop. Move: read the slot picked (and
  // prefetched) last step and prefetch the new node's lines. Pick: on
  // arrival spend the timer, then draw the next slot and prefetch it.
  // Guarding on degree() (0 for dead slots) keeps a pick to the node lines
  // prefetch_node covers.
  const auto step = [&](Lane& lane) {
    if (lane.slot != nullptr) {
      lane.node = *lane.slot;
      lane.slot = nullptr;
      lane.path.push_back(lane.node);
      graph.prefetch_node(lane.node);
      return;
    }
    const std::size_t degree = graph.degree(lane.node);
    if (!lane.path.empty() &&
        ((rule.timed && spend_timer(lane.timer, degree, lane.rng)) ||
         lane.path.size() >= rule.max_hops)) {
      lane.done = true;
      return;
    }
    if (degree == 0) {  // stuck: an isolated initiator samples itself
      lane.done = true;
      return;
    }
    lane.slot = graph.neighbor_slot(
        lane.node, static_cast<std::size_t>(lane.rng.uniform_u64(degree)));
    __builtin_prefetch(lane.slot, 0);
  };

  CollisionTally tally;
  if (target == 0 || max_samples == 0) return tally;
  std::unordered_set<net::NodeId> seen;
  seen.reserve(1024);
  for (std::size_t i = 0; i < K; ++i) {
    lanes[i].path.reserve(256);
    launch(lanes[i], i);
  }
  const double timeout = sim.channel().config().timeout;
  for (std::uint64_t head = 0;;) {  // head: the next walk to commit
    for (Lane& lane : lanes) {
      if (!lane.done) step(lane);
    }
    for (Lane* lane = &lanes[head % K]; lane->done; lane = &lanes[head % K]) {
      // Commit: replay the path hop by hop, then the sample's reply.
      net::NodeId at = initiator;
      double elapsed = 0.0;
      bool lost = false;
      for (const net::NodeId next : lane->path) {
        const sim::Channel::Delivery hop =
            rule.arq_hops
                ? sim.send_arq(sim::MessageClass::kWalkStep, at, next)
                : sim.send_reliable(sim::MessageClass::kWalkStep, at, next);
        elapsed += hop.latency;
        if (!hop.delivered) {  // per-hop ARQ exhausted: the walk is gone
          lost = true;
          break;
        }
        at = next;
      }
      // A walk that never left the initiator sampled it locally: no reply
      // crosses the network.
      if (!lost && !lane->path.empty()) {
        sim.record_walk_hops(lane->path.size());
        const sim::Channel::Delivery reply =
            sim.send_arq(sim::MessageClass::kSampleReply, at, initiator);
        elapsed += reply.latency;
        lost = !reply.delivered;
      }
      if (lost) {
        // The initiator times out and relaunches. The charge is ITS clock:
        // remote per-hop ARQ waits happen off its critical path. The
        // messages stay counted; the sample enters neither the collision
        // set nor C.
        tally.delay += timeout;
      } else {
        tally.delay += elapsed;
        ++tally.samples;
        if (!seen.insert(at).second) ++tally.collisions;
      }
      ++head;
      if (tally.collisions >= target || head >= max_samples) {
        tally.distinct = seen.size();
        return tally;
      }
      launch(*lane, head + K - 1);
    }
  }
}

}  // namespace p2pse::est::detail
