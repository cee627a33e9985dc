#include "p2pse/net/builders.hpp"

#include <cmath>
#include <stdexcept>

namespace p2pse::net {
namespace {

void validate_degree_bounds(std::size_t nodes, std::size_t min_degree,
                            std::size_t max_degree) {
  if (min_degree == 0) {
    throw std::invalid_argument("builders: min_degree must be >= 1");
  }
  if (min_degree > max_degree) {
    throw std::invalid_argument("builders: min_degree > max_degree");
  }
  if (nodes >= 2 && max_degree >= nodes) {
    throw std::invalid_argument("builders: max_degree must be < node count");
  }
}

/// Speculative lookahead over the wiring pass's draws. Each candidate is a
/// chain of dependent misses (its degree and liveness slots, its extent,
/// then its adjacency chunk), so two copies of the caller's stream run a
/// fixed number of draws ahead of it and prefetch in two stages: the far
/// copy the candidate's per-node lines, the near copy — whose extent line
/// the far copy already fetched — its adjacency chunk. Both copies step
/// once per real draw, target or candidate alike: xoshiro's bounded draw
/// takes one engine step except on a ~bound/2^64 rejection, so the copy's
/// k-th draw over [0, nodes) is the real stream's k-th candidate whenever
/// that draw is a candidate pick. The copies are hints only; the caller's
/// stream, every accept/reject decision and the adjacency order are those
/// of the plain loop (the equivalence test in builders_test.cpp pins it).
class WiringLookahead {
 public:
  static constexpr int kFarAhead = 16;
  static constexpr int kNearAhead = 4;

  WiringLookahead(const Graph& graph, const support::RngStream& rng,
                  std::uint64_t nodes)
      : graph_(graph), far_(rng), near_(rng), nodes_(nodes) {
    for (int i = 0; i < kFarAhead; ++i) graph_.prefetch_wiring(draw(far_));
    for (int i = 0; i < kNearAhead; ++i) graph_.prefetch_adjacency(draw(near_));
  }

  /// Call once per draw the real stream makes.
  void step() {
    graph_.prefetch_wiring(draw(far_));
    graph_.prefetch_adjacency(draw(near_));
  }

 private:
  NodeId draw(support::RngStream& copy) {
    return static_cast<NodeId>(copy.uniform_u64(nodes_));
  }

  const Graph& graph_;
  support::RngStream far_;
  support::RngStream near_;
  std::uint64_t nodes_;
};

constexpr NodeId kNextNodeAhead = 2;

Graph build_capped_random(std::size_t nodes, std::size_t min_degree,
                          std::size_t max_degree, support::RngStream& rng) {
  validate_degree_bounds(nodes, min_degree, max_degree);
  Graph graph(nodes);
  if (nodes < 2) return graph;

  // Wiring pass, §IV-A: nodes taken one by one; links from earlier nodes
  // count toward the target. Candidate picks are rejected when the partner
  // is already saturated (degree == max) or already a neighbor; a bounded
  // retry budget avoids spinning near the end of the pass when almost all
  // nodes are saturated.
  WiringLookahead lookahead(graph, rng, nodes);
  // uniform_int(lo, lo) returns lo without drawing.
  const bool target_draws = min_degree < max_degree;
  for (NodeId u = 0; u < nodes; ++u) {
    // Nodes are wired in id order, but the chunk an earlier node's link
    // gave u sits anywhere in the arena: fetch it a couple of nodes early.
    graph.prefetch_adjacency(u + kNextNodeAhead);
    const auto target = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(min_degree),
        static_cast<std::int64_t>(max_degree)));
    if (target_draws) lookahead.step();
    std::size_t attempts = 0;
    const std::size_t attempt_budget = 64 * max_degree + 64;
    while (graph.degree(u) < target && attempts < attempt_budget) {
      ++attempts;
      const NodeId v =
          static_cast<NodeId>(rng.uniform_u64(static_cast<std::uint64_t>(nodes)));
      lookahead.step();
      if (v == u || graph.degree(v) >= max_degree) continue;
      graph.add_edge(u, v);  // rejects duplicates internally
    }
  }
  return graph;
}

}  // namespace

Graph build_heterogeneous_random(const HeterogeneousConfig& config,
                                 support::RngStream& rng) {
  return build_capped_random(config.nodes, config.min_degree, config.max_degree,
                             rng);
}

Graph build_homogeneous_random(const HomogeneousConfig& config,
                               support::RngStream& rng) {
  return build_capped_random(config.nodes, config.degree, config.degree, rng);
}

Graph build_barabasi_albert(const BarabasiAlbertConfig& config,
                            support::RngStream& rng) {
  if (config.attach == 0) {
    throw std::invalid_argument("barabasi_albert: attach must be >= 1");
  }
  const std::size_t seed_nodes = config.attach + 1;
  if (config.nodes < seed_nodes) {
    throw std::invalid_argument(
        "barabasi_albert: nodes must be >= attach + 1 (seed clique)");
  }
  Graph graph(config.nodes);
  // Endpoint multiset: each edge contributes both ends, so uniform draws from
  // it realize degree-proportional (preferential) attachment.
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * config.attach * config.nodes);

  // Seed clique over the first attach+1 nodes.
  for (NodeId a = 0; a < seed_nodes; ++a) {
    for (NodeId b = a + 1; b < seed_nodes; ++b) {
      graph.add_edge(a, b);
      endpoints.push_back(a);
      endpoints.push_back(b);
    }
  }

  for (NodeId u = static_cast<NodeId>(seed_nodes); u < config.nodes; ++u) {
    std::size_t added = 0;
    std::size_t attempts = 0;
    const std::size_t attempt_budget = 64 * config.attach + 64;
    while (added < config.attach && attempts < attempt_budget) {
      ++attempts;
      const NodeId target = endpoints[static_cast<std::size_t>(
          rng.uniform_u64(endpoints.size()))];
      if (target == u) continue;
      if (!graph.add_edge(u, target)) continue;  // duplicate pick
      endpoints.push_back(u);
      endpoints.push_back(target);
      ++added;
    }
  }
  return graph;
}

Graph build_erdos_renyi(const ErdosRenyiConfig& config,
                        support::RngStream& rng) {
  Graph graph(config.nodes);
  if (config.nodes < 2 || config.average_degree <= 0.0) return graph;
  const double p =
      std::min(1.0, config.average_degree / static_cast<double>(config.nodes - 1));
  if (p >= 1.0) {
    for (NodeId a = 0; a < config.nodes; ++a) {
      for (NodeId b = a + 1; b < config.nodes; ++b) graph.add_edge(a, b);
    }
    return graph;
  }
  // Geometric skipping over the upper-triangular pair enumeration.
  const double log_q = std::log(1.0 - p);
  std::uint64_t index = 0;  // linear index over ordered pairs (a < b)
  const std::uint64_t n = config.nodes;
  const std::uint64_t total_pairs = n * (n - 1) / 2;
  for (;;) {
    const double gap = std::floor(std::log(rng.uniform_real_open0()) / log_q);
    if (gap >= static_cast<double>(total_pairs - index)) break;
    index += static_cast<std::uint64_t>(gap);
    // Decode pair index -> (a, b) with a < b.
    // Row a holds (n-1-a) pairs; solve by the quadratic formula.
    const double nd = static_cast<double>(n);
    const double idx = static_cast<double>(index);
    double a_guess = std::floor(
        nd - 0.5 - std::sqrt((nd - 0.5) * (nd - 0.5) - 2.0 * idx));
    auto a = static_cast<std::uint64_t>(std::max(0.0, a_guess));
    auto row_start = [n](std::uint64_t row) {
      return row * (2 * n - row - 1) / 2;
    };
    while (a > 0 && row_start(a) > index) --a;
    while (row_start(a + 1) <= index) ++a;
    const std::uint64_t b = a + 1 + (index - row_start(a));
    graph.add_edge(static_cast<NodeId>(a), static_cast<NodeId>(b));
    ++index;
    if (index >= total_pairs) break;
  }
  return graph;
}

}  // namespace p2pse::net
