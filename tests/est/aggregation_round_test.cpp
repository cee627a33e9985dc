// The two-phase gossip round (Aggregation::run_round and
// MultiAggregation::run_round over draw_round_peers): every alive node's
// peer is drawn first, then the exchanges run in the same order with
// prefetching.
//
// The round must leave exactly what the one-node-at-a-time loop it
// replaced left: every value bit for bit, the epoch delay, the next draw of
// the estimator's stream, the per-class meter, the channel counters and the
// recorder tallies. That loop is kept below, verbatim, as the reference.
// Both run on identical simulators (ideal, lossy, and per-link with the
// recorder armed) over a churned overlay whose alive order is scrambled by
// removals and which holds isolated nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "p2pse/est/aggregation.hpp"
#include "p2pse/est/aggregation_suite.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/net/churn.hpp"
#include "p2pse/sim/channel.hpp"
#include "p2pse/sim/run_recorder.hpp"
#include "p2pse/topo/topology.hpp"

namespace p2pse::est {
namespace {

enum class Wiring { kIdeal, kLossy, kArmed };

constexpr std::array<Wiring, 3> kWirings = {Wiring::kIdeal, Wiring::kLossy,
                                          Wiring::kArmed};

const char* name_of(Wiring wiring) {
  switch (wiring) {
    case Wiring::kIdeal: return "ideal";
    case Wiring::kLossy: return "lossy";
    case Wiring::kArmed: return "per-link armed";
  }
  return "?";
}

/// A churned overlay: sparse ids, an alive order scrambled by removals,
/// survivors that lost every link, and a few nodes that never had one.
sim::Simulator build(Wiring wiring) {
  support::RngStream rng(5);
  net::Graph graph = net::build_heterogeneous_random({1500, 1, 10}, rng);
  for (int wave = 0; wave < 3; ++wave) {
    net::add_nodes(graph, 500, {}, rng);
    net::remove_random_nodes(graph, 500, rng);
  }
  for (int k = 0; k < 4; ++k) graph.add_node();
  sim::Simulator sim(std::move(graph), 6);
  if (wiring == Wiring::kLossy) {
    sim.set_network(sim::NetworkConfig::parse("net:loss=0.1,latency=exp:50"));
  }
  if (wiring == Wiring::kArmed) {
    sim.set_topology(topo::TopologyConfig::parse("topo:clustered,regions=4"));
    sim.enable_recorder();
  }
  return sim;
}

/// Aggregation's round as it was before the two-phase kernel: each node
/// draws its peer and runs its exchange before the next node draws.
class ReferenceAggregation {
 public:
  explicit ReferenceAggregation(AggregationConfig config) : config_(config) {}

  void start(sim::Simulator& sim, support::RngStream& rng) {
    const net::NodeId initiator = sim.graph().random_alive(rng);
    ensure_capacity(sim.graph().slot_count());
    for (const net::NodeId id : sim.graph().alive_nodes()) values_[id] = 0.0;
    values_[initiator] = 1.0;
    epoch_delay_ = 0.0;
  }

  void round(sim::Simulator& sim, support::RngStream& rng) {
    net::Graph& graph = sim.graph();
    ensure_capacity(graph.slot_count());
    double round_max = 0.0;
    bool masked = false;
    for (const net::NodeId id : graph.alive_nodes()) {
      const net::NodeId peer = graph.random_neighbor(id, rng);
      if (peer == net::kInvalidNode) continue;  // isolated node: nothing to do
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
        round_max = std::max(round_max, push.latency);
        const double half = 0.5 * values_[id];
        values_[id] -= half;
        values_[peer] += half;
      }
    }
    if (masked) {
      round_max = std::max(round_max, sim.channel().config().timeout);
    }
    epoch_delay_ += round_max;
  }

  [[nodiscard]] std::size_t instances() const { return 1; }
  [[nodiscard]] double value(std::size_t, net::NodeId id) const {
    return id < values_.size() ? values_[id] : 0.0;
  }
  [[nodiscard]] double delay() const { return epoch_delay_; }

 private:
  void ensure_capacity(std::size_t slots) {
    if (values_.size() < slots) values_.resize(slots, 0.0);
  }

  AggregationConfig config_;
  std::vector<double> values_;
  double epoch_delay_ = 0.0;
};

/// MultiAggregation's round as it was before the two-phase kernel.
class ReferenceMultiAggregation {
 public:
  explicit ReferenceMultiAggregation(MultiAggregationConfig config)
      : values_(config.instances) {}

  void start(sim::Simulator& sim, support::RngStream& rng) {
    ensure_capacity(sim.graph().slot_count());
    for (auto& v : values_) {
      for (const net::NodeId id : sim.graph().alive_nodes()) v[id] = 0.0;
    }
    for (auto& v : values_) v[sim.graph().random_alive(rng)] = 1.0;
    epoch_delay_ = 0.0;
  }

  void round(sim::Simulator& sim, support::RngStream& rng) {
    net::Graph& graph = sim.graph();
    ensure_capacity(graph.slot_count());
    double round_max = 0.0;
    bool masked = false;
    for (const net::NodeId id : graph.alive_nodes()) {
      const net::NodeId peer = graph.random_neighbor(id, rng);
      if (peer == net::kInvalidNode) continue;
      const sim::Channel::Delivery push =
          sim.send(sim::MessageClass::kAggregationPush, id, peer);
      if (!push.delivered) {
        masked = true;
        continue;
      }
      const sim::Channel::Delivery pull =
          sim.send(sim::MessageClass::kAggregationPull, peer, id);
      if (!pull.delivered) {
        masked = true;
        continue;
      }
      round_max = std::max(round_max, push.latency + pull.latency);
      for (auto& v : values_) {
        const double mean = 0.5 * (v[id] + v[peer]);
        v[id] = mean;
        v[peer] = mean;
      }
    }
    if (masked) {
      round_max = std::max(round_max, sim.channel().config().timeout);
    }
    epoch_delay_ += round_max;
  }

  [[nodiscard]] std::size_t instances() const { return values_.size(); }
  [[nodiscard]] double value(std::size_t instance, net::NodeId id) const {
    const auto& v = values_[instance];
    return id < v.size() ? v[id] : 0.0;
  }
  [[nodiscard]] double delay() const { return epoch_delay_; }

 private:
  void ensure_capacity(std::size_t slots) {
    for (auto& v : values_) {
      if (v.size() < slots) v.resize(slots, 0.0);
    }
  }

  std::vector<std::vector<double>> values_;
  double epoch_delay_ = 0.0;
};

/// The production classes behind the references' interface.
class KernelAggregation {
 public:
  explicit KernelAggregation(AggregationConfig config) : agg_(config) {}
  void start(sim::Simulator& sim, support::RngStream& rng) {
    agg_.start_epoch(sim, sim.graph().random_alive(rng));
  }
  void round(sim::Simulator& sim, support::RngStream& rng) {
    agg_.run_round(sim, rng);
  }
  [[nodiscard]] std::size_t instances() const { return 1; }
  [[nodiscard]] double value(std::size_t, net::NodeId id) const {
    return agg_.value_at(id);
  }
  [[nodiscard]] double delay() const { return agg_.epoch_delay(); }

 private:
  Aggregation agg_;
};

class KernelMultiAggregation {
 public:
  explicit KernelMultiAggregation(MultiAggregationConfig config)
      : agg_(config) {}
  void start(sim::Simulator& sim, support::RngStream& rng) {
    agg_.start_epoch(sim, rng);
  }
  void round(sim::Simulator& sim, support::RngStream& rng) {
    agg_.run_round(sim, rng);
  }
  [[nodiscard]] std::size_t instances() const {
    return agg_.config().instances;
  }
  [[nodiscard]] double value(std::size_t instance, net::NodeId id) const {
    return agg_.value_of(static_cast<std::uint32_t>(instance), id);
  }
  [[nodiscard]] double delay() const { return agg_.epoch_delay(); }

 private:
  MultiAggregation agg_;
};

/// Everything a run can leave behind, in comparable form.
struct Trace {
  std::vector<std::uint64_t> values;  ///< bit patterns, per epoch end
  std::vector<std::uint64_t> delays;  ///< epoch_delay bits, per epoch end
  std::uint64_t next_draw = 0;
  std::vector<std::uint64_t> meter;
  std::array<std::uint64_t, 5> channel{};
  std::vector<std::uint64_t> loads;  ///< recorder per-node tallies

  bool operator==(const Trace&) const = default;
};

/// Two epochs of six rounds on one stream.
template <typename Protocol>
Trace run(Wiring wiring, Protocol protocol) {
  sim::Simulator sim = build(wiring);
  support::RngStream rng(77);
  Trace out;
  for (int epoch = 0; epoch < 2; ++epoch) {
    protocol.start(sim, rng);
    for (int r = 0; r < 6; ++r) protocol.round(sim, rng);
    for (std::size_t i = 0; i < protocol.instances(); ++i) {
      for (net::NodeId id = 0; id < sim.graph().slot_count(); ++id) {
        out.values.push_back(
            std::bit_cast<std::uint64_t>(protocol.value(i, id)));
      }
    }
    out.delays.push_back(std::bit_cast<std::uint64_t>(protocol.delay()));
  }
  out.next_draw = rng.next_u64();
  for (std::size_t c = 0;
       c < static_cast<std::size_t>(sim::MessageClass::kCount_); ++c) {
    out.meter.push_back(sim.meter().of(static_cast<sim::MessageClass>(c)));
  }
  const sim::Channel::Counters& cc = sim.channel().counters();
  out.channel = {cc.sends_iid, cc.sends_link, cc.drops, cc.retransmits,
                 cc.arq_timeouts};
  if (const sim::RunRecorder* recorder = sim.recorder()) {
    for (const sim::RunRecorder::NodeLoad& load : recorder->node_loads()) {
      out.loads.insert(out.loads.end(), {load.messages, load.bytes});
    }
  }
  return out;
}

TEST(AggregationRound, EqualsOneNodeAtATimeReference) {
  for (const bool push_pull : {true, false}) {
    const AggregationConfig config{.rounds_per_epoch = 50,
                                   .push_pull = push_pull};
    for (const Wiring wiring : kWirings) {
      SCOPED_TRACE(::testing::Message()
                   << name_of(wiring) << (push_pull ? " push-pull" : " push"));
      EXPECT_EQ(run(wiring, KernelAggregation(config)),
                run(wiring, ReferenceAggregation(config)));
    }
  }
}

TEST(AggregationRound, MultiAggregationEqualsOneNodeAtATimeReference) {
  const MultiAggregationConfig config{.rounds_per_epoch = 50, .instances = 3};
  for (const Wiring wiring : kWirings) {
    SCOPED_TRACE(name_of(wiring));
    EXPECT_EQ(run(wiring, KernelMultiAggregation(config)),
              run(wiring, ReferenceMultiAggregation(config)));
  }
}

TEST(AggregationRound, RigExercisesEveryPath) {
  // Guards the equivalence tests against comparing degenerate runs: the
  // alive order is not the id order, isolated nodes exist, the lossy
  // channel masks exchanges, and the armed run prices per link and records.
  const sim::Simulator sim = build(Wiring::kIdeal);
  const net::Graph& graph = sim.graph();
  EXPECT_FALSE(std::is_sorted(graph.alive_nodes().begin(),
                              graph.alive_nodes().end()));
  const auto isolated = [&](net::NodeId id) { return graph.degree(id) == 0; };
  EXPECT_GT(std::count_if(graph.alive_nodes().begin(),
                          graph.alive_nodes().end(), isolated),
            4);

  const AggregationConfig config{};
  const Trace lossy = run(Wiring::kLossy, KernelAggregation(config));
  EXPECT_GT(lossy.channel[2], 0U);  // drops
  const Trace armed = run(Wiring::kArmed, KernelAggregation(config));
  EXPECT_GT(armed.channel[1], 0U);  // sends_link
  EXPECT_FALSE(armed.loads.empty());
}

}  // namespace
}  // namespace p2pse::est
