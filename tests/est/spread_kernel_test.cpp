// The batched HopsSampling spread round (HopsSampling::spread): picks for a
// whole round first, then deliveries in pick order with prefetching, and a
// per-poll reply-probability table in the reporting phase.
//
// The kernel must leave exactly what the one-forwarder-at-a-time loop it
// replaced left: run_once results, meter counts, channel counters, the
// stats `sim` section, recorder tallies and the flight ring. That loop is
// kept below, verbatim, as the reference. Both run on identical simulators
// (ideal, lossy, per-link, and per-link + lossy with the recorder and
// flight sink armed) over a churned overlay whose ids are sparse and whose
// degrees fall below, at and above every fanout tested.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "p2pse/est/hops_sampling.hpp"
#include "p2pse/net/analysis.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/net/churn.hpp"
#include "p2pse/obs/flight_recorder.hpp"
#include "p2pse/obs/metrics.hpp"
#include "p2pse/obs/stats_writer.hpp"
#include "p2pse/sim/channel.hpp"
#include "p2pse/topo/topology.hpp"

namespace p2pse::est {
namespace {

enum class Wiring { kIdeal, kLossy, kPerLink, kArmed };

constexpr std::array<Wiring, 4> kWirings = {Wiring::kIdeal, Wiring::kLossy,
                                          Wiring::kPerLink, Wiring::kArmed};

const char* name_of(Wiring wiring) {
  switch (wiring) {
    case Wiring::kIdeal: return "ideal";
    case Wiring::kLossy: return "lossy";
    case Wiring::kPerLink: return "per-link";
    case Wiring::kArmed: return "armed";
  }
  return "?";
}

/// (gossipTo, gossipFor, gossipUntil): the paper's setting, multi-round
/// forwarders that re-enter the frontier, and a single-target fanout.
/// minHopsReporting is lowered to 2 so that most of this small overlay
/// replies with probability < 1 and the reporting table is really used.
constexpr std::array<std::array<std::uint32_t, 3>, 3> kFanouts = {
    {{2, 1, 1}, {3, 2, 2}, {1, 3, 1}}};

HopsSamplingConfig config_of(const std::array<std::uint32_t, 3>& fanout) {
  HopsSamplingConfig config;
  config.gossip_to = fanout[0];
  config.gossip_for = fanout[1];
  config.gossip_until = fanout[2];
  config.min_hops_reporting = 2;
  return config;
}

/// Everything a run can leave behind, in comparable form.
struct Trace {
  std::vector<std::uint64_t> results;  ///< every HopsSamplingResult field
  std::vector<std::uint64_t> meter;
  std::array<std::uint64_t, 5> channel{};
  std::vector<std::uint64_t> loads;  ///< recorder per-node tallies
  std::string sim_json;
  std::string flight_json;

  bool operator==(const Trace&) const = default;
};

/// The spread and report loops as they were before the batched round
/// kernel: each forwarder draws its picks (vector form) and sends them
/// before the next forwarder draws; reply probabilities come from
/// reply_probability (std::pow) per node.
HopsSamplingResult reference_run_once(const HopsSampling& hs,
                                      sim::Simulator& sim,
                                      net::NodeId initiator,
                                      support::RngStream& rng) {
  struct Forwarder {
    net::NodeId node;
    std::uint32_t send_hop;
    std::uint32_t rounds_left;
  };
  const HopsSamplingConfig& config = hs.config();
  HopsSamplingResult result;
  const std::uint64_t baseline = sim.meter().total();
  const net::Graph& graph = sim.graph();
  if (!graph.is_alive(initiator)) {
    result.estimate = Estimate::invalid_at(sim.now());
    return result;
  }
  std::vector<std::uint32_t> min_hops(graph.slot_count(), net::kUnreached);
  std::vector<std::uint32_t> times_received(graph.slot_count(), 0);
  min_hops[initiator] = 0;
  result.reached = 1;
  std::vector<Forwarder> frontier;
  std::vector<Forwarder> next;
  frontier.push_back(Forwarder{initiator, 1, config.gossip_for});
  std::uint32_t rounds = 0;
  while (!frontier.empty() && rounds < config.max_spread_rounds) {
    ++rounds;
    next.clear();
    double round_max = 0.0;
    const auto deliver = [&](const Forwarder& fw, const net::NodeId target) {
      const sim::Channel::Delivery d =
          sim.send(sim::MessageClass::kGossipSpread, fw.node, target);
      if (!d.delivered) return;
      round_max = std::max(round_max, d.latency);
      if (min_hops[target] == net::kUnreached) {
        min_hops[target] = fw.send_hop;
        ++result.reached;
      } else if (fw.send_hop < min_hops[target]) {
        min_hops[target] = fw.send_hop;
      }
      if (times_received[target]++ < config.gossip_until) {
        next.push_back(
            Forwarder{target, min_hops[target] + 1, config.gossip_for});
      }
    };
    for (auto& fw : frontier) {
      const auto neighbors = graph.neighbors(fw.node);
      if (!neighbors.empty()) {
        if (neighbors.size() <= config.gossip_to) {
          for (const net::NodeId target : neighbors) deliver(fw, target);
        } else {
          const auto picks =
              rng.sample_without_replacement(neighbors.size(), config.gossip_to);
          for (const std::size_t pick : picks) deliver(fw, neighbors[pick]);
        }
      }
      if (--fw.rounds_left > 0) next.push_back(fw);
    }
    frontier.swap(next);
    result.spread_delay += round_max;
  }
  result.spread_rounds = rounds;

  double estimate = 1.0;
  double reply_max = 0.0;
  for (const net::NodeId id : graph.alive_nodes()) {
    if (id == initiator) continue;
    const std::uint32_t h = min_hops[id];
    if (h == net::kUnreached) continue;
    result.max_distance = std::max(result.max_distance, h);
    const double p = hs.reply_probability(h);
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
  const sim::Channel& channel = sim.channel();
  result.estimate.delay =
      result.spread_delay +
      (channel.lossy() ? std::max(reply_max, channel.config().timeout)
                       : reply_max);
  return result;
}

/// One simulator per wiring, rebuilt identically for every run.
class Rig {
 public:
  explicit Rig(Wiring wiring) : sim_(build(wiring)), ring_(4096) {
    if (wiring == Wiring::kArmed) {
      sim_.enable_recorder();
      sim_.set_flight_recorder(&ring_);
    }
  }

  sim::Simulator& sim() { return sim_; }

  /// Four consecutive polls on one stream, each from a random initiator
  /// drawn from that stream.
  template <typename Poll>
  Trace run(Poll&& poll) {
    support::RngStream rng(77);
    Trace out;
    for (int i = 0; i < 4; ++i) {
      const net::NodeId initiator = sim_.graph().random_alive(rng);
      const HopsSamplingResult r = poll(sim_, initiator, rng);
      const Estimate& e = r.estimate;
      out.results.insert(
          out.results.end(),
          {std::bit_cast<std::uint64_t>(e.value), e.messages,
           std::bit_cast<std::uint64_t>(e.delay), e.valid ? 1U : 0U,
           std::bit_cast<std::uint64_t>(e.time), r.reached, r.replies,
           r.spread_rounds, r.max_distance,
           std::bit_cast<std::uint64_t>(r.spread_delay)});
    }
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(sim::MessageClass::kCount_); ++c) {
      out.meter.push_back(sim_.meter().of(static_cast<sim::MessageClass>(c)));
    }
    const sim::Channel::Counters& cc = sim_.channel().counters();
    out.channel = {cc.sends_iid, cc.sends_link, cc.drops, cc.retransmits,
                   cc.arq_timeouts};
    if (const sim::RunRecorder* recorder = sim_.recorder()) {
      for (const sim::RunRecorder::NodeLoad& load : recorder->node_loads()) {
        out.loads.insert(out.loads.end(), {load.messages, load.bytes});
      }
    }
    out.sim_json = obs::sim_section("spread_kernel", "", obs::collect(sim_));
    if (sim_.flight_recorder() != nullptr) out.flight_json = ring_.to_json();
    return out;
  }

 private:
  static sim::Simulator build(Wiring wiring) {
    support::RngStream rng(5);
    net::Graph graph = net::build_heterogeneous_random({1500, 1, 10}, rng);
    // Churn until ids are sparse and some survivors lost most of their
    // links: degrees 0..gossipTo take the all-neighbors branch.
    for (int wave = 0; wave < 3; ++wave) {
      net::add_nodes(graph, 500, {}, rng);
      net::remove_random_nodes(graph, 500, rng);
    }
    sim::Simulator sim(std::move(graph), 6);
    if (wiring == Wiring::kLossy || wiring == Wiring::kArmed) {
      sim.set_network(sim::NetworkConfig::parse("net:loss=0.2,latency=exp:50"));
    }
    if (wiring == Wiring::kPerLink || wiring == Wiring::kArmed) {
      sim.set_topology(topo::TopologyConfig::parse("topo:clustered,regions=4"));
    }
    return sim;
  }

  sim::Simulator sim_;
  obs::FlightRecorder ring_;
};

Trace kernel_trace(Wiring wiring, const HopsSampling& hs) {
  Rig rig(wiring);
  return rig.run([&](sim::Simulator& s, net::NodeId i, support::RngStream& r) {
    return hs.run_once(s, i, r);
  });
}

Trace reference_trace(Wiring wiring, const HopsSampling& hs) {
  Rig rig(wiring);
  return rig.run([&](sim::Simulator& s, net::NodeId i, support::RngStream& r) {
    return reference_run_once(hs, s, i, r);
  });
}

TEST(SpreadKernel, EqualsOneForwarderAtATimeReference) {
  for (const auto& fanout : kFanouts) {
    const HopsSampling hs(config_of(fanout));
    for (const Wiring wiring : kWirings) {
      SCOPED_TRACE(::testing::Message()
                   << name_of(wiring) << " gossip " << fanout[0] << "/"
                   << fanout[1] << "/" << fanout[2]);
      EXPECT_EQ(kernel_trace(wiring, hs), reference_trace(wiring, hs));
    }
  }
}

TEST(SpreadKernel, RigExercisesEveryPath) {
  // Guards the equivalence test against comparing degenerate runs: ids are
  // sparse, survivors of every degree class a fanout distinguishes exist
  // (isolated ones included), the lossy and per-link channels really change
  // what is sent, and the armed run records.
  Rig rig(Wiring::kIdeal);
  const net::Graph& graph = rig.sim().graph();
  EXPECT_GT(graph.slot_count(), graph.size());
  std::array<std::size_t, 4> by_degree{};  // 0, 1, 2, 3+
  for (const net::NodeId id : graph.alive_nodes()) {
    ++by_degree[std::min<std::size_t>(graph.degree(id), 3)];
  }
  for (const std::size_t count : by_degree) EXPECT_GT(count, 0U);

  const HopsSampling hs(config_of(kFanouts[1]));
  const Trace ideal = kernel_trace(Wiring::kIdeal, hs);
  EXPECT_NE(ideal.channel, kernel_trace(Wiring::kLossy, hs).channel);
  EXPECT_NE(ideal.channel, kernel_trace(Wiring::kPerLink, hs).channel);
  const Trace armed = kernel_trace(Wiring::kArmed, hs);
  EXPECT_FALSE(armed.loads.empty());
  EXPECT_FALSE(armed.flight_json.empty());
}

}  // namespace
}  // namespace p2pse::est
