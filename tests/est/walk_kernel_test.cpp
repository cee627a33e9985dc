// The interleaved collision-sampling kernel (est/walk_kernel.hpp) behind
// SampleCollide::estimate_once and InvertedBirthday::estimate_once.
//
//  * K-invariance: 1, 4, 8 and 16 walks in flight give identical estimates,
//    meter counts, channel counters, stats `sim` section and flight ring —
//    on the ideal channel, a lossy channel, a per-link topology, and with
//    the recorder and flight sink armed.
//  * The kernel equals its sequential definition: walk i is one walk on
//    base.split("walk", i) (for Sample&Collide the public sample()), sent
//    hop by hop in index order.
//  * No leak: discarded speculative walks send and record nothing.
//  * Stream independence: consecutive estimations on one stream differ,
//    and each consumes exactly one draw from it (checked builds).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "p2pse/est/inverted_birthday.hpp"
#include "p2pse/est/sample_collide.hpp"
#include "p2pse/net/builders.hpp"
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

/// Everything a run can leave behind, in comparable form.
struct Trace {
  std::vector<std::uint64_t> estimates;  ///< value/messages/delay/valid bits
  std::vector<std::uint64_t> meter;
  std::array<std::uint64_t, 5> channel{};
  std::string sim_json;
  std::string flight_json;

  bool operator==(const Trace&) const = default;
};

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

  /// Three consecutive estimations on one stream, each from a random
  /// initiator drawn from that stream.
  template <typename Call>
  Trace run(Call&& call) {
    support::RngStream rng(77);
    Trace out;
    for (int i = 0; i < 3; ++i) {
      const net::NodeId initiator = sim_.graph().random_alive(rng);
      const Estimate e = call(sim_, initiator, rng);
      out.estimates.push_back(std::bit_cast<std::uint64_t>(e.value));
      out.estimates.push_back(e.messages);
      out.estimates.push_back(std::bit_cast<std::uint64_t>(e.delay));
      out.estimates.push_back(e.valid ? 1 : 0);
      out.estimates.push_back(std::bit_cast<std::uint64_t>(e.time));
    }
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(sim::MessageClass::kCount_); ++c) {
      out.meter.push_back(sim_.meter().of(static_cast<sim::MessageClass>(c)));
    }
    const sim::Channel::Counters& cc = sim_.channel().counters();
    out.channel = {cc.sends_iid, cc.sends_link, cc.drops, cc.retransmits,
                   cc.arq_timeouts};
    out.sim_json = obs::sim_section("walk_kernel", "", obs::collect(sim_));
    if (sim_.flight_recorder() != nullptr) out.flight_json = ring_.to_json();
    return out;
  }

 private:
  static sim::Simulator build(Wiring wiring) {
    support::RngStream rng(5);
    sim::Simulator sim(net::build_heterogeneous_random({2000, 1, 10}, rng),
                       6);
    if (wiring == Wiring::kLossy) {
      sim.set_network(sim::NetworkConfig::parse("net:loss=0.2,latency=exp:50"));
    }
    if (wiring == Wiring::kPerLink) {
      sim.set_topology(topo::TopologyConfig::parse("topo:clustered,regions=4"));
    }
    return sim;
  }

  sim::Simulator sim_;
  obs::FlightRecorder ring_;
};

const SampleCollide kSc({.timer = 10.0, .collisions = 10});
const InvertedBirthday kIb({.walk_length = 30, .collisions = 10});

template <std::size_t K>
Trace sc_trace(Wiring wiring) {
  Rig rig(wiring);
  return rig.run([](sim::Simulator& s, net::NodeId i, support::RngStream& r) {
    return kSc.estimate_lanes<K>(s, i, r);
  });
}

template <std::size_t K>
Trace ib_trace(Wiring wiring) {
  Rig rig(wiring);
  return rig.run([](sim::Simulator& s, net::NodeId i, support::RngStream& r) {
    return kIb.estimate_lanes<K>(s, i, r);
  });
}

/// Inverted Birthday's walk, one at a time: `walk_length` hop-reliable
/// hops, then a bounded-ARQ reply (an isolated initiator samples itself).
struct IbWalker {
  std::uint32_t walk_length = 30;

  WalkSample sample(sim::Simulator& sim, net::NodeId initiator,
                    support::RngStream& rng) const {
    WalkSample out;
    net::NodeId current = initiator;
    for (std::uint32_t step = 0; step < walk_length; ++step) {
      const net::NodeId next = sim.graph().random_neighbor(current, rng);
      if (next == net::kInvalidNode) break;
      out.elapsed +=
          sim.send_reliable(sim::MessageClass::kWalkStep, current, next)
              .latency;
      current = next;
      ++out.steps;
    }
    if (out.steps > 0) {
      sim.record_walk_hops(out.steps);
      const sim::Channel::Delivery reply =
          sim.send_arq(sim::MessageClass::kSampleReply, current, initiator);
      out.elapsed += reply.latency;
      out.lost = !reply.delivered;
    }
    out.node = current;
    return out;
  }
};

/// The kernel's definition, one walk at a time: walk i is a single walk on
/// base.split("walk", i), sent as it goes, in index order.
template <typename Walker>
Estimate sequential_reference(const Walker& walker, std::uint32_t target,
                              sim::Simulator& sim, net::NodeId initiator,
                              support::RngStream& rng) {
  const std::uint64_t baseline = sim.meter().total();
  const support::RngStream base(rng.next_u64());
  std::unordered_set<net::NodeId> seen;
  std::uint64_t samples = 0;
  std::uint32_t collisions = 0;
  double delay = 0.0;
  for (std::uint64_t walk = 0; collisions < target; ++walk) {
    support::RngStream stream = base.split("walk", walk);
    const auto s = walker.sample(sim, initiator, stream);
    if (s.lost) {
      delay += sim.channel().config().timeout;
      continue;
    }
    delay += s.elapsed;
    ++samples;
    if (!seen.insert(s.node).second) ++collisions;
  }
  Estimate e;
  e.time = sim.now();
  e.messages = sim.meter().since(baseline);
  e.delay = delay;
  e.value = static_cast<double>(samples) * static_cast<double>(samples) /
            (2.0 * static_cast<double>(target));
  return e;
}

TEST(WalkKernel, SampleCollideIsInvariantInLaneCount) {
  for (const Wiring wiring : kWirings) {
    SCOPED_TRACE(name_of(wiring));
    const Trace one = sc_trace<1>(wiring);
    EXPECT_EQ(one, sc_trace<4>(wiring));
    EXPECT_EQ(one, sc_trace<8>(wiring));
    EXPECT_EQ(one, sc_trace<16>(wiring));
    // And the production entry point is one of them.
    Rig rig(wiring);
    EXPECT_EQ(one, rig.run([](sim::Simulator& s, net::NodeId i,
                              support::RngStream& r) {
      return kSc.estimate_once(s, i, r);
    }));
  }
}

TEST(WalkKernel, InvertedBirthdayIsInvariantInLaneCount) {
  for (const Wiring wiring : kWirings) {
    SCOPED_TRACE(name_of(wiring));
    const Trace one = ib_trace<1>(wiring);
    EXPECT_EQ(one, ib_trace<4>(wiring));
    EXPECT_EQ(one, ib_trace<8>(wiring));
    EXPECT_EQ(one, ib_trace<16>(wiring));
    Rig rig(wiring);
    EXPECT_EQ(one, rig.run([](sim::Simulator& s, net::NodeId i,
                              support::RngStream& r) {
      return kIb.estimate_once(s, i, r);
    }));
  }
}

TEST(WalkKernel, RunsDifferAcrossWirings) {
  // Guards the invariance tests against comparing four copies of one run:
  // the lossy and per-link channels really change what is sent.
  const Trace ideal = sc_trace<8>(Wiring::kIdeal);
  EXPECT_NE(ideal.channel, sc_trace<8>(Wiring::kLossy).channel);
  EXPECT_NE(ideal.channel, sc_trace<8>(Wiring::kPerLink).channel);
  EXPECT_FALSE(sc_trace<8>(Wiring::kArmed).flight_json.empty());
}

TEST(WalkKernel, EqualsSequentialSingleWalkDefinition) {
  // Same simulator, same stream: the batched kernel and the one-walk-at-a-
  // time definition leave identical traces, lossy channel included (walk
  // draws live in per-walk streams; channel draws happen in commit order).
  for (const Wiring wiring : kWirings) {
    SCOPED_TRACE(name_of(wiring));
    Rig sc_rig(wiring);
    EXPECT_EQ(sc_trace<16>(wiring),
              sc_rig.run([](sim::Simulator& s, net::NodeId i,
                            support::RngStream& r) {
                return sequential_reference(kSc, 10, s, i, r);
              }));
    Rig ib_rig(wiring);
    EXPECT_EQ(ib_trace<16>(wiring),
              ib_rig.run([](sim::Simulator& s, net::NodeId i,
                            support::RngStream& r) {
                return sequential_reference(IbWalker{}, 10, s, i, r);
              }));
  }
}

template <typename Est>
void expect_no_leak(const Est& est) {
  // On the ideal channel every committed walk with at least one hop sends
  // its hops and one reply, and reports its length once. Walks discarded in
  // flight must add to none of these.
  Rig rig(Wiring::kArmed);
  support::RngStream rng(9);
  for (int i = 0; i < 3; ++i) {
    (void)est.template estimate_lanes<16>(rig.sim(), 0, rng);
  }
  const sim::RunRecorder& recorder = *rig.sim().recorder();
  const sim::MessageMeter& meter = rig.sim().meter();
  EXPECT_GT(meter.of(sim::MessageClass::kWalkStep), 0u);
  EXPECT_EQ(recorder.walk_hop_total(),
            meter.of(sim::MessageClass::kWalkStep));
  EXPECT_EQ(recorder.walk_hops().count(),
            meter.of(sim::MessageClass::kSampleReply));
}

TEST(WalkKernel, DiscardedWalksSendNothing) {
  expect_no_leak(kSc);
  expect_no_leak(kIb);
}

TEST(WalkKernel, ConsecutiveEstimationsDrawDifferentWalks) {
  // split() hashes a stream's root seed, not its state: a kernel deriving
  // walk streams from the caller's stream directly would replay the same
  // walks on every call. The per-node loads of two calls tell them apart.
  Rig rig(Wiring::kArmed);
  sim::RunRecorder& recorder = *rig.sim().recorder();
  support::RngStream rng(11);
  (void)kSc.estimate_once(rig.sim(), 0, rng);
  const std::vector<sim::RunRecorder::NodeLoad> first = recorder.node_loads();
  recorder.reset_node_loads();
  (void)kSc.estimate_once(rig.sim(), 0, rng);
  const std::vector<sim::RunRecorder::NodeLoad> second = recorder.node_loads();
  ASSERT_FALSE(first.empty());
  bool differ = first.size() != second.size();
  for (std::size_t i = 0; !differ && i < first.size(); ++i) {
    differ = first[i].messages != second[i].messages ||
             first[i].bytes != second[i].bytes;
  }
  EXPECT_TRUE(differ);
}

#if P2PSE_CHECK_ENABLED
template <std::size_t K>
void expect_one_caller_draw() {
  Rig rig(Wiring::kLossy);
  support::RngStream rng(13);
  for (std::uint64_t call = 1; call <= 3; ++call) {
    (void)kSc.estimate_lanes<K>(rig.sim(), 0, rng);
    EXPECT_EQ(rng.debug_draw_count(), 2 * call - 1) << "K=" << K;
    (void)kIb.estimate_lanes<K>(rig.sim(), 0, rng);
    EXPECT_EQ(rng.debug_draw_count(), 2 * call) << "K=" << K;
  }
}

TEST(WalkKernel, EachEstimationDrawsOnceFromTheCallerStream) {
  expect_one_caller_draw<1>();
  expect_one_caller_draw<4>();
  expect_one_caller_draw<8>();
  expect_one_caller_draw<16>();
}
#endif

}  // namespace
}  // namespace p2pse::est
