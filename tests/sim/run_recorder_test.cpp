#include "p2pse/sim/run_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "p2pse/net/builders.hpp"
#include "p2pse/sim/channel.hpp"
#include "p2pse/sim/simulator.hpp"
#include "p2pse/support/rng.hpp"

namespace p2pse::sim {
namespace {

TEST(RunRecorder, SendAndDeliveryTallyPerNode) {
  RunRecorder recorder;
  recorder.on_send(net::NodeId{3}, /*transmissions=*/2, /*wire_size=*/100);
  recorder.on_delivered(MessageClass::kWalkStep, net::NodeId{5},
                        /*delay=*/7.0, /*wire_size=*/100);
  ASSERT_GE(recorder.node_loads().size(), 6u);
  const RunRecorder::NodeLoad sender = recorder.node_loads()[3];
  EXPECT_EQ(sender.messages, 2u);
  EXPECT_EQ(sender.bytes, 200u);
  const RunRecorder::NodeLoad receiver = recorder.node_loads()[5];
  EXPECT_EQ(receiver.messages, 1u);
  EXPECT_EQ(receiver.bytes, 100u);
  EXPECT_EQ(recorder.max_node_messages(), 2u);
  EXPECT_EQ(recorder.max_node_bytes(), 200u);
  EXPECT_EQ(recorder.delay(MessageClass::kWalkStep).count(), 1u);
}

TEST(RunRecorder, InvalidNodeSkipsTheTallyButDelayStillObserves) {
  RunRecorder recorder;
  recorder.on_send(net::kInvalidNode, 1, 50);
  recorder.on_delivered(MessageClass::kControl, net::kInvalidNode, 0.0, 50);
  EXPECT_TRUE(recorder.node_loads().empty());
  EXPECT_EQ(recorder.max_node_messages(), 0u);
  EXPECT_EQ(recorder.delay(MessageClass::kControl).count(), 1u);
}

TEST(RunRecorder, ResetNodeLoadsKeepsHistograms) {
  RunRecorder recorder;
  recorder.on_send(net::NodeId{1}, 1, 10);
  recorder.on_walk(42);
  recorder.reset_node_loads();
  EXPECT_TRUE(recorder.node_loads().empty());
  EXPECT_EQ(recorder.walk_hops().count(), 1u);
}

// The channel is the one producer of send/delivery records: an ideal send
// must be attributed to its real endpoints, and a send naming kInvalidNode
// endpoints must count its delay without node attribution.
TEST(RunRecorder, ChannelRecordsEndpointsAndDelays) {
  Channel channel;  // ideal, draws nothing
  RunRecorder recorder;
  channel.set_recorder(&recorder);
  MessageMeter meter;

  const Channel::Delivery link =
      channel.send(meter, MessageClass::kWalkStep, net::NodeId{1},
                   net::NodeId{2});
  ASSERT_TRUE(link.delivered);
  const Channel::Delivery iid = channel.send(
      meter, MessageClass::kControl, net::kInvalidNode, net::kInvalidNode);
  ASSERT_TRUE(iid.delivered);

  const std::uint64_t walk_wire =
      meter.wire_size(MessageClass::kWalkStep);
  ASSERT_GE(recorder.node_loads().size(), 3u);
  EXPECT_EQ(recorder.node_loads()[1].messages, 1u);
  EXPECT_EQ(recorder.node_loads()[1].bytes, walk_wire);
  EXPECT_EQ(recorder.node_loads()[2].messages, 1u);
  EXPECT_EQ(recorder.node_loads()[2].bytes, walk_wire);
  EXPECT_EQ(recorder.node_loads()[0].messages, 0u);
  // Both logical sends observed a delay; only the attributed one has nodes.
  EXPECT_EQ(recorder.delay(MessageClass::kWalkStep).count(), 1u);
  EXPECT_EQ(recorder.delay(MessageClass::kControl).count(), 1u);
}

TEST(RunRecorder, SimulatorEnableRecorderSurvivesSetNetwork) {
  support::RngStream graph_rng(7);
  Simulator sim(net::build_heterogeneous_random({100, 1, 10}, graph_rng), 11);
  EXPECT_EQ(sim.recorder(), nullptr);
  sim.enable_recorder();
  ASSERT_NE(sim.recorder(), nullptr);
  RunRecorder* const recorder = sim.recorder();
  sim.enable_recorder();  // idempotent
  EXPECT_EQ(sim.recorder(), recorder);

  // set_network swaps the channel; the recorder must be re-installed.
  sim.set_network(NetworkConfig::parse("net:loss=0.01"));
  (void)sim.send(MessageClass::kWalkStep, net::NodeId{0}, net::NodeId{1});
  EXPECT_EQ(sim.recorder(), recorder);  // same heap object throughout
  EXPECT_GE(recorder->node_loads().size(), 1u);
  EXPECT_EQ(recorder->node_loads()[0].messages, 1u);
}

TEST(RunRecorder, FillLoadHistogramsCoversEveryAliveNode) {
  support::RngStream graph_rng(9);
  net::Graph graph = net::build_heterogeneous_random({50, 1, 5}, graph_rng);
  RunRecorder recorder;
  recorder.on_send(net::NodeId{0}, 3, 100);  // one busy node
  support::FixedHistogram messages(node_message_bounds());
  support::FixedHistogram bytes(node_byte_bounds());
  recorder.fill_load_histograms(graph, messages, bytes);
  // Zero-load alive nodes are observed too — the count is the population.
  EXPECT_EQ(messages.count(), graph.size());
  EXPECT_EQ(bytes.count(), graph.size());
}

// The recorder defers per-node tallies to a pending buffer. An eager
// reference tally, updated on every call, must equal every read the
// recorder answers, wherever the reads fall against the flush boundary.
struct EagerTally {
  void add(net::NodeId id, std::uint64_t messages, std::uint64_t bytes) {
    if (id == net::kInvalidNode) return;
    if (id >= loads.size()) loads.resize(std::size_t{id} + 1);
    loads[id].messages += messages;
    loads[id].bytes += bytes;
  }

  std::vector<RunRecorder::NodeLoad> loads;
};

/// The four readers of the per-node tallies. Each drains the pending
/// buffer on its own, so each is checked as the first read after a run of
/// sends.
enum class Read { kNodeLoads, kMaxMessages, kMaxBytes, kHistograms, kCount_ };

void expect_read_matches(const RunRecorder& recorder, const EagerTally& ref,
                         const net::Graph& graph, Read read) {
  std::uint64_t max_messages = 0;
  std::uint64_t max_bytes = 0;
  for (const RunRecorder::NodeLoad& load : ref.loads) {
    max_messages = std::max(max_messages, load.messages);
    max_bytes = std::max(max_bytes, load.bytes);
  }
  switch (read) {
    case Read::kNodeLoads: {
      const std::vector<RunRecorder::NodeLoad> got = recorder.node_loads();
      ASSERT_EQ(got.size(), ref.loads.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].messages, ref.loads[i].messages) << "node " << i;
        ASSERT_EQ(got[i].bytes, ref.loads[i].bytes) << "node " << i;
      }
      break;
    }
    case Read::kMaxMessages:
      EXPECT_EQ(recorder.max_node_messages(), max_messages);
      break;
    case Read::kMaxBytes:
      EXPECT_EQ(recorder.max_node_bytes(), max_bytes);
      break;
    case Read::kHistograms:
    case Read::kCount_: {
      support::FixedHistogram ref_messages(node_message_bounds());
      support::FixedHistogram ref_bytes(node_byte_bounds());
      for (const net::NodeId id : graph.alive_nodes()) {
        const RunRecorder::NodeLoad load =
            id < ref.loads.size() ? ref.loads[id] : RunRecorder::NodeLoad{};
        ref_messages.observe(static_cast<double>(load.messages));
        ref_bytes.observe(static_cast<double>(load.bytes));
      }
      support::FixedHistogram messages(node_message_bounds());
      support::FixedHistogram bytes(node_byte_bounds());
      recorder.fill_load_histograms(graph, messages, bytes);
      EXPECT_EQ(messages, ref_messages);
      EXPECT_EQ(bytes, ref_bytes);
      break;
    }
  }
}

/// Feeds `events` random sends/deliveries into `recorder` and `ref`. Ids
/// include kInvalidNode and climb past the current table size as the
/// stream goes on. With `read_odds` > 0 one randomly chosen read lands
/// after an event with probability 1/read_odds; every reader runs at the
/// end, the first of them straight after the last event.
void feed(RunRecorder& recorder, EagerTally& ref, const net::Graph& graph,
          std::size_t events, std::uint64_t read_odds,
          support::RngStream& rng) {
  constexpr auto kReads = static_cast<std::uint64_t>(Read::kCount_);
  for (std::size_t e = 0; e < events; ++e) {
    // Grows past several table pages: fresh ids keep coming, as under
    // trace churn.
    const std::uint64_t span = 64 + 4 * e;
    const net::NodeId id =
        rng.uniform_u64(50) == 0
            ? net::kInvalidNode
            : static_cast<net::NodeId>(rng.uniform_u64(span));
    const std::uint64_t wire = 1 + rng.uniform_u64(200);
    if (rng.uniform_u64(2) == 0) {
      const auto transmissions =
          static_cast<std::uint32_t>(1 + rng.uniform_u64(4));
      recorder.on_send(id, transmissions, wire);
      ref.add(id, transmissions, transmissions * wire);
    } else {
      recorder.on_delivered(MessageClass::kGossipSpread, id, 1.0, wire);
      ref.add(id, 1, wire);
    }
    if (read_odds > 0 && rng.uniform_u64(read_odds) == 0) {
      expect_read_matches(recorder, ref, graph,
                          static_cast<Read>(rng.uniform_u64(kReads)));
    }
  }
  const std::uint64_t first = rng.uniform_u64(kReads);
  for (std::uint64_t r = 0; r < kReads; ++r) {
    expect_read_matches(recorder, ref, graph,
                        static_cast<Read>((first + r) % kReads));
  }
}

TEST(RunRecorder, DeferredTalliesEqualAnEagerTallyAtEveryRead) {
  support::RngStream graph_rng(3);
  const net::Graph graph =
      net::build_heterogeneous_random({300, 1, 5}, graph_rng);
  constexpr std::size_t kCap = RunRecorder::kPendingCapacity;
  for (const std::size_t events : {kCap, kCap + 1, 3 * kCap + 17}) {
    SCOPED_TRACE("events=" + std::to_string(events));
    for (const std::uint64_t read_odds : {0u, 7u, 500u}) {
      SCOPED_TRACE("read_odds=" + std::to_string(read_odds));
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        support::RngStream rng(seed);
        RunRecorder recorder;
        EagerTally ref;
        feed(recorder, ref, graph, events, read_odds, rng);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(RunRecorder, ResetNodeLoadsDropsPendingEntries) {
  // table1 reports a per-block max: a block's sends still in the pending
  // buffer at reset must not leak into the next block's tallies.
  RunRecorder recorder;
  recorder.on_send(net::NodeId{7}, 100, 10);  // pending, never read
  recorder.on_delivered(MessageClass::kControl, net::NodeId{9}, 0.0, 10);
  recorder.reset_node_loads();
  EXPECT_TRUE(recorder.node_loads().empty());
  EXPECT_EQ(recorder.max_node_messages(), 0u);

  recorder.on_send(net::NodeId{2}, 3, 10);
  EXPECT_EQ(recorder.max_node_messages(), 3u);
  EXPECT_EQ(recorder.max_node_bytes(), 30u);
  ASSERT_EQ(recorder.node_loads().size(), 3u);
  EXPECT_EQ(recorder.delay(MessageClass::kControl).count(), 1u);
}

}  // namespace
}  // namespace p2pse::sim
