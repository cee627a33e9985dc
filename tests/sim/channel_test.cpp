#include "p2pse/sim/channel.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "p2pse/sim/simulator.hpp"

namespace p2pse::sim {
namespace {

// --- NetworkConfig::parse: the net: spec grammar ----------------------------

TEST(NetworkSpec, BareNetParsesToIdealDefaults) {
  const NetworkConfig config = NetworkConfig::parse("net");
  EXPECT_TRUE(config.ideal());
  EXPECT_DOUBLE_EQ(config.loss, 0.0);
  EXPECT_DOUBLE_EQ(config.latency.mean(), 0.0);
  EXPECT_DOUBLE_EQ(config.jitter, 0.0);
  EXPECT_GT(config.timeout, 0.0);
}

TEST(NetworkSpec, ParsesLoss) {
  const NetworkConfig config = NetworkConfig::parse("net:loss=0.05");
  EXPECT_DOUBLE_EQ(config.loss, 0.05);
  EXPECT_FALSE(config.ideal());
}

TEST(NetworkSpec, ParsesConstantLatency) {
  const NetworkConfig config =
      NetworkConfig::parse("net:latency=constant:5");
  EXPECT_DOUBLE_EQ(config.latency.mean(), 5.0);
  EXPECT_EQ(config.latency.describe(), "constant:5");
}

TEST(NetworkSpec, ParsesUniformLatency) {
  const NetworkConfig config =
      NetworkConfig::parse("net:latency=uniform:2:8");
  EXPECT_DOUBLE_EQ(config.latency.mean(), 5.0);
  EXPECT_EQ(config.latency.describe(), "uniform:2:8");
}

TEST(NetworkSpec, ParsesExponentialLatencyUnderBothSpellings) {
  EXPECT_DOUBLE_EQ(NetworkConfig::parse("net:latency=exp:50").latency.mean(),
                   50.0);
  EXPECT_DOUBLE_EQ(
      NetworkConfig::parse("net:latency=exponential:50").latency.mean(),
      50.0);
}

TEST(NetworkSpec, ParsesJitterTimeoutRetries) {
  const NetworkConfig config =
      NetworkConfig::parse("net:jitter=3,timeout=120,retries=5");
  EXPECT_DOUBLE_EQ(config.jitter, 3.0);
  EXPECT_DOUBLE_EQ(config.timeout, 120.0);
  EXPECT_EQ(config.retries, 5u);
}

TEST(NetworkSpec, ExplicitIdealSpecIsIdeal) {
  EXPECT_TRUE(NetworkConfig::parse("net:loss=0,latency=constant:0").ideal());
}

TEST(NetworkSpec, CanonicalRoundTrips) {
  const NetworkConfig config = NetworkConfig::parse(
      "net:loss=0.05,latency=exp:50,jitter=2,timeout=100,retries=3");
  const NetworkConfig reparsed = NetworkConfig::parse(config.canonical());
  EXPECT_DOUBLE_EQ(reparsed.loss, config.loss);
  EXPECT_EQ(reparsed.latency.describe(), config.latency.describe());
  EXPECT_DOUBLE_EQ(reparsed.jitter, config.jitter);
  EXPECT_DOUBLE_EQ(reparsed.timeout, config.timeout);
  EXPECT_EQ(reparsed.retries, config.retries);
}

TEST(NetworkSpec, RejectsWrongName) {
  EXPECT_THROW((void)NetworkConfig::parse("ent:loss=0.1"), std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse(""), std::invalid_argument);
}

TEST(NetworkSpec, RejectsNegativeLoss) {
  EXPECT_THROW((void)NetworkConfig::parse("net:loss=-0.1"), std::invalid_argument);
}

TEST(NetworkSpec, RejectsLossAboveOne) {
  try {
    (void)NetworkConfig::parse("net:loss=1.5");
    FAIL() << "loss=1.5 must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("[0, 1]"), std::string::npos);
  }
}

TEST(NetworkSpec, RejectsUnknownLatencyModelListingValidOnes) {
  try {
    (void)NetworkConfig::parse("net:latency=gamma:2");
    FAIL() << "unknown latency model must be rejected";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("constant"), std::string::npos);
    EXPECT_NE(what.find("uniform"), std::string::npos);
    EXPECT_NE(what.find("exp"), std::string::npos);
  }
}

TEST(NetworkSpec, RejectsMalformedLatencyArguments) {
  EXPECT_THROW((void)NetworkConfig::parse("net:latency=constant"),
               std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:latency=constant:a"),
               std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:latency=uniform:5"),
               std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:latency=uniform:9:2"),
               std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:latency=exp:0"),
               std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:latency=constant:-1"),
               std::invalid_argument);
}

TEST(NetworkSpec, LatencyArityErrorIsPhrasedExactlyOnce) {
  try {
    (void)NetworkConfig::parse("net:latency=constant:1:2");
    FAIL() << "wrong arity must be rejected";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("constant takes one argument"), std::string::npos);
    // Regression: the arity error used to be re-wrapped by the factory
    // catch, duplicating the whole message inside its own parenthetical.
    EXPECT_EQ(what.find("expects"), what.rfind("expects"));
  }
}

TEST(NetworkSpec, RejectsZeroOrNegativeTimeout) {
  EXPECT_THROW((void)NetworkConfig::parse("net:timeout=0"), std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:timeout=-5"), std::invalid_argument);
}

TEST(NetworkSpec, RejectsNegativeJitter) {
  EXPECT_THROW((void)NetworkConfig::parse("net:jitter=-1"), std::invalid_argument);
}

TEST(NetworkSpec, RejectsUnknownKeyListingValidKeys) {
  try {
    (void)NetworkConfig::parse("net:los=0.1");
    FAIL() << "unknown key must be rejected";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("los"), std::string::npos);
    EXPECT_NE(what.find(std::string(NetworkConfig::keys_help())),
              std::string::npos);
  }
}

TEST(NetworkSpec, RejectsOverrideWithoutValue) {
  EXPECT_THROW((void)NetworkConfig::parse("net:loss"), std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:=5"), std::invalid_argument);
}

TEST(NetworkSpec, RejectsMalformedNumbers) {
  EXPECT_THROW((void)NetworkConfig::parse("net:loss=abc"), std::invalid_argument);
  EXPECT_THROW((void)NetworkConfig::parse("net:retries=1.5"),
               std::invalid_argument);
}

// --- Channel delivery semantics ---------------------------------------------

TEST(Channel, DefaultChannelIsIdealAndDeliversAtZeroLatency) {
  Channel channel;
  MessageMeter meter;
  EXPECT_TRUE(channel.ideal());
  for (int i = 0; i < 100; ++i) {
    const Channel::Delivery d =
        channel.send(meter, MessageClass::kWalkStep, 0, 1);
    EXPECT_TRUE(d.delivered);
    EXPECT_DOUBLE_EQ(d.latency, 0.0);
    EXPECT_EQ(d.transmissions, 1u);
  }
  EXPECT_EQ(meter.of(MessageClass::kWalkStep), 100u);
}

TEST(Channel, SimulatorStartsWithTheIdealChannel) {
  Simulator sim(net::Graph(4), 1);
  EXPECT_TRUE(sim.channel().ideal());
}

TEST(Channel, ExplicitIdealConfigKeepsTheFastPath) {
  Simulator sim(net::Graph(4), 1);
  sim.set_network(NetworkConfig::parse("net:loss=0,latency=constant:0"));
  EXPECT_TRUE(sim.channel().ideal());
  const Channel::Delivery d = sim.send(MessageClass::kGossipSpread, 0, 1);
  EXPECT_TRUE(d.delivered);
  EXPECT_DOUBLE_EQ(d.latency, 0.0);
  EXPECT_EQ(sim.meter().of(MessageClass::kGossipSpread), 1u);
}

TEST(Channel, DropRateTracksTheConfiguredLoss) {
  NetworkConfig config;
  config.loss = 0.05;
  Channel channel(config, support::RngStream(7));
  MessageMeter meter;
  int dropped = 0;
  const int sends = 20000;
  for (int i = 0; i < sends; ++i) {
    if (!channel.send(meter, MessageClass::kWalkStep, 0, 1).delivered) {
      ++dropped;
    }
  }
  const double rate = static_cast<double>(dropped) / sends;
  EXPECT_NEAR(rate, 0.05, 0.01);
  EXPECT_EQ(meter.of(MessageClass::kWalkStep),
            static_cast<std::uint64_t>(sends));
}

TEST(Channel, LatencySamplesMatchTheModelMean) {
  NetworkConfig config;
  config.latency = LatencyModel::exponential(50.0);
  Channel channel(config, support::RngStream(7));
  MessageMeter meter;
  double total = 0.0;
  const int sends = 20000;
  for (int i = 0; i < sends; ++i) {
    total += channel.send(meter, MessageClass::kWalkStep, 0, 1).latency;
  }
  EXPECT_NEAR(total / sends, 50.0, 2.0);
}

TEST(Channel, JitterAddsBoundedExtraLatency) {
  NetworkConfig config;
  config.latency = LatencyModel::constant(10.0);
  config.jitter = 5.0;
  Channel channel(config, support::RngStream(7));
  MessageMeter meter;
  for (int i = 0; i < 1000; ++i) {
    const double latency =
        channel.send(meter, MessageClass::kWalkStep, 0, 1).latency;
    EXPECT_GE(latency, 10.0);
    EXPECT_LT(latency, 15.0);
  }
}

TEST(Channel, ArqGivesUpAfterRetriesChargingTimeouts) {
  NetworkConfig config;
  config.loss = 1.0;  // every transmission drops
  config.timeout = 30.0;
  config.retries = 2;
  Channel channel(config, support::RngStream(7));
  MessageMeter meter;
  const Channel::Delivery d =
      channel.send_arq(meter, MessageClass::kWalkStep, 0, 1);
  EXPECT_FALSE(d.delivered);
  EXPECT_EQ(d.transmissions, 3u);  // first try + 2 retries
  EXPECT_DOUBLE_EQ(d.latency, 3 * 30.0);
  EXPECT_EQ(meter.of(MessageClass::kWalkStep), 3u);  // every copy counted
}

TEST(Channel, ArqRecoversFromLossWithinItsBudget) {
  NetworkConfig config;
  config.loss = 0.5;
  config.retries = 2;
  Channel channel(config, support::RngStream(7));
  MessageMeter meter;
  int delivered = 0;
  const int sends = 2000;
  for (int i = 0; i < sends; ++i) {
    if (channel.send_arq(meter, MessageClass::kWalkStep, 0, 1).delivered) {
      ++delivered;
    }
  }
  // P(delivered within 3 transmissions) = 1 - 0.5^3 = 0.875.
  EXPECT_NEAR(static_cast<double>(delivered) / sends, 0.875, 0.03);
}

TEST(Channel, ReliableSendAlwaysDeliversEvenUnderHeavyLoss) {
  NetworkConfig config;
  config.loss = 0.9;
  Channel channel(config, support::RngStream(7));
  MessageMeter meter;
  for (int i = 0; i < 200; ++i) {
    const Channel::Delivery d =
        channel.send_reliable(meter, MessageClass::kWalkStep, 0, 1);
    EXPECT_TRUE(d.delivered);
    EXPECT_GE(d.transmissions, 1u);
  }
  // ~10 transmissions per delivered message on average.
  EXPECT_GT(meter.of(MessageClass::kWalkStep), 1000u);
}

TEST(Channel, SameSeedSameConfigGivesIdenticalDeliverySequences) {
  NetworkConfig config;
  config.loss = 0.2;
  config.latency = LatencyModel::exponential(10.0);
  Channel a(config, support::RngStream(99));
  Channel b(config, support::RngStream(99));
  MessageMeter meter_a, meter_b;
  for (int i = 0; i < 500; ++i) {
    const Channel::Delivery da =
        a.send(meter_a, MessageClass::kWalkStep, 0, 1);
    const Channel::Delivery db =
        b.send(meter_b, MessageClass::kWalkStep, 0, 1);
    ASSERT_EQ(da.delivered, db.delivered);
    ASSERT_DOUBLE_EQ(da.latency, db.latency);
  }
}

TEST(Channel, SimulatorsWithTheSameSeedSeeTheSameChannel) {
  NetworkConfig config;
  config.loss = 0.3;
  Simulator a(net::Graph(4), 42), b(net::Graph(4), 42);
  a.set_network(config);
  b.set_network(config);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(a.send(MessageClass::kGossipSpread, 0, 1).delivered,
              b.send(MessageClass::kGossipSpread, 0, 1).delivered);
  }
}

TEST(Channel, ChannelRngIsASubstreamThatLeavesTheRootUntouched) {
  Simulator a(net::Graph(4), 42), b(net::Graph(4), 42);
  NetworkConfig config;
  config.loss = 0.5;
  a.set_network(config);  // b keeps the ideal default
  for (int i = 0; i < 100; ++i) (void)a.send(MessageClass::kWalkStep, 0, 1);
  // Installing + exercising the channel must not perturb the root stream
  // estimators and churn derive from.
  EXPECT_EQ(a.rng().next_u64(), b.rng().next_u64());
}

}  // namespace
}  // namespace p2pse::sim
