#include "p2pse/est/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "p2pse/est/sample_collide.hpp"
#include "p2pse/net/builders.hpp"
#include "p2pse/net/churn.hpp"

namespace p2pse::est {
namespace {

sim::Simulator hetero_sim(std::size_t n, std::uint64_t seed) {
  support::RngStream rng(seed);
  return sim::Simulator(net::build_heterogeneous_random({n, 1, 10}, rng),
                        seed ^ 0xabcdef);
}

SizeMonitor::EstimatorFn sample_collide_fn(std::uint32_t l) {
  auto sc = std::make_shared<SampleCollide>(
      SampleCollideConfig{.timer = 10.0, .collisions = l});
  return [sc](sim::Simulator& sim, net::NodeId init, support::RngStream& rng) {
    return sc->estimate_once(sim, init, rng);
  };
}

TEST(SizeMonitor, RequiresEstimator) {
  EXPECT_THROW(SizeMonitor({}, nullptr), std::invalid_argument);
}

TEST(SizeMonitor, PollProducesSamples) {
  sim::Simulator sim = hetero_sim(2000, 1);
  support::RngStream rng(2);
  SizeMonitor monitor({.smoothing_window = 1}, sample_collide_fn(20));
  const auto sample = monitor.poll(sim, rng);
  ASSERT_TRUE(sample.has_value());
  EXPECT_GT(sample->raw.value, 0.0);
  EXPECT_DOUBLE_EQ(sample->smoothed, sample->raw.value);
  EXPECT_EQ(monitor.polls(), 1u);
  EXPECT_EQ(monitor.history().size(), 1u);
  EXPECT_NE(monitor.initiator(), net::kInvalidNode);
}

TEST(SizeMonitor, SmoothingWindowAverages) {
  sim::Simulator sim = hetero_sim(2000, 3);
  support::RngStream rng(4);
  SizeMonitor monitor({.smoothing_window = 5}, sample_collide_fn(20));
  double last = 0.0;
  for (int i = 0; i < 10; ++i) {
    const auto s = monitor.poll(sim, rng);
    ASSERT_TRUE(s.has_value());
    last = s->smoothed;
  }
  EXPECT_NEAR(last, 2000.0, 700.0);
  EXPECT_DOUBLE_EQ(monitor.current(), last);
}

TEST(SizeMonitor, ReElectsDeadInitiator) {
  sim::Simulator sim = hetero_sim(500, 5);
  support::RngStream rng(6);
  SizeMonitor monitor({}, sample_collide_fn(10));
  ASSERT_TRUE(monitor.poll(sim, rng).has_value());
  const net::NodeId first = monitor.initiator();
  sim.graph().remove_node(first);
  ASSERT_TRUE(monitor.poll(sim, rng).has_value());
  EXPECT_NE(monitor.initiator(), first);
  EXPECT_TRUE(sim.graph().is_alive(monitor.initiator()));
}

TEST(SizeMonitor, EmptyOverlayFailsGracefully) {
  sim::Simulator sim(net::Graph(0), 7);
  support::RngStream rng(8);
  SizeMonitor monitor({}, sample_collide_fn(10));
  EXPECT_FALSE(monitor.poll(sim, rng).has_value());
  EXPECT_EQ(monitor.failures(), 1u);
}

TEST(SizeMonitor, AlarmFiresOnCatastrophicDrop) {
  sim::Simulator sim = hetero_sim(5000, 9);
  support::RngStream rng(10);
  // l=400 puts one estimate's relative spread near 4%, so a 30% swing on
  // the stable overlay is a >4-sigma event. At l=100 (10% spread) it is a
  // ~2% chance per poll: too likely for an exact "no alarm" assertion.
  SizeMonitor monitor({.smoothing_window = 1, .alarm_threshold = 0.3},
                      sample_collide_fn(400));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(monitor.poll(sim, rng).has_value());
  EXPECT_EQ(monitor.alarms(), 0u);
  // Halve the overlay: the next estimate drops by ~50% > 30% threshold.
  support::RngStream churn(11);
  net::remove_fraction(sim.graph(), 0.5, churn);
  const auto sample = monitor.poll(sim, rng);
  ASSERT_TRUE(sample.has_value());
  EXPECT_TRUE(sample->alarm);
  EXPECT_EQ(monitor.alarms(), 1u);
}

TEST(SizeMonitor, AlarmsCanBeDisabled) {
  sim::Simulator sim = hetero_sim(2000, 12);
  support::RngStream rng(13);
  SizeMonitor monitor({.smoothing_window = 1, .alarm_threshold = 0.0},
                      sample_collide_fn(50));
  ASSERT_TRUE(monitor.poll(sim, rng).has_value());
  support::RngStream churn(14);
  net::remove_fraction(sim.graph(), 0.7, churn);
  const auto sample = monitor.poll(sim, rng);
  ASSERT_TRUE(sample.has_value());
  EXPECT_FALSE(sample->alarm);
}

TEST(SizeMonitor, PublishesEstimateGaugeAndCountersToMetrics) {
  sim::Simulator sim = hetero_sim(2000, 17);
  support::RngStream rng(18);
  SizeMonitor monitor({.smoothing_window = 1, .alarm_threshold = 0.0},
                      sample_collide_fn(20));
  obs::Metrics metrics;
  monitor.set_metrics(&metrics);
  EXPECT_FALSE(metrics.has_gauge("monitor.estimate"));
  const auto sample = monitor.poll(sim, rng);
  ASSERT_TRUE(sample.has_value());
  EXPECT_TRUE(metrics.has_gauge("monitor.estimate"));
  EXPECT_DOUBLE_EQ(metrics.gauge("monitor.estimate"), monitor.current());
  ASSERT_TRUE(monitor.poll(sim, rng).has_value());
  EXPECT_DOUBLE_EQ(metrics.gauge("monitor.estimate"), monitor.current());
  EXPECT_EQ(metrics.counter("monitor.polls"), monitor.polls());
  EXPECT_EQ(metrics.counter("monitor.failures"), 0u);
  EXPECT_EQ(metrics.counter("monitor.alarms"), 0u);
  // Detaching stops publication without touching the monitor itself.
  monitor.set_metrics(nullptr);
  ASSERT_TRUE(monitor.poll(sim, rng).has_value());
  EXPECT_EQ(metrics.counter("monitor.polls"), 2u);
  EXPECT_EQ(monitor.polls(), 3u);
}

TEST(SizeMonitor, CountsFailuresInMetrics) {
  sim::Simulator sim(net::Graph(0), 19);
  support::RngStream rng(20);
  SizeMonitor monitor({}, sample_collide_fn(10));
  obs::Metrics metrics;
  monitor.set_metrics(&metrics);
  EXPECT_FALSE(monitor.poll(sim, rng).has_value());
  EXPECT_EQ(metrics.counter("monitor.polls"), 1u);
  EXPECT_EQ(metrics.counter("monitor.failures"), 1u);
  EXPECT_FALSE(metrics.has_gauge("monitor.estimate"));
}

TEST(SizeMonitor, HistoryIsBounded) {
  sim::Simulator sim = hetero_sim(500, 15);
  support::RngStream rng(16);
  SizeMonitor monitor({.smoothing_window = 1, .history_limit = 5},
                      sample_collide_fn(5));
  for (int i = 0; i < 12; ++i) (void)monitor.poll(sim, rng);
  EXPECT_EQ(monitor.history().size(), 5u);
  EXPECT_EQ(monitor.polls(), 12u);
}

/// An estimator that fails exactly when its initiator has no neighbors —
/// the behaviour of every walk-based estimator on a node whose component
/// was cut off the overlay.
SizeMonitor::EstimatorFn degree_gated_fn() {
  return [](sim::Simulator& sim, net::NodeId init, support::RngStream&) {
    Estimate e;
    e.time = sim.now();
    if (sim.graph().degree(init) == 0) {
      e.valid = false;
      return e;
    }
    e.value = static_cast<double>(sim.graph().size());
    return e;
  };
}

TEST(SizeMonitor, ReElectsInitiatorAfterFailedPoll) {
  // Regression: poll() used to re-elect only when the initiator *died*. An
  // alive-but-disconnected initiator made every estimation fail and was
  // retried forever; the header always promised re-election after failures.
  sim::Simulator sim(net::Graph(2), 21);  // two isolated nodes
  support::RngStream rng(22);
  SizeMonitor monitor({}, degree_gated_fn());
  EXPECT_FALSE(monitor.poll(sim, rng).has_value());
  EXPECT_EQ(monitor.failures(), 1u);
  // The failed initiator is dropped, not kept for a doomed retry.
  EXPECT_EQ(monitor.initiator(), net::kInvalidNode);
  // Once the overlay reconnects, the next poll elects fresh and succeeds.
  sim.graph().add_edge(0, 1);
  const auto sample = monitor.poll(sim, rng);
  ASSERT_TRUE(sample.has_value());
  EXPECT_TRUE(sim.graph().is_alive(monitor.initiator()));
  EXPECT_EQ(monitor.failures(), 1u);
}

/// A counting estimator whose value is the 1-based poll index, so history
/// contents are exactly predictable.
SizeMonitor::EstimatorFn counting_fn(double* counter) {
  return [counter](sim::Simulator& sim, net::NodeId, support::RngStream&) {
    Estimate e;
    e.time = sim.now();
    e.value = ++*counter;
    return e;
  };
}

TEST(SizeMonitor, HistoryTrimKeepsNewestSamplesInOrder) {
  // The block trim (advance-offset + amortized compaction) is an internal
  // optimization: the observable window must be exactly the newest
  // `history_limit` samples, oldest first, at every point of a long run.
  sim::Simulator sim(net::Graph(4), 23);
  sim.graph().add_edge(0, 1);
  support::RngStream rng(24);
  double counter = 0.0;
  SizeMonitor monitor({.smoothing_window = 1, .history_limit = 8},
                      counting_fn(&counter));
  for (int push = 1; push <= 100; ++push) {
    ASSERT_TRUE(monitor.poll(sim, rng).has_value());
    const auto history = monitor.history();
    const std::size_t expected_size = std::min<std::size_t>(8, push);
    ASSERT_EQ(history.size(), expected_size);
    for (std::size_t i = 0; i < history.size(); ++i) {
      // Oldest-first: entry i holds poll number push - size + 1 + i.
      const double want = static_cast<double>(push - expected_size + 1 + i);
      EXPECT_DOUBLE_EQ(history[i].raw.value, want);
      EXPECT_DOUBLE_EQ(history[i].smoothed, want);
    }
  }
  EXPECT_EQ(monitor.polls(), 100u);
}

TEST(SizeMonitor, HistoryBelowLimitIsNeverTrimmed) {
  sim::Simulator sim(net::Graph(2), 25);
  sim.graph().add_edge(0, 1);
  support::RngStream rng(26);
  double counter = 0.0;
  SizeMonitor monitor({.smoothing_window = 1, .history_limit = 50},
                      counting_fn(&counter));
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(monitor.poll(sim, rng).has_value());
  const auto history = monitor.history();
  ASSERT_EQ(history.size(), 20u);
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_DOUBLE_EQ(history[i].raw.value, static_cast<double>(i + 1));
  }
}

}  // namespace
}  // namespace p2pse::est
