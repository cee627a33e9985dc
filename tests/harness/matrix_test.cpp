// The estimator x scenario matrix: every registered estimator must smoke-run
// under every named scenario at N=500 through run_matrix — including the
// combinations the paper never plotted. This is the acceptance gate for the
// `p2pse_matrix` driver.
#include "p2pse/harness/figures.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "p2pse/est/registry.hpp"
#include "p2pse/scenario/scenarios.hpp"

namespace p2pse::harness {
namespace {

MatrixOptions small_matrix(const std::string& estimator,
                           const std::string& scenario) {
  MatrixOptions options;
  options.estimator = estimator;
  options.scenario = scenario;
  // Epoch estimators: 0.1 rounds/unit * 1000 units = 100 rounds = 2 epochs
  // at the default 50-round epoch length.
  options.rounds_per_unit = 0.1;
  options.params.nodes = 500;
  options.params.estimations = 4;
  options.params.replicas = 2;
  options.params.seed = 9;
  options.params.threads = 2;
  return options;
}

TEST(Matrix, EveryEstimatorCrossesEveryScenario) {
  for (const auto& estimator : est::EstimatorRegistry::global().names()) {
    for (const auto scenario : scenario::scenario_names()) {
      SCOPED_TRACE(estimator + " x " + std::string(scenario));
      const FigureReport report =
          run_matrix(small_matrix(estimator, std::string(scenario)));
      // Truth line + one series per replica.
      ASSERT_EQ(report.series.size(), 3u);
      EXPECT_EQ(report.series[0].name, "Real network size");
      EXPECT_FALSE(report.series[0].y.empty());
      EXPECT_FALSE(report.raw_rows.empty());
      for (const auto& row : report.raw_rows) {
        ASSERT_EQ(row.size(), 6u);  // replica,time,truth,estimate,msgs,valid
        for (const double v : row) EXPECT_TRUE(std::isfinite(v));
      }
      EXPECT_NE(report.id.find(est::EstimatorSpec::parse(estimator).name),
                std::string::npos);
    }
  }
}

std::string note_starting(const FigureReport& report, std::string_view head) {
  for (const std::string& note : report.notes) {
    if (note.starts_with(head)) return note;
  }
  return "";
}

std::string tracking_error_note(const FigureReport& report) {
  return note_starting(report, "mean |estimate-truth|/truth: ");
}

TEST(Matrix, ZeroValidEstimatesReportTheErrorAsNotAvailable) {
  // A run with no valid estimate has no error to average: the note must
  // say so instead of printing a plausible 0%. One spec per report branch
  // (S&C, HS, Aggregation, generic).
  const std::vector<std::string> estimators = {
      "sample_collide", "hops_sampling", "aggregation", "random_tour"};
  for (const std::string& estimator : estimators) {
    SCOPED_TRACE(estimator);
    MatrixOptions options = small_matrix(estimator, "static");
    options.params.estimations = 0;
    options.rounds_per_unit = 0.01;  // 10 rounds: no 50-round epoch ends
    const std::string note = tracking_error_note(run_matrix(options));
    EXPECT_TRUE(note.starts_with("mean |estimate-truth|/truth: n/a")) << note;
    EXPECT_EQ(note.find('%'), std::string::npos) << note;
  }
}

TEST(Matrix, ZeroValidEstimatesReportMessagesAndDelayAsNotAvailable) {
  // Off the ideal flat channel every branch also averages the measured
  // delay over the valid estimates, and the generic branch the messages:
  // with none, both say "n/a" instead of a plausible 0.
  const std::vector<std::string> estimators = {
      "sample_collide", "hops_sampling", "aggregation", "random_tour"};
  for (const std::string& estimator : estimators) {
    SCOPED_TRACE(estimator);
    MatrixOptions options = small_matrix(estimator, "static");
    options.params.estimations = 0;
    options.params.topo = "topo:clustered,regions=4";
    options.rounds_per_unit = 0.01;  // 10 rounds: no 50-round epoch ends
    const FigureReport report = run_matrix(options);
    EXPECT_TRUE(note_starting(report, "mean measured delay per estimate: ")
                    .starts_with("mean measured delay per estimate: n/a ("));
    if (estimator == "random_tour") {
      EXPECT_EQ(note_starting(report, "mean messages per estimate: "),
                "mean messages per estimate: n/a");
    }
  }
}

TEST(Matrix, ValidEstimatesReportMessagesAndDelayAsNumbers) {
  MatrixOptions options = small_matrix("random_tour", "static");
  options.params.topo = "topo:clustered,regions=4";
  const FigureReport report = run_matrix(options);
  const std::string messages =
      note_starting(report, "mean messages per estimate: ");
  const std::string delay =
      note_starting(report, "mean measured delay per estimate: ");
  ASSERT_FALSE(messages.empty());
  ASSERT_FALSE(delay.empty());
  EXPECT_EQ(messages.find("n/a"), std::string::npos) << messages;
  EXPECT_EQ(delay.find("n/a"), std::string::npos) << delay;
}

TEST(Matrix, ValidEstimatesReportTheErrorAsAPercentage) {
  const std::string note =
      tracking_error_note(run_matrix(small_matrix("random_tour", "static")));
  EXPECT_TRUE(note.starts_with("mean |estimate-truth|/truth: ")) << note;
  EXPECT_EQ(note.find("n/a"), std::string::npos) << note;
  EXPECT_TRUE(note.ends_with("%")) << note;
}

TEST(Matrix, PointEstimatorEmitsOnePointPerEstimation) {
  const FigureReport report =
      run_matrix(small_matrix("random_tour", "growing"));
  // 2 replicas x 4 estimations.
  EXPECT_EQ(report.raw_rows.size(), 8u);
}

TEST(Matrix, EpochEstimatorEmitsOnePointPerEpoch) {
  MatrixOptions options = small_matrix("aggregation:rounds=20", "static");
  options.rounds_per_unit = 0.1;  // 100 rounds -> 5 epochs
  const FigureReport report = run_matrix(options);
  EXPECT_EQ(report.raw_rows.size(), 2u * 5u);
}

TEST(Matrix, OffPaperCombinationTracksTruth) {
  // Interval density under oscillating flash crowds: the identifier ring is
  // rebuilt as membership changes, so the estimate keeps tracking.
  MatrixOptions options = small_matrix("interval_density", "oscillating");
  options.params.estimations = 10;
  const FigureReport report = run_matrix(options);
  const auto& truth = report.series[0].y;
  const auto& estimate = report.series[1].y;
  ASSERT_EQ(estimate.size(), 10u);
  for (std::size_t i = 0; i < estimate.size(); ++i) {
    EXPECT_NEAR(estimate[i], truth[i], 0.75 * truth[i]);
  }
}

TEST(Matrix, ReportDescribesTheBuiltEstimatorNotThePaperDefaults) {
  // A spec override must flow into the report metadata: l=10 here, not the
  // FigureParams default l=200.
  const FigureReport sc = run_matrix(small_matrix("sample_collide:l=10",
                                                  "static"));
  EXPECT_NE(sc.params.find("l=10"), std::string::npos) << sc.params;
  EXPECT_EQ(sc.params.find("l=200"), std::string::npos) << sc.params;

  // Un-smoothed HopsSampling must not be labeled lastKruns.
  const FigureReport hs = run_matrix(small_matrix("hops_sampling", "static"));
  EXPECT_NE(hs.title.find("oneShot"), std::string::npos) << hs.title;
  const FigureReport hs_smooth =
      run_matrix(small_matrix("hops_sampling:last_k=4", "static"));
  EXPECT_NE(hs_smooth.title.find("last4runs"), std::string::npos)
      << hs_smooth.title;

  MatrixOptions agg = small_matrix("aggregation:rounds=20", "static");
  const FigureReport agg_report = run_matrix(agg);
  EXPECT_NE(agg_report.title.find("20-round epochs"), std::string::npos)
      << agg_report.title;
  EXPECT_NE(agg_report.params.find("rounds_per_epoch=20"), std::string::npos)
      << agg_report.params;
}

TEST(Matrix, UnknownEstimatorOrScenarioIsAHardError) {
  EXPECT_THROW((void)run_matrix(small_matrix("sample_colide", "static")),
               std::invalid_argument);
  EXPECT_THROW((void)run_matrix(small_matrix("sample_collide", "statics")),
               std::invalid_argument);
}

TEST(Matrix, ReportIsDeterministicPerSeed) {
  const FigureReport a = run_matrix(small_matrix("flat_polling", "shrinking"));
  const FigureReport b = run_matrix(small_matrix("flat_polling", "shrinking"));
  ASSERT_EQ(a.raw_rows.size(), b.raw_rows.size());
  for (std::size_t i = 0; i < a.raw_rows.size(); ++i) {
    for (std::size_t c = 0; c < a.raw_rows[i].size(); ++c) {
      EXPECT_DOUBLE_EQ(a.raw_rows[i][c], b.raw_rows[i][c]);
    }
  }
}

}  // namespace
}  // namespace p2pse::harness
