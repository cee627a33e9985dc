#include "p2pse/obs/trace_log.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

namespace p2pse::obs {
namespace {

TEST(TraceLog, DefaultSpanIsInert) {
  {
    Span inert;
    (void)inert;
  }  // no log attached: destruction must not crash or record anywhere
  SUCCEED();
}

TEST(TraceLog, SpanRecordsOnDestruction) {
  TraceLog log;
  EXPECT_EQ(log.size(), 0u);
  {
    const Span span = log.span("graph-build", 1);
    (void)span;
    EXPECT_EQ(log.size(), 0u);  // open spans are not yet records
  }
  EXPECT_EQ(log.size(), 1u);
}

TEST(TraceLog, MoveAssignFinishesTheOverwrittenSpan) {
  // The harness closes spans early with `span = obs::Span{};` — the
  // moved-onto span must record at that point, not at scope exit.
  TraceLog log;
  Span span = log.span("early", 0);
  span = Span{};
  EXPECT_EQ(log.size(), 1u);
  span = Span{};  // inert-on-inert: nothing new
  EXPECT_EQ(log.size(), 1u);
}

TEST(TraceLog, MoveConstructTransfersOwnershipOnce) {
  TraceLog log;
  {
    Span original = log.span("moved", 2);
    const Span stolen = std::move(original);
    (void)stolen;
  }  // only the stolen span records; the hollowed-out original stays silent
  EXPECT_EQ(log.size(), 1u);
}

TEST(TraceLog, PhaseTotalsSumSpansByName) {
  TraceLog log;
  log.record("simulate", 1, 0, 1'500'000);
  log.record("simulate", 2, 100, 500'000);
  log.record("merge", 0, 200, 250'000);
  const auto totals = log.phase_totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_DOUBLE_EQ(totals.at("simulate"), 2.0);
  EXPECT_DOUBLE_EQ(totals.at("merge"), 0.25);
}

TEST(TraceLog, PhaseTotalsAreExclusiveOfNestedSpans) {
  TraceLog log;
  // Lane 1: simulate [0, 2.0 s) opens graph-build [0.1, 0.9 s), which
  // opens topo-embed [0.5, 0.7 s). Children record first, as RAII spans do.
  log.record("topo-embed", 1, 500'000, 200'000);
  log.record("graph-build", 1, 100'000, 800'000);
  log.record("simulate", 1, 0, 2'000'000);
  // Lane 2 overlaps lane 1 in time but is never nested in it.
  log.record("simulate", 2, 50'000, 1'000'000);
  // Two concurrent shard spans on lane 3 inside one parent: their shared
  // time [0.2, 0.3 s) comes out of the parent once.
  log.record("sim-shard-0", 3, 100'000, 200'000);
  log.record("sim-shard-1", 3, 200'000, 200'000);
  log.record("build", 3, 0, 500'000);
  // A sibling that starts as the previous span ends is not its child.
  log.record("merge", 0, 0, 100'000);
  log.record("write", 0, 100'000, 50'000);
  const auto totals = log.phase_totals();
  EXPECT_DOUBLE_EQ(totals.at("simulate"), 1.2 + 1.0);
  EXPECT_DOUBLE_EQ(totals.at("graph-build"), 0.6);
  EXPECT_DOUBLE_EQ(totals.at("topo-embed"), 0.2);
  EXPECT_DOUBLE_EQ(totals.at("build"), 0.2);
  EXPECT_DOUBLE_EQ(totals.at("merge"), 0.1);
  EXPECT_DOUBLE_EQ(totals.at("write"), 0.05);
}

TEST(TraceLog, WriteEmitsChromeTraceEventJson) {
  TraceLog log;
  log.record("graph-build", 1, 10, 42);
  std::ostringstream out;
  log.write(out);
  const std::string json = out.str();
  EXPECT_EQ(json,
            "{\"traceEvents\":[{\"name\":\"graph-build\",\"ph\":\"X\","
            "\"pid\":1,\"tid\":1,\"ts\":10,\"dur\":42}],"
            "\"displayTimeUnit\":\"ms\"}\n");
}

TEST(TraceLog, WriteEscapesSpanNames) {
  TraceLog log;
  log.record("weird\"name\n", 0, 0, 1);
  std::ostringstream out;
  log.write(out);
  EXPECT_NE(out.str().find("\\\"name\\n"), std::string::npos);
}

}  // namespace
}  // namespace p2pse::obs
