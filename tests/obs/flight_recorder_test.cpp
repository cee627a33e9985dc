#include "p2pse/obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace p2pse::obs {
namespace {

using Kind = sim::FlightSink::Kind;

TEST(FlightRecorder, RejectsZeroCapacity) {
  EXPECT_THROW(FlightRecorder(0), std::invalid_argument);
}

TEST(FlightRecorder, RingKeepsTheMostRecentEventsOldestFirst) {
  FlightRecorder recorder(3);
  for (int i = 0; i < 5; ++i) {
    recorder.record(static_cast<double>(i), Kind::kSend, net::NodeId(i),
                    sim::MessageClass::kWalkStep);
  }
  EXPECT_EQ(recorder.capacity(), 3u);
  EXPECT_EQ(recorder.recorded(), 5u);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events[0].time, 2.0);
  EXPECT_DOUBLE_EQ(events[1].time, 3.0);
  EXPECT_DOUBLE_EQ(events[2].time, 4.0);
  EXPECT_EQ(events[2].node, net::NodeId{4});
}

TEST(FlightRecorder, ToJsonCarriesSchemaAndEventFields) {
  FlightRecorder recorder(4);
  recorder.record(1.5, Kind::kSend, net::NodeId{7},
                  sim::MessageClass::kSampleReply);
  recorder.record(2.0, Kind::kNote, net::kInvalidNode,
                  sim::MessageClass::kControl);
  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("\"schema\":\"p2pse-flight\""), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":2"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"send\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"note\""), std::string::npos);
  EXPECT_NE(json.find("\"class\":\"sample_reply\""), std::string::npos);
  EXPECT_NE(json.find("\"node\":7"), std::string::npos);
  // kInvalidNode renders as null, not a sentinel integer.
  EXPECT_NE(json.find("\"node\":null"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(FlightRecorder, DumpWritesTheJsonDocument) {
  FlightRecorder recorder(2);
  recorder.record(0.5, Kind::kNote, net::NodeId{1},
                  sim::MessageClass::kControl);
  const std::string path = testing::TempDir() + "p2pse_flight_test.json";
  ASSERT_TRUE(recorder.dump(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), recorder.to_json());
  std::remove(path.c_str());
}

TEST(FlightRecorder, DumpToUnwritablePathReturnsFalse) {
  FlightRecorder recorder(2);
  EXPECT_FALSE(recorder.dump("/nonexistent-dir/p2pse-flight.json"));
}

}  // namespace
}  // namespace p2pse::obs
