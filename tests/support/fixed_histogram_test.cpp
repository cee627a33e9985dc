#include "p2pse/support/fixed_histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

namespace p2pse::support {
namespace {

TEST(FixedHistogram, DefaultIsEmptyPlaceholder) {
  const FixedHistogram h;
  EXPECT_TRUE(h.bounds().empty());
  ASSERT_EQ(h.buckets().size(), 1u);
  EXPECT_EQ(h.buckets()[0], 0u);
  EXPECT_EQ(h.count(), 0u);
}

TEST(FixedHistogram, BoundsMustBeStrictlyAscending) {
  EXPECT_THROW(FixedHistogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(FixedHistogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_NO_THROW(FixedHistogram({1.0, 2.0, 3.0}));
}

TEST(FixedHistogram, ObserveBucketsByInclusiveUpperEdgeWithOverflow) {
  FixedHistogram h({1.0, 10.0, 100.0});
  h.observe(0.5);     // bucket 0
  h.observe(1.0);     // bucket 0 (edge inclusive)
  h.observe(7.0);     // bucket 1
  h.observe(100.0);   // bucket 2
  h.observe(1000.0);  // overflow
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
}

/// The bucket the first-edge-not-below scan picks: the reference the
/// branchless lookup must agree with.
std::size_t scanned_bucket(const std::vector<double>& bounds, double value) {
  std::size_t bucket = 0;
  while (bucket < bounds.size() && value > bounds[bucket]) ++bucket;
  return bucket;
}

std::size_t observed_bucket(const std::vector<double>& bounds, double value) {
  FixedHistogram h(bounds);
  h.observe(value);
  for (std::size_t i = 0; i < h.buckets().size(); ++i) {
    if (h.buckets()[i] == 1) return i;
  }
  return h.buckets().size();
}

TEST(FixedHistogram, ValueEqualToEachBoundLandsInThatBucket) {
  const std::vector<double> bounds = {0, 1, 5, 10, 25, 50, 100, 250};
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_EQ(observed_bucket(bounds, bounds[i]), i) << bounds[i];
  }
}

TEST(FixedHistogram, ExtremeAndNanValues) {
  const std::vector<double> bounds = {0, 1, 5, 10};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double huge = std::numeric_limits<double>::max();
  EXPECT_EQ(observed_bucket(bounds, -0.5), 0u);  // below the first edge
  EXPECT_EQ(observed_bucket(bounds, -inf), 0u);
  EXPECT_EQ(observed_bucket(bounds, 10.5), 4u);  // above the last: overflow
  EXPECT_EQ(observed_bucket(bounds, inf), 4u);
  EXPECT_EQ(observed_bucket(bounds, huge), 4u);
  // NaN compares greater than no edge: bucket 0, as the scan put it.
  EXPECT_EQ(observed_bucket(bounds, nan), 0u);
  EXPECT_EQ(observed_bucket({}, 3.0), 0u);  // no edges: overflow only
}

TEST(FixedHistogram, BranchlessLookupAgreesWithTheScan) {
  const std::vector<double> bounds = {0, 1, 5, 10, 25, 50, 100, 250, 500};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::min();
  std::vector<double> values = {-inf, inf, nan, -0.0, tiny};
  for (const double b : bounds) {
    values.push_back(b);
    values.push_back(std::nextafter(b, -inf));
    values.push_back(std::nextafter(b, inf));
  }
  for (const double v : values) {
    EXPECT_EQ(observed_bucket(bounds, v), scanned_bucket(bounds, v)) << v;
  }
}

TEST(FixedHistogram, MergeIsCommutative) {
  FixedHistogram a({1.0, 10.0});
  a.observe(0.5);
  a.observe(5.0);
  FixedHistogram b({1.0, 10.0});
  b.observe(50.0);
  b.observe(0.25);

  FixedHistogram ab = a;
  ab += b;
  FixedHistogram ba = b;
  ba += a;
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.count(), 4u);
  EXPECT_EQ(ab.buckets()[0], 2u);
  EXPECT_EQ(ab.buckets()[1], 1u);
  EXPECT_EQ(ab.buckets()[2], 1u);
}

TEST(FixedHistogram, MergeWithEmptyAdoptsOrKeeps) {
  FixedHistogram filled({1.0, 10.0});
  filled.observe(3.0);

  FixedHistogram adopt;  // empty placeholder
  adopt += filled;
  EXPECT_EQ(adopt, filled);

  FixedHistogram keep = filled;
  keep += FixedHistogram{};
  EXPECT_EQ(keep, filled);
}

TEST(FixedHistogram, MergeRejectsMismatchedBounds) {
  FixedHistogram a({1.0, 10.0});
  FixedHistogram b({1.0, 20.0});
  a.observe(2.0);
  b.observe(2.0);
  EXPECT_THROW(a += b, std::logic_error);
}

}  // namespace
}  // namespace p2pse::support
