#include "p2pse/support/fixed_histogram.hpp"

#include <stdexcept>

namespace p2pse::support {

FixedHistogram::FixedHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1, 0) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i])) {
      throw std::invalid_argument(
          "FixedHistogram: bounds must be strictly ascending");
    }
  }
}

FixedHistogram& FixedHistogram::operator+=(const FixedHistogram& other) {
  if (other.bounds_.empty() && other.count_ == 0) return *this;
  if (bounds_.empty() && count_ == 0) {
    *this = other;
    return *this;
  }
  if (bounds_ != other.bounds_) {
    throw std::logic_error(
        "FixedHistogram: merging histograms with different bounds");
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  return *this;
}

}  // namespace p2pse::support
