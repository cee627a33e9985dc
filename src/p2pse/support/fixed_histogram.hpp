#pragma once
// Fixed-bucket histogram for the deterministic run-stats path. Unlike
// obs::Histogram (registry convenience, carries a double `sum`), this one
// holds ONLY merge-order-invariant state: u64 bucket counts. Replica blocks
// merge in thread-completion order, and double addition is not commutative
// in floating point — so a histogram that must be byte-identical across
// --threads carries no floating-point accumulator at all.
//
// `bounds` are ascending upper edges; an observation lands in the first
// bucket whose bound is >= the value, or in the overflow bucket past the
// last edge. NaN compares greater than no edge, so it lands in bucket 0.
// Two histograms merge only when their bounds match exactly — the
// canonical bounds are compile-time constants (sim/run_recorder.hpp), so a
// mismatch is a programming error, reported loudly.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace p2pse::support {

class FixedHistogram {
 public:
  /// An empty histogram (no bounds, one overflow bucket). Placeholder for
  /// containers; merging into it adopts the other side's bounds.
  FixedHistogram() : buckets_(1, 0) {}

  /// `upper_bounds` must be strictly ascending (throws otherwise).
  explicit FixedHistogram(std::vector<double> upper_bounds);

  /// With strictly ascending bounds, the number of edges below the value
  /// is the index of the first edge >= it, so the count needs no
  /// data-dependent branch. A value at or below the first edge (every
  /// delay of an ideal channel) skips the count on one test, which is
  /// well predicted because a run's values mostly fall on one side of it.
  void observe(double value) noexcept {
    std::size_t bucket = 0;
    if (!bounds_.empty() && value > bounds_.front()) {
      for (const double bound : bounds_) {
        bucket += static_cast<std::size_t>(value > bound);
      }
    }
    ++buckets_[bucket];
    ++count_;
  }

  /// Elementwise bucket/count addition. Commutative and associative, so
  /// merged totals are invariant under replica completion order. Throws
  /// std::logic_error when the bounds differ (and neither side is empty).
  FixedHistogram& operator+=(const FixedHistogram& other);

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  [[nodiscard]] bool operator==(const FixedHistogram& other) const noexcept {
    return bounds_ == other.bounds_ && buckets_ == other.buckets_ &&
           count_ == other.count_;
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

}  // namespace p2pse::support
