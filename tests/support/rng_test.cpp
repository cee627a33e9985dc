#include "p2pse/support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include "p2pse/support/stats.hpp"

namespace p2pse::support {
namespace {

TEST(Xoshiro256, IsDeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DiffersAcrossSeeds) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Xoshiro256, SurvivesZeroSeed) {
  Xoshiro256 rng(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng());
  EXPECT_GT(seen.size(), 95u);  // not stuck
}

TEST(SplitMix64, MatchesReferenceVector) {
  // Reference values for seed 1234567 from the public-domain splitmix64.c.
  std::uint64_t state = 1234567;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  EXPECT_NE(first, second);
  // Determinism of the full pipeline.
  std::uint64_t replay = 1234567;
  EXPECT_EQ(first, splitmix64(replay));
  EXPECT_EQ(second, splitmix64(replay));
}

TEST(Fnv1a, KnownValues) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_NE(fnv1a("graph"), fnv1a("churn"));
}

TEST(RngStream, UniformU64RespectsBound) {
  RngStream rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(RngStream, UniformU64BoundOneIsAlwaysZero) {
  RngStream rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_u64(1), 0u);
}

TEST(RngStream, UniformU64ZeroBoundReturnsZero) {
  RngStream rng(7);
  EXPECT_EQ(rng.uniform_u64(0), 0u);
}

TEST(RngStream, UniformU64IsRoughlyUniform) {
  RngStream rng(99);
  constexpr std::size_t kBuckets = 16;
  constexpr std::size_t kDraws = 160000;
  std::vector<std::uint64_t> counts(kBuckets, 0);
  for (std::size_t i = 0; i < kDraws; ++i) ++counts[rng.uniform_u64(kBuckets)];
  const double chi2 = chi_square_uniform(counts);
  // df = 15; P(chi2 > 40) < 0.001.
  EXPECT_LT(chi2, 40.0);
}

TEST(RngStream, UniformIntCoversInclusiveRange) {
  RngStream rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngStream, UniformIntDegenerateRange) {
  RngStream rng(5);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
  EXPECT_EQ(rng.uniform_int(9, 2), 9);  // lo >= hi returns lo
}

TEST(RngStream, UniformRealInUnitInterval) {
  RngStream rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngStream, UniformRealOpen0NeverZero) {
  RngStream rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real_open0();
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(RngStream, UniformRealRange) {
  RngStream rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.uniform_real(10.0, 20.0);
    EXPECT_GE(v, 10.0);
    EXPECT_LT(v, 20.0);
    stats.add(v);
  }
  EXPECT_NEAR(stats.mean(), 15.0, 0.1);
}

TEST(RngStream, BernoulliEdgeCases) {
  RngStream rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(RngStream, BernoulliMatchesProbability) {
  RngStream rng(19);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.25, 0.01);
}

TEST(RngStream, ExponentialHasCorrectMean) {
  RngStream rng(23);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(RngStream, ExponentialNonPositiveRateIsInfinite) {
  RngStream rng(23);
  EXPECT_TRUE(std::isinf(rng.exponential(0.0)));
  EXPECT_TRUE(std::isinf(rng.exponential(-1.0)));
}

TEST(RngStream, SplitStreamsAreIndependentAndDeterministic) {
  const RngStream root(42);
  RngStream a1 = root.split("alpha");
  RngStream a2 = root.split("alpha");
  RngStream b = root.split("beta");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a1.next_u64(), a2.next_u64());
  RngStream a3 = root.split("alpha");
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a3.next_u64() == b.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(RngStream, SplitByIndexDiffers) {
  const RngStream root(42);
  RngStream s0 = root.split("replica", 0);
  RngStream s1 = root.split("replica", 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (s0.next_u64() == s1.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(RngStream, SplitDoesNotPerturbParent) {
  RngStream a(7), b(7);
  (void)a.split("anything");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngStream, ShufflePreservesMultiset) {
  RngStream rng(31);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.shuffle(std::span<int>(shuffled));
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngStream, SampleWithoutReplacementBasics) {
  RngStream rng(37);
  const auto sample = rng.sample_without_replacement(100, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const std::size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngStream, SampleWithoutReplacementFullDraw) {
  RngStream rng(37);
  auto sample = rng.sample_without_replacement(12, 12);
  std::sort(sample.begin(), sample.end());
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngStream, SampleWithoutReplacementEmpty) {
  RngStream rng(37);
  EXPECT_TRUE(rng.sample_without_replacement(5, 0).empty());
  EXPECT_TRUE(rng.sample_without_replacement(0, 0).empty());
}

TEST(RngStream, SampleWithoutReplacementRejectsOverdraw) {
  RngStream rng(37);
  EXPECT_THROW((void)rng.sample_without_replacement(3, 4),
               std::invalid_argument);
}

TEST(RngStream, SampleWithoutReplacementIsUniform) {
  RngStream rng(41);
  std::vector<std::uint64_t> counts(20, 0);
  for (int round = 0; round < 20000; ++round) {
    for (const std::size_t s : rng.sample_without_replacement(20, 3)) {
      ++counts[s];
    }
  }
  // Each index expected 3000 times; chi2 with df=19, P(>50) < 1e-4.
  EXPECT_LT(chi_square_uniform(counts), 50.0);
}

// --- sample_without_replacement goldens -------------------------------------
// Recorded from the allocating implementation (an unordered_set for Floyd's
// branch, an n-sized pool for the dense branch) that the allocation-free
// span form replaced. Both the values, in order, and the draws consumed
// (the stream's next u64 afterwards) must stay put: HopsSampling's gossip
// targets, and so every HS figure, depend on them.

struct SampleGolden {
  std::uint64_t seed;
  std::size_t n;
  std::vector<std::size_t> picks;
  std::uint64_t next;  ///< next_u64() after the sample
};

const std::vector<SampleGolden>& sample_goldens() {
  static const std::vector<SampleGolden> goldens = {
      // Floyd's branch (4k <= n); 40 = 4 * 10 is its edge.
      {7, 40, {26, 10, 33}, 0xfb2938731e807240ULL},
      {7, 40, {21, 8, 27, 33, 34, 31, 2, 3, 15, 6}, 0x8a971122d61f6197ULL},
      {11, 37, {6, 2, 7, 14, 32, 10, 17, 35, 23}, 0x3aa71a36aaba2387ULL},
      {3, 9, {5, 8}, 0x37e00afb3229fd51ULL},
      // Dense branch (partial Fisher-Yates).
      {7, 12, {8, 4, 10, 11, 3}, 0xdf6e1ce3b6218c49ULL},
      {13, 16, {3, 12, 15, 4, 11, 9, 7, 1, 6, 8, 13, 10, 2, 0, 14, 5},
       0xc5c6e3e6bcbc9c1bULL},
      {5, 39, {11, 23, 26, 32, 22, 31, 4, 3, 19, 20, 38, 18, 21, 7, 28, 35},
       0xae450c5d6e8f17e5ULL},
      {21, 2, {0}, 0xce85619758d07de3ULL},
  };
  return goldens;
}

TEST(RngStream, SampleWithoutReplacementMatchesGoldens) {
  for (const SampleGolden& golden : sample_goldens()) {
    SCOPED_TRACE(::testing::Message()
                 << "seed " << golden.seed << " n " << golden.n << " k "
                 << golden.picks.size());
    RngStream span_rng(golden.seed);
    std::vector<std::size_t> picks(golden.picks.size());
    span_rng.sample_without_replacement(golden.n, std::span(picks));
    EXPECT_EQ(picks, golden.picks);
    EXPECT_EQ(span_rng.next_u64(), golden.next);

    RngStream vector_rng(golden.seed);
    EXPECT_EQ(vector_rng.sample_without_replacement(golden.n,
                                                    golden.picks.size()),
              golden.picks);
    EXPECT_EQ(vector_rng.next_u64(), golden.next);
  }
}

/// FNV-1a over the little-endian bytes of `value`.
std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffU;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(RngStream, SampleWithoutReplacementGridDigest) {
  // Every (seed, n <= 40, k <= min(n, 16)): both branches, every k/n ratio
  // a gossip fanout hits. One digest over (n, k, picks, next u64) per case.
  constexpr std::uint64_t kGolden = 0xf4bbe9485af19f90ULL;
  std::uint64_t span_digest = 0xcbf29ce484222325ULL;
  std::uint64_t vector_digest = span_digest;
  std::size_t cases = 0;
  for (const std::uint64_t seed : {1, 2, 3, 42}) {
    for (std::size_t n = 0; n <= 40; ++n) {
      for (std::size_t k = 0; k <= std::min<std::size_t>(n, 16); ++k) {
        const std::uint64_t case_seed = seed * 1000 + n * 17 + k;
        RngStream span_rng(case_seed);
        std::vector<std::size_t> picks(k);
        span_rng.sample_without_replacement(n, std::span(picks));
        RngStream vector_rng(case_seed);
        const auto vector_picks = vector_rng.sample_without_replacement(n, k);
        const auto fold = [&](std::uint64_t& digest,
                              const std::vector<std::size_t>& values,
                              RngStream& rng) {
          digest = fnv_mix(fnv_mix(digest, n), k);
          for (const std::size_t v : values) digest = fnv_mix(digest, v);
          digest = fnv_mix(digest, rng.next_u64());
        };
        fold(span_digest, picks, span_rng);
        fold(vector_digest, vector_picks, vector_rng);
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 2244u);
  EXPECT_EQ(span_digest, kGolden);
  EXPECT_EQ(vector_digest, kGolden);
}

TEST(RngStream, SampleWithoutReplacementSpanRejectsOverdraw) {
  RngStream rng(37);
  std::vector<std::size_t> picks(4);
  EXPECT_THROW(rng.sample_without_replacement(3, std::span(picks)),
               std::invalid_argument);
}

// --- Batched draws: must consume the stream exactly like the scalar APIs ---
// (this equality is what keeps figure outputs byte-identical when a call
// site switches to the batched form).

TEST(RngStream, FillUniformMatchesScalarUniformRealStream) {
  RngStream batched(91);
  RngStream scalar(91);
  std::vector<double> out(257);  // odd size: no power-of-two alignment luck
  batched.fill_uniform(out);
  for (const double v : out) {
    EXPECT_EQ(v, scalar.uniform_real());  // bit-exact, not just close
  }
  // Both streams must be in the same state afterwards.
  EXPECT_EQ(batched.next_u64(), scalar.next_u64());
}

TEST(RngStream, FillUniformRangeMatchesScalarStream) {
  RngStream batched(92);
  RngStream scalar(92);
  std::vector<double> out(64);
  batched.fill_uniform(out, -3.0, 17.0);
  for (const double v : out) {
    EXPECT_EQ(v, scalar.uniform_real(-3.0, 17.0));
  }
  EXPECT_EQ(batched.next_u64(), scalar.next_u64());
}

TEST(RngStream, BoundedBatchMatchesScalarUniformU64Stream) {
  RngStream batched(93);
  RngStream scalar(93);
  std::vector<std::uint64_t> out(200);
  // A non-power-of-two bound exercises Lemire rejection resampling.
  batched.bounded_batch(out, 10007);
  for (const std::uint64_t v : out) {
    EXPECT_EQ(v, scalar.uniform_u64(10007));
    EXPECT_LT(v, 10007u);
  }
  EXPECT_EQ(batched.next_u64(), scalar.next_u64());
}

TEST(RngStream, BoundedBatchWithZeroBoundFillsZerosWithoutDrawing) {
  RngStream batched(94);
  RngStream untouched(94);
  std::vector<std::uint64_t> out(16, 77);
  batched.bounded_batch(out, 0);
  for (const std::uint64_t v : out) EXPECT_EQ(v, 0u);
  // Degenerate bound consumes nothing, like the scalar uniform_u64(0).
  EXPECT_EQ(batched.next_u64(), untouched.next_u64());
}

TEST(RngStream, FillUniformOnEmptySpanIsANoOp) {
  RngStream batched(95);
  RngStream untouched(95);
  batched.fill_uniform(std::span<double>{});
  batched.bounded_batch(std::span<std::uint64_t>{}, 42);
  EXPECT_EQ(batched.next_u64(), untouched.next_u64());
}

TEST(RngStream, PickReturnsContainedElement) {
  RngStream rng(43);
  const std::vector<int> v{5, 6, 7};
  for (int i = 0; i < 100; ++i) {
    const int p = rng.pick(std::span<const int>(v));
    EXPECT_TRUE(p == 5 || p == 6 || p == 7);
  }
}

}  // namespace
}  // namespace p2pse::support
