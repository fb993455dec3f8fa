#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "math/rng.hpp"
#include "math/stats.hpp"

namespace {

using resloc::math::Rng;

TEST(Rng, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  std::vector<double> draws;
  for (int i = 0; i < 20000; ++i) draws.push_back(rng.uniform());
  EXPECT_NEAR(resloc::math::mean(draws), 0.5, 0.01);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(15);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  std::vector<double> draws;
  for (int i = 0; i < 50000; ++i) draws.push_back(rng.gaussian(2.0, 3.0));
  EXPECT_NEAR(resloc::math::mean(draws), 2.0, 0.08);
  EXPECT_NEAR(resloc::math::stddev(draws), 3.0, 0.08);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  std::vector<double> draws;
  for (int i = 0; i < 50000; ++i) draws.push_back(rng.exponential(2.0));
  EXPECT_NEAR(resloc::math::mean(draws), 0.5, 0.02);
  for (double d : draws) EXPECT_GE(d, 0.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(25);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(27);
  const auto sample = rng.sample_indices(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t idx : sample) EXPECT_LT(idx, 100u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.split();
  // Child stream should not replay the parent's continuation.
  Rng parent_copy(31);
  Rng child_copy = parent_copy.split();
  int same_as_parent = 0;
  for (int i = 0; i < 64; ++i) {
    const auto c = child.next_u32();
    EXPECT_EQ(c, child_copy.next_u32());  // but still deterministic
    if (c == parent.next_u32()) ++same_as_parent;
  }
  EXPECT_LT(same_as_parent, 4);
}

TEST(Rng, SampleIndicesClampsOversizedRequest) {
  Rng rng(29);
  const auto sample = rng.sample_indices(5, 50);
  EXPECT_EQ(sample.size(), 5u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);  // no duplicate padding
}

TEST(Rng, ForkIsDeterministicAndOrderIndependent) {
  const Rng master(101);
  Rng a = master.fork(7);
  // Forking other indices first (even from another copy) must not matter.
  Rng master2(101);
  master2.fork(3);
  master2.fork(12345);
  Rng b = master2.fork(7);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng forked(55);
  Rng untouched(55);
  forked.fork(0);
  forked.fork(99);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(forked.next_u32(), untouched.next_u32());
  }
}

TEST(Rng, ForkedStreamsAreDecorrelated) {
  const Rng master(202);
  // Adjacent indices -- the hardest case for a counter-based scheme -- must
  // produce streams that neither collide nor track each other.
  for (std::uint64_t idx : {0ULL, 1ULL, 2ULL, 1000ULL}) {
    Rng a = master.fork(idx);
    Rng b = master.fork(idx + 1);
    int same = 0;
    std::vector<double> draws_a, draws_b;
    for (int i = 0; i < 2000; ++i) {
      const auto ua = a.next_u32();
      const auto ub = b.next_u32();
      if (ua == ub) ++same;
      draws_a.push_back(static_cast<double>(ua));
      draws_b.push_back(static_cast<double>(ub));
    }
    EXPECT_LT(same, 4);
    // Pearson correlation of the raw outputs should be ~0.
    const double ma = resloc::math::mean(draws_a);
    const double mb = resloc::math::mean(draws_b);
    double cov = 0.0;
    for (std::size_t i = 0; i < draws_a.size(); ++i) {
      cov += (draws_a[i] - ma) * (draws_b[i] - mb);
    }
    cov /= static_cast<double>(draws_a.size());
    const double corr =
        cov / (resloc::math::stddev(draws_a) * resloc::math::stddev(draws_b));
    EXPECT_LT(std::abs(corr), 0.08) << "index " << idx;
  }
}

TEST(Rng, ForkDiffersFromParentContinuation) {
  Rng parent(303);
  Rng child = parent.fork(0);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u32() == parent.next_u32()) ++same;
  }
  EXPECT_LT(same, 4);
}

// --- skip_gaussian / skip_exponential: lazy draws are stream-identical ---

/// Bitwise double equality (NaN-safe, -0 != +0).
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

TEST(RngSkip, AnyInterleavingMatchesEagerDraws) {
  // The lazy generator skips where the eager one draws and discards; every
  // value both read must be the same double, and both must end in the same
  // state, Box-Muller cache included.
  for (int trial = 0; trial < 300; ++trial) {
    Rng script(trial, 3);
    Rng lazy(1000 + trial, 9);
    Rng eager(1000 + trial, 9);
    for (int step = 0; step < 80; ++step) {
      switch (script.uniform_int(0, 6)) {
        case 0: {
          const double mean = script.uniform(-2.0, 2.0);
          const double sigma = script.uniform(0.0, 3.0);
          ASSERT_TRUE(same_bits(lazy.gaussian(mean, sigma), eager.gaussian(mean, sigma)))
              << "trial=" << trial << " step=" << step;
          break;
        }
        case 1:
          lazy.skip_gaussian();
          eager.gaussian();
          break;
        case 2: {
          const double lambda = script.uniform(0.1, 40.0);
          ASSERT_TRUE(same_bits(lazy.exponential(lambda), eager.exponential(lambda)))
              << "trial=" << trial << " step=" << step;
          break;
        }
        case 3:
          lazy.skip_exponential();
          eager.exponential(1.0);
          break;
        case 4: {
          const auto n = static_cast<std::size_t>(script.uniform_int(0, 5));
          std::vector<double> a(n), b(n);
          lazy.fill_gaussian_block(a.data(), n);
          eager.fill_gaussian_block(b.data(), n);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(same_bits(a[i], b[i])) << "trial=" << trial << " step=" << step;
          }
          break;
        }
        case 5:
          ASSERT_EQ(lazy.uniform_bits(), eager.uniform_bits());
          break;
        default: {
          // A copy carries any pending half; continue on the copy.
          const Rng copy = lazy;
          lazy = copy;
          break;
        }
      }
    }
    ASSERT_TRUE(same_bits(lazy.gaussian(), eager.gaussian())) << "trial=" << trial;
    ASSERT_TRUE(same_bits(lazy.gaussian(), eager.gaussian())) << "trial=" << trial;
    ASSERT_EQ(lazy.uniform_bits(), eager.uniform_bits()) << "trial=" << trial;
  }
}

TEST(RngSkip, PendingHalfSurvivesCopy) {
  for (int seed = 0; seed < 50; ++seed) {
    Rng eager(seed, 4);
    eager.gaussian();
    const double second = eager.gaussian();

    Rng lazy(seed, 4);
    lazy.skip_gaussian();  // the pair's second half is left pending
    Rng copy = lazy;
    Rng assigned(7, 7);
    assigned = lazy;
    // Uniform draws do not touch the pending half.
    EXPECT_EQ(copy.uniform_bits(), assigned.uniform_bits());
    lazy.uniform_bits();
    EXPECT_TRUE(same_bits(copy.gaussian(), second)) << "seed=" << seed;
    EXPECT_TRUE(same_bits(assigned.gaussian(), second)) << "seed=" << seed;
    EXPECT_TRUE(same_bits(lazy.gaussian(), second)) << "seed=" << seed;
    eager.uniform_bits();
    const std::uint64_t next = eager.uniform_bits();
    EXPECT_EQ(lazy.uniform_bits(), next);
    EXPECT_EQ(copy.uniform_bits(), next);
    EXPECT_EQ(assigned.uniform_bits(), next);
  }
}

TEST(RngSkip, SkipConsumesACachedHalf) {
  Rng lazy(11, 2);
  Rng eager(11, 2);
  EXPECT_TRUE(same_bits(lazy.gaussian(), eager.gaussian()));
  lazy.skip_gaussian();  // the cached second half, no new pair
  eager.gaussian();
  EXPECT_EQ(lazy.uniform_bits(), eager.uniform_bits());
  EXPECT_TRUE(same_bits(lazy.gaussian(), eager.gaussian()));
}

}  // namespace
