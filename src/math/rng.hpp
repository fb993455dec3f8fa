// Deterministic random number generation.
//
// Every stochastic component in the reproduction (acoustic noise, deployment
// jitter, gradient-descent restarts, synthetic measurement errors) draws from
// an explicitly seeded generator so that every experiment, test, and bench is
// bit-reproducible. We implement PCG32 (O'Neill, 2014) from scratch: it is
// tiny, fast, statistically solid, and has well-defined cross-platform output,
// unlike std::default_random_engine. Distribution sampling is also hand-rolled
// (Box-Muller for Gaussians) because libstdc++'s std::normal_distribution is
// not guaranteed to produce identical streams across versions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace resloc::math {

/// PCG32 pseudo-random generator (XSH-RR variant), 64-bit state.
class Rng {
 public:
  /// Seeds the generator. `stream` selects one of 2^63 independent sequences.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL, std::uint64_t stream = 1);

  /// Next raw 32-bit output.
  std::uint32_t next_u32();

  /// The 53-bit integer behind uniform(): uniform() == uniform_bits() * 2^-53
  /// exactly (the conversion is a power-of-two scaling of an integer below
  /// 2^53, so it is lossless). Block kernels compare these integers against
  /// precomputed bernoulli_threshold() values to keep their inner loops free
  /// of floating point while drawing the identical stream.
  std::uint64_t uniform_bits();

  /// Integer form of a Bernoulli comparison:
  ///     uniform() < p   <=>   uniform_bits() < bernoulli_threshold(p)
  /// for every double p. For p in (0, 1), p * 2^53 is exact (power-of-two
  /// scaling), so ceil(p * 2^53) splits the 53-bit lattice at exactly the
  /// same point the double comparison does. A NaN p gives 0, since
  /// uniform() < NaN never holds.
  static std::uint64_t bernoulli_threshold(double p);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive), using rejection for exactness.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Gaussian sample with the given mean and standard deviation (Box-Muller).
  double gaussian(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial with success probability `p`.
  bool bernoulli(double p);

  /// Exponential sample with the given rate parameter lambda.
  double exponential(double lambda);

  /// Advances the stream exactly as gaussian() would -- the same u1 <= 0
  /// rejection loop and the same Box-Muller pair bookkeeping -- without
  /// computing the value. A pending cached half is consumed; otherwise the
  /// new pair's second half stays pending as its (u1, u2) and is computed,
  /// with the same expression gaussian() uses, only if a later gaussian()
  /// reads it. For draws whose value cannot matter to the caller.
  void skip_gaussian();

  /// Advances the stream exactly as exponential() would, without the log.
  void skip_exponential();

  /// Writes the high 32-bit word of each of the next `n` uniform_bits()
  /// draws to `out` and leaves the generator where n sequential draws would
  /// (2n raw steps). A draw is uniform_bits() == (hi << 21) | (lo >> 11) for
  /// its two raw outputs, so against any threshold t the high word alone
  /// decides uniform_bits() < t unless hi == high_word_threshold(t); see
  /// high_word_threshold. Internally 64 jump-ahead lanes carry only the even
  /// raw states, so each draw costs one LCG step on the lane plus one output
  /// permutation, and the lanes' multiplies form enough independent chains
  /// to keep the multiplier busy instead of waiting on its latency.
  void fill_high_words_block(std::uint32_t* out, std::size_t n);

  /// The 32-bit cut of a bernoulli_threshold() value `t` against a draw's
  /// high word hi: hi < cut implies uniform_bits() < t, hi > cut implies the
  /// opposite, and hi == cut leaves the low word to decide. t >= 2^53 (p >= 1)
  /// saturates to 0xFFFFFFFF, whose tie the full draw resolves as a fire.
  static std::uint32_t high_word_threshold(std::uint64_t t) {
    return t >= (std::uint64_t{1} << 53) ? 0xFFFFFFFFu : static_cast<std::uint32_t>(t >> 21);
  }

  /// The affine map of a number of raw steps, state -> mul * state +
  /// add_per_inc * inc. It depends on the step count alone, not on the seed
  /// or stream, so one Jump serves any generator, any number of times.
  struct Jump {
    std::uint64_t mul = 1;
    std::uint64_t add_per_inc = 0;
  };

  /// The Jump of `steps` raw next_u32() steps, in O(log steps):
  /// square-and-multiply over the affine map (Brown, "Random number
  /// generation with arbitrary strides", 1994).
  static constexpr Jump jump(std::uint64_t steps) {
    Jump acc;
    Jump cur{kMultiplier, 1};
    for (; steps > 0; steps >>= 1) {
      if (steps & 1u) {
        acc.mul *= cur.mul;
        acc.add_per_inc = acc.add_per_inc * cur.mul + cur.add_per_inc;
      }
      cur.add_per_inc *= cur.mul + 1;
      cur.mul *= cur.mul;
    }
    return acc;
  }

  /// Jumps the generator over `j`'s raw steps (a draw of uniform_bits() is
  /// two). The Box-Muller cache (value or pending half) is left as it is.
  void advance(const Jump& j) { state_ = j.mul * state_ + j.add_per_inc * inc_; }

  /// advance(jump(steps)).
  void advance(std::uint64_t steps) { advance(jump(steps)); }

  /// Writes exactly the next `n` gaussian(0, 1) draws to `out`, including the
  /// Box-Muller cached-second-normal behaviour (a cached half pending before
  /// the call is consumed first; one may be left pending after). Standard
  /// normals only: gaussian(0, sigma) == sigma * gaussian(0, 1) bit for bit,
  /// so callers scale in their own vectorizable pass.
  void fill_gaussian_block(double* out, std::size_t n);

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples `min(k, n)` distinct indices from [0, n) in random order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Derives an independent child generator; used to give each simulated node
  /// or experiment repetition its own stream without correlation.
  Rng split();

  /// Derives the `stream_index`-th substream of this generator without
  /// advancing it (SplitMix64 over the current state, the stream selector,
  /// and the index). fork(i) depends on the parent's CURRENT state -- for a
  /// freshly seeded parent that has produced no draws, that is exactly its
  /// seed material, which is how the campaign runner gets its replay recipe:
  /// Rng(seed).fork(i) is the same stream from any thread, in any order.
  /// A parent that has already drawn yields a different (still
  /// deterministic) substream family. Distinct indices are decorrelated.
  Rng fork(std::uint64_t stream_index) const;

 private:
  /// PCG32's LCG multiplier: each raw step is state -> state * kMultiplier + inc.
  static constexpr std::uint64_t kMultiplier = 6364136223846793005ULL;

  /// The Box-Muller pair's second half: none, its value, or -- after
  /// skip_gaussian() -- the pair's uniforms, not yet transformed.
  enum class Cached : std::uint8_t { kNone, kValue, kPending };

  std::uint64_t state_;
  std::uint64_t inc_;
  Cached cached_ = Cached::kNone;
  double cached_gaussian_ = 0.0;  ///< kValue: the normal; kPending: u1
  double pending_u2_ = 0.0;       ///< kPending: u2
};

}  // namespace resloc::math
