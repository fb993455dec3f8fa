#include "math/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include "math/constants.hpp"
#include "math/rng_lanes.hpp"
#include "math/simd_dispatch.hpp"

#if RESLOC_X86_SIMD
// GCC's unary AVX-512 intrinsics pass _mm512_undefined_epi32() as the
// masked-off source operand; with a full mask that operand is never read,
// but -Wmaybe-uninitialized cannot see through the builtin and flags it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace resloc::math {

namespace {

/// PCG32 XSH-RR output permutation of a raw LCG state.
inline std::uint32_t pcg_output(std::uint64_t state) {
  const auto xorshifted = static_cast<std::uint32_t>(((state >> 18u) ^ state) >> 27u);
  const auto rot = static_cast<std::uint32_t>(state >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

/// Box-Muller's radius and angle, shared by the eager pair and the pending
/// half skip_gaussian() leaves, so a deferred value is the same double.
inline double box_muller_radius(double u1) { return std::sqrt(-2.0 * std::log(u1)); }
inline double box_muller_angle(double u2) { return 2.0 * resloc::math::kPi * u2; }

// SplitMix64 finalizer (Steele et al., 2014): a strong 64 -> 64 bit mixer
// whose outputs for consecutive inputs are statistically independent, which
// is exactly what substream derivation needs.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Lane r of every high_words variant starts at raw index 2r (the high word
/// of draw r): its state is mul[r] * state + add_per_inc[r] * inc (see
/// Rng::Jump), so the lanes are seeded with independent multiplies instead
/// of a serial chain, from constants fixed at compile time for any stream.
struct LaneJumps {
  std::uint64_t mul[detail::kHighWordLanes];
  std::uint64_t add_per_inc[detail::kHighWordLanes];
};

constexpr LaneJumps make_lane_jumps() {
  LaneJumps t{};
  for (std::size_t r = 0; r < detail::kHighWordLanes; ++r) {
    const Rng::Jump j = Rng::jump(2 * r);
    t.mul[r] = j.mul;
    t.add_per_inc[r] = j.add_per_inc;
  }
  return t;
}

constexpr LaneJumps kLaneJumps = make_lane_jumps();
/// Advances any lane by one group: 2 * kHighWordLanes raw steps.
constexpr Rng::Jump kGroupJump = Rng::jump(2 * detail::kHighWordLanes);

#if RESLOC_X86_SIMD
/// 64 x 64 -> low 64 multiply from 32-bit partial products (AVX2 has no
/// 64-bit lane multiply): lo*lo + ((hi*lo + lo*hi) << 32).
__attribute__((target("avx2")))
inline __m256i mullo64_avx2(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}
#endif  // RESLOC_X86_SIMD
}  // namespace

namespace detail {

std::uint64_t high_words_portable(std::uint64_t state, std::uint64_t inc, std::uint32_t* out,
                                  std::size_t n) {
  std::uint64_t s[kHighWordLanes];
  for (std::size_t r = 0; r < kHighWordLanes; ++r) {
    s[r] = kLaneJumps.mul[r] * state + kLaneJumps.add_per_inc[r] * inc;
  }
  const std::uint64_t jump_add = kGroupJump.add_per_inc * inc;
  std::size_t i = 0;
  for (; i + kHighWordLanes <= n; i += kHighWordLanes) {
    for (std::size_t r = 0; r < kHighWordLanes; ++r) {
      out[i + r] = pcg_output(s[r]);
      s[r] = s[r] * kGroupJump.mul + jump_add;
    }
  }
  const std::size_t tail = n - i;
  for (std::size_t r = 0; r < tail; ++r) out[i + r] = pcg_output(s[r]);
  return s[tail];  // lane `tail` sits at raw index 2n
}

#if RESLOC_X86_SIMD

/// XSH-RR of eight lane states: 64-bit shifts, a truncating narrow
/// (vpmovqd), and the per-lane 32-bit variable rotate as one vprorvd.
__attribute__((target("avx512f,avx512dq,avx512vl")))
inline __m256i pcg_output_avx512(__m512i s) {
  const __m512i x = _mm512_srli_epi64(_mm512_xor_si512(_mm512_srli_epi64(s, 18), s), 27);
  return _mm256_rorv_epi32(_mm512_cvtepi64_epi32(x),
                           _mm512_cvtepi64_epi32(_mm512_srli_epi64(s, 59)));
}

/// Eight 8-lane vectors: eight independent vpmullq chains per group, enough
/// to cover the multiply's latency (about 15 cycles), so the loop runs at the
/// vector ports' throughput instead of waiting on two chains. The tail group
/// is a masked store.
__attribute__((target("avx512f,avx512dq,avx512vl")))
std::uint64_t high_words_avx512(std::uint64_t state, std::uint64_t inc, std::uint32_t* out,
                                std::size_t n) {
  constexpr std::size_t kVecs = kHighWordLanes / 8;
  const __m512i st = _mm512_set1_epi64(static_cast<long long>(state));
  const __m512i in = _mm512_set1_epi64(static_cast<long long>(inc));
  __m512i s[kVecs];
  for (std::size_t k = 0; k < kVecs; ++k) {
    s[k] = _mm512_add_epi64(
        _mm512_mullo_epi64(st, _mm512_loadu_si512(kLaneJumps.mul + 8 * k)),
        _mm512_mullo_epi64(in, _mm512_loadu_si512(kLaneJumps.add_per_inc + 8 * k)));
  }
  const __m512i jm = _mm512_set1_epi64(static_cast<long long>(kGroupJump.mul));
  const __m512i ja = _mm512_set1_epi64(static_cast<long long>(kGroupJump.add_per_inc * inc));
  std::size_t i = 0;
  for (; i + kHighWordLanes <= n; i += kHighWordLanes) {
    for (std::size_t k = 0; k < kVecs; ++k) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 8 * k), pcg_output_avx512(s[k]));
      s[k] = _mm512_add_epi64(_mm512_mullo_epi64(s[k], jm), ja);
    }
  }
  const std::size_t tail = n - i;
  for (std::size_t k = 0; 8 * k < tail; ++k) {
    const std::size_t live = std::min<std::size_t>(tail - 8 * k, 8);
    _mm256_mask_storeu_epi32(out + i + 8 * k, static_cast<__mmask8>((1u << live) - 1),
                             pcg_output_avx512(s[k]));
  }
  alignas(64) std::uint64_t lane[8];
  _mm512_store_si512(lane, s[tail / 8]);
  return lane[tail % 8];  // lane `tail` sits at raw index 2n
}

/// XSH-RR of eight lane states held even/odd (`even` = lanes {0,2,4,6} of
/// the block, `odd` = {1,3,5,7}), so one 32-bit shift-or lays the eight
/// outputs out in lane order. The 32-bit rotate runs in the 64-bit lanes
/// with variable shifts; the rotated value still fits 32 bits.
__attribute__((target("avx2")))
inline __m256i pcg_output_avx2(__m256i even, __m256i odd) {
  const __m256i mask32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i c32 = _mm256_set1_epi64x(32);
  const __m256i c31 = _mm256_set1_epi64x(31);
  __m256i o[2];
  const __m256i v[2] = {even, odd};
  for (int k = 0; k < 2; ++k) {
    const __m256i x = _mm256_and_si256(
        _mm256_srli_epi64(_mm256_xor_si256(_mm256_srli_epi64(v[k], 18), v[k]), 27), mask32);
    const __m256i rot = _mm256_srli_epi64(v[k], 59);
    const __m256i left_count = _mm256_and_si256(_mm256_sub_epi64(c32, rot), c31);
    o[k] = _mm256_or_si256(_mm256_srlv_epi64(x, rot),
                           _mm256_and_si256(_mm256_sllv_epi64(x, left_count), mask32));
  }
  return _mm256_or_si256(o[0], _mm256_slli_epi64(o[1], 32));
}

/// Sixteen 4-lane vectors, each 8-lane block as an even/odd vector pair
/// (see pcg_output_avx2). The tail block goes through a stack buffer.
__attribute__((target("avx2")))
std::uint64_t high_words_avx2(std::uint64_t state, std::uint64_t inc, std::uint32_t* out,
                              std::size_t n) {
  constexpr std::size_t kVecs = kHighWordLanes / 4;
  const auto slot = [](std::size_t r) { return 8 * (r / 8) + 4 * (r % 2) + (r % 8) / 2; };
  alignas(32) std::uint64_t lanes[kHighWordLanes];
  for (std::size_t r = 0; r < kHighWordLanes; ++r) {
    lanes[slot(r)] = kLaneJumps.mul[r] * state + kLaneJumps.add_per_inc[r] * inc;
  }
  __m256i v[kVecs];
  for (std::size_t k = 0; k < kVecs; ++k) {
    v[k] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes + 4 * k));
  }
  const __m256i jm = _mm256_set1_epi64x(static_cast<long long>(kGroupJump.mul));
  const __m256i ja = _mm256_set1_epi64x(static_cast<long long>(kGroupJump.add_per_inc * inc));
  std::size_t i = 0;
  for (; i + kHighWordLanes <= n; i += kHighWordLanes) {
    for (std::size_t b = 0; b < kVecs / 2; ++b) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 8 * b),
                          pcg_output_avx2(v[2 * b], v[2 * b + 1]));
      v[2 * b] = _mm256_add_epi64(mullo64_avx2(v[2 * b], jm), ja);
      v[2 * b + 1] = _mm256_add_epi64(mullo64_avx2(v[2 * b + 1], jm), ja);
    }
  }
  const std::size_t tail = n - i;
  for (std::size_t b = 0; 8 * b < tail; ++b) {
    alignas(32) std::uint32_t block[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(block), pcg_output_avx2(v[2 * b], v[2 * b + 1]));
    std::memcpy(out + i + 8 * b, block, std::min<std::size_t>(tail - 8 * b, 8) * sizeof(block[0]));
  }
  for (std::size_t k = 0; k < kVecs; ++k) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4 * k), v[k]);
  }
  return lanes[slot(tail)];  // lane `tail` sits at raw index 2n
}

#endif  // RESLOC_X86_SIMD
}  // namespace detail


Rng::Rng(std::uint64_t seed, std::uint64_t stream) : state_(0), inc_((stream << 1u) | 1u) {
  next_u32();
  state_ += seed;
  next_u32();
}

std::uint32_t Rng::next_u32() {
  const std::uint64_t old = state_;
  state_ = old * kMultiplier + inc_;
  return pcg_output(old);
}

std::uint64_t Rng::uniform_bits() {
  const std::uint64_t hi = next_u32();
  const std::uint64_t lo = next_u32();
  return ((hi << 32) | lo) >> 11;
}

std::uint64_t Rng::bernoulli_threshold(double p) {
  if (!(p > 0.0)) return 0;                         // uniform() < p never holds (NaN too)
  if (p >= 1.0) return std::uint64_t{1} << 53;      // always holds (bits < 2^53)
  // p * 2^53 is exact; the proof that bits < ceil(p * 2^53) matches
  // double(bits) * 2^-53 < p splits on whether p * 2^53 is an integer, and
  // both cases agree because bits itself is an integer.
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

double Rng::uniform() {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(uniform_bits()) * 0x1.0p-53;
}

void Rng::fill_high_words_block(std::uint32_t* out, std::size_t n) {
  // Jump-ahead lanes restructure the serial multiply chain into independent
  // streams the SIMD variants map onto vector lanes. Output values AND the
  // final generator state are identical to n sequential uniform_bits()
  // calls -- the lanes only change evaluation order.
  if (n == 0) return;
#if RESLOC_X86_SIMD
  if (cpu_has_avx512_kernels()) {
    state_ = detail::high_words_avx512(state_, inc_, out, n);
    return;
  }
  if (cpu_has_avx2_kernels()) {
    state_ = detail::high_words_avx2(state_, inc_, out, n);
    return;
  }
#endif
  state_ = detail::high_words_portable(state_, inc_, out, n);
}

void Rng::fill_gaussian_block(double* out, std::size_t n) {
  // Box-Muller is libm-bound (log/sqrt/sincos per pair), so the block form is
  // the sequential draw order verbatim; the win for callers is separating the
  // standard-normal stream from the per-sample scaling/mixing, which then
  // vectorizes. gaussian(0, 1) returns the raw normal (0 + 1 * z == z except
  // for a harmless -0 -> +0 normalization), including the cached second half.
  for (std::size_t i = 0; i < n; ++i) out[i] = gaussian(0.0, 1.0);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range requested
    return static_cast<std::int64_t>((static_cast<std::uint64_t>(next_u32()) << 32) | next_u32());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ULL / range) * range;
  std::uint64_t draw;
  do {
    draw = (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % range);
}

double Rng::gaussian(double mean, double stddev) {
  if (cached_ != Cached::kNone) {
    if (cached_ == Cached::kPending) {
      cached_gaussian_ =
          box_muller_radius(cached_gaussian_) * std::sin(box_muller_angle(pending_u2_));
    }
    cached_ = Cached::kNone;
    return mean + stddev * cached_gaussian_;
  }
  // Box-Muller: two uniforms -> two independent standard normals.
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = box_muller_radius(u1);
  const double theta = box_muller_angle(u2);
  cached_gaussian_ = r * std::sin(theta);
  cached_ = Cached::kValue;
  return mean + stddev * r * std::cos(theta);
}

void Rng::skip_gaussian() {
  if (cached_ != Cached::kNone) {
    cached_ = Cached::kNone;
    return;
  }
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  cached_gaussian_ = u1;
  pending_u2_ = uniform();
  cached_ = Cached::kPending;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double lambda) {
  assert(lambda > 0.0);
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

void Rng::skip_exponential() {
  while (uniform_bits() == 0) {  // uniform() <= 0.0 exactly when the bits are 0
  }
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  // Clamp instead of trusting the caller: with NDEBUG the old assert was a
  // no-op and resize(k > n) padded the sample with duplicate zero indices.
  if (k > n) k = n;
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  shuffle(all);
  all.resize(k);
  return all;
}

Rng Rng::fork(std::uint64_t stream_index) const {
  // Mix state, stream selector, and index so that (a) different parents give
  // different substream families and (b) consecutive indices land far apart.
  const std::uint64_t base = splitmix64(state_ ^ splitmix64(inc_));
  const std::uint64_t seed = splitmix64(base ^ splitmix64(stream_index));
  const std::uint64_t stream = splitmix64(seed + 0x632be59bd9b4e019ULL);
  return Rng(seed, stream);
}

Rng Rng::split() {
  const std::uint64_t seed = (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  const std::uint64_t stream = (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  return Rng(seed, stream);
}

}  // namespace resloc::math
