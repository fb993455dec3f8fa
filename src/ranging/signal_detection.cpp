#include "ranging/signal_detection.hpp"

#include <algorithm>
#include <cassert>

#include "math/simd_dispatch.hpp"

#if RESLOC_X86_SIMD
#include <immintrin.h>
#endif

namespace resloc::ranging {

namespace {

#if RESLOC_X86_SIMD

/// AVX-512 saturating 4-bit counter update: 64 counters per iteration. The
/// fired mask and the < 15 saturation test are byte-mask compares, the
/// update one masked packed-byte add.
__attribute__((target("avx512f,avx512bw")))
void accumulate_fired_avx512(std::uint8_t* s, const std::uint8_t* fired, std::size_t n) {
  const __m512i one = _mm512_set1_epi8(1);
  const __m512i fifteen = _mm512_set1_epi8(15);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i sv = _mm512_loadu_si512(s + i);
    const __mmask64 hit =
        _mm512_test_epi8_mask(_mm512_loadu_si512(fired + i), _mm512_set1_epi8(-1)) &
        _mm512_cmplt_epu8_mask(sv, fifteen);
    _mm512_storeu_si512(s + i, _mm512_mask_add_epi8(sv, hit, sv, one));
  }
  for (; i < n; ++i) {
    s[i] += static_cast<std::uint8_t>((fired[i] != 0) & (s[i] < 15));
  }
}

/// AVX-512 run compare + counter update: four 16-lane u32 compares against
/// the broadcast cut assemble one 64-bit byte mask, then the same masked add.
/// The tail is masked rather than scalar, since runs are often short.
/// Returns whether any high word equals the cut.
__attribute__((target("avx512f,avx512bw")))
bool accumulate_run_avx512(std::uint8_t* s, const std::uint32_t* hi, std::size_t n,
                           std::uint32_t cut) {
  const __m512i one = _mm512_set1_epi8(1);
  const __m512i fifteen = _mm512_set1_epi8(15);
  const __m512i cutv = _mm512_set1_epi32(static_cast<int>(cut));
  std::uint64_t ties = 0;
  for (std::size_t i = 0; i < n; i += 64) {
    const std::size_t left = n - i;
    const __mmask64 live = left >= 64 ? ~__mmask64{0} : (__mmask64{1} << left) - 1;
    std::uint64_t below = 0;
    for (int k = 0; k < 4; ++k) {
      const auto lanes = static_cast<__mmask16>(live >> (16 * k));
      const __m512i h = _mm512_maskz_loadu_epi32(lanes, hi + i + 16 * k);
      below |= static_cast<std::uint64_t>(_mm512_mask_cmplt_epu32_mask(lanes, h, cutv))
               << (16 * k);
      ties |= static_cast<std::uint64_t>(_mm512_mask_cmpeq_epu32_mask(lanes, h, cutv))
              << (16 * k);
    }
    const __m512i sv = _mm512_maskz_loadu_epi8(live, s + i);
    const __mmask64 hit = below & _mm512_cmplt_epu8_mask(sv, fifteen);
    _mm512_mask_storeu_epi8(s + i, live, _mm512_mask_add_epi8(sv, hit, sv, one));
  }
  return ties != 0;
}

/// Qualifying-sample mask: one unsigned byte compare per 64 counters, the
/// tail a masked load (bits past n stay 0, since threshold >= 1).
__attribute__((target("avx512f,avx512bw")))
void build_mask_avx512(const std::uint8_t* s, std::size_t n, std::uint8_t threshold,
                       std::uint64_t* mask) {
  const __m512i t = _mm512_set1_epi8(static_cast<char>(threshold));
  for (std::size_t i = 0; i < n; i += 64) {
    const std::size_t left = n - i;
    const __mmask64 live = left >= 64 ? ~__mmask64{0} : (__mmask64{1} << left) - 1;
    mask[i / 64] = _mm512_cmpge_epu8_mask(_mm512_maskz_loadu_epi8(live, s + i), t);
  }
}

#endif  // RESLOC_X86_SIMD

/// Saturating 4-bit counter update for a whole chirp window: one byte add
/// per sample, no branches.
void accumulate_fired(std::uint8_t* s, const std::uint8_t* fired, std::size_t n) {
#if RESLOC_X86_SIMD
  if (resloc::math::cpu_has_avx512_kernels()) {
    accumulate_fired_avx512(s, fired, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    s[i] += static_cast<std::uint8_t>((fired[i] != 0) & (s[i] < 15));
  }
}

/// Saturating counter update for one threshold run: fired = hi < cut.
/// Returns whether any high word equals the cut (the low word decides those).
bool accumulate_run(std::uint8_t* s, const std::uint32_t* hi, std::size_t n, std::uint32_t cut) {
#if RESLOC_X86_SIMD
  if (resloc::math::cpu_has_avx512_kernels()) return accumulate_run_avx512(s, hi, n, cut);
#endif
  bool ties = false;
  for (std::size_t i = 0; i < n; ++i) {
    s[i] += static_cast<std::uint8_t>((hi[i] < cut) & (s[i] < 15));
    ties |= hi[i] == cut;
  }
  return ties;
}

}  // namespace

SignalAccumulator::SignalAccumulator(std::size_t num_samples)
    : samples_(num_samples, 0), high_words_(num_samples) {}

void SignalAccumulator::reset(std::size_t num_samples) {
  samples_.assign(num_samples, 0);
  high_words_.resize(num_samples);
  chirps_ = 0;
}

void SignalAccumulator::record_chirp_block(const std::uint8_t* fired, std::size_t n) {
  assert(n == samples_.size());
  if (chirps_ >= kMaxChirps) return;  // 4-bit counters are full
  ++chirps_;
  accumulate_fired(samples_.data(), fired, n);
}

void SignalAccumulator::record_chirp_runs(resloc::math::Rng& rng,
                                          const std::vector<acoustics::ThresholdRun>& runs) {
  const std::size_t n = samples_.size();
  const resloc::math::Rng start = rng;
  // One draw per sample whether or not the counters are full, so the stream
  // never depends on the cap.
  rng.fill_high_words_block(high_words_.data(), n);
  if (chirps_ >= kMaxChirps) return;
  ++chirps_;
  assert(n == 0 || (!runs.empty() && runs.front().first == 0));
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const std::size_t lo = runs[r].first;
    const std::size_t hi = r + 1 < runs.size() ? runs[r + 1].first : n;
    const std::uint64_t threshold = runs[r].threshold;
    const std::uint32_t cut = resloc::math::Rng::high_word_threshold(threshold);
    if (!accumulate_run(samples_.data() + lo, high_words_.data() + lo, hi - lo, cut)) continue;
    for (std::size_t i = lo; i < hi; ++i) {
      if (high_words_[i] != cut || samples_[i] >= 15) continue;
      resloc::math::Rng draw = start;
      draw.advance(2 * static_cast<std::uint64_t>(i));
      if (draw.uniform_bits() < threshold) ++samples_[i];
    }
  }
}

void SignalScanner::reset(const std::vector<std::uint8_t>& samples,
                          const DetectionParams& params) {
  const std::size_t n = samples.size();
  size_ = static_cast<int>(n);
  window_ = params.window;
  min_detections_ = params.min_detections;
  start_ = 0;
  mask_.assign((n + 63) / 64, 0);
  const int threshold = params.threshold;
#if RESLOC_X86_SIMD
  if (threshold >= 1 && threshold <= 255 && resloc::math::cpu_has_avx512_kernels()) {
    build_mask_avx512(samples.data(), n, static_cast<std::uint8_t>(threshold), mask_.data());
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    mask_[i / 64] |= static_cast<std::uint64_t>(samples[i] >= threshold) << (i % 64);
  }
}

int SignalScanner::count(std::size_t lo, std::size_t hi) const {
  if (lo >= hi) return 0;
  const std::size_t first = lo / 64;
  const std::size_t last = (hi - 1) / 64;
  const std::uint64_t from_lo = ~std::uint64_t{0} << (lo % 64);
  const std::uint64_t to_hi = ~std::uint64_t{0} >> (63 - (hi - 1) % 64);
  if (first == last) return __builtin_popcountll(mask_[first] & from_lo & to_hi);
  int c = __builtin_popcountll(mask_[first] & from_lo);
  for (std::size_t w = first + 1; w < last; ++w) c += __builtin_popcountll(mask_[w]);
  return c + __builtin_popcountll(mask_[last] & to_hi);
}

int SignalScanner::next() {
  // A window start qualifies only on a set bit, so the scan jumps between
  // set bits (count-trailing-zeros) and counts each candidate's window.
  if (window_ <= 0) return -1;
  const int last_start = size_ - window_;
  while (start_ <= last_start) {
    std::size_t w = static_cast<std::size_t>(start_) / 64;
    std::uint64_t bits = mask_[w] & (~std::uint64_t{0} << (start_ % 64));
    while (bits == 0 && ++w < mask_.size()) bits = mask_[w];
    if (bits == 0) break;
    const int candidate = static_cast<int>(64 * w) + __builtin_ctzll(bits);
    if (candidate > last_start) break;
    start_ = candidate + 1;
    const auto lo = static_cast<std::size_t>(candidate);
    if (count(lo, lo + static_cast<std::size_t>(window_)) >= min_detections_) return candidate;
  }
  start_ = last_start + 1;  // exhausted scanners stay exhausted
  return -1;
}

bool SignalScanner::verify_preceding_silence(int index, int gap, int max_noisy) const {
  if (index < 0) return false;
  const int start = std::max(0, index - gap);
  return count(static_cast<std::size_t>(start),
               static_cast<std::size_t>(std::min(index, size_))) <= max_noisy;
}

}  // namespace resloc::ranging
