// Bit-equality tests for the block-DSP kernels of the measure path.
//
// Every block kernel has a per-sample reference (the loop it replaced, kept
// in tests/reference/per_sample_ranging.hpp); these tests drive both over the
// same inputs and the same RNG stream and require last-ulp identical outputs
// AND identical post-call generator state, at odd block sizes, partial tails,
// and window-boundary offsets. The capstone test diffs RangingService::measure
// end to end against the per-sample reference measure for all three detector
// front ends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "acoustics/channel.hpp"
#include "acoustics/environment.hpp"
#include "acoustics/propagation.hpp"
#include "acoustics/signal_synth.hpp"
#include "acoustics/tone_detector.hpp"
#include "acoustics/units.hpp"
#include "math/rng.hpp"
#include "math/rng_lanes.hpp"
#include "ranging/dft_detector.hpp"
#include "ranging/matched_filter.hpp"
#include "ranging/ranging_service.hpp"
#include "ranging/signal_detection.hpp"
#include "reference/per_sample_ranging.hpp"
#include "sim/channel_cache.hpp"

namespace {

using resloc::math::Rng;
namespace acoustics = resloc::acoustics;
namespace ranging = resloc::ranging;
namespace reference = resloc::reference;

// Sizes chosen to cross the 64-lane group of fill_high_words_block, its
// 8-lane vectors and the Goertzel 256-step resync period, plus odd/partial-
// tail cases.
const std::size_t kBlockSizes[] = {0,  1,  2,  3,   4,   5,   7,   8,   9,   31,  36,
                                   63, 64, 65, 100, 127, 128, 129, 255, 256, 257, 1163};

TEST(RngBlocks, HighWordsBlockMatchesSequential) {
  for (std::size_t n : kBlockSizes) {
    Rng a(0x1234u + n, 7);
    Rng b(0x1234u + n, 7);
    std::vector<std::uint32_t> block(n, 0);
    a.fill_high_words_block(block.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      Rng hi = b;
      ASSERT_EQ(block[i], hi.next_u32()) << "n=" << n << " i=" << i;
      ASSERT_EQ(block[i], b.uniform_bits() >> 21) << "n=" << n << " i=" << i;
    }
    // Post-call state: the next draws must agree too.
    for (int i = 0; i < 8; ++i) ASSERT_EQ(a.uniform_bits(), b.uniform_bits());
  }
}

/// PCG32 XSH-RR output of a raw state, written out independently of
/// math/rng.cpp for the lane tests.
std::uint32_t xsh_rr(std::uint64_t state) {
  const auto x = static_cast<std::uint32_t>(((state >> 18u) ^ state) >> 27u);
  const auto rot = static_cast<std::uint32_t>(state >> 59u);
  return (x >> rot) | (x << ((32u - rot) & 31u));
}

TEST(RngBlocks, HighWordLaneVariantsMatchPortable) {
  // Every n % 64 tail, n < 64 included, across several groups; the portable
  // lanes against the raw LCG walked one step at a time, and every SIMD
  // variant the CPU supports against the portable lanes.
  namespace detail = resloc::math::detail;
  constexpr std::uint64_t kMul = 6364136223846793005ULL;
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 3 * detail::kHighWordLanes + 1; ++n) sizes.push_back(n);
  sizes.push_back(17 * detail::kHighWordLanes + 9);
  sizes.push_back(73 * detail::kHighWordLanes + 63);
  for (std::size_t n : sizes) {
    for (std::uint64_t state : {0x0ULL, 0x853c49e6748fea9bULL, ~0ULL}) {
      const std::uint64_t inc = (n << 1u) | 1u;
      std::vector<std::uint32_t> expect(n);
      std::uint64_t s = state;
      for (std::uint32_t& word : expect) {
        word = xsh_rr(s);
        s = (s * kMul + inc) * kMul + inc;  // the low word's step is never permuted
      }
      std::vector<std::uint32_t> portable(n);
      ASSERT_EQ(detail::high_words_portable(state, inc, portable.data(), n), s) << "n=" << n;
      ASSERT_EQ(portable, expect) << "portable n=" << n;
#if RESLOC_X86_SIMD
      // One sentinel word past n: a tail must not write beyond its lanes.
      std::vector<std::uint32_t> simd(n + 1, 0xA5A5A5A5u);
      if (resloc::math::cpu_has_avx512_kernels()) {
        EXPECT_EQ(detail::high_words_avx512(state, inc, simd.data(), n), s);
        EXPECT_EQ(std::vector<std::uint32_t>(simd.begin(), simd.end() - 1), expect)
            << "avx512 n=" << n;
        EXPECT_EQ(simd.back(), 0xA5A5A5A5u) << "avx512 n=" << n;
      }
      if (resloc::math::cpu_has_avx2_kernels()) {
        simd.assign(n + 1, 0xA5A5A5A5u);
        EXPECT_EQ(detail::high_words_avx2(state, inc, simd.data(), n), s);
        EXPECT_EQ(std::vector<std::uint32_t>(simd.begin(), simd.end() - 1), expect)
            << "avx2 n=" << n;
        EXPECT_EQ(simd.back(), 0xA5A5A5A5u) << "avx2 n=" << n;
      }
#endif
    }
  }
}

TEST(RngBlocks, AdvanceMatchesSequentialSteps) {
  for (std::uint64_t steps : {0ULL, 1ULL, 2ULL, 3ULL, 31ULL, 32ULL, 1000ULL, 123457ULL}) {
    Rng a(99, 13);
    Rng b(99, 13);
    a.advance(steps);
    for (std::uint64_t i = 0; i < steps; ++i) b.next_u32();
    for (int i = 0; i < 4; ++i) ASSERT_EQ(a.next_u32(), b.next_u32()) << "steps=" << steps;
  }
}

TEST(RngBlocks, GaussianBlockMatchesSequentialIncludingCachedHalf) {
  for (std::size_t n : kBlockSizes) {
    for (int warmup = 0; warmup < 2; ++warmup) {
      Rng a(0x9e3779b9u, 3 + n);
      Rng b(0x9e3779b9u, 3 + n);
      if (warmup) {
        // Leave a Box-Muller cached second normal pending before the block.
        const double wa = a.gaussian();
        const double wb = b.gaussian();
        ASSERT_EQ(wa, wb);
      }
      std::vector<double> block(n, 0.0);
      a.fill_gaussian_block(block.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double expect = b.gaussian(0.0, 1.0);
        ASSERT_EQ(std::memcmp(&block[i], &expect, sizeof(double)), 0)
            << "n=" << n << " warmup=" << warmup << " i=" << i;
      }
      for (int i = 0; i < 4; ++i) ASSERT_EQ(a.gaussian(), b.gaussian());
    }
  }
}

TEST(RngBlocks, BernoulliThresholdSplitsExactlyLikeUniformCompare) {
  const double probs[] = {0.0, 1e-300, 1e-17, 0.003, 0.15, 0.5, 0.78342,
                          1.0 - 1e-16, 1.0, 1.5, -0.2, std::nan("")};
  EXPECT_EQ(Rng::bernoulli_threshold(std::nan("")), 0u);
  for (double p : probs) {
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    Rng a(42, 9);
    Rng b(42, 9);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(b.uniform_bits() < t, a.bernoulli(p)) << "p=" << p;
    }
  }
}

TEST(IntervalSampleSpan, MatchesPerSamplePredicate) {
  Rng rng(7, 1);
  const double dt = 1.0 / 16000.0;
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 400));
    const double window_start = rng.uniform(-1.0, 1.0);
    // Mix of random intervals and intervals snapped near sample boundaries.
    double start = window_start + rng.uniform(-5.0, 400.0) * dt;
    double end = start + rng.uniform(-2.0, 300.0) * dt;
    if (trial % 3 == 0) {
      start = window_start + static_cast<double>(rng.uniform_int(-2, 400)) * dt;
      end = start + static_cast<double>(rng.uniform_int(0, 64)) * dt;
    }
    const acoustics::SampleSpan span =
        acoustics::interval_sample_span(window_start, dt, n, start, end);
    std::size_t expect_lo = n, expect_hi = n;
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = window_start + static_cast<double>(i) * dt;
      const bool inside = t >= start && t < end;
      if (inside && !any) {
        expect_lo = i;
        any = true;
      }
      if (inside) expect_hi = i + 1;
      if (any) {
        // The span must be contiguous: no gap then re-entry.
        ASSERT_TRUE(inside || i >= expect_hi);
      }
    }
    if (!any) {
      EXPECT_EQ(span.lo, span.hi) << "trial=" << trial;
    } else {
      EXPECT_EQ(span.lo, expect_lo) << "trial=" << trial;
      EXPECT_EQ(span.hi, expect_hi) << "trial=" << trial;
    }
  }
}

/// A synthetic received window with overlapping signals, bursts, and edges
/// crossing the window boundaries.
acoustics::ReceivedWindow synthetic_window(Rng& rng, double window_start_s, std::size_t n,
                                           double dt) {
  acoustics::ReceivedWindow w;
  w.start_s = window_start_s;
  w.duration_s = static_cast<double>(n) * dt;
  const int signals = static_cast<int>(rng.uniform_int(0, 6));
  for (int i = 0; i < signals; ++i) {
    const double s = window_start_s + rng.uniform(-30.0, static_cast<double>(n)) * dt;
    const double e = s + rng.uniform(0.0, 200.0) * dt;
    w.signals.push_back({s, e, rng.uniform(-10.0, 30.0)});
  }
  const int bursts = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < bursts; ++i) {
    const double s = window_start_s + rng.uniform(-10.0, static_cast<double>(n)) * dt;
    w.bursts.push_back({s, s + rng.uniform(0.0, 80.0) * dt});
  }
  return w;
}

TEST(HardwareBlock, ThresholdRunsPlusBernoulliMatchSampleWindow) {
  const acoustics::EnvironmentProfile env = acoustics::EnvironmentProfile::grass();
  const acoustics::ToneDetectorModel detector(env);
  const double dt = detector.sample_period_s();
  Rng gen(0xFEED, 5);
  acoustics::DetectorScratch blk_scratch;  // reused across trials, like production
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = static_cast<std::size_t>(gen.uniform_int(1, 700));
    acoustics::MicUnit mic;
    mic.sensitivity_db = gen.uniform(-3.0, 3.0);
    mic.faulty = trial % 5 == 0;
    const double window_start = gen.uniform(-0.05, 0.05);
    const acoustics::ReceivedWindow w = synthetic_window(gen, window_start, n, dt);

    // Reference: the per-sample detector loop.
    Rng ref_rng(1000 + trial, 11);
    reference::PerSampleScratch ref_scratch;
    reference::sample_detector_window(env, detector.sample_rate_hz(), w, n, mic, ref_rng,
                                      ref_scratch);
    reference::PerSampleAccumulator ref_acc(n);
    ref_acc.record_chirp(ref_scratch.fired);

    // Block: threshold runs + fused draw/accumulate.
    Rng blk_rng(1000 + trial, 11);
    detector.threshold_runs(w, n, mic, blk_scratch);
    const std::vector<acoustics::ThresholdRun>& runs = blk_scratch.runs;
    ASSERT_FALSE(runs.empty());
    EXPECT_EQ(runs.front().first, 0u);
    EXPECT_LE(runs.size(), 2 * (w.signals.size() + w.bursts.size()) + 1);
    for (std::size_t r = 1; r < runs.size(); ++r) {
      EXPECT_LT(runs[r - 1].first, runs[r].first) << "trial=" << trial;
      EXPECT_LT(runs[r].first, n) << "trial=" << trial;
      EXPECT_NE(runs[r - 1].threshold, runs[r].threshold) << "trial=" << trial;
    }
    ranging::SignalAccumulator blk_acc(n);
    blk_acc.record_chirp_runs(blk_rng, runs);

    ASSERT_EQ(blk_acc.samples(), ref_acc.samples()) << "trial=" << trial;
    ASSERT_EQ(blk_rng.uniform_bits(), ref_rng.uniform_bits()) << "trial=" << trial;
  }
}

TEST(HardwareBlock, HighWordTiesResolveExactly) {
  // Runs built from the draws themselves: a length-1 run at threshold bits_i
  // ties its draw's high word and must not fire, one at bits_i + 1 must.
  // Between them sit p = 0 and p = 1 runs and random-threshold runs whose
  // edges fall off the 8-lane vectors and the 64-lane group, some longer
  // than one 64-sample block.
  const std::size_t n = 301;
  const std::uint64_t kAlways = Rng::bernoulli_threshold(1.0);
  EXPECT_EQ(Rng::high_word_threshold(kAlways), 0xFFFFFFFFu);
  EXPECT_EQ(Rng::high_word_threshold(kAlways - 1), 0xFFFFFFFFu);
  Rng gen(0xC0FFEE, 3);
  Rng rng(77, 21);
  std::vector<std::uint8_t> expect(n, 0);
  ranging::SignalAccumulator acc(n);
  for (int chirp = 0; chirp < ranging::SignalAccumulator::kMaxChirps + 2; ++chirp) {
    Rng peek = rng;
    std::vector<std::uint64_t> bits(n);
    for (std::uint64_t& b : bits) b = peek.uniform_bits();
    std::vector<acoustics::ThresholdRun> runs;
    std::size_t ties = 0;
    for (std::size_t i = 0; i < n;) {
      const int kind = static_cast<int>(gen.uniform_int(0, 4));
      std::size_t len = static_cast<std::size_t>(gen.uniform_int(1, 90));
      std::uint64_t threshold = 0;
      switch (kind) {
        case 0: len = 1; threshold = bits[i]; ++ties; break;      // tie, no fire
        case 1: len = 1; threshold = bits[i] + 1; ++ties; break;  // tie, fire
        case 2: threshold = 0; break;                             // p = 0
        case 3: threshold = kAlways; break;                       // p = 1
        default: threshold = Rng::bernoulli_threshold(gen.uniform()); break;
      }
      len = std::min(len, n - i);
      runs.push_back({i, threshold});
      for (std::size_t j = i; j < i + len; ++j) {
        if (chirp < ranging::SignalAccumulator::kMaxChirps && bits[j] < threshold &&
            expect[j] < 15) {
          ++expect[j];
        }
      }
      i += len;
    }
    ASSERT_GT(ties, 0u);
    acc.record_chirp_runs(rng, runs);
    ASSERT_EQ(acc.samples(), expect) << "chirp=" << chirp;
    ASSERT_EQ(rng.uniform_bits(), peek.uniform_bits()) << "chirp=" << chirp;
  }
}

TEST(HardwareBlock, BernoulliDrawsEvenWhenCountersFull) {
  // The per-sample reference consumes RNG for every chirp past kMaxChirps;
  // the fused block accumulate must too, or streams desynchronize at chirp 16.
  const std::size_t n = 37;
  const std::vector<acoustics::ThresholdRun> runs = {{0, Rng::bernoulli_threshold(0.5)}};
  Rng a(5, 1), b(5, 1);
  ranging::SignalAccumulator acc(n);
  for (int chirp = 0; chirp < ranging::SignalAccumulator::kMaxChirps + 4; ++chirp) {
    acc.record_chirp_runs(a, runs);
  }
  for (int chirp = 0; chirp < ranging::SignalAccumulator::kMaxChirps + 4; ++chirp) {
    for (std::size_t i = 0; i < n; ++i) b.uniform_bits();
  }
  EXPECT_EQ(acc.chirps_recorded(), ranging::SignalAccumulator::kMaxChirps);
  EXPECT_EQ(a.uniform_bits(), b.uniform_bits());
}

TEST(RecordChirpBlock, MatchesVectorBoolForm) {
  Rng rng(99, 2);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    reference::PerSampleAccumulator a(n);
    ranging::SignalAccumulator b(n);
    for (int chirp = 0; chirp < 18; ++chirp) {
      std::vector<bool> bools(n);
      std::vector<std::uint8_t> bytes(n);
      for (std::size_t i = 0; i < n; ++i) {
        const bool fired = rng.bernoulli(0.4);
        bools[i] = fired;
        bytes[i] = fired ? 1 : 0;
      }
      a.record_chirp(bools);
      b.record_chirp_block(bytes.data(), n);
    }
    ASSERT_EQ(a.samples(), b.samples());
    ASSERT_EQ(a.chirps_recorded(), b.chirps_recorded());
  }
}

TEST(GoertzelBlock, RunBlockMatchesStepAcrossResync) {
  // n > kResyncPeriod so the in-step exact resync happens mid-block.
  for (std::size_t n : {1u, 36u, 255u, 256u, 257u, 700u}) {
    Rng rng(3 + n, 4);
    std::vector<double> x(n);
    for (double& v : x) v = rng.gaussian(0.0, 1.0) + 0.5 * rng.uniform();
    ranging::GoertzelToneDetector blk(4300.0, 16000.0);
    ranging::GoertzelToneDetector ref(4300.0, 16000.0);
    std::vector<double> metric(n, 0.0);
    blk.run_block(x.data(), n, metric.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double expect = ref.step(x[i]);
      ASSERT_EQ(std::memcmp(&metric[i], &expect, sizeof(double)), 0)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(MixKernel, MatchesFusedFormula) {
  Rng rng(17, 6);
  const std::size_t n = 513;
  std::vector<double> amplitude(n), tone(n), noise(n), out(n);
  std::vector<std::uint8_t> burst(n);
  for (std::size_t i = 0; i < n; ++i) {
    amplitude[i] = rng.uniform(0.0, 8.0);
    tone[i] = rng.uniform(-1.0, 1.0);
    noise[i] = rng.gaussian();
    burst[i] = rng.bernoulli(0.3) ? 1 : 0;
  }
  acoustics::mix_tone_noise_block(amplitude.data(), tone.data(), noise.data(), burst.data(),
                                  4.0, out.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sigma = burst[i] != 0 ? 4.0 : 1.0;
    const double expect = amplitude[i] * tone[i] + sigma * noise[i];
    ASSERT_EQ(std::memcmp(&out[i], &expect, sizeof(double)), 0) << i;
  }
}

TEST(MatchedFilterBlock, ByteMarksMatchBoolMarks) {
  Rng rng(23, 8);
  acoustics::WaveformSynthesizer synth;
  ranging::MatchedFilterNcc filt;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(64, 900));
    const std::size_t chirp = 128;
    const acoustics::ToneTemplateView tpl = synth.tone_template_view(16000.0, 4300.0, n);
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      const bool in_chirp = i >= n / 3 && i < n / 3 + chirp;
      x[i] = (in_chirp ? 3.0 * tpl.sin_t[i] : 0.0) + rng.gaussian();
    }
    reference::PerSampleScratch ref;
    reference::ncc_marks(filt, x.data(), n, chirp, tpl, ref);
    std::vector<std::uint8_t> byte_marks(n, 0xCC);
    filt.detect_into(x.data(), n, chirp, tpl, byte_marks.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(byte_marks[i] != 0, static_cast<bool>(ref.fired[i]))
          << "trial=" << trial << " i=" << i;
    }
  }
}

TEST(SignalScanner, YieldsSameCandidatesAsRestartScan) {
  // Random counters against the restart scan of tests/reference: n off the
  // 64-bit mask words, windows straddling word edges and longer than a word,
  // T from 1 to 15, and k = window (every sample must qualify).
  Rng rng(31, 12);
  ranging::SignalScanner scanner;  // reused across trials, like RangingScratch
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 400));
    std::vector<std::uint8_t> samples(n);
    const int top = static_cast<int>(rng.uniform_int(1, 15));
    for (auto& s : samples) s = static_cast<std::uint8_t>(rng.uniform_int(0, top));
    ranging::DetectionParams params;
    const int thresholds[] = {1, 15, 2, static_cast<int>(rng.uniform_int(1, 15))};
    params.threshold = thresholds[trial % 4];
    params.window = static_cast<int>(rng.uniform_int(1, trial % 3 == 0 ? 150 : 40));
    params.min_detections = trial % 5 == 0 ? params.window
                                           : static_cast<int>(rng.uniform_int(1, params.window));
    scanner.reset(samples, params);
    int expect = reference::detect_signal(samples, params, 0);
    int guard = 0;
    for (;;) {
      const int got = scanner.next();
      ASSERT_EQ(got, expect) << "trial=" << trial;
      if (got < 0) break;
      expect = reference::detect_signal(samples, params, got + 1);
      ASSERT_LT(++guard, 1000);
    }
    // Exhausted scanners stay exhausted.
    EXPECT_EQ(scanner.next(), -1);
    // The silence check counts the same mask as the per-sample loop.
    for (int probe = 0; probe < 8; ++probe) {
      const int index = static_cast<int>(rng.uniform_int(-1, static_cast<std::int64_t>(n)));
      const int gap = static_cast<int>(rng.uniform_int(0, 130));
      const int max_noisy = static_cast<int>(rng.uniform_int(0, 6));
      ASSERT_EQ(scanner.verify_preceding_silence(index, gap, max_noisy),
                reference::verify_preceding_silence(samples, index, gap, params.threshold,
                                                    max_noisy))
          << "trial=" << trial << " index=" << index << " gap=" << gap;
    }
  }
}

TEST(ChannelCache, ReturnsBitwiseIdenticalResponses) {
  const acoustics::EnvironmentProfile env = acoustics::EnvironmentProfile::grass();
  resloc::sim::ChannelResponseCache cache(env, 64);
  Rng rng(41, 3);
  std::vector<double> distances;
  for (int i = 0; i < 500; ++i) {
    // Revisit earlier distances to exercise hits; include sub-reference and
    // same-cell-different-value collisions.
    double d;
    if (!distances.empty() && rng.bernoulli(0.5)) {
      d = distances[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(distances.size()) - 1))];
    } else {
      d = rng.uniform(0.0, 40.0);
      if (rng.bernoulli(0.1)) d = rng.uniform(0.0, 0.2);
      distances.push_back(d);
    }
    const acoustics::LinkResponse got = cache.lookup(d);
    const acoustics::LinkResponse expect = acoustics::link_response(d, env);
    ASSERT_EQ(std::memcmp(&got, &expect, sizeof(acoustics::LinkResponse)), 0) << "d=" << d;
  }
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

TEST(LinkResponse, RecomposesSnrBitExactly) {
  const acoustics::EnvironmentProfile env = acoustics::EnvironmentProfile::grass();
  Rng rng(53, 9);
  for (int i = 0; i < 2000; ++i) {
    const double d = i % 7 == 0 ? rng.uniform(0.0, 0.15) : rng.uniform(0.0, 60.0);
    const double source_db = rng.uniform(80.0, 110.0);
    const double sens_db = rng.uniform(-3.0, 3.0);
    const acoustics::LinkResponse link = acoustics::link_response(d, env);
    const double recomposed =
        (((source_db - link.spreading_db) - link.excess_db) + sens_db) - env.noise_floor_db;
    const double expect = acoustics::snr_db(source_db, d, sens_db, env);
    ASSERT_EQ(std::memcmp(&recomposed, &expect, sizeof(double)), 0) << "d=" << d;
  }
}

bool same_interval(const acoustics::SignalInterval& a, const acoustics::SignalInterval& b) {
  return std::memcmp(&a.start_s, &b.start_s, sizeof(double)) == 0 &&
         std::memcmp(&a.end_s, &b.end_s, sizeof(double)) == 0 &&
         std::memcmp(&a.snr_db, &b.snr_db, sizeof(double)) == 0;
}

TEST(ChannelLazyDraws, MatchEagerReferenceWindowAndStream) {
  // receive_into skips the draws a window cannot use; the eager reference
  // takes them all. Random schedules around the window, jitter sigma of 0,
  // the default and 50 ms (the skip bound's reach), echo rates of 0, 0.9 and
  // 2.5 per chirp, and long echo delays that carry earlier chirps' echoes
  // into the window. Signals, bursts and the generator's end state (cached
  // Box-Muller half included) must match bit for bit.
  const double sigmas[] = {0.0, acoustics::ChannelJitter{}.actuation_jitter_s, 0.05};
  const double echo_rates[] = {0.0, 0.9, 2.5};
  Rng gen(0x5EED, 17);
  acoustics::ReceivedWindow lazy;  // reused across trials, like RangingScratch
  acoustics::ReceivedWindow eager;
  int earlier_echoes = 0;
  for (int trial = 0; trial < 900; ++trial) {
    acoustics::EnvironmentProfile env = acoustics::EnvironmentProfile::grass();
    env.echo_rate = echo_rates[trial % 3];
    env.echo_delay_mean_s = trial % 2 == 0 ? 0.03 : 0.3;
    env.noise_burst_rate_hz = gen.bernoulli(0.5) ? 1.2 : 0.0;
    env.fixed_echo_lag_s = gen.bernoulli(0.3) ? 0.012 : 0.0;
    acoustics::ChannelJitter jitter;
    jitter.actuation_jitter_s = sigmas[(trial / 3) % 3];
    acoustics::SpeakerUnit speaker;
    speaker.onset_delay_s = gen.uniform(-0.001, 0.001);
    const acoustics::MicUnit mic;

    std::vector<acoustics::Emission> emissions;
    double t = gen.uniform(-0.1, 0.1);
    const auto count = static_cast<std::size_t>(gen.uniform_int(1, 12));
    for (std::size_t i = 0; i < count; ++i) {
      emissions.push_back({t, gen.uniform(0.004, 0.032)});
      t += gen.uniform(0.005, 0.3);
    }
    const auto aligned =
        static_cast<std::size_t>(gen.uniform_int(0, static_cast<std::int64_t>(count) - 1));
    const acoustics::LinkResponse link = acoustics::link_response(gen.uniform(0.0, 60.0), env);
    const double window_start = emissions[aligned].start_s + gen.uniform(-0.002, 0.002);
    const double window_duration = gen.uniform(0.01, 0.12);

    Rng a(trial, 5);
    Rng b(trial, 5);
    if (trial % 4 == 1) {  // enter with a cached Box-Muller half
      a.gaussian();
      b.gaussian();
    }
    acoustics::receive_into(lazy, emissions, window_start, window_duration, link, speaker, mic,
                            env, jitter, a);
    reference::eager_receive_into(eager, emissions, window_start, window_duration, link, speaker,
                                  mic, env, jitter, b);

    ASSERT_EQ(lazy.signals.size(), eager.signals.size()) << "trial=" << trial;
    for (std::size_t i = 0; i < eager.signals.size(); ++i) {
      ASSERT_TRUE(same_interval(lazy.signals[i], eager.signals[i]))
          << "trial=" << trial << " i=" << i;
    }
    ASSERT_EQ(lazy.bursts.size(), eager.bursts.size()) << "trial=" << trial;
    for (std::size_t i = 0; i < eager.bursts.size(); ++i) {
      ASSERT_EQ(std::memcmp(&lazy.bursts[i], &eager.bursts[i], sizeof(acoustics::NoiseBurst)),
                0)
          << "trial=" << trial << " i=" << i;
    }
    const double ga = a.gaussian();
    const double gb = b.gaussian();
    ASSERT_EQ(std::memcmp(&ga, &gb, sizeof(double)), 0) << "trial=" << trial;
    ASSERT_EQ(a.uniform_bits(), b.uniform_bits()) << "trial=" << trial;

    // A random echo (SNR off the direct, ramp and fixed-echo levels) that
    // starts before the aligned chirp arrives came from an earlier chirp.
    const double direct_snr = (((speaker.effective_db() - link.spreading_db) - link.excess_db) +
                               mic.sensitivity_db) -
                              env.noise_floor_db;
    const double arrival = emissions[aligned].start_s + link.travel_s;
    for (const acoustics::SignalInterval& s : eager.signals) {
      const bool random_echo = s.snr_db != direct_snr &&
                               s.snr_db != direct_snr - acoustics::kRampupPenaltyDb &&
                               s.snr_db != direct_snr - env.fixed_echo_attenuation_db;
      if (random_echo && s.start_s < arrival) ++earlier_echoes;
    }
  }
  EXPECT_GT(earlier_echoes, 0);
}

/// End-to-end: RangingService::measure and the per-sample reference measure
/// must agree on every diagnostic field and the 4-bit counters, and leave the
/// generator in the identical state, for all three detector front ends.
void expect_service_equivalence(ranging::DetectorMode mode) {
  ranging::RangingConfig cfg;
  cfg.detector_mode = mode;
  cfg.max_window_range_m = 22.0;
  const ranging::RangingService service(cfg);
  reference::PerSampleScratch ref_scratch;
  ranging::RangingScratch blk_scratch;

  Rng unit_rng(61, 2);
  const acoustics::UnitVariationModel units;
  for (int trial = 0; trial < 12; ++trial) {
    acoustics::SpeakerUnit speaker = units.sample_speaker(acoustics::kLoudspeakerDb, unit_rng);
    acoustics::MicUnit mic = units.sample_mic(unit_rng);
    if (trial == 5) mic.faulty = true;   // exercise the faulty-mic branches
    if (trial == 7) speaker.faulty = true;
    const double d = 0.5 + 1.7 * trial;

    Rng ref_rng(900 + trial, 21);
    Rng blk_rng(900 + trial, 21);
    const ranging::RangingAttempt a =
        reference::measure(service, d, speaker, mic, ref_rng, ref_scratch);
    const ranging::RangingAttempt b = service.measure(d, speaker, mic, blk_rng, blk_scratch);

    ASSERT_EQ(a.distance_m.has_value(), b.distance_m.has_value()) << "trial=" << trial;
    if (a.distance_m) {
      ASSERT_EQ(std::memcmp(&*a.distance_m, &*b.distance_m, sizeof(double)), 0)
          << "trial=" << trial;
    }
    ASSERT_EQ(a.detection_index, b.detection_index) << "trial=" << trial;
    ASSERT_EQ(a.rejected_detections, b.rejected_detections) << "trial=" << trial;
    ASSERT_EQ(ref_scratch.accumulator.samples(), blk_scratch.accumulator.samples())
        << "trial=" << trial;
    ASSERT_EQ(ref_rng.uniform_bits(), blk_rng.uniform_bits()) << "trial=" << trial;
    ASSERT_EQ(ref_rng.gaussian(), blk_rng.gaussian()) << "trial=" << trial;
  }
}

TEST(RangingServiceBlockEquivalence, Hardware) {
  expect_service_equivalence(ranging::DetectorMode::kHardware);
}

TEST(RangingServiceBlockEquivalence, Goertzel) {
  expect_service_equivalence(ranging::DetectorMode::kGoertzel);
}

TEST(RangingServiceBlockEquivalence, MatchedFilter) {
  expect_service_equivalence(ranging::DetectorMode::kMatchedFilter);
}

TEST(RangingServiceBlockEquivalence, PrecomputedLinkMatchesInline) {
  ranging::RangingConfig cfg;
  cfg.max_window_range_m = 22.0;
  const ranging::RangingService service(cfg);
  const acoustics::SpeakerUnit speaker;
  const acoustics::MicUnit mic;
  for (int trial = 0; trial < 8; ++trial) {
    const double d = 0.3 + 2.3 * trial;
    Rng r1(70 + trial, 1), r2(70 + trial, 1);
    ranging::RangingScratch s1, s2;
    const auto inline_est = service.measure(d, speaker, mic, r1, s1).distance_m;
    const acoustics::LinkResponse link = acoustics::link_response(d, cfg.environment);
    const auto cached_est = service.measure(d, speaker, mic, r2, s2, &link).distance_m;
    ASSERT_EQ(inline_est.has_value(), cached_est.has_value());
    if (inline_est) {
      ASSERT_EQ(std::memcmp(&*inline_est, &*cached_est, sizeof(double)), 0);
    }
    ASSERT_EQ(r1.uniform_bits(), r2.uniform_bits());
  }
}

}  // namespace
