// Goertzel fast path vs the naive direct DFT: the hot-path numbers behind the
// acoustic sweep axis.
//
// Single-bin tone filtering is timed: the direct-DFT reference
// (tests/reference/direct_dft.hpp; O(window) per sample, the cost a naive
// per-chirp-per-pair DFT pays) against GoertzelSlidingFilter (O(1) per
// sample), with a max |delta magnitude| equivalence check. The capture comes
// from the Figure 10 reference synthesizer (tests/reference/figure9_dft.hpp).
// The whole measure() pair cost, synthesis included, is the campaign
// benchmark's ranging.us_per_measure (perfbench/README.md).
//
// Results are printed and written as JSON (default BENCH_ranging.json, or
// argv[1]) so CI can archive the perf trajectory.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_timing.hpp"
#include "eval/aggregate.hpp"
#include "ranging/dft_detector.hpp"
#include "reference/direct_dft.hpp"
#include "reference/figure9_dft.hpp"

using namespace resloc;
using namespace resloc::bench;

namespace {

volatile double g_sink = 0.0;  // keeps the timed loops from being optimized away

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_ranging.json";
  std::puts("Goertzel fast path vs direct DFT (acoustic sweep hot path)\n");

  // --- Single-bin filtering over a long noisy capture ---
  constexpr std::size_t kSamples = 1 << 18;  // ~16 s of 16 kHz audio
  reference::WaveformSpec spec;
  spec.tone_frequency_hz = 4300.0;
  spec.tone_amplitude = 1.0;  // unit amplitude keeps the equivalence check tight
  spec.noise_stddev = 0.45;
  math::Rng rng(0xBE2C);
  const std::vector<double> wave = reference::synthesize_waveform(
      spec, reference::periodic_chirps(kSamples / 420, 100, 420, 128), kSamples, rng);

  const int bin = ranging::nearest_bin(spec.tone_frequency_hz);
  const double direct_s = best_of(5, [&] {
    reference::DirectDftFilter filter(bin);
    double sum = 0.0;
    for (double s : wave) sum += filter.step(s);
    g_sink = sum;
  });
  const double goertzel_s = best_of(5, [&] {
    ranging::GoertzelSlidingFilter filter(bin);
    double sum = 0.0;
    for (double s : wave) sum += filter.step(s);
    g_sink = sum;
  });
  const double filter_speedup = direct_s / goertzel_s;

  // Equivalence: the fast path must not drift from the direct sum.
  double max_delta = 0.0;
  {
    reference::DirectDftFilter direct(bin);
    ranging::GoertzelSlidingFilter fast(bin);
    for (double s : wave) {
      const double d = std::abs(std::sqrt(direct.step(s)) - std::sqrt(fast.step(s)));
      if (d > max_delta) max_delta = d;
    }
  }

  const double per_sample_ns = 1e9 / static_cast<double>(kSamples);
  std::printf("single-bin filter, %zu samples, window %zu, bin %d\n", kSamples,
              ranging::kDftWindow, bin);
  std::printf("  direct DFT          %8.2f ns/sample\n", direct_s * per_sample_ns);
  std::printf("  Goertzel sliding    %8.2f ns/sample\n", goertzel_s * per_sample_ns);
  std::printf("  speedup             %8.2fx   (target >= 5x)\n", filter_speedup);
  std::printf("  max |delta magnitude|  %.3e  (bound 1e-9)\n", max_delta);

  // --- JSON record ---
  const auto v = [](double x) { return resloc::eval::format_value(x); };
  std::string json = "{\n";
  json += "  \"bench\": \"bench_ranging_goertzel\",\n";
  json += "  \"filter_samples\": " + std::to_string(kSamples) + ",\n";
  json += "  \"filter_window\": " + std::to_string(ranging::kDftWindow) + ",\n";
  json += "  \"filter_bin\": " + std::to_string(bin) + ",\n";
  json += "  \"direct_dft_ns_per_sample\": " + v(direct_s * per_sample_ns) + ",\n";
  json += "  \"goertzel_ns_per_sample\": " + v(goertzel_s * per_sample_ns) + ",\n";
  json += "  \"filter_speedup\": " + v(filter_speedup) + ",\n";
  json += "  \"max_abs_magnitude_delta\": " + v(max_delta) + "\n";
  json += "}\n";
  if (!resloc::eval::write_text_file(json_path, json)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nbench record: %s\n", json_path.c_str());
  return filter_speedup >= 5.0 && max_delta < 1e-9 ? 0 : 1;
}
