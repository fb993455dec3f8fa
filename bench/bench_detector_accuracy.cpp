// Per-detector detection-offset accuracy + throughput, merged into
// BENCH_ranging.json as the "detector_accuracy" record.
//
// The fixture family is the detection-offset harness of
// tests/test_detector_accuracy.cpp at bench scale: a zero-jitter grass
// campaign config where the true arrival sample of every trial is exactly
// detection_index_for_distance(d), so |detected - true| is measurable per
// trial with no estimation step. Two acoustic scenes:
//   - clean: line-of-sight grass propagation, distances 5..20 m;
//   - echo:  a fixed deterministic reflector 10 ms (160 samples) behind the
//     direct path and 8 dB LOUDER (a focusing surface), distances 14..20 m.
//     This is the scene that separates the detectors: the hardware interval
//     model latches the strong echo (+160 samples), the Goertzel scan drifts
//     as the direct arrival weakens, and the NCC matched filter's
//     first-arrival peak picking stays on the true onset.
//
// Offsets are pooled across distances into per-detector median/p95 records;
// throughput is us/pair with a reused scratch. The exit code gates the CI
// contract: all three detectors must produce records, and the NCC median
// |offset| on the echo scene must be strictly below the Goertzel median.
//
// Run bench_ranging_goertzel FIRST: it rewrites BENCH_ranging.json from
// scratch, and this bench then merges its block into the existing file
// (replacing any previous "detector_accuracy" member).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "acoustics/environment.hpp"
#include "eval/aggregate.hpp"
#include "math/rng.hpp"
#include "math/stats.hpp"
#include "ranging/ranging_service.hpp"
#include "ranging/tdoa.hpp"

using namespace resloc;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    const double dt = now_s() - t0;
    if (dt < best) best = dt;
  }
  return best;
}

volatile double g_sink = 0.0;

/// Zero-jitter fixture: ground truth per trial is exactly
/// detection_index_for_distance(d), so offsets need no estimation.
ranging::RangingConfig fixture_config(ranging::DetectorMode mode, bool echo) {
  ranging::RangingConfig config;
  config.environment = acoustics::EnvironmentProfile::grass();
  config.environment.echo_rate = 0.0;
  config.environment.noise_burst_rate_hz = 0.0;
  if (echo) {
    config.environment.fixed_echo_lag_s = 0.010;          // 160 samples
    config.environment.fixed_echo_attenuation_db = -8.0;  // echo louder than direct
  }
  config.pattern.num_chirps = 10;
  config.pattern.chirp_duration_s = 0.008;
  config.pattern.tone_frequency_hz = 4300.0;
  config.detection = {2, 32, 6};
  config.max_window_range_m = 22.0;
  config.tdoa.sync_jitter_s = 0.0;
  config.channel_jitter.actuation_jitter_s = 0.0;
  config.tdoa.delta_const_true_s = ranging::kDeltaConstCalibratedS;
  config.detector_mode = mode;
  return config;
}

struct DetectorRecord {
  double median_abs_offset = 0.0;  ///< samples; -1 when nothing detected
  double p95_abs_offset = 0.0;
  double detect_rate = 0.0;
  double us_per_pair = 0.0;
};

DetectorRecord run_scene(ranging::DetectorMode mode, bool echo,
                         const std::vector<double>& distances, int trials,
                         std::uint64_t seed) {
  const ranging::RangingConfig config = fixture_config(mode, echo);
  const ranging::RangingService service(config);
  std::vector<double> offsets;
  int attempts = 0;
  ranging::RangingScratch scratch;
  for (double d : distances) {
    const int expected = ranging::detection_index_for_distance(d);
    math::Rng rng(seed);
    for (int t = 0; t < trials; ++t) {
      math::Rng stream = rng.fork(t);
      ++attempts;
      const auto attempt = service.measure(d, {}, {}, stream, scratch);
      if (!attempt.distance_m) continue;
      offsets.push_back(std::abs(static_cast<double>(attempt.detection_index - expected)));
    }
  }
  DetectorRecord record;
  record.detect_rate =
      attempts > 0 ? static_cast<double>(offsets.size()) / attempts : 0.0;
  record.median_abs_offset = offsets.empty() ? -1.0 : *math::median(std::vector<double>(offsets));
  record.p95_abs_offset = offsets.empty() ? -1.0 : *math::percentile(offsets, 95.0);

  // Throughput: the mid-fixture distance with a reused scratch, best-of-3.
  constexpr int kTimedPairs = 30;
  const double mid = distances[distances.size() / 2];
  const double elapsed = best_of(3, [&] {
    math::Rng r(seed ^ 0x7157);
    double sum = 0.0;
    for (int i = 0; i < kTimedPairs; ++i) {
      const auto est = service.measure(mid, {}, {}, r, scratch).distance_m;
      sum += est.value_or(0.0);
    }
    g_sink = sum;
  });
  record.us_per_pair = elapsed / kTimedPairs * 1e6;
  return record;
}

/// Removes an existing `"detector_accuracy": { ... }` member (plus the comma
/// that precedes it) from a JSON object body by brace counting.
std::string strip_detector_accuracy(std::string json) {
  const std::size_t key = json.find("\"detector_accuracy\"");
  if (key == std::string::npos) return json;
  std::size_t begin = key;
  // Swallow the separating comma and whitespace before the key.
  while (begin > 0 && (json[begin - 1] == ' ' || json[begin - 1] == '\n' ||
                       json[begin - 1] == ',')) {
    --begin;
  }
  std::size_t open = json.find('{', key);
  if (open == std::string::npos) return json;
  int depth = 0;
  std::size_t end = open;
  for (; end < json.size(); ++end) {
    if (json[end] == '{') ++depth;
    if (json[end] == '}' && --depth == 0) break;
  }
  if (end >= json.size()) return json;
  json.erase(begin, end + 1 - begin);
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_ranging.json";
  std::puts("Detector accuracy: detection offset per mode, clean vs fixed echo\n");

  const std::vector<double> clean_distances = {5.0, 10.0, 15.0, 20.0};
  const std::vector<double> echo_distances = {14.0, 16.0, 18.0, 20.0};
  constexpr int kTrials = 40;
  constexpr std::uint64_t kCleanSeed = 0xF00D;
  constexpr std::uint64_t kEchoSeed = 0xBEEF;

  const std::vector<std::pair<std::string, ranging::DetectorMode>> modes = {
      {"hardware", ranging::DetectorMode::kHardware},
      {"goertzel", ranging::DetectorMode::kGoertzel},
      {"ncc", ranging::DetectorMode::kMatchedFilter},
  };

  const auto v = [](double x) { return resloc::eval::format_value(x); };
  std::string block = "  \"detector_accuracy\": {\n";
  block += "    \"trials_per_distance\": " + std::to_string(kTrials) + ",\n";
  block += "    \"echo_lag_samples\": 160,\n";
  block += "    \"echo_attenuation_db\": -8,\n";

  double ncc_echo_median = -1.0;
  double goertzel_echo_median = -1.0;
  std::size_t records = 0;
  for (const bool echo : {false, true}) {
    const auto& distances = echo ? echo_distances : clean_distances;
    const std::uint64_t seed = echo ? kEchoSeed : kCleanSeed;
    std::printf("%s scene (%d trials x %zu distances)\n", echo ? "echo" : "clean",
                kTrials, distances.size());
    block += std::string("    \"") + (echo ? "echo" : "clean") + "\": {\n";
    for (std::size_t m = 0; m < modes.size(); ++m) {
      const DetectorRecord r = run_scene(modes[m].second, echo, distances, kTrials, seed);
      std::printf("  %-8s median|off| %7.1f  p95 %7.1f  detect %5.1f%%  %8.2f us/pair\n",
                  modes[m].first.c_str(), r.median_abs_offset, r.p95_abs_offset,
                  r.detect_rate * 100.0, r.us_per_pair);
      block += "      \"" + modes[m].first + "\": {";
      block += "\"median_abs_offset_samples\": " + v(r.median_abs_offset) + ", ";
      block += "\"p95_abs_offset_samples\": " + v(r.p95_abs_offset) + ", ";
      block += "\"detect_rate\": " + v(r.detect_rate) + ", ";
      block += "\"us_per_pair\": " + v(r.us_per_pair) + "}";
      block += m + 1 < modes.size() ? ",\n" : "\n";
      if (r.median_abs_offset >= 0.0) ++records;
      if (echo && modes[m].first == "ncc") ncc_echo_median = r.median_abs_offset;
      if (echo && modes[m].first == "goertzel") goertzel_echo_median = r.median_abs_offset;
    }
    block += echo ? "    }\n" : "    },\n";
  }
  block += "  }";

  const bool all_records = records == 2 * modes.size();
  const bool ncc_beats_goertzel =
      ncc_echo_median >= 0.0 && goertzel_echo_median >= 0.0 &&
      ncc_echo_median < goertzel_echo_median;
  std::printf("\nncc echo median %.1f vs goertzel %.1f samples (gate: strictly less)\n",
              ncc_echo_median, goertzel_echo_median);

  // Merge into the existing BENCH_ranging.json (or start a fresh object).
  std::string existing;
  {
    std::ifstream in(json_path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      existing = strip_detector_accuracy(buf.str());
    }
  }
  std::string json;
  const std::size_t close = existing.rfind('}');
  if (close != std::string::npos) {
    json = existing.substr(0, close);
    while (!json.empty() && (json.back() == '\n' || json.back() == ' ')) json.pop_back();
    json += ",\n" + block + "\n}\n";
  } else {
    json = "{\n" + block + "\n}\n";
  }
  if (!resloc::eval::write_text_file(json_path, json)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("bench record merged into: %s\n", json_path.c_str());
  return all_records && ncc_beats_goertzel ? 0 : 1;
}
