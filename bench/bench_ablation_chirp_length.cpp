// Ablation A2: chirp length sweep (Section 3.6).
//
// The paper: 64 ms chirps caused many over-estimates ("a long chirp has more
// chances of its later part being detected when its early part is missed");
// 8 ms removed most of them; below 8 ms the speaker cannot power up fully
// (modeled as an output-level penalty for very short chirps).
#include <cstdio>

#include "bench_util.hpp"
#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "ranging/ranging_service.hpp"
#include "sim/scenarios.hpp"

using namespace resloc;

int main() {
  bench::print_banner("Ablation A2 -- chirp length vs over-estimation (grass, 14 m)");
  eval::Table table({"chirp (ms)", "detect %", "mean err (m)", "over >1 m", "max over (m)"});

  for (double chirp_ms : {2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    auto config = sim::grass_refined_ranging();
    config.pattern.chirp_duration_s = chirp_ms / 1000.0;
    config.max_window_range_m = 45.0;  // don't let the buffer truncate long chirps
    // Single-chirp first-firing detection: the regime in which the paper
    // observed the 64 ms over-estimation problem -- the detector latches
    // onto whichever part of the chirp it first hears.
    config.baseline = true;
    const ranging::RangingService service(config);
    math::Rng rng(0xAB'21);

    int detections = 0;
    int over_1m = 0;
    double err_sum = 0.0;
    double max_over = 0.0;
    const int trials = 60;
    const double d = 14.0;
    ranging::RangingScratch scratch;
    for (int i = 0; i < trials; ++i) {
      acoustics::SpeakerUnit speaker;
      // Weak links are where late detection bites: shadow a little. (The
      // channel's ramp-up model makes chirps below ~4 ms mostly ramp, which
      // is the paper's "speaker did not have enough time to fully power up".)
      speaker.output_db -= 3.0;
      const auto est = service.measure(d, speaker, acoustics::MicUnit{}, rng, scratch).distance_m;
      if (!est) continue;
      ++detections;
      const double e = *est - d;
      err_sum += e;
      if (e > 1.0) ++over_1m;
      max_over = std::max(max_over, e);
    }
    table.add_row({eval::fmt(chirp_ms, 0), eval::fmt(100.0 * detections / trials, 0),
                   detections ? eval::fmt(err_sum / detections, 3) : "-",
                   std::to_string(over_1m), eval::fmt(max_over, 2)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::puts(
      "\npaper shape: long chirps inflate the over-estimation tail (up to the\n"
      "chirp's own acoustic length); very short chirps lose detections; 8 ms\n"
      "is the sweet spot, with max over-estimation ~3 m.");
  return 0;
}
