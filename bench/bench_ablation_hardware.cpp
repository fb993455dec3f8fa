// Ablation A6: the Section 3.2 hardware extension -- stock 88 dB buzzer vs
// the 105 dB loudspeaker, baseline vs refined (accumulating) detection.
//
// The paper: the stock sounder-microphone pair "yields a detection range of
// less than 3 m on grass"; the loudspeaker plus the refined detector extends
// the practical range roughly threefold over prior work.
#include <cstdio>

#include "bench_util.hpp"
#include "eval/report.hpp"
#include "ranging/ranging_service.hpp"
#include "sim/scenarios.hpp"

using namespace resloc;

namespace {

double rate(const ranging::RangingService& service, double d, double speaker_db,
            math::Rng& rng) {
  acoustics::SpeakerUnit speaker;
  speaker.output_db = speaker_db;
  int hits = 0;
  const int trials = 30;
  ranging::RangingScratch scratch;
  for (int i = 0; i < trials; ++i) {
    if (service.measure(d, speaker, acoustics::MicUnit{}, rng, scratch).distance_m) ++hits;
  }
  return 100.0 * hits / trials;
}

}  // namespace

int main() {
  bench::print_banner("Ablation A6 -- hardware extension: 88 dB stock vs 105 dB loudspeaker");
  auto refined_config = sim::grass_refined_ranging();
  refined_config.max_window_range_m = 40.0;
  auto baseline_config = refined_config;
  baseline_config.baseline = true;

  const ranging::RangingService refined(refined_config);
  const ranging::RangingService baseline(baseline_config);
  math::Rng rng(0xAB'61);

  eval::Table table({"distance", "stock+baseline", "stock+refined", "loud+baseline",
                     "loud+refined"});
  for (double d : {2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0}) {
    table.add_row({eval::fmt(d, 0) + " m", eval::fmt(rate(baseline, d, 88.0, rng), 0) + " %",
                   eval::fmt(rate(refined, d, 88.0, rng), 0) + " %",
                   eval::fmt(rate(baseline, d, 105.0, rng), 0) + " %",
                   eval::fmt(rate(refined, d, 105.0, rng), 0) + " %"});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::puts(
      "\npaper shape: the stock buzzer with naive detection dies within a few\n"
      "meters of grass; accumulation (software) and the louder speaker\n"
      "(hardware) each buy range, and together give ~20 m -- the threefold\n"
      "improvement the paper claims over prior work.");
  return 0;
}
