#include "acoustics/chirp_pattern.hpp"

namespace resloc::acoustics {

std::vector<double> chirp_start_times(const ChirpPattern& pattern, resloc::math::Rng& rng) {
  std::vector<double> starts;
  chirp_start_times_into(pattern, rng, starts);
  return starts;
}

void chirp_start_times_into(const ChirpPattern& pattern, resloc::math::Rng& rng,
                            std::vector<double>& starts) {
  starts.clear();
  starts.reserve(static_cast<std::size_t>(pattern.num_chirps));
  double t = 0.0;
  for (int i = 0; i < pattern.num_chirps; ++i) {
    if (i > 0) {
      t += pattern.chirp_duration_s + kInterChirpGapS + rng.uniform(0.0, kRandomDelayMaxS);
    }
    starts.push_back(t);
  }
}

}  // namespace resloc::acoustics
