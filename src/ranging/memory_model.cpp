#include "ranging/memory_model.hpp"

#include <cmath>

namespace resloc::ranging {

namespace {
std::size_t samples_for_range(double max_range_m, double sample_rate_hz,
                              double speed_of_sound_mps) {
  return static_cast<std::size_t>(
      std::ceil(max_range_m / speed_of_sound_mps * sample_rate_hz));
}
}  // namespace

std::size_t hardware_detector_buffer_bytes(double max_range_m, double sample_rate_hz,
                                           double speed_of_sound_mps) {
  const std::size_t samples = samples_for_range(max_range_m, sample_rate_hz, speed_of_sound_mps);
  return (samples + 1) / 2;  // 4 bits per offset
}

std::size_t dft_detector_buffer_bytes(double max_range_m, double sample_rate_hz,
                                      double speed_of_sound_mps, std::size_t bits_per_sample) {
  const std::size_t samples = samples_for_range(max_range_m, sample_rate_hz, speed_of_sound_mps);
  return (samples * bits_per_sample + 7) / 8;
}

double hardware_detector_max_range_m(std::size_t budget_bytes, double sample_rate_hz,
                                     double speed_of_sound_mps) {
  const double samples = static_cast<double>(budget_bytes) * 2.0;  // 4 bits each
  return samples / sample_rate_hz * speed_of_sound_mps;
}

}  // namespace resloc::ranging
