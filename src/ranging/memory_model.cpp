#include "ranging/memory_model.hpp"

#include <cmath>

#include "acoustics/units.hpp"

namespace resloc::ranging {

namespace {
constexpr std::size_t kDftBitsPerSample = 16;

std::size_t samples_for_range(double max_range_m) {
  return static_cast<std::size_t>(
      std::ceil(max_range_m / acoustics::kSpeedOfSoundMps * acoustics::kSampleRateHz));
}
}  // namespace

std::size_t hardware_detector_buffer_bytes(double max_range_m) {
  return (samples_for_range(max_range_m) + 1) / 2;  // 4 bits per offset
}

std::size_t dft_detector_buffer_bytes(double max_range_m) {
  return (samples_for_range(max_range_m) * kDftBitsPerSample + 7) / 8;
}

double hardware_detector_max_range_m(std::size_t budget_bytes) {
  const double samples = static_cast<double>(budget_bytes) * 2.0;  // 4 bits each
  return samples / acoustics::kSampleRateHz * acoustics::kSpeedOfSoundMps;
}

}  // namespace resloc::ranging
