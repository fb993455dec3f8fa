#include "acoustics/signal_synth.hpp"

#include <cmath>

#include "acoustics/units.hpp"
#include "math/constants.hpp"

namespace resloc::acoustics {

void mix_tone_noise_block(const double* amplitude, const double* tone, const double* noise,
                          const std::uint8_t* burst, double burst_noise_sigma, double* out,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double sigma = burst[i] != 0 ? burst_noise_sigma : 1.0;
    out[i] = amplitude[i] * tone[i] + sigma * noise[i];
  }
}

ToneTemplateView WaveformSynthesizer::tone_template_view(double frequency_hz,
                                                         std::size_t length) {
  ToneTemplate* entry = nullptr;
  for (ToneTemplate& t : templates_) {
    if (t.frequency_hz == frequency_hz) {
      entry = &t;
      break;
    }
  }
  if (entry == nullptr) {
    templates_.push_back({frequency_hz, {}, {}});
    entry = &templates_.back();
  }
  const double omega_dt = 2.0 * resloc::math::kPi * frequency_hz / kSampleRateHz;
  // Extend lazily: a longer window than any seen before grows the same table.
  for (std::size_t i = entry->sin_t.size(); i < length; ++i) {
    const double angle = omega_dt * static_cast<double>(i);
    entry->sin_t.push_back(std::sin(angle));
    entry->cos_t.push_back(std::cos(angle));
  }
  return {entry->sin_t.data(), entry->cos_t.data(), entry->sin_t.size()};
}

}  // namespace resloc::acoustics
