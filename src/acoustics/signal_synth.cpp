#include "acoustics/signal_synth.hpp"

#include <cmath>
#include "math/constants.hpp"

namespace resloc::acoustics {

std::vector<double> synthesize_waveform(const WaveformSpec& spec,
                                        const std::vector<ChirpPlacement>& chirps,
                                        std::size_t num_samples, resloc::math::Rng& rng) {
  std::vector<double> wave(num_samples, 0.0);
  const double dt = 1.0 / spec.sample_rate_hz;

  for (const ChirpPlacement& chirp : chirps) {
    const std::size_t end = std::min(num_samples, chirp.start_sample + chirp.length);
    for (std::size_t i = chirp.start_sample; i < end; ++i) {
      const double t = static_cast<double>(i) * dt;
      wave[i] += spec.tone_amplitude *
                 std::sin(2.0 * resloc::math::kPi * spec.tone_frequency_hz * t);
    }
  }

  if (spec.interference_amplitude != 0.0 && spec.interference_frequency_hz != 0.0) {
    for (std::size_t i = 0; i < num_samples; ++i) {
      const double t = static_cast<double>(i) * dt;
      wave[i] += spec.interference_amplitude *
                 std::sin(2.0 * resloc::math::kPi * spec.interference_frequency_hz * t);
    }
  }

  if (spec.noise_stddev > 0.0) {
    for (double& s : wave) s += rng.gaussian(0.0, spec.noise_stddev);
  }
  return wave;
}

void mix_tone_noise_block(const double* amplitude, const double* tone, const double* noise,
                          const std::uint8_t* burst, double burst_noise_sigma, double* out,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double sigma = burst[i] != 0 ? burst_noise_sigma : 1.0;
    out[i] = amplitude[i] * tone[i] + sigma * noise[i];
  }
}

std::vector<ChirpPlacement> periodic_chirps(std::size_t count, std::size_t first_start,
                                            std::size_t period, std::size_t length) {
  std::vector<ChirpPlacement> chirps;
  chirps.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    chirps.push_back({first_start + i * period, length});
  }
  return chirps;
}

const WaveformSynthesizer::ToneTemplate& WaveformSynthesizer::tone_template(
    double sample_rate_hz, double frequency_hz, std::size_t length) {
  ToneTemplate* entry = nullptr;
  for (ToneTemplate& t : templates_) {
    if (t.sample_rate_hz == sample_rate_hz && t.frequency_hz == frequency_hz) {
      entry = &t;
      break;
    }
  }
  if (entry == nullptr) {
    templates_.push_back({sample_rate_hz, frequency_hz, {}, {}});
    entry = &templates_.back();
  }
  const double omega_dt = 2.0 * resloc::math::kPi * frequency_hz / sample_rate_hz;
  // Extend lazily: a longer chirp than any seen before grows the same table.
  for (std::size_t i = entry->sin_t.size(); i < length; ++i) {
    const double angle = omega_dt * static_cast<double>(i);
    entry->sin_t.push_back(std::sin(angle));
    entry->cos_t.push_back(std::cos(angle));
  }
  return *entry;
}

ToneTemplateView WaveformSynthesizer::tone_template_view(double sample_rate_hz,
                                                         double frequency_hz,
                                                         std::size_t length) {
  const ToneTemplate& tone = tone_template(sample_rate_hz, frequency_hz, length);
  return {tone.sin_t.data(), tone.cos_t.data(), tone.sin_t.size()};
}

void WaveformSynthesizer::synthesize_into(std::vector<double>& wave, const WaveformSpec& spec,
                                          const std::vector<ChirpPlacement>& chirps,
                                          std::size_t num_samples, resloc::math::Rng& rng) {
  wave.assign(num_samples, 0.0);

  for (const ChirpPlacement& chirp : chirps) {
    if (chirp.start_sample >= num_samples) continue;
    const std::size_t length = std::min(chirp.length, num_samples - chirp.start_sample);
    const ToneTemplate& tone =
        tone_template(spec.sample_rate_hz, spec.tone_frequency_hz, length);
    // Tone at absolute sample s+i via angle addition:
    //   sin(w*(s+i)) = sin(w*s)*cos(w*i) + cos(w*s)*sin(w*i)
    // -- two std::sin calls per chirp, two multiplies per sample.
    const double start_angle = 2.0 * resloc::math::kPi * spec.tone_frequency_hz /
                               spec.sample_rate_hz * static_cast<double>(chirp.start_sample);
    const double sin_phase = spec.tone_amplitude * std::sin(start_angle);
    const double cos_phase = spec.tone_amplitude * std::cos(start_angle);
    double* out = wave.data() + chirp.start_sample;
    for (std::size_t i = 0; i < length; ++i) {
      out[i] += sin_phase * tone.cos_t[i] + cos_phase * tone.sin_t[i];
    }
  }

  if (spec.interference_amplitude != 0.0 && spec.interference_frequency_hz != 0.0) {
    const ToneTemplate& tone =
        tone_template(spec.sample_rate_hz, spec.interference_frequency_hz, num_samples);
    for (std::size_t i = 0; i < num_samples; ++i) {
      wave[i] += spec.interference_amplitude * tone.sin_t[i];
    }
  }

  if (spec.noise_stddev > 0.0) {
    for (double& s : wave) s += rng.gaussian(0.0, spec.noise_stddev);
  }
}

}  // namespace resloc::acoustics
