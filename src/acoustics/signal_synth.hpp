// Sampled-audio synthesis for the software detectors of Section 3.7.
//
// Platforms without a hardware tone detector (e.g. the XSM mote) sample the
// microphone directly; a detector then isolates the beacon band. The
// sampled-audio campaign modes synthesize each received window as a tone
// envelope on a cached chirp tone table plus Gaussian noise
// (RangingService::synthesize_window). The Figure 10 capture generator is the
// test reference tests/reference/figure9_dft.hpp.
#pragma once

#include <cstdint>
#include <vector>

namespace resloc::acoustics {

/// Block synthesis kernel of the sampled-audio paths:
///     out[i] = amplitude[i] * tone[i] + (burst[i] ? burst_noise_sigma : 1.0) * noise[i]
/// -- tone envelope on the cached tone table plus scaled standard-normal
/// noise, the same per-sample arithmetic the fused loops of the per-sample
/// reference (tests/reference/per_sample_ranging.hpp) compute interleaved
/// with their RNG draws (gaussian(0, sigma) == sigma * gaussian(0, 1) bit
/// for bit). Branch-free and contiguous, so it
/// auto-vectorizes; the noise block comes from Rng::fill_gaussian_block.
void mix_tone_noise_block(const double* amplitude, const double* tone, const double* noise,
                          const std::uint8_t* burst, double burst_noise_sigma, double* out,
                          std::size_t n);

/// Read-only view of a cached chirp tone template: sin/cos of the tone phase
/// at absolute sample index i. The matched-filter detector correlates raw
/// windows against exactly these tables, so detection and synthesis share one
/// definition of "the chirp" (and one cache).
struct ToneTemplateView {
  const double* sin_t = nullptr;  ///< sin(2*pi*f*i/fs), i in [0, length)
  const double* cos_t = nullptr;
  std::size_t length = 0;
};

/// Chirp tone-table cache for per-pair campaign loops: the sin/cos tables of
/// a tone at kSampleRateHz are computed once per frequency and extended
/// lazily, instead of one std::sin call per sample of every window.
/// Not thread-safe; give each worker its own synthesizer (the templates are
/// small and rebuild in microseconds).
class WaveformSynthesizer {
 public:
  /// The tone template of `frequency_hz` extended to at least `length`
  /// samples, as a read-only view. The pointers are invalidated by any later
  /// call that creates or extends a template (same lifetime rule as
  /// std::vector iterators); campaign scratches re-fetch the view per window.
  ToneTemplateView tone_template_view(double frequency_hz, std::size_t length);

 private:
  struct ToneTemplate {
    double frequency_hz = 0.0;
    std::vector<double> sin_t;  ///< sin(2*pi*f*i/fs), i in [0, length)
    std::vector<double> cos_t;
  };

  std::vector<ToneTemplate> templates_;
};

}  // namespace resloc::acoustics
