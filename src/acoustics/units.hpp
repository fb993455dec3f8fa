// Speaker and microphone unit models.
//
// Section 3.4 (source 3, "unit-to-unit variation") and Section 3.6.2: "some
// speaker-microphone pairs have ranges that are consistently much shorter or
// much longer than the typical values... The microphones are rated at +/-3 dB
// sensitivity, and we have observed variations of up to 5 dB on the
// loudspeakers." Faulty hardware occasionally produces very large errors.
#pragma once

#include <string>
#include <vector>

#include "math/rng.hpp"

namespace resloc::acoustics {

/// Nominal output level of the stock Ario S14T40A buzzer on the MTS310 board,
/// measured 10 cm from the buzzer (Section 3.2).
inline constexpr double kStockBuzzerDb = 88.0;

/// Nominal output level of the $5 piezo loudspeaker extension (Section 3.2).
inline constexpr double kLoudspeakerDb = 105.0;

/// Speed of sound (Vs of Section 3.1). The channel's travel time and the
/// ranging decoder's index-to-distance conversion both read this one value,
/// so the physics and the arithmetic cannot disagree.
inline constexpr double kSpeedOfSoundMps = 340.0;

/// Rate at which the microcontroller polls the tone detector (16 kHz in the
/// paper's experiments, ~2.1 cm of distance per sample at kSpeedOfSoundMps).
inline constexpr double kSampleRateHz = 16000.0;

/// One physical speaker: nominal level plus its unit-specific deviation.
struct SpeakerUnit {
  double output_db = kLoudspeakerDb;
  /// Unit-specific constant onset delay (s) relative to the calibrated mean:
  /// different speakers power up at slightly different speeds (error source 3
  /// in Section 3.4), so every pair involving this speaker carries a small
  /// systematic offset.
  double onset_delay_s = 0.0;
  bool faulty = false;  ///< faulty units emit at drastically reduced power
  /// Effective emission level accounting for faults.
  double effective_db() const { return faulty ? output_db - 25.0 : output_db; }
};

/// One physical microphone: sensitivity deviation applied to the received
/// level, plus an optional fault that adds spurious detections.
struct MicUnit {
  double sensitivity_db = 0.0;
  bool faulty = false;  ///< faulty units suffer persistent wide-band noise
};

/// Sampling parameters for drawing unit populations.
struct UnitVariationModel {
  double speaker_stddev_db = 1.7;  ///< up to ~5 dB observed spread
  double mic_stddev_db = 1.0;      ///< +/-3 dB rated sensitivity
  double onset_delay_stddev_s = 0.0004;  ///< per-unit power-up time spread
  double fault_probability = 0.02;

  SpeakerUnit sample_speaker(double nominal_db, resloc::math::Rng& rng) const;
  MicUnit sample_mic(resloc::math::Rng& rng) const;
};

/// Named unit-variation presets, sorted -- the value set of the experiment
/// runner's unit-model axis:
///   "calibrated" -- the paper-calibrated defaults above,
///   "degraded"   -- aged hardware: double the spread, 8 % fault rate,
///   "nominal"    -- idealized identical units, no faults (isolates the
///                   channel/detector error sources from hardware variation).
std::vector<std::string> unit_model_names();

/// Preset factory by name. Throws std::invalid_argument for an unknown name.
UnitVariationModel unit_model_by_name(const std::string& name);

}  // namespace resloc::acoustics
