// Acoustic environment profiles.
//
// The paper evaluates the ranging service in four kinds of terrain with very
// different acoustic behaviour (Sections 3.3 and 3.6): an urban site with
// buildings and echoes, a flat grassy field near an airport, a paved parking
// lot, and a wooded area. We model an environment by: ambient noise floor,
// excess attenuation on top of geometric spreading (grass and woods absorb
// strongly; pavement barely at all), echo statistics (multipath is common near
// buildings), and the rate of transient wide-band noise bursts (aircraft,
// footsteps, birds).
//
// Parameter calibration targets the paper's reported behaviour:
//   - stock 88 dB buzzer: detection range < 3 m on grass, ~10 m on pavement,
//   - 105 dB loudspeaker: ~20 m max / ~10 m reliable on grass; 35-50 m max /
//     ~25 m reliable on pavement (Section 3.6.2).
#pragma once

#include <string>
#include <vector>

namespace resloc::acoustics {

/// False-positive probability of the tone detector while a noise burst is
/// active, in every terrain (the burst *rate* is what varies by site).
inline constexpr double kNoiseBurstFalsePositiveRate = 0.35;

/// Static acoustic description of a deployment site.
struct EnvironmentProfile {
  std::string name;

  /// Attenuation in dB per meter in excess of spherical spreading
  /// (absorption by grass, foliage, ground effect).
  double excess_attenuation_db_per_m = 0.0;

  /// Ambient acoustic noise level in dB (same arbitrary reference as the
  /// speaker output level, which the paper quotes at 10 cm).
  double noise_floor_db = 40.0;

  /// Per-sample probability that the hardware tone detector fires with no
  /// tone present (background noise in the 4.0-4.5 kHz band).
  double false_positive_rate = 0.01;

  /// Expected number of audible echoes produced per chirp (multipath).
  double echo_rate = 0.0;

  /// Mean extra propagation delay of an echo relative to the direct path, in
  /// seconds (exponentially distributed).
  double echo_delay_mean_s = 0.02;

  /// Echo level reduction relative to the direct path, in dB.
  double echo_attenuation_db = 12.0;

  /// Deterministic fixed reflector: when positive, every chirp additionally
  /// produces one echo at exactly this extra delay (no randomness consumed).
  /// The paper's random inter-chirp delays decorrelate the Poisson echoes
  /// above across accumulation rounds, but a fixed nearby reflector (a wall,
  /// Section 3.3's urban courtyard) arrives at the same lag in every window
  /// and survives accumulation -- the echo the matched-filter detector and
  /// the robust measurement filters exist to reject. 0 disables (default; all
  /// built-in profiles leave it off, so campaign byte-streams are unchanged).
  double fixed_echo_lag_s = 0.0;

  /// Level of the fixed echo relative to the direct path, in dB (positive =
  /// quieter). Fixtures may set it negative to model a focusing reflector
  /// louder than a marginal direct arrival.
  double fixed_echo_attenuation_db = 6.0;

  /// Rate (events per second) of transient wide-band noise bursts that raise
  /// the detector's false-positive probability while active.
  double noise_burst_rate_hz = 0.0;

  /// Duration of a noise burst, in seconds.
  double noise_burst_duration_s = 0.05;

  /// Flat grassy field, 10-15 cm grass (the paper's main 46-node experiment
  /// site, near an airport: occasional loud engine noise).
  static EnvironmentProfile grass();

  /// Paved parking lot; low attenuation, long range.
  static EnvironmentProfile pavement();

  /// Urban site with buildings, gravel, pavement; echo-rich (the 60-node
  /// baseline experiment of Section 3.3).
  static EnvironmentProfile urban();

  /// Wooded area with >20 cm grass and scattered trees; strongest absorption.
  static EnvironmentProfile wooded();
};

/// The four built-in profile names, sorted ("grass", "pavement", "urban",
/// "wooded") -- the value set of the experiment runner's environment axis.
std::vector<std::string> environment_names();

/// Profile factory by name. Throws std::invalid_argument for an unknown name
/// so a mistyped sweep axis fails the trial loudly instead of silently
/// running the default terrain.
EnvironmentProfile environment_by_name(const std::string& name);

}  // namespace resloc::acoustics
