// The acoustic channel: turns an emission schedule into the time intervals
// during which a tone is audible at a receiver, including multipath echoes
// and transient wide-band noise bursts.
//
// Error sources modeled here (Section 3.4 of the paper):
//   2. non-deterministic delays in acoustic devices (speaker power-up jitter),
//   4. signal attenuation (via propagation.hpp),
//   5. noise (burst windows with elevated false-positive probability),
//   6. echoes (delayed, attenuated copies; echoes of *earlier* chirps can
//      arrive before the direct signal of the current chirp and cause the
//      underestimates seen in Figure 2).
#pragma once

#include <vector>

#include "acoustics/environment.hpp"
#include "acoustics/units.hpp"
#include "math/rng.hpp"

namespace resloc::acoustics {

/// One chirp emission at the source, in source-local time.
struct Emission {
  double start_s = 0.0;
  double duration_s = 0.008;
};

/// A time interval during which a tone (direct or echo) is audible, with its
/// SNR at the receiver.
struct SignalInterval {
  double start_s = 0.0;
  double end_s = 0.0;
  double snr_db = 0.0;
};

/// A time interval during which a wide-band noise burst elevates the tone
/// detector's false-positive probability.
struct NoiseBurst {
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Everything audible at one receiver during one sampling window.
struct ReceivedWindow {
  double start_s = 0.0;     ///< window start, same clock as emissions
  double duration_s = 0.0;
  std::vector<SignalInterval> signals;
  std::vector<NoiseBurst> bursts;
};

/// Tuning of the per-chirp speaker timing jitter.
struct ChannelJitter {
  /// Standard deviation of the speaker power-up / detector pick-up delay (s),
  /// per chirp. The *mean* of this delay is part of delta_const and is
  /// calibrated away, so the residual is modeled as symmetric around zero;
  /// 0.5 ms of timing jitter is ~17 cm of distance, giving the paper's
  /// zero-mean +/-30 cm error core.
  double actuation_jitter_s = 0.0005;
};

/// Speaker power ramp-up: the first kRampupS of each chirp is emitted
/// kRampupPenaltyDb below full level ("it may take some time before an
/// analog sounder reaches its maximum output power level", Section 3.4).
/// At marginal SNR the ramp is missed and detection slides into the chirp
/// body -- the paper's over-estimation mechanism, which grows with chirp
/// length (Section 3.6) and caps at the chirp's own acoustic length.
inline constexpr double kRampupS = 0.003;
inline constexpr double kRampupPenaltyDb = 5.0;

/// The distance-dependent pieces of the channel response, computed once per
/// (distance, environment) and reusable across every chirp window, round,
/// and direction of a link: the spreading loss (environment-independent),
/// the excess attenuation (linear in distance), and the acoustic travel
/// time. Everything else in the received SNR -- speaker level, shadowing,
/// mic sensitivity, noise floor -- varies per unit or per attempt and is
/// composed on top in exactly the association order propagation.hpp uses,
/// so cached and uncached windows are bit-identical.
struct LinkResponse {
  double distance_m = 0.0;
  double spreading_db = 0.0;  ///< 20 * log10(max(d, 10 cm) / 10 cm)
  double excess_db = 0.0;     ///< env.excess_attenuation_db_per_m * d
  double travel_s = 0.0;      ///< d / kSpeedOfSoundMps
};

/// Computes the reusable channel response for one link distance.
LinkResponse link_response(double distance_m, const EnvironmentProfile& env);

/// Builds the received window for one receiver at `distance_m` from the
/// source. `emissions` must include every chirp whose direct signal or echo
/// can fall inside the window (i.e. also the previous chirp). A jitter or
/// echo value that cannot reach the window is skipped (Rng::skip_gaussian,
/// skip_exponential), which leaves the generator exactly where drawing it
/// would.
ReceivedWindow receive(const std::vector<Emission>& emissions, double window_start_s,
                       double window_duration_s, double distance_m, const SpeakerUnit& speaker,
                       const MicUnit& mic, const EnvironmentProfile& env,
                       const ChannelJitter& jitter, resloc::math::Rng& rng);

/// receive() into a caller-owned window, reusing its signal/burst vectors
/// across a campaign's pairs. Draw-for-draw identical to receive().
void receive_into(ReceivedWindow& window, const std::vector<Emission>& emissions,
                  double window_start_s, double window_duration_s, double distance_m,
                  const SpeakerUnit& speaker, const MicUnit& mic, const EnvironmentProfile& env,
                  const ChannelJitter& jitter, resloc::math::Rng& rng);

/// receive_into() with the distance-dependent response precomputed (usually
/// by a sim::ChannelResponseCache). Value- and draw-identical to the
/// distance-taking overload for link == link_response(distance_m, env).
void receive_into(ReceivedWindow& window, const std::vector<Emission>& emissions,
                  double window_start_s, double window_duration_s, const LinkResponse& link,
                  const SpeakerUnit& speaker, const MicUnit& mic, const EnvironmentProfile& env,
                  const ChannelJitter& jitter, resloc::math::Rng& rng);

}  // namespace resloc::acoustics
