#include "acoustics/channel.hpp"

#include <algorithm>
#include <cmath>

namespace resloc::acoustics {

LinkResponse link_response(double distance_m, const EnvironmentProfile& env) {
  constexpr double kReferenceDistanceM = 0.1;  // speaker levels are quoted at 10 cm
  const double d = std::max(distance_m, kReferenceDistanceM);
  LinkResponse link;
  link.distance_m = distance_m;
  link.spreading_db = 20.0 * std::log10(d / kReferenceDistanceM);
  link.excess_db = env.excess_attenuation_db_per_m * d;  // clamped distance, as spreading
  link.travel_s = distance_m / kSpeedOfSoundMps;
  return link;
}

void receive_into(ReceivedWindow& window, const std::vector<Emission>& emissions,
                  double window_start_s, double window_duration_s, const LinkResponse& link,
                  const SpeakerUnit& speaker, const MicUnit& mic, const EnvironmentProfile& env,
                  const ChannelJitter& jitter, resloc::math::Rng& rng) {
  window.signals.clear();
  window.bursts.clear();
  window.start_s = window_start_s;
  window.duration_s = window_duration_s;
  const double window_end = window_start_s + window_duration_s;

  // received = (source - spreading) - excess; snr = (received + sens) - floor
  const double direct_snr =
      (((speaker.effective_db() - link.spreading_db) - link.excess_db) +
       mic.sensitivity_db) -
      env.noise_floor_db;
  const double travel_s = link.travel_s;
  // Lazy draws: a value the window cannot use is skipped (Rng::skip_*), which
  // advances the stream exactly as drawing it would, so the window and the
  // generator's end state match the eager form. A Box-Muller normal obeys
  // |z| <= sqrt(-2 ln 2^-53) < 8.572, so a jittered onset lies within
  // kJitterReach * |sigma| of its mean.
  constexpr double kJitterReach = 8.6;
  const double jitter_reach_s = kJitterReach * std::abs(jitter.actuation_jitter_s);
  const double echo_lambda = 1.0 / env.echo_delay_mean_s;

  for (const Emission& e : emissions) {
    // Direct path. The audible start carries the speaker's unit-specific
    // onset offset plus per-chirp power-up jitter (both relative to the
    // calibrated mean, hence possibly negative). The first kRampupS of the
    // chirp plays below full level while the speaker powers up. The jitter
    // is skipped when the chirp ends before the window opens (audible_end
    // has no jitter term) or starts after it closes at any jitter.
    const double arrival_s = e.start_s + travel_s;
    const double onset_s = arrival_s + speaker.onset_delay_s;
    const double audible_end = arrival_s + e.duration_s;
    if (audible_end <= window_start_s || onset_s - jitter_reach_s >= window_end) {
      rng.skip_gaussian();
    } else {
      const double audible_start = onset_s + rng.gaussian(0.0, jitter.actuation_jitter_s);
      const double ramp_end = std::min(audible_start + kRampupS, audible_end);
      if (audible_end > window_start_s && audible_start < window_end &&
          audible_end > audible_start) {
        if (ramp_end > audible_start) {
          window.signals.push_back({audible_start, ramp_end, direct_snr - kRampupPenaltyDb});
        }
        if (audible_end > ramp_end) {
          window.signals.push_back({ramp_end, audible_end, direct_snr});
        }
      }
    }

    // Fixed reflector (deterministic, consumes no RNG): one echo per chirp at
    // a constant extra lag. Because the lag never varies, these echoes stay
    // aligned across accumulation windows -- unlike the random echoes below,
    // which the pattern's random inter-chirp delays decorrelate.
    if (env.fixed_echo_lag_s > 0.0) {
      const double echo_start = arrival_s + env.fixed_echo_lag_s;
      const double echo_end = echo_start + e.duration_s;
      if (echo_end > window_start_s && echo_start < window_end) {
        window.signals.push_back(
            {echo_start, echo_end, direct_snr - env.fixed_echo_attenuation_db});
      }
    }

    // Echoes: a Poisson-ish number of delayed, attenuated copies. The delay
    // is redrawn per chirp, which is exactly why the paper's random inter-
    // chirp delays decorrelate echo positions across accumulation rounds.
    // A delay is >= 0, so an arrival at or after the window's end leaves no
    // echo in it: its delay and SNR are skipped; otherwise only the SNR of
    // an echo that misses the window is.
    const bool echoes_miss = echo_lambda > 0.0 && arrival_s >= window_end;
    double remaining = env.echo_rate;
    while (remaining > 0.0 && rng.bernoulli(std::min(remaining, 1.0))) {
      remaining -= 1.0;
      if (echoes_miss) {
        rng.skip_exponential();
        rng.skip_gaussian();
        continue;
      }
      const double delay = rng.exponential(echo_lambda);
      const double echo_start = arrival_s + delay;
      const double echo_end = echo_start + e.duration_s;
      if (echo_end > window_start_s && echo_start < window_end) {
        const double echo_snr = direct_snr - env.echo_attenuation_db + rng.gaussian(0.0, 2.0);
        window.signals.push_back({echo_start, echo_end, echo_snr});
      } else {
        rng.skip_gaussian();
      }
    }
  }

  // Transient wide-band noise bursts as a Poisson process over the window.
  if (env.noise_burst_rate_hz > 0.0) {
    double t = window_start_s + rng.exponential(env.noise_burst_rate_hz);
    while (t < window_end) {
      window.bursts.push_back({t, t + env.noise_burst_duration_s});
      t += rng.exponential(env.noise_burst_rate_hz);
    }
  }

  std::sort(window.signals.begin(), window.signals.end(),
            [](const SignalInterval& a, const SignalInterval& b) { return a.start_s < b.start_s; });
}

}  // namespace resloc::acoustics
