// The acoustic signal pattern emitted by the source node.
//
// Section 3.5: "we use a very simple pattern - a sequence of identical chirps
// interspersed with intervals of silence. ... To counteract the effect of
// echoes of the original chirp being detected, we include small random
// delays between elements of the pattern." Section 3.6 fixes the operating
// point: a constant 4.3 kHz tone in 8 ms chirps, 10 chirps per sequence;
// 64 ms chirps caused over-estimates (late part detected when the early part
// is missed) and chirps below 8 ms did not let the speaker power up fully.
#pragma once

#include <vector>

#include "math/rng.hpp"

namespace resloc::acoustics {

/// Silence between consecutive chirps of a sequence.
inline constexpr double kInterChirpGapS = 0.25;

/// Upper bound of the extra uniform per-chirp delay that decorrelates echoes
/// across accumulation windows (Section 3.5).
inline constexpr double kRandomDelayMaxS = 0.05;

/// Emission schedule parameters for one ranging sequence.
struct ChirpPattern {
  int num_chirps = 10;
  double chirp_duration_s = 0.008;   ///< 8 ms (Section 3.6)
  double tone_frequency_hz = 4300.0; ///< within the 4.0-4.5 kHz detector band
};

/// Emission start times (seconds, relative to the sequence start) for each
/// chirp, including the per-chirp random delays, into a caller-owned buffer
/// reused across sequences.
void chirp_start_times_into(const ChirpPattern& pattern, resloc::math::Rng& rng,
                            std::vector<double>& starts);

}  // namespace resloc::acoustics
