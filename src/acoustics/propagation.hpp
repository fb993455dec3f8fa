// The per-sample detection probability of the hardware tone detector as a
// function of SNR.
//
// The received level itself -- spherical spreading from the 10 cm reference
// distance plus a linear excess-attenuation term -- is channel.hpp's
// link_response, composed with the speaker level, mic sensitivity and noise
// floor into the SNR each received interval carries. A logistic maps that
// SNR to the probability that one 16 kHz sample of the phase-locked-loop
// tone detector reports "tone present". This reproduces the paper's
// observation that P[b(t)=1 | signal present] >> P[b(t)=1 | no signal]
// (Section 3.5) while degrading smoothly with distance, which yields the
// distance-dependent large-error behaviour of Figure 8.
#pragma once

namespace resloc::acoustics {

/// Per-sample probability that the hardware tone detector fires while a tone
/// with the given SNR is present. Logistic in SNR, saturating below 1 (the
/// detector "sometimes fails to recognize the presence of a signal" even at
/// close range, Section 3.5).
double detection_probability(double snr_db_value);

}  // namespace resloc::acoustics
