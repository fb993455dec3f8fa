// RAM footprint model of the ranging service (Section 3.6.2 and 3.7).
//
// Hardware-detector variant: 4 bits per buffer offset (up to 15 accumulated
// chirps); "for 15 samples at distances up to 20 m, the service uses less
// than 500 bytes of RAM". Software (DFT) variant: raw sample sums instead of
// 1-bit detector outputs; "to achieve a maximum range of 20 m, a 2 kB buffer
// is required with a sampling rate of 16 kHz".
#pragma once

#include <cstddef>

namespace resloc::ranging {

/// Buffer bytes for the hardware tone-detector service: one 4-bit counter per
/// kSampleRateHz sampling offset covering max_range_m of acoustic travel time
/// at kSpeedOfSoundMps.
std::size_t hardware_detector_buffer_bytes(double max_range_m);

/// Buffer bytes for the software (DFT) detector: 16 bits of raw accumulated
/// signal per offset (the paper's 2 kB at 20 m / 16 kHz corresponds to ~17
/// bits).
std::size_t dft_detector_buffer_bytes(double max_range_m);

/// Maximum measurable range given a RAM budget for the hardware-detector
/// layout (inverse of hardware_detector_buffer_bytes). The MICA2's 4 kB total
/// RAM is the backdrop: [17]'s earlier service "fills all available buffer
/// space ... only to achieve a maximum range of less than 16 m".
double hardware_detector_max_range_m(std::size_t budget_bytes);

}  // namespace resloc::ranging
