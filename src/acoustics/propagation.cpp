#include "acoustics/propagation.hpp"

#include <cmath>

namespace resloc::acoustics {

namespace {
constexpr double kSnr50Db = 10.0;            // SNR of 50% per-sample detection
constexpr double kSnrSlopeDb = 3.0;          // logistic slope
constexpr double kMaxHitProbability = 0.95;  // detector misses even strong tones
}  // namespace

double detection_probability(double snr_db_value) {
  const double logistic = 1.0 / (1.0 + std::exp(-(snr_db_value - kSnr50Db) / kSnrSlopeDb));
  return kMaxHitProbability * logistic;
}

}  // namespace resloc::acoustics
