// The refined signal detection algorithm of Section 3.5 / Figure 3.
//
// record-signal: binary tone-detector outputs from several chirps are added
// into one buffer, aligned by the radio sync message, "in a manner which
// amplifies tone detections occurring in the same positions in multiple
// attempts". The buffer allocates 4 bits per offset, capping accumulation at
// 15 chirps (Section 3.6.2).
//
// detect-signal: threshold detection -- the accumulated count must reach T,
// and that must happen for at least k of m consecutive samples; the detected
// signal start is the first sample of the qualifying window.
#pragma once

#include <cstdint>
#include <vector>

#include "acoustics/tone_detector.hpp"
#include "math/rng.hpp"

namespace resloc::ranging {

/// Detection thresholds used by SignalScanner. Defaults are the calibrated
/// values from the grass experiment (Section 3.6): sums from 10 chirps must
/// exceed T=2 in at least k=6 of m=32 consecutive samples.
struct DetectionParams {
  int threshold = 2;       ///< T: minimum accumulated count per sample
  int window = 32;         ///< m: consecutive-sample window length
  int min_detections = 6;  ///< k: qualifying samples required in the window
};

/// Accumulates binary tone-detector series across chirps (record-signal).
class SignalAccumulator {
 public:
  /// `num_samples` is the per-chirp sampling window length; RAM use is 4 bits
  /// per sample on the mote, modeled by capping counters at 15.
  explicit SignalAccumulator(std::size_t num_samples);

  /// Adds one chirp's binary detector output, a contiguous 0/1 buffer of
  /// n == num_samples entries (the block-DSP `fired` lane), with a
  /// branch-free saturating accumulate the compiler can vectorize. Chirps
  /// past kMaxChirps are not recorded.
  void record_chirp_block(const std::uint8_t* fired, std::size_t n);

  /// Fused Bernoulli-draw + accumulate for the hardware-detector path: draws
  /// one uniform per sample from `rng` (always, even once the 4-bit counters
  /// are full, so the stream never depends on the cap) and counts sample i of
  /// run r as fired iff uniform_bits() < runs[r].threshold -- per-sample
  /// rng.bernoulli(p_i), since bernoulli(p) is uniform_bits() <
  /// bernoulli_threshold(p). `runs` must start at sample 0 and ascend (see
  /// ToneDetectorModel::threshold_runs). Only each draw's high word is
  /// generated in bulk; a draw whose high word ties its run's
  /// Rng::high_word_threshold (about 2^-32 per sample) is replayed in full
  /// from a jump-ahead copy of the generator.
  void record_chirp_runs(resloc::math::Rng& rng, const std::vector<acoustics::ThresholdRun>& runs);

  /// Zeroes the counters (and resizes to `num_samples`) so one accumulator
  /// can be reused across a campaign's pairs without reallocating.
  void reset(std::size_t num_samples);

  /// Accumulated counts, saturated at the 4-bit maximum.
  const std::vector<std::uint8_t>& samples() const { return samples_; }

  std::size_t size() const { return samples_.size(); }
  int chirps_recorded() const { return chirps_; }

  /// Hard cap from the 4-bit-per-offset buffer layout (Section 3.6.2).
  static constexpr int kMaxChirps = 15;

 private:
  std::vector<std::uint8_t> samples_;
  std::vector<std::uint32_t> high_words_;  ///< one chirp's draws, high words only
  int chirps_ = 0;
};

/// detect-signal from Figure 3 over the accumulated counters, resumable for
/// pattern verification's rejection loop. A window of `params.window`
/// consecutive samples qualifies when at least `params.min_detections` of
/// them have count >= params.threshold and its first sample itself does (it
/// marks the signal start); each next() returns the next qualifying window
/// start. (The paper's pseudocode is 1-indexed mote code; this is the
/// 0-indexed equivalent.)
///
/// reset() turns the counters into a bitmask of qualifying samples, one bit
/// per counter. Window qualification at a start depends only on that mask,
/// so next() jumps from one set bit to the next and counts its window with a
/// popcount, and the silence check is a popcount over the same mask: the
/// whole rejection loop costs O(n / 64 + candidates * window / 64). The
/// mask buffer is reused across reset() calls, so a scanner kept in a
/// RangingScratch allocates nothing once grown.
class SignalScanner {
 public:
  SignalScanner() = default;
  SignalScanner(const std::vector<std::uint8_t>& samples, const DetectionParams& params) {
    reset(samples, params);
  }

  /// Builds the mask of `samples` against params.threshold and rewinds the
  /// scan to sample 0. The samples are not referenced afterwards.
  void reset(const std::vector<std::uint8_t>& samples, const DetectionParams& params);

  /// Next qualifying window start after the previous result (first call: at
  /// or after 0), or -1 once exhausted.
  int next();

  /// Pattern verification (Section 3.5): the emitted pattern is chirps
  /// preceded by silence, so a genuine detection at `index` must be preceded
  /// by a quiet gap. Returns true when at most `max_noisy` of the `gap`
  /// samples before `index` (clipped at 0) meet the detection threshold;
  /// false for a negative index. Detections failing this are echo tails or
  /// noise (false detections "due to noise or echoes that are not part of
  /// the pattern").
  bool verify_preceding_silence(int index, int gap, int max_noisy) const;

 private:
  /// Qualifying samples in [lo, hi).
  int count(std::size_t lo, std::size_t hi) const;

  std::vector<std::uint64_t> mask_;  ///< sample i qualifies: bit i % 64 of word i / 64
  int size_ = 0;
  int window_ = 0;
  int min_detections_ = 0;
  int start_ = 0;  ///< next window start to examine
};

}  // namespace resloc::ranging
