#include "fault/fault_injector.hpp"

#include <algorithm>
#include <limits>

namespace resloc::fault {

namespace {

/// Per-kind substream tags. Each fault kind forks its own base off the
/// injector's base so a node's crash draw can never correlate with (or
/// shift) its sleep, mic, or per-pair draws.
constexpr std::uint64_t kCrashTag = 0xC0A5;
constexpr std::uint64_t kSleepTag = 0x51EE;
constexpr std::uint64_t kMicTag = 0x301C;
constexpr std::uint64_t kStuckTag = 0x57CC;
constexpr std::uint64_t kMissTag = 0x3155;
constexpr std::uint64_t kCorruptTag = 0xC0FF;

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, const math::Rng& base,
                             std::size_t node_count, int rounds)
    : plan_(plan), base_(base), n_(node_count), rounds_(rounds),
      active_(plan.enabled()) {}

std::uint64_t FaultInjector::pair_key(int round, core::NodeId source,
                                      core::NodeId receiver) const {
  return (static_cast<std::uint64_t>(round) * n_ + source) * n_ + receiver;
}

bool FaultInjector::node_available(core::NodeId node, int round) const {
  if (!active_) return true;
  if (plan_.node_crash_rate > 0.0 && rounds_ > 1) {
    math::Rng stream = base_.fork(kCrashTag).fork(node);
    if (stream.bernoulli(plan_.node_crash_rate)) {
      // Crash rounds start at 1: a crash is a *mid-campaign* failure, so
      // every node contributes at least its round-0 measurements.
      const auto crash_round =
          static_cast<int>(stream.uniform_int(1, rounds_ - 1));
      if (round >= crash_round) return false;
    }
  }
  if (plan_.node_sleep_rate > 0.0 && rounds_ > 0) {
    math::Rng stream = base_.fork(kSleepTag).fork(node);
    if (stream.bernoulli(plan_.node_sleep_rate)) {
      const auto start = static_cast<int>(stream.uniform_int(0, rounds_ - 1));
      const auto length = static_cast<int>(
          stream.uniform_int(1, std::max(1, rounds_ / 2)));
      if (round >= start && round < start + length) return false;
    }
  }
  return true;
}

bool FaultInjector::mic_faulty(core::NodeId node) const {
  if (!active_ || plan_.faulty_mic_rate <= 0.0) return false;
  math::Rng stream = base_.fork(kMicTag).fork(node);
  return stream.bernoulli(plan_.faulty_mic_rate);
}

bool FaultInjector::detector_stuck(core::NodeId node) const {
  if (!active_ || plan_.stuck_detector_rate <= 0.0) return false;
  math::Rng stream = base_.fork(kStuckTag).fork(node);
  return stream.bernoulli(plan_.stuck_detector_rate);
}

double FaultInjector::stuck_distance_m(core::NodeId node) const {
  // Second draw of the stuck substream (the first is the bernoulli): a small
  // constant the node reports for every link, every round. Not exactly zero
  // so degenerate same-position geometry cannot hide the fault.
  math::Rng stream = base_.fork(kStuckTag).fork(node);
  (void)stream.bernoulli(plan_.stuck_detector_rate);
  return stream.uniform(0.1, 2.0);
}

bool FaultInjector::chirp_missed(int round, core::NodeId source,
                                 core::NodeId receiver) const {
  if (!active_ || plan_.missed_chirp_rate <= 0.0) return false;
  math::Rng stream = base_.fork(kMissTag).fork(pair_key(round, source, receiver));
  return stream.bernoulli(plan_.missed_chirp_rate);
}

double FaultInjector::corrupt_distance(int round, core::NodeId source,
                                       core::NodeId receiver, double measured_m) const {
  if (!active_ || plan_.corrupt_distance_rate <= 0.0) return measured_m;
  math::Rng stream =
      base_.fork(kCorruptTag).fork(pair_key(round, source, receiver));
  if (!stream.bernoulli(plan_.corrupt_distance_rate)) return measured_m;
  if (stream.uniform() < kCorruptNanFraction) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Multiplicative outlier, always an overestimate: the physical signature
  // of latching an echo instead of the first arrival.
  return measured_m * stream.uniform(2.0, 1.0 + kOutlierScale);
}

}  // namespace resloc::fault
