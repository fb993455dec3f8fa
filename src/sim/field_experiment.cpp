#include "sim/field_experiment.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "fault/fault_injector.hpp"
#include "math/grid_pairs.hpp"
#include "obs/telemetry.hpp"
#include "sim/channel_cache.hpp"

namespace resloc::sim {

using resloc::core::MeasurementSet;
using resloc::core::NodeId;

namespace {

/// Fork tags separating the campaign's two substream families. Shadowing
/// substreams are indexed by unordered pair (i * n + j, i < j) and
/// measurement substreams by turn (round * n + source); the index spaces
/// overlap, so each family forks from its own tagged base to keep a pair's
/// shadowing decorrelated from a turn's measurement noise.
constexpr std::uint64_t kShadowingStreamTag = 0x5AD0;
constexpr std::uint64_t kMeasurementStreamTag = 0x3EA5;
/// Base fork handed to the fault injector; it derives per-kind, per-key
/// substreams internally (see fault/fault_injector.hpp).
constexpr std::uint64_t kFaultStreamTag = 0xFA17;

/// The link's symmetric shadowing draw, recomputed on demand from its own
/// substream: same value in both directions and every round, O(1) memory.
double link_shadowing_db(const resloc::math::Rng& shadow_base, NodeId a, NodeId b,
                         std::size_t n) {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  resloc::math::Rng stream =
      shadow_base.fork(static_cast<std::uint64_t>(lo) * n + hi);
  return stream.gaussian(0.0, kLinkShadowingStddevDb);
}

/// One successful estimate, staged per (round, source) turn so threaded and
/// sequential runs aggregate in the same order.
struct TurnEstimate {
  NodeId receiver = 0;
  double measured_m = 0.0;
};

}  // namespace

MeasurementSet FieldExperimentData::to_measurement_set(std::size_t node_count) const {
  MeasurementSet set(node_count);
  set.reserve(filtered.size());
  for (const auto& pair : filtered) {
    set.add(pair.a, pair.b, pair.distance_m, /*weight=*/1.0);
  }
  return set;
}

FieldExperimentData run_field_experiment(const resloc::core::Deployment& deployment,
                                         const FieldExperimentConfig& config,
                                         resloc::math::Rng& rng) {
  FieldExperimentData data;
  const std::size_t n = deployment.size();

  // Each node's physical units are drawn once for the whole campaign.
  std::vector<resloc::acoustics::SpeakerUnit> speakers;
  std::vector<resloc::acoustics::MicUnit> mics;
  speakers.reserve(n);
  mics.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    speakers.push_back(config.units.sample_speaker(resloc::acoustics::kLoudspeakerDb, rng));
    mics.push_back(config.units.sample_mic(rng));
  }

  const resloc::ranging::RangingService service(config.ranging);

  // Substream bases, forked off the post-unit state: every draw below is
  // indexed by what it is for (pair, turn), never by when it happens.
  const resloc::math::Rng shadow_base = rng.fork(kShadowingStreamTag);
  const resloc::math::Rng measurement_base = rng.fork(kMeasurementStreamTag);

  // Fault injector on its own tagged fork. fork() is const and never
  // advances `rng`, and an inert plan draws nothing, so a fault-free
  // campaign's byte-stream is unchanged by this line existing.
  const resloc::fault::FaultInjector injector(config.faults, rng.fork(kFaultStreamTag), n,
                                              config.rounds);

  // Faulty-mic injection reuses the campaign's physical fault model: a
  // forced-faulty mic suffers the same persistent wide-band noise (spurious
  // detections + leakage) a unit-model-drawn faulty mic does.
  if (injector.active()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (injector.mic_faulty(static_cast<NodeId>(i))) mics[i].faulty = true;
    }
  }

  // Front end: the in-range pair set and the skip count, found by the grid
  // in O(n + in-range pairs).
  const std::size_t total_pairs = n < 2 ? 0 : n * (n - 1) / 2;
  resloc::math::GridPairEnumerator pairs;
  pairs.build(deployment.positions.data(), n, config.simulate_within_m,
              /*include_equal=*/true);
  data.skipped_pairs = total_pairs - pairs.pair_count();

  // Measurement turns: each (round, source) is one task on its own
  // substream, staging its estimates into its own slot. Thread workers pull
  // turns from a shared cursor; the slot layout makes aggregation order (and
  // therefore the output bytes) independent of the schedule.
  const std::size_t num_turns =
      config.rounds > 0 ? static_cast<std::size_t>(config.rounds) * n : 0;
  std::vector<std::vector<TurnEstimate>> turns(num_turns);

  const auto run_turn = [&](std::size_t turn, resloc::ranging::RangingScratch& scratch,
                            ChannelResponseCache& channel_cache) {
    obs::add(obs::Counter::kCampaignTurns);
    const auto source = static_cast<NodeId>(turn % n);
    const int round = static_cast<int>(turn / n);
    // A crashed or sleeping source skips its whole turn (it cannot chirp).
    if (injector.active() && !injector.node_available(source, round)) return;
    resloc::math::Rng stream = measurement_base.fork(turn);  // == round * n + source
    std::vector<TurnEstimate>& out = turns[turn];
    const auto attempt = [&](NodeId receiver, double true_d) {
      if (injector.active()) {
        // A down receiver hears nothing; a missed chirp is a per-attempt
        // detection dropout. Both consume only injector substream draws, so
        // the turn stream's draw sequence for surviving attempts is the
        // same at any thread count.
        if (!injector.node_available(receiver, round)) return;
        if (injector.chirp_missed(round, source, receiver)) return;
        if (injector.detector_stuck(receiver)) {
          // Stuck detector: latches the same bogus arrival every time, so
          // its reported distance is constant per node -- self-consistent
          // across rounds (it sails through the consistency vote) but wrong,
          // which is exactly what the bidirectional check is for.
          out.push_back({receiver, injector.stuck_distance_m(receiver)});
          return;
        }
      }
      // Shadowing is applied as a reduction of the effective source level.
      resloc::acoustics::SpeakerUnit speaker = speakers[source];
      speaker.output_db += link_shadowing_db(shadow_base, source, receiver, n);
      // The distance-dependent channel response comes from the per-worker
      // cache: every round revisits the same link distances, so the log10
      // spreading term is paid once per distinct distance per trial. The
      // cache only ever returns bitwise-exact matches, so estimates are
      // byte-identical to the uncached path.
      const acoustics::LinkResponse& link = channel_cache.lookup(true_d);
      const auto estimate =
          service.measure(true_d, speaker, mics[receiver], stream, scratch, &link).distance_m;
      if (estimate) {
        double measured = *estimate;
        if (injector.active()) {
          measured = injector.corrupt_distance(round, source, receiver, measured);
        }
        out.push_back({receiver, measured});
      }
    };
    pairs.for_each_neighbor(source, [&](std::size_t receiver, double true_d) {
      attempt(static_cast<NodeId>(receiver), true_d);
    });
  };

  const std::size_t threads = std::min<std::size_t>(
      config.threads > 1 ? static_cast<std::size_t>(config.threads) : 1,
      std::max<std::size_t>(num_turns, 1));
  // Each worker owns one scratch, reused across all its turns (the
  // per-sequence buffers are sized by the service's window), and a channel
  // cache that dies with the trial (its invalidation point -- trials may
  // perturb the environment). One worker runs inline.
  std::atomic<std::size_t> cursor{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto worker = [&]() {
    resloc::ranging::RangingScratch scratch;
    ChannelResponseCache channel_cache(config.ranging.environment);
    try {
      for (;;) {
        const std::size_t turn = cursor.fetch_add(1, std::memory_order_relaxed);
        if (turn >= num_turns) return;
        run_turn(turn, scratch, channel_cache);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  // Sequential aggregation in turn order: identical to the historical
  // round -> source -> ascending-receiver insertion order.
  for (std::size_t turn = 0; turn < num_turns; ++turn) {
    const auto source = static_cast<NodeId>(turn % n);
    for (const TurnEstimate& e : turns[turn]) {
      data.raw.add(source, e.receiver, e.measured_m);
    }
  }

  {
    RESLOC_SPAN("ranging/filtering");
    data.filtered = data.raw.symmetric_estimates(config.filter, kBidirectionalToleranceM);
  }
  obs::add(obs::Counter::kFilteredPairs, data.filtered.size());
  return data;
}

}  // namespace resloc::sim
