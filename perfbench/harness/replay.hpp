// The traced replay: every trial of a workload re-run by calling the layers'
// public functions in CampaignRunner::run_trial's order, on the same forked
// substreams, with a harness span around each call. Nothing is added inside
// src/; the src/obs counters give the work counts, per span when the replay
// runs on one thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/aggregate.hpp"
#include "harness/workloads.hpp"

namespace perfbench {

/// One harness span around a call into a layer.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;  ///< steady_clock
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;    ///< index into the span list; -1 = root
  std::int64_t trial = -1;     ///< the trial's global index; -1 = none
  /// src/obs counter deltas over the span, indexed by obs::Counter; empty
  /// when the replay ran on several threads.
  std::vector<std::uint64_t> counters;
};

struct ReplayResult {
  /// Outcomes in expand() order.
  std::vector<resloc::eval::TrialOutcome> trials;
  /// CampaignResult::to_json(), rebuilt from the replayed trials.
  std::string json;
  std::vector<Span> spans;
  /// Wall time of the trials and their aggregation; excludes the net pass.
  double wall_s = 0.0;
  /// Alignment-protocol radio traffic summed over the net pass.
  std::uint64_t net_broadcasts = 0;
  std::uint64_t net_deliveries = 0;
};

/// Replays the workload's campaign at its runner thread count with the
/// src/obs counters on. Distributed trials also run
/// core::run_alignment_protocol on their local maps, after the replay, as
/// "net.alignment_protocol" spans outside the trial span.
ReplayResult replay_traced(const Workload& workload);

}  // namespace perfbench
