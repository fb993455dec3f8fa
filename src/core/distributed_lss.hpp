// Distributed LSS localization (Section 4.3): local maps, pairwise
// transforms, and alignment to the root's coordinate system.
//
// This is the graph-driven reference implementation: it computes exactly what
// the mote protocol computes, with alignment propagating outward from the
// root along a breadth-first tree of neighbor relations (the network flood of
// Step 3 explores the same edges). The event-driven implementation on the
// network simulator lives in alignment_protocol.hpp; both fit each pairwise
// transform with pairwise_transform below, so the two agree when given the
// same local maps.
#pragma once

#include <optional>
#include <vector>

#include "core/local_map.hpp"
#include "core/types.hpp"
#include "math/transform2d.hpp"

namespace resloc::core {

/// Minimum shared members required to align two local maps; below 3 the
/// reflection/rotation is under-determined and alignment is refused.
inline constexpr std::size_t kMinSharedMembers = 3;

/// Distributed-LSS configuration.
struct DistributedLssOptions {
  /// LSS settings for the per-node local maps (the soft constraint applies
  /// within each neighborhood too).
  LssOptions local_lss;

  /// Reject a pairwise transform whose per-shared-member RMS residual
  /// exceeds this (meters); large residuals signal a folded local map whose
  /// propagation would corrupt everything downstream (the Figure 24 failure).
  /// Set to a huge value to disable (the default 1e9 effectively does).
  double max_transform_rmse_m = 1e9;
};

/// Output of the distributed localization.
struct DistributedLssResult {
  /// Per-node positions in the root's local coordinate frame (nullopt =
  /// unreached / unalignable).
  LocalizationResult result;
  /// Per-node local maps (diagnostics, reused by the event-driven protocol).
  std::vector<LocalMap> maps;
  /// BFS order in which nodes were aligned (root first).
  std::vector<NodeId> alignment_order;
  /// Per-node transform from the node's local frame to the root frame.
  std::vector<std::optional<resloc::math::Transform2D>> to_root;
};

/// Runs the full distributed pipeline: builds every node's local map, then
/// aligns maps outward from `root`, and reads each node's own position out of
/// its aligned local frame.
DistributedLssResult localize_distributed(const MeasurementSet& measurements, NodeId root,
                                          const DistributedLssOptions& options,
                                          resloc::math::Rng& rng);

/// Steps 2 and 3 over prebuilt local maps: the second half of
/// localize_distributed, also called by tests on hand-edited maps. Draws no
/// randomness: every pairwise transform is closed form.
DistributedLssResult align_local_maps(std::vector<LocalMap> maps, NodeId root,
                                      const DistributedLssOptions& options);

/// Step 2 of Section 4.3.1 for one pair of neighbors: the rigid transform
/// mapping `source`'s local frame onto `target`'s, fitted on the members the
/// two maps share. The paper offers an exact minimization and a closed form
/// and runs the closed form on motes; so does this (math::fit_rigid with
/// reflection allowed). Returns nullopt when the maps share fewer than
/// kMinSharedMembers or the fit's per-shared-member RMS residual exceeds
/// `max_rmse_m`. Both alignment paths call this.
std::optional<resloc::math::Transform2D> pairwise_transform(const LocalMap& source,
                                                            const LocalMap& target,
                                                            double max_rmse_m);

}  // namespace resloc::core
