// Shared types of the localization library: deployments, sparse weighted
// distance measurements, and localization results.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "math/vec2.hpp"

namespace resloc::core {

using NodeId = std::uint32_t;

/// A physical deployment: ground-truth node positions (used by simulation and
/// evaluation only -- the algorithms never read them) and the anchor subset.
struct Deployment {
  std::vector<resloc::math::Vec2> positions;
  std::vector<NodeId> anchors;  ///< ids of nodes that know their position

  std::size_t size() const { return positions.size(); }
  bool is_anchor(NodeId id) const;
};

/// One symmetric distance observation with a confidence weight (the paper's
/// w_ij; Section 4.2.1 suggests statistical entities such as the standard
/// deviation of repeated measurements as weights).
struct DistanceEdge {
  NodeId i = 0;
  NodeId j = 0;  ///< i < j always
  double distance_m = 0.0;
  double weight = 1.0;
};

/// A sparse set of symmetric distance measurements -- the D (subset of
/// D_full) that LSS minimizes over. At most one edge per unordered pair;
/// re-adding replaces.
class MeasurementSet {
 public:
  MeasurementSet() = default;
  explicit MeasurementSet(std::size_t node_count) : node_count_(node_count) {}

  /// Adds (or replaces) the measurement between i and j. Grows node_count as
  /// needed. Self-edges are ignored.
  void add(NodeId i, NodeId j, double distance_m, double weight = 1.0);

  /// The measurement between i and j, if present.
  std::optional<DistanceEdge> between(NodeId i, NodeId j) const;

  /// Whether i and j have a measurement: one index probe, no edge copy (the
  /// LSS soft constraint asks this of every close pair it considers).
  bool has(NodeId i, NodeId j) const;

  const std::vector<DistanceEdge>& edges() const { return edges_; }
  std::size_t edge_count() const { return edges_.size(); }

  std::size_t node_count() const { return node_count_; }
  /// Grows the logical node count to at least `n`. Grow-only by design: ids
  /// may already appear in stored edges, so a shrink would dangle them --
  /// requests smaller than the current count are silently ignored, they do
  /// not truncate. (The constructor argument, by contrast, sets the initial
  /// count exactly.)
  void set_node_count(std::size_t n);

  /// Pre-sizes the edge storage and index for `edge_count` measurements.
  /// Bulk producers (the campaign's filtered set, the synthetic generators)
  /// know their size up front; reserving keeps add() from reallocating the
  /// edge vector and rehashing the index mid-fill.
  void reserve(std::size_t edge_count);

  /// Neighbors of `id`: every node with a measurement to it, with distances.
  /// Served from a per-node adjacency index in O(degree), in edge insertion
  /// order -- the solvers call this per node, which a linear scan of all
  /// edges would turn into O(n * |E|) at campaign scale.
  std::vector<std::pair<NodeId, double>> neighbors(NodeId id) const;

  /// Number of measured edges incident to `id` (O(1)).
  std::size_t degree(NodeId id) const {
    return id < adjacency_.size() ? adjacency_[id].size() : 0;
  }

  /// Average number of measured edges per node (2|E| / n).
  double average_degree() const;

 private:
  static std::uint64_t key(NodeId i, NodeId j);

  std::vector<DistanceEdge> edges_;
  std::unordered_map<std::uint64_t, std::size_t> index_;  // key -> edge index
  /// Per-node (neighbor id, index into edges_), appended at insertion so the
  /// order neighbors() reports matches the historical edge scan.
  std::vector<std::vector<std::pair<NodeId, std::size_t>>> adjacency_;
  std::size_t node_count_ = 0;
};

/// Per-node localization quality. The degradation contract of the fault
/// work: a solver that cannot produce a full-confidence fix reports a
/// flagged status instead of silent garbage (or a thrown trial).
enum class LocalizationStatus : std::uint8_t {
  kUnlocalized = 0,  ///< no position estimate for this node
  kOk = 1,           ///< full-confidence fix (or a true anchor)
  kDegraded = 2,     ///< low-confidence fix (e.g. under-constrained solve)
};

/// Output of a localization algorithm: estimated position per node, or
/// nullopt where the algorithm could not localize the node.
struct LocalizationResult {
  std::vector<std::optional<resloc::math::Vec2>> positions;
  /// Per-node status, aligned with `positions`. Multilateration fills its
  /// own; the LSS solvers leave it empty and LocalizationPipeline derives it.
  std::vector<LocalizationStatus> status;

  std::size_t localized_count() const;
  /// Nodes placed with a degraded-confidence fix.
  std::size_t degraded_count() const;
  std::size_t size() const { return positions.size(); }
};

}  // namespace resloc::core
