// Event-driven alignment (Section 4.3.1, Step 3) on the network simulator.
//
// The mote protocol, verbatim: after local maps are exchanged ("two local
// data exchanges per node"), the root broadcasts "a vector representation of
// the origin of the global coordinate system and two orthonormal axis
// vectors". A node receiving (o, x, y) in the sender's frame applies its
// stored sender->self transform to get (o^, x^, y^) in its own frame,
// computes its own position as ((p - o^) . x^, (p - o^) . y^), and forwards
// the transformed vectors -- one round of flooding for the whole network.
//
// This implementation exchanges the actual map/alignment messages over the
// discrete-event radio, and is checked against the graph-driven
// implementation in distributed_lss.hpp. The root starts the flood after the
// last staggered map broadcast (at 5 s, or 10 ms per node past 500 nodes),
// so every node holds its neighbours' maps when the flood reaches it.
#pragma once

#include <optional>
#include <vector>

#include "core/distributed_lss.hpp"
#include "core/local_map.hpp"
#include "core/types.hpp"
#include "net/network.hpp"

namespace resloc::core {

/// Protocol statistics and result.
struct AlignmentProtocolResult {
  /// Per-node positions in the root's frame (nullopt = never aligned).
  LocalizationResult result;
  std::size_t map_broadcasts = 0;
  std::size_t align_broadcasts = 0;
  std::size_t messages_delivered = 0;
};

/// Runs map exchange + alignment flooding over a simulated radio network.
/// `true_positions` provides radio connectivity only (who can hear whom);
/// the protocol never reads them for localization. `maps` are the prebuilt
/// Step 1 local maps (one per node, owner == index).
AlignmentProtocolResult run_alignment_protocol(const std::vector<LocalMap>& maps, NodeId root,
                                               const std::vector<resloc::math::Vec2>& true_positions,
                                               const DistributedLssOptions& options,
                                               const resloc::net::RadioParams& radio,
                                               std::uint64_t seed);

}  // namespace resloc::core
