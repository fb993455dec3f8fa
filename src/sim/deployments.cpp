#include "sim/deployments.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace resloc::sim {

using resloc::core::Deployment;
using resloc::core::NodeId;
using resloc::math::Vec2;

Deployment offset_grid(std::size_t columns, std::size_t rows, double column_spacing_m,
                       double row_spacing_m, double offset_m) {
  Deployment d;
  d.positions.reserve(columns * rows);
  for (std::size_t c = 0; c < columns; ++c) {
    const double x = static_cast<double>(c) * column_spacing_m;
    const double y0 = (c % 2 == 0) ? offset_m : 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      d.positions.push_back(Vec2{x, y0 + static_cast<double>(r) * row_spacing_m});
    }
  }
  return d;
}

Deployment offset_grid_with_failures(std::size_t drop_count, resloc::math::Rng& rng) {
  Deployment d = offset_grid();
  drop_random_nodes(d, drop_count, rng);
  return d;
}

Deployment random_uniform(std::size_t count, double width_m, double height_m,
                          double min_spacing_m, resloc::math::Rng& rng) {
  Deployment d;
  d.positions.reserve(count);
  const double min_sq = min_spacing_m * min_spacing_m;
  int attempts = 0;
  while (d.positions.size() < count && attempts < 100000) {
    ++attempts;
    const Vec2 candidate{rng.uniform(0.0, width_m), rng.uniform(0.0, height_m)};
    bool ok = true;
    for (const Vec2& p : d.positions) {
      if (resloc::math::distance_sq(candidate, p) < min_sq) {
        ok = false;
        break;
      }
    }
    if (ok) d.positions.push_back(candidate);
  }
  return d;
}

Deployment town_blocks_59() {
  // Streets of a 4 x 3 grid of 19 m city blocks; nodes sit along street
  // edges roughly every 9.5 m with small deterministic jitter, honoring the
  // >= 9 m minimum node spacing the paper's soft constraint assumes
  // ("we penalized pairs of nodes with unknown distance when they were
  // assigned coordinates which made them closer than 9 m"). The layout spans
  // 76 x 57 m. With the 22 m ranging cutoff this yields 396 measured
  // pairs -- sparser than the paper's quoted 945, which cannot coexist with a
  // 9 m minimum spacing for 59 nodes; the 9 m guarantee is the constraint
  // the experiment depends on, so it wins (BENCH_paper.json's Fig 20-22
  // pair-count row records the gap).
  Deployment d;
  resloc::math::Rng rng(0x70776e5f626c6bULL);  // fixed: the layout is part of the scenario

  const double block = 19.0;  // 4 x 3 grid of blocks: town spans 76 x 57 m
  const auto jitter = [&rng]() { return rng.uniform(-0.35, 0.35); };

  // Vertical streets at x = 0, 19, 38, 57, 76; nodes every 9.5 m, y in [0, 57].
  for (int sx = 0; sx <= 4; ++sx) {
    const double x = block * sx;
    for (int k = 0; k <= 6; ++k) {
      d.positions.push_back(Vec2{x + jitter(), 9.5 * k + jitter()});
    }
  }
  // Horizontal streets at y = 0, 19, 38, 57: mid-block nodes between the
  // corner nodes already placed by the vertical streets.
  for (int sy = 0; sy <= 3; ++sy) {
    const double y = block * sy;
    for (const double x : {9.5, 28.5, 47.5, 66.5}) {
      d.positions.push_back(Vec2{x + jitter(), y + jitter()});
    }
  }
  // Courtyard nodes inside eight of the twelve blocks (sensor networks do
  // not only follow streets); block centers stay >= 9 m from street nodes.
  for (const Vec2 center : {Vec2{9.5, 9.5}, Vec2{47.5, 9.5}, Vec2{28.5, 28.5}, Vec2{66.5, 28.5},
                            Vec2{9.5, 47.5}, Vec2{47.5, 47.5}, Vec2{28.5, 9.5},
                            Vec2{66.5, 47.5}}) {
    d.positions.push_back(center + Vec2{jitter(), jitter()});
  }

  // 35 + 16 + 8 = 59 exactly.
  while (d.positions.size() > 59) d.positions.pop_back();
  return d;
}

Deployment parking_lot_15() {
  Deployment d;
  // 25 x 25 m lot; 5 loudspeaker-fitted anchor boards around the edge and 10
  // plain nodes inside (matches the Figure 12 setting: 15 nodes, 5 anchors,
  // one-way measurements from anchors).
  d.positions = {
      Vec2{0.0, 0.0},   Vec2{25.0, 0.0},  Vec2{25.0, 22.0}, Vec2{0.0, 22.0},  Vec2{12.0, 11.0},
      Vec2{5.5, 4.0},   Vec2{18.0, 3.5},  Vec2{21.5, 9.0},  Vec2{16.0, 14.5}, Vec2{8.0, 16.0},
      Vec2{2.5, 10.0},  Vec2{12.5, 5.5},  Vec2{6.0, 9.5},   Vec2{19.5, 18.5}, Vec2{11.0, 20.0},
  };
  d.anchors = {0, 1, 2, 3, 4};
  return d;
}

void drop_random_nodes(Deployment& deployment, std::size_t drop_count,
                       resloc::math::Rng& rng) {
  if (drop_count == 0 || deployment.positions.empty()) return;

  std::vector<bool> droppable(deployment.positions.size(), true);
  for (NodeId anchor : deployment.anchors) {
    if (anchor >= droppable.size()) {
      throw std::out_of_range("drop_random_nodes: anchor id out of range");
    }
    droppable[anchor] = false;
  }
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < droppable.size(); ++i) {
    if (droppable[i]) candidates.push_back(i);
  }

  std::vector<bool> dead(deployment.positions.size(), false);
  for (std::size_t pick : rng.sample_indices(candidates.size(),
                                             std::min(drop_count, candidates.size()))) {
    dead[candidates[pick]] = true;
  }

  // Compact positions and remap anchor ids to the survivors' new indices.
  std::vector<NodeId> new_id(deployment.positions.size(), 0);
  std::vector<resloc::math::Vec2> kept;
  kept.reserve(deployment.positions.size());
  for (std::size_t i = 0; i < deployment.positions.size(); ++i) {
    if (dead[i]) continue;
    new_id[i] = static_cast<NodeId>(kept.size());
    kept.push_back(deployment.positions[i]);
  }
  for (NodeId& anchor : deployment.anchors) anchor = new_id[anchor];
  deployment.positions = std::move(kept);
}

void choose_random_anchors(Deployment& deployment, std::size_t count, resloc::math::Rng& rng) {
  deployment.anchors.clear();
  for (std::size_t idx : rng.sample_indices(deployment.positions.size(),
                                            std::min(count, deployment.positions.size()))) {
    deployment.anchors.push_back(static_cast<NodeId>(idx));
  }
  std::sort(deployment.anchors.begin(), deployment.anchors.end());
}

}  // namespace resloc::sim
