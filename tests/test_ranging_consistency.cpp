#include <gtest/gtest.h>

#include <set>

#include "ranging/measurement_table.hpp"

namespace {

using namespace resloc::ranging;

FilterPolicy median_policy() {
  FilterPolicy policy;
  policy.kind = FilterKind::kMedian;
  return policy;
}

TEST(MeasurementTable, StoresDirectionalSamples) {
  MeasurementTable table;
  table.add(1, 2, 10.0);
  table.add(1, 2, 10.2);
  table.add(2, 1, 9.9);
  const MeasurementTable::Entries& entries = table.entries();
  EXPECT_EQ(entries.at({1, 2}).size(), 2u);
  EXPECT_EQ(entries.at({2, 1}).size(), 1u);
  EXPECT_EQ(entries.count({3, 1}), 0u);
  EXPECT_EQ(table.measurement_count(), 3u);
  EXPECT_EQ(table.directed_pair_count(), 2u);
}

TEST(MeasurementTable, FilteredAppliesPolicy) {
  MeasurementTable table;
  table.add(0, 1, 5.0);
  table.add(0, 1, 5.1);
  table.add(0, 1, 50.0);  // outlier
  const auto filtered = table.filtered(0, 1, median_policy());
  ASSERT_TRUE(filtered.has_value());
  EXPECT_DOUBLE_EQ(*filtered, 5.1);
  EXPECT_FALSE(table.filtered(1, 2, median_policy()).has_value());
}

TEST(MeasurementTable, NodesEnumeration) {
  MeasurementTable table;
  table.add(5, 9, 1.0);
  table.add(2, 5, 1.0);
  std::set<NodeId> ids;
  for (const auto& [key, raw] : table.entries()) {
    ids.insert(key.first);
    ids.insert(key.second);
  }
  EXPECT_EQ(ids, (std::set<NodeId>{2, 5, 9}));
}

TEST(SymmetricEstimates, ConsistentBidirectionalAveraged) {
  MeasurementTable table;
  table.add(0, 1, 10.0);
  table.add(1, 0, 10.4);
  const auto pairs = table.symmetric_estimates(median_policy(), 1.0);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_TRUE(pairs[0].bidirectional);
  EXPECT_DOUBLE_EQ(pairs[0].distance_m, 10.2);
  EXPECT_EQ(pairs[0].a, 0u);
  EXPECT_EQ(pairs[0].b, 1u);
}

TEST(SymmetricEstimates, InconsistentBidirectionalDiscarded) {
  // Section 3.5: "bidirectional range estimates between a pair of nodes are
  // discarded if they are inconsistent."
  MeasurementTable table;
  table.add(0, 1, 10.0);
  table.add(1, 0, 14.0);
  EXPECT_TRUE(table.symmetric_estimates(median_policy(), 1.0).empty());
}

TEST(SymmetricEstimates, UnidirectionalRetained) {
  // "Sometimes it may be beneficial to retain suspicious measurements due to
  // the scarcity of available data."
  MeasurementTable table;
  table.add(3, 7, 12.0);
  const auto pairs = table.symmetric_estimates(median_policy(), 1.0);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_FALSE(pairs[0].bidirectional);
  EXPECT_DOUBLE_EQ(pairs[0].distance_m, 12.0);
}

TEST(SymmetricEstimates, BidirectionalOnlyFilters) {
  MeasurementTable table;
  table.add(0, 1, 10.0);
  table.add(1, 0, 10.1);
  table.add(0, 2, 8.0);  // unidirectional
  EXPECT_EQ(table.symmetric_estimates(median_policy(), 1.0).size(), 2u);
  const auto bidir = table.bidirectional_only(median_policy(), 1.0);
  ASSERT_EQ(bidir.size(), 1u);
  EXPECT_EQ(bidir[0].b, 1u);
}

std::vector<PairEstimate> triangle(double ab, double bc, double ca) {
  return {{0, 1, ab, false}, {1, 2, bc, false}, {0, 2, ca, false}};
}

TEST(TriangleViolations, DetectsViolation) {
  const auto violations = find_triangle_violations(triangle(10.0, 2.0, 2.0), 0.05);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].a, 0u);
  EXPECT_EQ(violations[0].c, 2u);
}

TEST(TriangleViolations, ConsistentTriplesPass) {
  EXPECT_TRUE(find_triangle_violations(triangle(3.0, 4.0, 5.0), 0.05).empty());
  // Slightly over but within tolerance.
  EXPECT_TRUE(find_triangle_violations(triangle(7.2, 3.0, 4.0), 0.05).empty());
}

TEST(TriangleViolations, IncompleteTriplesIgnored) {
  const std::vector<PairEstimate> pairs{{0, 1, 10.0, false}, {1, 2, 2.0, false}};
  EXPECT_TRUE(find_triangle_violations(pairs, 0.05).empty());
}

TEST(DropTriangleOffenders, RemovesRepeatOffender) {
  // Node layout: a clique of 4 where the (0,1) edge is wildly overestimated;
  // it violates triangles (0,1,2) and (0,1,3) as the longest side.
  std::vector<PairEstimate> pairs{
      {0, 1, 30.0, false},  // corrupted: true distance ~5
      {0, 2, 5.0, false},  {1, 2, 5.0, false},
      {0, 3, 5.0, false},  {1, 3, 5.0, false},
      {2, 3, 5.0, false},
  };
  const auto cleaned = drop_triangle_offenders(pairs, 0.05, 2);
  EXPECT_EQ(cleaned.size(), 5u);
  for (const auto& p : cleaned) {
    EXPECT_FALSE(p.a == 0 && p.b == 1);
  }
}

TEST(DropTriangleOffenders, KeepsAllWhenConsistent) {
  std::vector<PairEstimate> pairs{
      {0, 1, 5.0, false}, {0, 2, 5.0, false}, {1, 2, 5.0, false}};
  EXPECT_EQ(drop_triangle_offenders(pairs, 0.05, 1).size(), 3u);
}

TEST(DropTriangleOffenders, MinViolationsThresholdRespected) {
  // Single violating triangle: offender participates in exactly 1 violation.
  auto pairs = triangle(10.0, 2.0, 2.0);
  EXPECT_EQ(drop_triangle_offenders(pairs, 0.05, 2).size(), 3u);  // kept
  EXPECT_EQ(drop_triangle_offenders(pairs, 0.05, 1).size(), 2u);  // dropped
}

}  // namespace
