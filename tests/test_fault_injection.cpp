#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "math/gradient_descent.hpp"
#include "ranging/statistical_filter.hpp"
#include "sim/field_experiment.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/scenarios.hpp"

namespace {

using resloc::fault::FaultInjector;
using resloc::fault::FaultPlan;
using resloc::math::Rng;

TEST(FaultPlan, DefaultAndNoneAreInert) {
  EXPECT_FALSE(FaultPlan{}.enabled());
  EXPECT_FALSE(resloc::fault::plan_from_kind("none", 1.0).enabled());
  // Zero intensity zeroes every rate, whatever the kind.
  EXPECT_FALSE(resloc::fault::plan_from_kind("all", 0.0).enabled());
}

TEST(FaultPlan, KindVocabularyIsSortedAndEnabled) {
  const std::vector<std::string> expected = {
      "all",        "corrupt_distance", "faulty_mic", "missed_chirp", "node_crash",
      "node_sleep", "none",             "packet_loss", "stuck_detector"};
  EXPECT_EQ(resloc::fault::fault_kind_names(), expected);
  for (const std::string& kind : expected) {
    const FaultPlan plan = resloc::fault::plan_from_kind(kind, 1.0);
    if (kind == "none") {
      EXPECT_FALSE(plan.enabled()) << kind;
    } else {
      EXPECT_TRUE(plan.enabled()) << kind;
    }
  }
}

TEST(FaultPlan, UnknownKindOrNegativeIntensityThrows) {
  EXPECT_THROW(resloc::fault::plan_from_kind("meteor_strike", 1.0), std::invalid_argument);
  EXPECT_THROW(resloc::fault::plan_from_kind("", 1.0), std::invalid_argument);
  EXPECT_THROW(resloc::fault::plan_from_kind("packet_loss", -0.5), std::invalid_argument);
}

TEST(FaultPlan, AppliesNetworkFaultsToRadio) {
  const FaultPlan plan = resloc::fault::plan_from_kind("packet_loss", 1.0);
  resloc::net::RadioParams radio;
  radio.loss_probability = 0.01;
  resloc::fault::apply_to_radio(plan, radio);
  // Loss probability is max(existing, plan); bursts are copied through.
  EXPECT_GE(radio.loss_probability, 0.01);
  EXPECT_EQ(radio.loss_burst_rate_hz, plan.loss_burst_rate_hz);
  EXPECT_EQ(radio.loss_burst_duration_s, plan.loss_burst_duration_s);
}

TEST(FaultInjector, DefaultConstructedIsInert) {
  const FaultInjector inert;
  EXPECT_FALSE(inert.active());
  EXPECT_TRUE(inert.node_available(0, 0));
  EXPECT_FALSE(inert.mic_faulty(3));
  EXPECT_FALSE(inert.detector_stuck(3));
  EXPECT_FALSE(inert.chirp_missed(1, 2, 3));
  EXPECT_EQ(inert.corrupt_distance(1, 2, 3, 7.5), 7.5);
}

TEST(FaultInjector, AnswersAreDeterministicAndOrderIndependent) {
  const FaultPlan plan = resloc::fault::plan_from_kind("all", 2.0);
  const Rng base = Rng(99).fork(0xFA17);
  const std::size_t n = 12;
  const int rounds = 4;
  const FaultInjector a(plan, base, n, rounds);
  const FaultInjector b(plan, base, n, rounds);
  EXPECT_TRUE(a.active());

  // Query `a` forward and `b` backward: every answer is a pure function of
  // (plan, base, key), so enumeration order cannot matter.
  std::vector<int> forward, backward;
  for (std::size_t node = 0; node < n; ++node) {
    for (int round = 0; round < rounds; ++round) {
      forward.push_back(a.node_available(static_cast<resloc::core::NodeId>(node), round));
      forward.push_back(a.mic_faulty(static_cast<resloc::core::NodeId>(node)));
      forward.push_back(a.detector_stuck(static_cast<resloc::core::NodeId>(node)));
      forward.push_back(a.chirp_missed(round, static_cast<resloc::core::NodeId>(node),
                                       static_cast<resloc::core::NodeId>((node + 1) % n)));
    }
  }
  for (std::size_t ni = n; ni-- > 0;) {
    const auto node = static_cast<resloc::core::NodeId>(ni);
    std::vector<int> per_node;
    for (int round = rounds; round-- > 0;) {
      per_node.push_back(b.chirp_missed(round, node,
                                        static_cast<resloc::core::NodeId>((ni + 1) % n)));
      per_node.push_back(b.detector_stuck(node));
      per_node.push_back(b.mic_faulty(node));
      per_node.push_back(b.node_available(node, round));
    }
    backward.insert(backward.begin(), per_node.rbegin(), per_node.rend());
  }
  EXPECT_EQ(forward, backward);

  // The stuck distance is drawn once per node: constant across queries and
  // within the documented near-zero band.
  for (std::size_t node = 0; node < n; ++node) {
    const auto id = static_cast<resloc::core::NodeId>(node);
    const double d = b.stuck_distance_m(id);
    EXPECT_EQ(d, a.stuck_distance_m(id));
    EXPECT_GE(d, 0.1);
    EXPECT_LE(d, 2.0);
  }
}

TEST(FaultInjector, CrashedNodesStayDownAndNeverCrashInRoundZero) {
  FaultPlan plan;
  plan.node_crash_rate = 1.0;  // every node crashes
  const int rounds = 5;
  const FaultInjector inj(plan, Rng(7).fork(1), 20, rounds);
  for (resloc::core::NodeId node = 0; node < 20; ++node) {
    // The crash round is always >= 1: every node participates in round 0.
    EXPECT_TRUE(inj.node_available(node, 0)) << node;
    // A crash is permanent, so the last round always falls after it.
    EXPECT_FALSE(inj.node_available(node, rounds - 1)) << node;
    // Monotone: once down, never back up.
    bool seen_down = false;
    for (int round = 0; round < rounds; ++round) {
      const bool up = inj.node_available(node, round);
      if (seen_down) {
        EXPECT_FALSE(up) << node << " round " << round;
      }
      seen_down = seen_down || !up;
    }
  }
}

TEST(FaultInjector, SleepWindowsAreContiguous) {
  FaultPlan plan;
  plan.node_sleep_rate = 1.0;
  const int rounds = 8;
  const FaultInjector inj(plan, Rng(8).fork(1), 16, rounds);
  for (resloc::core::NodeId node = 0; node < 16; ++node) {
    // Each node sleeps through exactly one contiguous window of rounds.
    int first_down = -1, last_down = -1, down_count = 0;
    for (int round = 0; round < rounds; ++round) {
      if (!inj.node_available(node, round)) {
        if (first_down < 0) first_down = round;
        last_down = round;
        ++down_count;
      }
    }
    ASSERT_GT(down_count, 0) << node;
    EXPECT_EQ(down_count, last_down - first_down + 1) << node;
  }
}

TEST(FaultInjector, CorruptionModesMatchTheNanFraction) {
  // Every estimate is corrupted; kCorruptNanFraction (one half) of them
  // become NaN and the rest multiplicative outliers, so both kinds occur.
  FaultPlan plan;
  plan.corrupt_distance_rate = 1.0;
  const FaultInjector inj(plan, Rng(3).fork(2), 8, 3);

  int nans = 0;
  int outliers = 0;
  for (int round = 0; round < 3; ++round) {
    for (resloc::core::NodeId src = 0; src < 8; ++src) {
      const resloc::core::NodeId rcv = (src + 3) % 8;
      const double out = inj.corrupt_distance(round, src, rcv, 10.0);
      if (std::isnan(out)) {
        ++nans;
        continue;
      }
      ++outliers;
      // Outliers multiply by uniform(2, 1 + kOutlierScale).
      EXPECT_GE(out, 10.0 * 2.0);
      EXPECT_LE(out, 10.0 * (1.0 + resloc::fault::kOutlierScale));
    }
  }
  EXPECT_GT(nans, 0);
  EXPECT_GT(outliers, 0);
}

TEST(StatisticalFilter, ScrubsNonFiniteBeforeEstimating) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  resloc::ranging::FilterPolicy policy;
  resloc::ranging::FilterStats stats;
  const auto result = resloc::ranging::filter_measurements(
      {10.0, nan, 10.2, inf, 9.8, -inf, 10.1}, policy, &stats);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(std::isfinite(*result));
  EXPECT_NEAR(*result, 10.1, 0.2);
  EXPECT_EQ(stats.non_finite_dropped, 3u);
  EXPECT_EQ(stats.input, 4u);

  // An all-corrupt list filters to nothing rather than NaN.
  resloc::ranging::FilterStats all_bad;
  EXPECT_FALSE(resloc::ranging::filter_measurements({nan, inf}, policy, &all_bad).has_value());
  EXPECT_EQ(all_bad.non_finite_dropped, 2u);
}

TEST(GradientDescent, NonFiniteSeedIsFlaggedNotDescended) {
  const auto poisoned = [](const std::vector<double>& x, std::vector<double>& grad) {
    grad.assign(x.size(), 1.0);
    return std::numeric_limits<double>::quiet_NaN();
  };
  resloc::math::GradientDescentOptions options;
  const auto result = resloc::math::minimize(poisoned, {1.0, 2.0}, options);
  EXPECT_TRUE(result.non_finite);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_EQ(result.x, (std::vector<double>{1.0, 2.0}));
}

TEST(GradientDescent, BacktrackingRejectsNanStepsAndStaysFinite) {
  // f(x) = x for x >= 0, NaN below: descent pushes toward the NaN region and
  // the !(candidate <= error) backtracking must refuse every poisoned step.
  const auto half_poisoned = [](const std::vector<double>& x, std::vector<double>& grad) {
    grad.assign(1, 1.0);
    return x[0] >= 0.0 ? x[0] : std::numeric_limits<double>::quiet_NaN();
  };
  resloc::math::GradientDescentOptions options;
  options.step_size = 1.0;
  options.max_iterations = 200;
  const auto result = resloc::math::minimize(half_poisoned, {1e-6}, options);
  EXPECT_GE(result.x[0], 0.0);
  EXPECT_TRUE(std::isfinite(result.error));
}

TEST(GradientDescent, RestartsPreferFiniteRoundsOverNan) {
  // First evaluation of each round is at the seed; a NaN round must never
  // displace a finite best, and a finite round must displace a NaN one.
  int calls = 0;
  const auto flaky = [&calls](const std::vector<double>& x, std::vector<double>& grad) {
    grad.assign(x.size(), 0.0);  // zero gradient: each round stops at its seed
    ++calls;
    return calls == 1 ? std::numeric_limits<double>::quiet_NaN() : 5.0;
  };
  resloc::math::GradientDescentOptions options;
  resloc::math::RestartOptions restarts{.rounds = 3, .perturbation_stddev = 0.1};
  Rng rng(5);
  const auto best =
      resloc::math::minimize_with_restarts(flaky, {0.0}, options, restarts, rng);
  EXPECT_TRUE(std::isfinite(best.error));
  EXPECT_EQ(best.error, 5.0);
}

// The tentpole's determinism bar at the measurement layer: a fully faulted
// acoustic campaign is byte-identical whether its (round, source) turns run
// sequentially or on a thread pool.
TEST(FaultInjection, FaultedCampaignIsThreadCountInvariant) {
  resloc::sim::ScenarioParams params;
  params.node_count = 16;
  Rng scenario_rng(21);
  const resloc::core::Deployment deployment =
      resloc::sim::build_scenario("offset_grid", params, scenario_rng);

  resloc::sim::FieldExperimentConfig config = resloc::sim::grass_campaign_config(2);
  config.faults = resloc::fault::plan_from_kind("all", 1.0);

  config.threads = 1;
  Rng rng_seq(77);
  const auto sequential = resloc::sim::run_field_experiment(deployment, config, rng_seq);

  config.threads = 8;
  Rng rng_par(77);
  const auto threaded = resloc::sim::run_field_experiment(deployment, config, rng_par);

  // Every raw estimate, per direction and in order, bitwise (NaN included).
  const auto& seq_raw = sequential.raw.entries();
  const auto& par_raw = threaded.raw.entries();
  ASSERT_EQ(seq_raw.size(), par_raw.size());
  for (auto s = seq_raw.begin(), p = par_raw.begin(); s != seq_raw.end(); ++s, ++p) {
    ASSERT_EQ(s->first, p->first);
    ASSERT_EQ(s->second.size(), p->second.size());
    EXPECT_EQ(std::memcmp(s->second.data(), p->second.data(), s->second.size() * sizeof(double)),
              0)
        << s->first.first << "->" << s->first.second;
  }
  const auto set_seq = sequential.to_measurement_set(deployment.size());
  const auto set_par = threaded.to_measurement_set(deployment.size());
  ASSERT_EQ(set_seq.edge_count(), set_par.edge_count());
  for (std::size_t e = 0; e < set_seq.edge_count(); ++e) {
    EXPECT_EQ(set_seq.edges()[e].i, set_par.edges()[e].i) << e;
    EXPECT_EQ(set_seq.edges()[e].j, set_par.edges()[e].j) << e;
    EXPECT_EQ(set_seq.edges()[e].distance_m, set_par.edges()[e].distance_m) << e;
    EXPECT_EQ(set_seq.edges()[e].weight, set_par.edges()[e].weight) << e;
  }

  // And faults genuinely fired: the "all" plan at full intensity must have
  // thinned or corrupted something relative to a fault-free campaign.
  config.threads = 1;
  config.faults = FaultPlan{};
  Rng rng_clean(77);
  const auto clean = resloc::sim::run_field_experiment(deployment, config, rng_clean);
  EXPECT_NE(clean.raw.measurement_count(), sequential.raw.measurement_count());
}

// Pins a known gap: no campaign builds a net::Network, so the packet-loss
// kind (a radio fault, reaching radios only through apply_to_radio) changes
// no byte of an acoustic campaign at any intensity. Routing FaultPlan
// through the alignment protocol is what makes the kind take effect; this
// test changes then, on purpose.
TEST(FaultInjection, PacketLossLeavesAcousticCampaignUnchanged) {
  resloc::sim::ScenarioParams params;
  params.node_count = 25;
  Rng scenario_rng(5);
  const resloc::core::Deployment deployment =
      resloc::sim::build_scenario("grass_grid", params, scenario_rng);
  resloc::sim::FieldExperimentConfig config = resloc::sim::grass_campaign_config();

  Rng rng_inert(31);
  const auto inert = resloc::sim::run_field_experiment(deployment, config, rng_inert);
  ASSERT_GT(inert.raw.measurement_count(), 0u);
  ASSERT_FALSE(inert.filtered.empty());
  for (const double intensity : {0.5, 1.0, 2.0}) {
    config.faults = resloc::fault::plan_from_kind("packet_loss", intensity);
    ASSERT_TRUE(config.faults.enabled());
    Rng rng(31);
    const auto lossy = resloc::sim::run_field_experiment(deployment, config, rng);

    const auto& raw_inert = inert.raw.entries();
    const auto& raw_lossy = lossy.raw.entries();
    ASSERT_EQ(raw_inert.size(), raw_lossy.size()) << intensity;
    for (auto a = raw_inert.begin(), b = raw_lossy.begin(); a != raw_inert.end(); ++a, ++b) {
      ASSERT_EQ(a->first, b->first);
      ASSERT_EQ(a->second.size(), b->second.size());
      EXPECT_EQ(
          std::memcmp(a->second.data(), b->second.data(), a->second.size() * sizeof(double)), 0)
          << intensity << ": " << a->first.first << "->" << a->first.second;
    }
    ASSERT_EQ(inert.filtered.size(), lossy.filtered.size()) << intensity;
    for (std::size_t k = 0; k < inert.filtered.size(); ++k) {
      EXPECT_EQ(inert.filtered[k].a, lossy.filtered[k].a) << k;
      EXPECT_EQ(inert.filtered[k].b, lossy.filtered[k].b) << k;
      EXPECT_EQ(std::memcmp(&inert.filtered[k].distance_m, &lossy.filtered[k].distance_m,
                            sizeof(double)),
                0)
          << intensity << ": pair " << k;
      EXPECT_EQ(inert.filtered[k].bidirectional, lossy.filtered[k].bidirectional) << k;
    }
  }
}

}  // namespace
