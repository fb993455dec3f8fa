// Golden-file lock on the eval/aggregate emitters: the JSON and CSV reports
// are byte-compared against checked-in fixtures, so any drift in key order,
// float formatting, null handling, or column layout fails loudly instead of
// silently invalidating archived campaign reports.
//
// Fixtures live in tests/golden/ (RESLOC_GOLDEN_DIR at compile time). To
// regenerate after an *intentional* format change, run this test once with
// RESLOC_REGEN_GOLDEN=1 in the environment and commit the rewritten files.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "eval/aggregate.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/sweep_spec.hpp"

namespace {

using resloc::eval::CellAggregate;
using resloc::eval::CellResult;
using resloc::eval::TrialOutcome;

std::string golden_path(const std::string& name) {
  return std::string(RESLOC_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool regen_requested() { return std::getenv("RESLOC_REGEN_GOLDEN") != nullptr; }

void compare_against_golden(const std::string& fixture, const std::string& actual) {
  const std::string path = golden_path(fixture);
  if (regen_requested()) {
    ASSERT_TRUE(resloc::eval::write_text_file(path, actual)) << "cannot rewrite " << path;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty()) << "missing fixture " << path
                                 << " (run with RESLOC_REGEN_GOLDEN=1 to create it)";
  // EXPECT_EQ on the full strings: gtest prints a readable first-difference.
  EXPECT_EQ(expected, actual) << "emitter drift against " << path
                              << "; if intentional, regenerate with RESLOC_REGEN_GOLDEN=1";
}

// A handcrafted two-cell campaign exercising the emitters' edge cases without
// running any pipeline: a healthy cell, and a cell whose trials all failed
// (every statistic absent -> JSON null / CSV nan), with axis values that need
// JSON escaping.
std::vector<CellResult> handcrafted_cells() {
  CellResult healthy;
  healthy.axes = {{"scenario", "grass_grid"}, {"label", "quote\"back\\slash"}};
  TrialOutcome a;
  a.ok = true;
  a.total_nodes = 10;
  a.localized = 9;
  a.placement_rate = 0.9;
  a.average_error_m = 0.25;
  a.median_error_m = 0.2;
  a.max_error_m = 1.0625;  // exact in binary: formatting must not wobble
  a.stress = std::numeric_limits<double>::quiet_NaN();
  a.measured_edges = 31;
  a.skipped_pairs = 4;
  TrialOutcome b = a;
  b.localized = 10;
  b.placement_rate = 1.0;
  b.average_error_m = 1.0 / 3.0;  // %.12g rendering pinned by the fixture
  b.stress = 2.5;
  const TrialOutcome healthy_trials[] = {a, b};
  healthy.aggregate = resloc::eval::aggregate_trials(healthy_trials, healthy_trials + 2);

  CellResult failed;
  failed.axes = {{"scenario", "grass_grid"}, {"label", "all-failed"}};
  TrialOutcome c;
  c.ok = false;
  c.error = "unknown scenario";
  const TrialOutcome failed_trials[] = {c, c};
  failed.aggregate = resloc::eval::aggregate_trials(failed_trials, failed_trials + 2);

  return {healthy, failed};
}

TEST(GoldenAggregate, HandcraftedJsonMatchesFixture) {
  compare_against_golden("handcrafted.json",
                         resloc::eval::campaign_to_json("golden", 42, handcrafted_cells()));
}

TEST(GoldenAggregate, HandcraftedCsvMatchesFixture) {
  compare_against_golden("handcrafted.csv",
                         resloc::eval::campaign_to_csv(handcrafted_cells()));
}

// The fixed 2x2 sweep (the CI smoke configuration): node count x noise sigma,
// one multilateration trial per cell, seed 7. Runs the real pipeline, so this
// also pins the synthetic measurement chain's numbers end to end. The pin is
// byte-exact and therefore scoped to the CI platform's libm/FP contraction;
// a host with a different libm (musl, macOS) may differ in the last printed
// digit -- regenerate there with RESLOC_REGEN_GOLDEN=1 rather than loosening
// the emitters' format lock.
resloc::runner::CampaignResult smoke_2x2() {
  resloc::runner::SweepSpec spec;
  spec.name = "smoke";
  spec.seed = 7;
  spec.trials_per_cell = 1;
  spec.base.source = resloc::pipeline::MeasurementSource::kSyntheticGaussian;
  spec.axes.node_counts = {16, 25};
  spec.axes.noise_sigmas = {0.33, 1.0};
  spec.axes.anchor_counts = {6};
  return resloc::runner::CampaignRunner(resloc::runner::RunnerOptions{2}).run(spec);
}

TEST(GoldenAggregate, Smoke2x2JsonMatchesFixture) {
  compare_against_golden("smoke_2x2.json", smoke_2x2().to_json());
}

TEST(GoldenAggregate, Smoke2x2CsvMatchesFixture) {
  compare_against_golden("smoke_2x2.csv", smoke_2x2().to_csv());
}

// A small end-to-end acoustic campaign (3x3 offset grid, grass service,
// multilateration and centralized LSS), pinning the measurement-acquisition
// byte-stream: the
// counter-based RNG substream scheme (per-link shadowing from fork(i*n+j),
// per-(round, source) measurement streams from fork(round*n+source)) was
// adopted once, this fixture was regenerated once for it, and any future
// drift -- a reordered draw, an enumeration-order dependency creeping back --
// fails here byte-exactly. Same platform scoping as the smoke fixture above.
resloc::runner::CampaignResult acoustic_3x3() {
  resloc::runner::SweepSpec spec;
  spec.name = "acoustic_3x3";
  spec.seed = 11;
  spec.trials_per_cell = 2;
  spec.base.source = resloc::pipeline::MeasurementSource::kAcousticRanging;
  spec.axes.solvers = {resloc::pipeline::Solver::kMultilateration,
                       resloc::pipeline::Solver::kCentralizedLss};
  spec.axes.scenarios = {"offset_grid"};
  spec.axes.node_counts = {9};
  spec.axes.anchor_counts = {4};
  return resloc::runner::CampaignRunner(resloc::runner::RunnerOptions{2}).run(spec);
}

TEST(GoldenAggregate, Acoustic3x3JsonMatchesFixture) {
  compare_against_golden("acoustic_3x3.json", acoustic_3x3().to_json());
}

TEST(GoldenAggregate, JsonEscapesQuotesBackslashesAndControlBytes) {
  // Sweep and scenario names are free text (SweepSpec::name,
  // register_scenario); a carriage return or a raw control byte in one must
  // still yield valid JSON (RFC 8259: \u00XX), exactly as in the trace export.
  CellResult cell;
  cell.axes = {{"label", "a\"b\\c\rd\x01" "e"}};
  const std::string json = resloc::eval::campaign_to_json("sw\"e\\e\rp\x01" "x", 3, {cell});
  EXPECT_EQ(json,
            "{\n"
            "  \"sweep\": \"sw\\\"e\\\\e\\u000dp\\u0001x\",\n"
            "  \"seed\": 3,\n"
            "  \"cells\": [\n"
            "    {\n"
            "      \"axes\": {\"label\": \"a\\\"b\\\\c\\u000dd\\u0001e\"},\n"
            "      \"trials\": 0,\n"
            "      \"ok_trials\": 0,\n"
            "      \"scored_trials\": 0,\n"
            "      \"mean_error_m\": 0,\n"
            "      \"median_error_m\": 0,\n"
            "      \"p95_error_m\": 0,\n"
            "      \"max_error_m\": 0,\n"
            "      \"mean_placement_rate\": 0,\n"
            "      \"mean_stress\": 0,\n"
            "      \"mean_measured_edges\": 0,\n"
            "      \"mean_augmented_edges\": 0,\n"
            "      \"mean_skipped_pairs\": 0\n"
            "    }\n"
            "  ],\n"
            "  \"cell_count\": 1\n"
            "}\n");
}

TEST(GoldenAggregate, CsvQuotesFieldsThatWouldSplitTheRow) {
  // Axis names and values are free text (SweepSpec axes, and the unknown
  // detector/environment names a failed trial's cell is still labelled
  // with). A comma, CR or LF, or a leading quote gets the RFC 4180 treatment
  // so every row keeps the header's column count; a quote inside an
  // otherwise plain field stays raw, as the handcrafted fixture pins.
  CellResult cell;
  cell.axes = {{"a,b", "x,y"}, {"line", "one\r\ntwo"}, {"lead", "\"q\"uoted"},
               {"plain", "mid\"quote"}};
  EXPECT_EQ(resloc::eval::campaign_to_csv({cell}),
            "\"a,b\",line,lead,plain,trials,ok_trials,scored_trials,mean_error_m,"
            "median_error_m,p95_error_m,max_error_m,mean_placement_rate,mean_stress,"
            "mean_measured_edges,mean_augmented_edges,mean_skipped_pairs\n"
            "\"x,y\",\"one\r\ntwo\",\"\"\"q\"\"uoted\",mid\"quote,0,0,0,0,0,0,0,0,0,0,0,0\n");
}

TEST(GoldenAggregate, EmptyCampaignSerializesStably) {
  // No fixture needed: the empty shape is asserted inline (it is the one
  // report consumers special-case).
  const std::string json = resloc::eval::campaign_to_json("empty", 0, {});
  EXPECT_NE(json.find("\"cells\": []"), std::string::npos);
  EXPECT_NE(json.find("\"cell_count\": 0"), std::string::npos);
  const std::string csv = resloc::eval::campaign_to_csv({});
  EXPECT_EQ(csv.find("scenario"), std::string::npos);  // no axis columns
  EXPECT_EQ(csv,
            "trials,ok_trials,scored_trials,mean_error_m,median_error_m,p95_error_m,"
            "max_error_m,mean_placement_rate,mean_stress,mean_measured_edges,"
            "mean_augmented_edges,mean_skipped_pairs\n");
}

}  // namespace
