// The obs layer's contracts, locked by test:
//   - spans measure exactly what the injected clock says (ManualClock);
//   - counter totals and span counts are byte-identical at 1 vs 8 runner
//     threads (the determinism contract for everything in the metrics
//     report's "deterministic" block);
//   - enabling telemetry does not change a single byte of the campaign's
//     JSON/CSV aggregates;
//   - the Chrome trace export is byte-exact (escaping, nanosecond ts/dur),
//     its spans nest properly across 8 threads, and the nesting check
//     actually rejects overlapping and inverted spans;
//   - the per-thread span cap drops loudly (dropped_spans), never silently;
//   - recent_spans_this_thread returns the failure-report context in order.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "math/rng.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "ranging/ranging_service.hpp"
#include "runner/campaign_runner.hpp"
#include "runner/sweep_spec.hpp"

namespace {

using resloc::pipeline::MeasurementSource;
using resloc::pipeline::Solver;
using resloc::runner::CampaignResult;
using resloc::runner::CampaignRunner;
using resloc::runner::RunnerOptions;
using resloc::runner::SweepSpec;

namespace obs = resloc::obs;

/// Telemetry is process-global; every test starts from a clean, disabled
/// state and leaves it that way.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::set_capture_spans(false);
    obs::set_clock_source(nullptr);
    obs::set_max_spans_per_thread(1 << 20);
    obs::reset();
  }
  void TearDown() override { SetUp(); }
};

/// Deterministic test clock: each now_ns() call advances by a fixed step.
class ManualClock : public obs::ClockSource {
 public:
  explicit ManualClock(std::uint64_t step_ns) : step_ns_(step_ns) {}
  std::uint64_t now_ns() const override { return now_ns_ += step_ns_; }

 private:
  std::uint64_t step_ns_;
  mutable std::uint64_t now_ns_ = 0;
};

/// A small acoustic sweep exercising ranging, solver, and runner spans in
/// well under a second. LSS on one cell covers the gradient-descent and
/// constraint counters; the acoustic source covers the measure sub-stages.
SweepSpec obs_sweep() {
  SweepSpec spec;
  spec.name = "obs_unit";
  spec.seed = 42;
  spec.trials_per_cell = 2;
  spec.base.source = MeasurementSource::kAcousticRanging;
  spec.axes.scenarios = {"grass_grid"};
  spec.axes.solvers = {Solver::kMultilateration, Solver::kCentralizedLss};
  spec.axes.node_counts = {16};
  spec.axes.anchor_counts = {6};
  return spec;
}

/// Name -> count map of every recorded stage, the schedule-independent view
/// of a snapshot (SpanIds depend on intern order, names do not).
std::map<std::string, std::uint64_t> stage_counts(const obs::TelemetrySnapshot& snap) {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t id = 0; id < snap.stage_totals.size(); ++id) {
    if (snap.stage_totals[id].count > 0) {
      out[snap.span_names[id]] = snap.stage_totals[id].count;
    }
  }
  return out;
}

/// A hand-built snapshot with one ThreadSnapshot per event list (thread
/// index = position) and span names "s0".."s3".
obs::TelemetrySnapshot snapshot_of(std::vector<std::vector<obs::SpanEvent>> threads) {
  obs::TelemetrySnapshot snap;
  snap.span_names = {"s0", "s1", "s2", "s3"};
  for (std::size_t t = 0; t < threads.size(); ++t) {
    obs::ThreadSnapshot thread;
    thread.thread_index = t;
    thread.events = std::move(threads[t]);
    snap.threads.push_back(std::move(thread));
  }
  return snap;
}

TEST_F(ObsTest, MeasureEmitsExactlyTheArchitectureSpanTree) {
  // One measure per detector front end must emit exactly the sub-stages of
  // the docs/ARCHITECTURE.md span table: the hardware front end as one
  // channel pass and one accumulate pass, the sampled-audio ones once per
  // chirp where per-chirp; the retired coarse names never appear.
  using resloc::ranging::DetectorMode;
  constexpr std::uint64_t kChirps = 10;
  const std::map<std::string, std::uint64_t> hardware = {
      {"ranging/measure", 1},
      {"ranging/synthesis/schedule", 1},
      {"ranging/channel", 1},
      {"ranging/detection/accumulate", 1},
      {"ranging/detection/scan", 1},
  };
  const std::map<std::string, std::uint64_t> sampled_audio = {
      {"ranging/measure", 1},
      {"ranging/synthesis/schedule", 1},
      {"ranging/channel", kChirps},
      {"ranging/detection/accumulate", kChirps + 1},  // + the counter reset
      {"ranging/detection/scan", 1},
      {"ranging/synthesis/envelope", kChirps},
      {"ranging/synthesis/noise", kChirps},
      {"ranging/synthesis/tone", kChirps},
  };
  const auto merged = [](std::map<std::string, std::uint64_t> a,
                         const std::map<std::string, std::uint64_t>& b) {
    a.insert(b.begin(), b.end());
    return a;
  };
  const std::map<DetectorMode, std::map<std::string, std::uint64_t>> expected = {
      {DetectorMode::kHardware, hardware},
      {DetectorMode::kGoertzel, merged(sampled_audio, {{"ranging/detection/goertzel", kChirps}})},
      {DetectorMode::kMatchedFilter, merged(sampled_audio, {{"ranging/detection/ncc", kChirps}})},
  };

  obs::set_enabled(true);
  for (const auto& [mode, stages] : expected) {
    obs::reset();
    resloc::ranging::RangingConfig config;
    config.detector_mode = mode;
    ASSERT_EQ(static_cast<std::uint64_t>(config.pattern.num_chirps), kChirps);
    const resloc::ranging::RangingService service(config);
    resloc::ranging::RangingScratch scratch;
    resloc::math::Rng rng(7);
    (void)service.measure(8.0, {}, {}, rng, scratch);

    const obs::TelemetrySnapshot snap = obs::snapshot();
    EXPECT_EQ(stage_counts(snap), stages) << resloc::ranging::detector_mode_name(mode);
    EXPECT_EQ(snap.stage_count("ranging/synthesis"), 0u);
    EXPECT_EQ(snap.stage_count("ranging/detection"), 0u);
  }
}

TEST_F(ObsTest, DisabledRecordsNothing) {
  {
    RESLOC_SPAN("test/never");
    obs::add(obs::Counter::kMeasureCalls, 5);
  }
  const obs::TelemetrySnapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kMeasureCalls), 0u);
  EXPECT_EQ(snap.stage_count("test/never"), 0u);
}

TEST_F(ObsTest, ManualClockYieldsExactDurations) {
  const ManualClock clock(/*step_ns=*/100);
  obs::set_clock_source(&clock);
  obs::set_enabled(true);
  obs::set_capture_spans(true);

  {
    RESLOC_SPAN("test/outer");  // start at t=100
    {
      RESLOC_SPAN("test/inner");  // start at t=200, end at t=300
    }
  }  // outer ends at t=400

  const obs::TelemetrySnapshot snap = obs::snapshot();
  EXPECT_EQ(snap.stage_count("test/outer"), 1u);
  EXPECT_EQ(snap.stage_count("test/inner"), 1u);
  EXPECT_EQ(snap.stage_total_ns("test/outer"), 300u);  // 400 - 100
  EXPECT_EQ(snap.stage_total_ns("test/inner"), 100u);  // 300 - 200

  // The retained events carry the raw timestamps for the trace export.
  // (Thread buffers registered by other tests' pools survive reset(), so
  // locate this thread's buffer by its contents.)
  const obs::ThreadSnapshot* mine = nullptr;
  for (const obs::ThreadSnapshot& t : snap.threads) {
    if (!t.events.empty()) {
      ASSERT_EQ(mine, nullptr) << "only the calling thread should have recorded";
      mine = &t;
    }
  }
  ASSERT_NE(mine, nullptr);
  ASSERT_EQ(mine->events.size(), 2u);
  // Events are recorded at scope exit: inner closes before outer.
  EXPECT_EQ(mine->events[0].start_ns, 200u);
  EXPECT_EQ(mine->events[0].end_ns, 300u);
  EXPECT_EQ(mine->events[1].start_ns, 100u);
  EXPECT_EQ(mine->events[1].end_ns, 400u);
}

TEST_F(ObsTest, SpanChainSharesOneClockReadPerBoundary) {
  const ManualClock clock(/*step_ns=*/100);
  obs::set_clock_source(&clock);
  obs::set_enabled(true);
  obs::set_capture_spans(true);
  const obs::SpanId a = obs::intern_span("test/chain_a");
  const obs::SpanId b = obs::intern_span("test/chain_b");
  {
    obs::SpanChain chain;
    chain.next(a);  // t=100
    chain.next(b);  // t=200: a ends, b starts
    chain.close();  // t=300
    chain.close();  // nothing open: no clock read, no record
    chain.next(a);  // t=400
  }                 // t=500: the destructor closes a

  const obs::TelemetrySnapshot snap = obs::snapshot();
  EXPECT_EQ(snap.stage_count("test/chain_a"), 2u);
  EXPECT_EQ(snap.stage_count("test/chain_b"), 1u);
  EXPECT_EQ(snap.stage_total_ns("test/chain_a"), 200u);
  EXPECT_EQ(snap.stage_total_ns("test/chain_b"), 100u);
  std::string error;
  EXPECT_TRUE(obs::check_span_nesting(snap, &error)) << error;

  // Disabled at construction: inert.
  obs::reset();
  obs::set_enabled(false);
  {
    obs::SpanChain chain;
    chain.next(a);
  }
  EXPECT_EQ(obs::snapshot().stage_count("test/chain_a"), 0u);
}

TEST_F(ObsTest, CountersAddOnlyWhenEnabled) {
  obs::set_enabled(true);
  obs::add(obs::Counter::kGdEvaluations, 3);
  obs::add(obs::Counter::kGdEvaluations);
  const obs::TelemetrySnapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kGdEvaluations), 4u);
  // Every counter has a stable, non-empty, unique report key.
  std::set<std::string> names;
  for (std::uint32_t c = 0; c < static_cast<std::uint32_t>(obs::Counter::kCount); ++c) {
    const char* name = obs::counter_name(static_cast<obs::Counter>(c));
    EXPECT_STRNE(name, "");
    EXPECT_TRUE(names.insert(name).second) << "duplicate counter key " << name;
  }
  EXPECT_STREQ(obs::counter_name(obs::Counter::kLssConstraintPairs), "lss_constraint_pairs");
  EXPECT_STREQ(obs::counter_name(obs::Counter::kLssListRebuilds), "lss_list_rebuilds");
}

TEST_F(ObsTest, CounterTotalsIdenticalAtOneVsEightThreads) {
  obs::set_enabled(true);
  const CampaignRunner single(RunnerOptions{1});
  const CampaignResult r1 = single.run(obs_sweep());
  const obs::TelemetrySnapshot snap1 = obs::snapshot();
  obs::reset();

  const CampaignRunner eight(RunnerOptions{8});
  const CampaignResult r8 = eight.run(obs_sweep());
  const obs::TelemetrySnapshot snap8 = obs::snapshot();

  // The deterministic block: every counter and every stage count matches
  // exactly -- integer sums over per-thread cells are order-independent.
  ASSERT_EQ(snap1.counters.size(), snap8.counters.size());
  for (std::size_t c = 0; c < snap1.counters.size(); ++c) {
    EXPECT_EQ(snap1.counters[c], snap8.counters[c])
        << "counter " << obs::counter_name(static_cast<obs::Counter>(c));
  }
  EXPECT_EQ(stage_counts(snap1), stage_counts(snap8));

  // Sanity: the sweep actually exercised all three instrumented layers.
  EXPECT_GT(snap1.counter(obs::Counter::kMeasureCalls), 0u);
  EXPECT_GT(snap1.counter(obs::Counter::kGdEvaluations), 0u);
  EXPECT_GT(snap1.counter(obs::Counter::kLssEdgeTerms), 0u);
  // Every LSS solve builds its soft-constraint pair list at least once (the
  // exact build of its first evaluation), never more than once per evaluation.
  EXPECT_GT(snap1.counter(obs::Counter::kLssListRebuilds), 0u);
  EXPECT_LE(snap1.counter(obs::Counter::kLssListRebuilds),
            snap1.counter(obs::Counter::kGdEvaluations));
  EXPECT_EQ(snap1.counter(obs::Counter::kRunnerTrials), r1.trials.size());
  EXPECT_GT(snap1.stage_count("ranging/measure"), 0u);
  EXPECT_GT(snap1.stage_count("solver/lss_solve"), 0u);
  EXPECT_GT(snap1.stage_count("pipeline/solve"), 0u);

  // And the aggregates themselves are byte-identical, threads and telemetry
  // notwithstanding.
  EXPECT_EQ(r1.to_json(), r8.to_json());
  EXPECT_EQ(r1.to_csv(), r8.to_csv());
}

TEST_F(ObsTest, TelemetryNeverChangesAggregateBytes) {
  const CampaignRunner runner(RunnerOptions{2});
  const CampaignResult off = runner.run(obs_sweep());

  obs::set_enabled(true);
  obs::set_capture_spans(true);
  const CampaignResult on = runner.run(obs_sweep());

  EXPECT_EQ(off.to_json(), on.to_json());
  EXPECT_EQ(off.to_csv(), on.to_csv());
}

TEST_F(ObsTest, TraceAcrossEightThreadsIsValidAndNested) {
  obs::set_enabled(true);
  obs::set_capture_spans(true);
  const CampaignRunner runner(RunnerOptions{8});
  (void)runner.run(obs_sweep());

  const obs::TelemetrySnapshot snap = obs::snapshot();
  EXPECT_EQ(snap.dropped_spans, 0u);

  std::string error;
  EXPECT_TRUE(obs::check_span_nesting(snap, &error)) << error;
  EXPECT_FALSE(obs::to_chrome_trace_json(snap).empty());

  // The metrics report renders from the same snapshot without tripping over
  // multi-thread data.
  const std::string metrics = obs::metrics_report_json(snap);
  EXPECT_NE(metrics.find("\"deterministic\""), std::string::npos);
  EXPECT_NE(metrics.find("\"non_deterministic\""), std::string::npos);
  EXPECT_NE(metrics.find("ranging/measure"), std::string::npos);
  EXPECT_FALSE(obs::metrics_report_text(snap).empty());
}

TEST_F(ObsTest, NestingCheckRejectsOverlappingAndInvertedSpans) {
  std::string error;
  // Siblings that touch nest inside their parent.
  EXPECT_TRUE(obs::check_span_nesting(
      snapshot_of({{{0, 0, 10'000}, {1, 1'000, 1'253}, {2, 1'253, 2'253}}}), &error))
      << error;
  // A 1 ns overlap neither nests nor is disjoint -- corrupt telemetry.
  EXPECT_FALSE(obs::check_span_nesting(snapshot_of({{{1, 1'000, 1'254}, {2, 1'253, 2'253}}}),
                                       &error));
  EXPECT_NE(error.find("partially overlap"), std::string::npos) << error;
  // The same pair on two threads is fine.
  EXPECT_TRUE(obs::check_span_nesting(snapshot_of({{{1, 1'000, 1'254}}, {{2, 1'253, 2'253}}}),
                                      &error))
      << error;
  // A span that ends before it starts.
  EXPECT_FALSE(obs::check_span_nesting(snapshot_of({{{0, 500, 499}}}), &error));
  EXPECT_NE(error.find("ends before it starts"), std::string::npos) << error;
}

TEST_F(ObsTest, ChromeTraceBytesAreExact) {
  // Names exercise every escape the exporter writes; timestamps sit an hour
  // past the earliest event to show ts and dur stay exact to the nanosecond.
  obs::TelemetrySnapshot snap =
      snapshot_of({{{0, 1'000'000'123, 1'000'002'376}, {1, 1'000'000'500, 1'000'001'000}},
                   {{2, 1'000'000'124, 1'000'000'125}, {3, 3'601'000'000'124, 3'601'000'001'123}}});
  snap.span_names = {"say \"hi\"", "back\\slash", "cr\rhere", "ctl\x01"};
  snap.threads[1].thread_index = 3;
  EXPECT_TRUE(obs::check_span_nesting(snap));
  EXPECT_EQ(obs::to_chrome_trace_json(snap),
            "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n"
            "    {\"name\": \"say \\\"hi\\\"\", \"cat\": \"resloc\", \"ph\": \"X\", \"pid\": 1, "
            "\"tid\": 0, \"ts\": 0.000, \"dur\": 2.253},\n"
            "    {\"name\": \"back\\\\slash\", \"cat\": \"resloc\", \"ph\": \"X\", \"pid\": 1, "
            "\"tid\": 0, \"ts\": 0.377, \"dur\": 0.500},\n"
            "    {\"name\": \"cr\\u000dhere\", \"cat\": \"resloc\", \"ph\": \"X\", \"pid\": 1, "
            "\"tid\": 3, \"ts\": 0.001, \"dur\": 0.001},\n"
            "    {\"name\": \"ctl\\u0001\", \"cat\": \"resloc\", \"ph\": \"X\", \"pid\": 1, "
            "\"tid\": 3, \"ts\": 3600000000.001, \"dur\": 0.999}\n"
            "  ]\n}\n");
}

TEST_F(ObsTest, SpanCapDropsLoudly) {
  const ManualClock clock(1);
  obs::set_clock_source(&clock);
  obs::set_enabled(true);
  obs::set_capture_spans(true);
  obs::set_max_spans_per_thread(4);
  for (int i = 0; i < 10; ++i) {
    RESLOC_SPAN("test/capped");
  }
  const obs::TelemetrySnapshot snap = obs::snapshot();
  // Stage totals keep counting past the cap; only retained events stop.
  EXPECT_EQ(snap.stage_count("test/capped"), 10u);
  std::size_t retained = 0;
  for (const obs::ThreadSnapshot& t : snap.threads) retained += t.events.size();
  EXPECT_EQ(retained, 4u);
  EXPECT_EQ(snap.dropped_spans, 6u);
  // The capped trace still nests.
  std::string error;
  EXPECT_TRUE(obs::check_span_nesting(snap, &error)) << error;
}

TEST_F(ObsTest, RecentSpansGiveFailureContextInOrder) {
  const ManualClock clock(10);
  obs::set_clock_source(&clock);
  obs::set_enabled(true);
  obs::set_capture_spans(true);
  {
    RESLOC_SPAN("test/first");
  }
  {
    RESLOC_SPAN("test/second");
  }
  {
    RESLOC_SPAN("test/third");
  }
  const std::vector<std::string> recent = obs::recent_spans_this_thread(2);
  ASSERT_EQ(recent.size(), 2u);
  // Oldest first among the last two completed spans.
  EXPECT_NE(recent[0].find("test/second"), std::string::npos);
  EXPECT_NE(recent[1].find("test/third"), std::string::npos);

  // Without span capture there is no buffer to report from.
  obs::reset();
  obs::set_capture_spans(false);
  {
    RESLOC_SPAN("test/uncaptured");
  }
  EXPECT_TRUE(obs::recent_spans_this_thread(8).empty());
}

TEST_F(ObsTest, ResetClearsDataButKeepsInterning) {
  obs::set_enabled(true);
  obs::set_capture_spans(true);
  const obs::SpanId id = obs::intern_span("test/reset");
  EXPECT_EQ(obs::intern_span("test/reset"), id);
  {
    RESLOC_SPAN("test/reset");
  }
  obs::add(obs::Counter::kChirpWindows, 7);
  obs::reset();
  const obs::TelemetrySnapshot snap = obs::snapshot();
  EXPECT_EQ(snap.stage_count("test/reset"), 0u);
  EXPECT_EQ(snap.counter(obs::Counter::kChirpWindows), 0u);
  EXPECT_EQ(obs::intern_span("test/reset"), id);
}

}  // namespace
