// perfbench_harness: runs one benchmark workload and writes its raw
// measurements as JSON. perfbench/run.py turns them into the named metrics.
//
//   perfbench_harness setup --workload W --seed S --t0-ns T
//       One set-up: spec construction, expand(), scenario registry, pipeline
//       config. Prints {"setup_s": ...}, measured from T (CLOCK_MONOTONIC ns
//       taken by the caller just before it spawned this process) to the
//       moment the first trial would be dispatched.
//   perfbench_harness run --workload W --seed S --seconds X --out PATH
//       Untraced: runs the workload's min_campaigns campaigns through
//       CampaignRunner, then more while another still fits in X seconds;
//       campaign k uses campaign_seed(S, k). src/obs stays off.
//   perfbench_harness trace --workload W --seed S --seconds X --out PATH --spans PATH
//       Pass k runs campaign k untraced through CampaignRunner, then replays
//       it traced; at least two passes, more while another fits in X seconds.
//       Checks the replay against the runner.
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/replay.hpp"
#include "harness/workloads.hpp"
#include "obs/telemetry.hpp"
#include "pipeline/localization_pipeline.hpp"
#include "runner/campaign_runner.hpp"
#include "sim/scenario_registry.hpp"

namespace {

namespace eval = resloc::eval;
namespace obs = resloc::obs;
namespace runner = resloc::runner;
using Clock = std::chrono::steady_clock;
using perfbench::Workload;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// %.17g round-trips a double; non-finite values become JSON null.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Bit pattern of a double, for the bit-for-bit replay comparison.
std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::int64_t t0_ns = -1;
  std::string out;
  std::string spans;
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode (setup | run | trace)");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) throw std::invalid_argument(std::string("missing value for ") + argv[i]);
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--t0-ns") a.t0_ns = std::stoll(value);
    else if (key == "--out") a.out = value;
    else if (key == "--spans") a.spans = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.mode != "setup" && a.out.empty()) throw std::invalid_argument("--out is required");
  if (a.mode == "trace" && a.spans.empty()) throw std::invalid_argument("--spans is required");
  return a;
}

/// Everything a user pays before the first trial is dispatched.
Workload set_up(const Args& args) {
  Workload w = perfbench::make_workload(args.workload);
  w.spec.seed = perfbench::campaign_seed(args.seed, 0);
  for (const runner::TrialSpec& t : runner::expand(w.spec)) {
    if (!resloc::sim::has_scenario(t.scenario)) {
      throw std::invalid_argument("unknown scenario '" + t.scenario + "'");
    }
  }
  const resloc::pipeline::LocalizationPipeline pipe(w.spec.base);
  (void)pipe;
  return w;
}

/// One campaign of the workload through CampaignRunner, timed.
struct Campaign {
  double wall_s = 0.0;
  std::vector<eval::TrialOutcome> trials;
  std::string json;
};

Campaign run_campaign(const Workload& w) {
  const runner::CampaignRunner campaign_runner(runner::RunnerOptions{w.threads});
  const auto start = Clock::now();
  runner::CampaignResult r = campaign_runner.run(w.spec);
  Campaign c;
  c.wall_s = seconds_between(start, Clock::now());
  c.json = r.to_json();
  c.trials = std::move(r.trials);
  return c;
}

/// FNV-1a digest of CampaignResult::to_json().
std::string digest(const std::string& json) { return hex(fnv1a(json)); }

std::string trials_json(const std::vector<eval::TrialOutcome>& trials) {
  std::string out = "[";
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const eval::TrialOutcome& t = trials[i];
    if (i > 0) out += ",";
    out += "\n    {\"ok\": " + std::string(t.ok ? "true" : "false") + ", \"failure\": \"" +
           eval::failure_reason_name(t.failure) + "\", \"attempts\": " +
           std::to_string(t.attempts) + ", \"total_nodes\": " + std::to_string(t.total_nodes) +
           ", \"localized\": " + std::to_string(t.localized) +
           ", \"degraded\": " + std::to_string(t.degraded) +
           ", \"placement_rate\": " + num(t.placement_rate) +
           ", \"average_error_m\": " + num(t.average_error_m) +
           ", \"average_error_finite\": " + (std::isfinite(t.average_error_m) ? "true" : "false") +
           ", \"wall_s\": " + num(t.wall_time_s) + ", \"measure_s\": " + num(t.measure_wall_s) +
           ", \"solve_s\": " + num(t.solve_wall_s) + ", \"eval_s\": " + num(t.eval_wall_s) + "}";
  }
  return out + "]";
}

std::string counters_json(const std::vector<std::uint64_t>& counters) {
  std::string out = "{";
  for (std::size_t c = 0; c < counters.size(); ++c) {
    if (c > 0) out += ", ";
    out += std::string("\"") + obs::counter_name(static_cast<obs::Counter>(c)) +
           "\": " + std::to_string(counters[c]);
  }
  return out + "}";
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss would also count the parent's peak, which Linux carries across
/// exec.)
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

/// Per-trial disagreements between the replay and the runner: ok, failure
/// stage, attempts, node counts, and the exact bits of the average error.
std::vector<std::string> compare(const std::vector<eval::TrialOutcome>& runner_trials,
                                 const std::vector<eval::TrialOutcome>& replay_trials) {
  std::vector<std::string> out;
  if (runner_trials.size() != replay_trials.size()) {
    out.push_back("trial count " + std::to_string(replay_trials.size()) + " != " +
                  std::to_string(runner_trials.size()));
    return out;
  }
  for (std::size_t i = 0; i < runner_trials.size(); ++i) {
    const eval::TrialOutcome& a = runner_trials[i];
    const eval::TrialOutcome& b = replay_trials[i];
    if (a.ok != b.ok || a.failure != b.failure || a.attempts != b.attempts ||
        a.total_nodes != b.total_nodes || a.localized != b.localized ||
        a.degraded != b.degraded || bits(a.average_error_m) != bits(b.average_error_m)) {
      out.push_back("trial " + std::to_string(i) + ": runner localized " +
                    std::to_string(a.localized) + " err " + num(a.average_error_m) +
                    ", replay localized " + std::to_string(b.localized) + " err " +
                    num(b.average_error_m));
    }
  }
  return out;
}

int run_untraced(const Args& args, Workload w) {
  const auto start = Clock::now();
  std::string campaigns;
  double last_s = 0.0;
  for (std::size_t k = 0;
       k < w.min_campaigns || seconds_between(start, Clock::now()) + last_s <= args.seconds;
       ++k) {
    w.spec.seed = perfbench::campaign_seed(args.seed, k);
    const Campaign c = run_campaign(w);
    last_s = c.wall_s;
    campaigns += std::string(k ? ",\n" : "\n") + "  {\"seed\": " + std::to_string(w.spec.seed) +
                 ", \"campaign_s\": " + num(c.wall_s) + ", \"digest\": \"" + digest(c.json) +
                 "\",\n   \"trials\": " + trials_json(c.trials) + "}";
  }
  const std::string out =
      "{\n  \"workload\": \"" + w.name + "\",\n  \"threads\": " + std::to_string(w.threads) +
      ",\n  \"min_campaigns\": " + std::to_string(w.min_campaigns) +
      ",\n  \"peak_rss_mib\": " + num(peak_rss_mib()) +
      ",\n  \"campaigns\": [" + campaigns + "\n  ]\n}\n";
  return write_file(args.out, out) ? 0 : 1;
}

std::string spans_jsonl(const std::vector<perfbench::Span>& spans, std::size_t pass) {
  std::string out;
  for (const perfbench::Span& s : spans) {
    out += "{\"pass\": " + std::to_string(pass) + ", \"name\": \"" + s.name +
           "\", \"start_ns\": " + std::to_string(s.start_ns) +
           ", \"end_ns\": " + std::to_string(s.end_ns) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"trial\": " + std::to_string(s.trial) +
           ", \"counters\": " + (s.counters.empty() ? "null" : counters_json(s.counters)) +
           "}\n";
  }
  return out;
}

int run_traced(const Args& args, Workload w) {
  // The first enable calibrates the obs clock; pay for it before any timing.
  obs::set_capture_spans(false);
  obs::set_enabled(true);
  obs::set_enabled(false);

  const auto start = Clock::now();
  std::string passes;
  std::string spans;
  double last_s = 0.0;
  // Two passes at least, so trial walls pool past 100 samples on resilience.
  for (std::size_t k = 0; k < 2 || seconds_between(start, Clock::now()) + last_s <= args.seconds;
       ++k) {
    const auto pass_start = Clock::now();
    w.spec.seed = perfbench::campaign_seed(args.seed, k);
    const Campaign untraced = run_campaign(w);

    obs::reset();
    obs::set_enabled(true);
    const perfbench::ReplayResult replay = perfbench::replay_traced(w);
    obs::set_enabled(false);
    const std::vector<std::uint64_t> counters = obs::snapshot().counters;

    const std::vector<std::string> mismatches = compare(untraced.trials, replay.trials);
    std::string mismatch_list = "[";
    for (std::size_t i = 0; i < mismatches.size() && i < 8; ++i) {
      mismatch_list += (i ? ", \"" : "\"") + mismatches[i] + "\"";
    }
    mismatch_list += "]";

    passes += std::string(k ? ",\n" : "\n") + "  {\"seed\": " + std::to_string(w.spec.seed) +
              ", \"untraced_campaign_s\": " + num(untraced.wall_s) +
              ", \"traced_wall_s\": " + num(replay.wall_s) +
              ", \"runner_digest\": \"" + digest(untraced.json) +
              "\", \"replay_digest\": \"" + digest(replay.json) +
              "\", \"trial_mismatches\": " + std::to_string(mismatches.size()) +
              ", \"mismatch_examples\": " + mismatch_list +
              ", \"net_broadcasts\": " + std::to_string(replay.net_broadcasts) +
              ", \"net_deliveries\": " + std::to_string(replay.net_deliveries) +
              ", \"counters\": " + counters_json(counters) +
              ",\n   \"untraced_trials\": " + trials_json(untraced.trials) + "}";
    spans += spans_jsonl(replay.spans, k);
    last_s = seconds_between(pass_start, Clock::now());
  }

  const std::string out = "{\n  \"workload\": \"" + w.name + "\",\n  \"threads\": " +
                          std::to_string(w.threads) + ",\n  \"passes\": [" + passes + "\n  ]\n}\n";
  return write_file(args.out, out) && write_file(args.spans, spans) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    const Workload w = set_up(args);
    if (args.mode == "setup") {
      if (args.t0_ns < 0) throw std::invalid_argument("--t0-ns is required");
      const std::int64_t dispatch_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
              .count();
      const double setup_s = static_cast<double>(dispatch_ns - args.t0_ns) * 1e-9;
      std::printf("{\"setup_s\": %s}\n", num(setup_s).c_str());
      return 0;
    }
    if (args.mode == "run") return run_untraced(args, w);
    if (args.mode == "trace") return run_traced(args, w);
    throw std::invalid_argument("unknown mode '" + args.mode + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
