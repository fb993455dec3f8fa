#!/usr/bin/env python3
"""Campaign benchmark: builds the harness, runs one workload, prints metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. The first run configures and builds the
harness (perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR, default
.bench_build; later runs rebuild incrementally.

--trace 0 measures the end-to-end metrics of BENCHMARK.json with tracing off;
--trace 1 makes the separate traced run and reports the per-layer metrics.
Either way the outputs are checked, every metric is printed with its unit and
direction, and the last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A per-layer metric that does not exist on a workload (a ratio over zero, a
percentile with too few samples beyond it) prints as n/a in the table and as 0
in the JSON line, whose values must be numbers.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
MIN_ATTRIBUTION = 0.90
FAILURE_STAGES = ("scenario_build", "config", "measurement", "solver", "non_std_exception")
HARNESS_GRACE_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout if stdout is not None else sys.stderr,
                            stderr=sys.stderr, start_new_session=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    except BaseException:  # interrupted or terminated: take the child down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(map(str, cmd))}")
    return out


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the repository sources are not beside perfbench/; nothing to build")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        run_child(["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_child(["cmake", "--build", str(build_dir), "--target", "perfbench_harness",
               "-j", jobs], timeout=840)
    return build_dir


def setup_probe(harness, args):
    """One fresh process: spawn to first-trial dispatch, in seconds."""
    t0 = time.monotonic_ns()  # CLOCK_MONOTONIC, as the harness's steady_clock
    out = run_child([str(harness), "setup", "--workload", args.workload,
                     "--seed", str(args.seed), "--t0-ns", str(t0)],
                    timeout=60, stdout=subprocess.PIPE)
    return json.loads(out)["setup_s"]


# ---------------------------------------------------------------------------
# End-to-end metrics (untraced run)
# ---------------------------------------------------------------------------

def accuracy(trials):
    """mean_error_m, coverage and trial_ok_frac of one campaign's trials."""
    ok = [t for t in trials if t["ok"]]
    scored = [t for t in ok if t["localized"] > 0]
    return {
        # Mean over ok trials that placed a node of their average error.
        "mean_error_m": metrics.ratio(sum(t["average_error_m"] for t in scored), len(scored)),
        # Mean per-trial placement over every attempted trial; a failed
        # trial places nothing and counts as 0.
        "coverage": metrics.ratio(sum(t["placement_rate"] for t in ok), len(trials)),
        "trial_ok_frac": metrics.ratio(len(ok), len(trials)),
    }


def counted_trials(raw):
    """Trials of the campaigns every run makes: a pure function of the seed."""
    return [t for c in raw["campaigns"][:raw["min_campaigns"]] for t in c["trials"]]


def end_to_end(raw, setup_samples):
    walls = [c["campaign_s"] for c in raw["campaigns"]]
    values = {
        "setup_s": metrics.median(setup_samples),
        # The mean, not the median: host CPU speed drifts over tens of
        # seconds, and averaging the whole run tracks it best.
        "campaign_s": metrics.ratio(sum(walls), len(walls)),
        "peak_rss_mb": raw["peak_rss_mib"],
    }
    values.update(accuracy(counted_trials(raw)))
    return values


def check_trials(trials, problems, label):
    for i, t in enumerate(trials):
        if t["ok"] and not t["average_error_finite"]:
            problems.append(f"{label}: trial {i} reports a non-finite error")


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run)
# ---------------------------------------------------------------------------

def span_seconds(spans, name):
    return sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == name) * 1e-9


def span_counter(spans, name, counter):
    """A counter summed over the named spans; None without per-span counters."""
    named = [s for s in spans if s["name"] == name]
    if any(s["counters"] is None for s in named):
        return None
    return sum(s["counters"][counter] for s in named)


def children_of(spans):
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    return kids


def attribution(spans):
    """Share of each trial span covered by its harness child spans."""
    kids = children_of(spans)
    shares = []
    for index, s in enumerate(spans):
        if s["name"] != "trial":
            continue
        parent = (s["start_ns"], s["end_ns"])
        covered = metrics.child_coverage(
            parent, [(c["start_ns"], c["end_ns"]) for c in kids.get(index, [])])
        shares.append(metrics.ratio(covered, parent[1] - parent[0]) or 0.0)
    return shares


def span_table(spans):
    """name -> (count, total s, self s) over one pass."""
    kids = children_of(spans)
    table = {}
    for index, s in enumerate(spans):
        interval = (s["start_ns"], s["end_ns"])
        self_ns = metrics.self_time(
            interval, [(c["start_ns"], c["end_ns"]) for c in kids.get(index, [])])
        count, total, self_total = table.get(s["name"], (0, 0.0, 0.0))
        table[s["name"]] = (count + 1, total + (interval[1] - interval[0]) * 1e-9,
                            self_total + self_ns * 1e-9)
    return table


def layer_metrics(pass_, spans, threads):
    """Per-layer metrics of one traced pass (one campaign and its replay)."""
    trials = pass_["untraced_trials"]
    c = pass_["counters"]
    walls = [t["wall_s"] for t in trials]
    ok = [t for t in trials if t["ok"]]
    v = {
        "runner.trials": len(trials),
        "runner.retries": sum(t["attempts"] - 1 for t in trials),
        "runner.failures": len(trials) - len(ok),
        "runner.idle_frac": 1.0 - sum(walls) / (threads * pass_["untraced_campaign_s"]),
        "pipeline.measure_s": sum(t["measure_s"] for t in trials),
        "pipeline.solve_s": sum(t["solve_s"] for t in trials),
        "pipeline.eval_s": sum(t["eval_s"] for t in trials),
        "sim.build_scenario_s": span_seconds(spans, "sim.build_scenario"),
        "sim.field_experiment_s": span_seconds(spans, "sim.field_experiment"),
        "sim.campaign_turns": c["campaign_turns"],
        "sim.channel_cache_hit_ratio": metrics.ratio(
            c["channel_cache_hits"], c["channel_cache_hits"] + c["channel_cache_misses"]),
        "ranging.measure_calls": c["measure_calls"],
        "ranging.chirp_windows": c["chirp_windows"],
        "ranging.detect_ratio": metrics.ratio(c["measure_detections"], c["measure_calls"]),
        "ranging.filtered_pairs": c["filtered_pairs"],
        "core.multilateration_s": span_seconds(spans, "core.multilateration"),
        "core.degraded_frac": metrics.ratio(sum(t["degraded"] for t in ok),
                                            sum(t["localized"] for t in ok)),
        "core.dv_hop_s": span_seconds(spans, "core.dv_hop"),
        "core.lss_s": span_seconds(spans, "core.lss"),
        "core.lss_edge_terms": c["lss_edge_terms"],
        "core.lss_constraint_pairs": c["lss_constraint_pairs"],
        "core.distributed_s": span_seconds(spans, "core.distributed"),
        "math.gd_evaluations": c["gd_evaluations"],
        "math.gd_iterations": c["gd_iterations"],
        "math.gd_backtracks": c["gd_backtracks"],
        "math.gd_restart_rounds": c["gd_restart_rounds"],
        "math.gd_accept_ratio": metrics.ratio(c["gd_iterations"], c["gd_evaluations"]),
        "net.protocol_s": span_seconds(spans, "net.alignment_protocol"),
        "net.broadcasts": pass_["net_broadcasts"],
        "net.deliveries": pass_["net_deliveries"],
        "eval.evaluate_s": span_seconds(spans, "eval.evaluate"),
        "eval.aggregate_s": span_seconds(spans, "eval.aggregate"),
        "obs.trace_overhead_frac": pass_["traced_wall_s"] / pass_["untraced_campaign_s"] - 1.0,
        "obs.attributed_frac_min": min(attribution(spans), default=None),
    }
    for stage in FAILURE_STAGES:
        v[f"runner.failures.{stage}"] = sum(1 for t in trials if t["failure"] == stage)
    v["ranging.us_per_measure"] = metrics.ratio(v["sim.field_experiment_s"] * 1e6,
                                                c["measure_calls"])
    lss_evaluations = span_counter(spans, "core.lss", "gd_evaluations")
    v["core.lss_us_per_eval"] = (None if lss_evaluations is None
                                 else metrics.ratio(v["core.lss_s"] * 1e6, lss_evaluations))
    return v


# Timing-derived metrics without a time unit; they take the median over passes.
TIMING_RATIOS = {"runner.idle_frac", "obs.trace_overhead_frac", "obs.attributed_frac_min"}


def per_layer(raw, spans_by_pass, units):
    """Counts from pass 0 (its campaign is a pure function of the seed);
    timings as the median over passes; trial walls pooled over passes."""
    per_pass = [layer_metrics(p, spans_by_pass.get(i, []), raw["threads"])
                for i, p in enumerate(raw["passes"])]
    merged = {}
    for name, first in per_pass[0].items():
        if units.get(name) in ("s", "us") or name in TIMING_RATIOS:
            merged[name] = metrics.median([v[name] for v in per_pass if v[name] is not None])
        else:
            merged[name] = first
    walls = [t["wall_s"] for p in raw["passes"] for t in p["untraced_trials"]]
    merged["runner.trial_s.p50"] = metrics.median(walls)
    merged["runner.trial_s.p90"] = metrics.supported_percentile(walls, 90)
    merged["runner.trial_s.samples"] = len(walls)
    return merged


def check_passes(raw, spans_by_pass, problems):
    for i, p in enumerate(raw["passes"]):
        label = f"pass {i}"
        check_trials(p["untraced_trials"], problems, label)
        if p["trial_mismatches"]:
            problems.append(f"{label}: replay differs from the runner on {p['trial_mismatches']}"
                            f" trials: {p['mismatch_examples']}")
        if p["replay_digest"] != p["runner_digest"]:
            problems.append(f"{label}: replay to_json digest differs from the runner's")
        shares = attribution(spans_by_pass.get(i, []))
        if not shares:
            problems.append(f"{label}: no trial spans recorded")
        elif min(shares) < MIN_ATTRIBUTION:
            problems.append(f"{label}: child spans cover only {min(shares):.3f} of a trial span"
                            f" (need >= {MIN_ATTRIBUTION})")


# ---------------------------------------------------------------------------
# Ledger: deterministic values must repeat exactly across runs at one seed
# ---------------------------------------------------------------------------

def check_ledger(path, record, problems):
    """Compares `record` with what earlier runs of this harness binary wrote."""
    old = {}
    if path.is_file():
        old = json.loads(path.read_text())
        if old.get("harness") != record["harness"]:
            old = {}
    for key, value in record.items():
        if key in old and old[key] != value:
            problems.append(f"ledger: {key} changed across runs at this seed:"
                            f" {old[key]} -> {value}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**old, **record}, indent=1, sort_keys=True) + "\n")


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------

def print_table(declared, values):
    print(f"{'metric':34} {'value':>18}  {'unit':10} better")
    for m in declared:
        v = values[m["name"]]
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"{m['name']:34} {shown:>18}  {m['unit']:10} {m.get('better', '')}")


def print_trial_tail(raw):
    walls = [t["wall_s"] for p in raw["passes"] for t in p["untraced_trials"]]
    p = metrics.highest_supported_percentile(len(walls))
    tail = "none has 10 samples beyond it" if p is None else \
        f"p{p:g} = {metrics.percentile(walls, p):.4f} s"
    print(f"\ntrial wall, highest supported percentile: {tail} ({len(walls)} samples)")


def print_spans(spans):
    print(f"\n{'span (pass 0)':28} {'count':>7} {'total_s':>10} {'self_s':>10}")
    for name, (count, total, self_s) in sorted(span_table(spans).items()):
        print(f"{name:28} {count:7d} {total:10.4f} {self_s:10.4f}")


def main():
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: perfbench/seeds.json 'default')")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload '{args.workload}'")
    if args.seed is None:
        args.seed = json.loads((HERE / "seeds.json").read_text())["default"]
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    build_dir = build()
    harness = build_dir / "perfbench_harness"
    out_dir = build_dir / "runs"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    out = out_dir / f"{stem}.json"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--out", str(out)]
    timeout = args.seconds + HARNESS_GRACE_S
    problems = []
    ledger = {"harness": file_digest(harness)}

    if args.trace == 0:
        setup = [setup_probe(harness, args) for _ in range(SETUP_PROBES)]
        run_child([str(harness), "run", *common], timeout=timeout)
        raw = json.loads(out.read_text())
        trials = [t for c in raw["campaigns"] for t in c["trials"]]
        check_trials(trials, problems, "untraced")
        values = end_to_end(raw, setup)
        for c in raw["campaigns"]:
            ledger[f"digest.{c['seed']}"] = c["digest"]
        for name in ("mean_error_m", "coverage", "trial_ok_frac"):
            ledger[name] = repr(values[name])
        declared = bench["end_to_end"]
    else:
        spans_path = out_dir / f"{stem}.spans.jsonl"
        run_child([str(harness), "trace", *common, "--spans", str(spans_path)], timeout=timeout)
        raw = json.loads(out.read_text())
        spans_by_pass = {}
        for line in spans_path.read_text().splitlines():
            span = json.loads(line)
            spans_by_pass.setdefault(span["pass"], []).append(span)
        check_passes(raw, spans_by_pass, problems)
        values = per_layer(raw, spans_by_pass, {m["name"]: m["unit"] for m in bench["per_layer"]})
        for p in raw["passes"]:
            ledger[f"digest.{p['seed']}"] = p["runner_digest"]
            ledger[f"counters.{p['seed']}"] = p["counters"]
        declared = bench["per_layer"]
        trials = [t for p in raw["passes"] for t in p["untraced_trials"]]

    attempted = len(trials)
    failed = sum(1 for t in trials if not t["ok"])
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    check_ledger(build_dir / "ledger" / f"{args.workload}-{args.seed}.json", ledger, problems)
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"threads {raw['threads']}")
    print_table(declared, values)
    if args.trace == 1:
        print_trial_tail(raw)
        print_spans(spans_by_pass.get(0, []))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": 0 if values[m["name"]] is None else values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
