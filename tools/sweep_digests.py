#!/usr/bin/env python3
"""Writes the same-bytes ledger of the CI campaign sweeps.

    python3 tools/sweep_digests.py [--build DIR]
    git diff --exit-code tests/golden/sweep_digests.json

Run it from the repository root after building (DIR defaults to build). Each
sweep of SWEEPS runs through DIR/apps/resloc_campaign at its seed, once at
--threads 1 and once at --threads 8, with --json, --csv and --metrics. The
script exits 1 if the two runs differ in any byte of the JSON or CSV or in
the deterministic block of the metrics report (work counters and per-stage
span counts), and otherwise rewrites tests/golden/sweep_digests.json with
each file's byte length and SHA-256 and the deterministic block. The outputs
stay in DIR/sweep_digests/ for inspection.

A change that moves any sweep's output, at every thread count alike, shows up
as a diff of the committed ledger; a change that keeps the bytes leaves the
file untouched.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "golden" / "sweep_digests.json"
# (sweep, seed): every *_smoke sweep plus the full acoustic and detector axes.
SWEEPS = (
    ("smoke", 7),
    ("scale_smoke", 7),
    ("distributed_smoke", 7),
    ("acoustic_scale_smoke", 7),
    ("detectors_smoke", 7),
    ("resilience_smoke", 7),
    ("acoustic", 3),
    ("detectors", 7),
)
THREADS = (1, 8)


def run_sweep(campaign, work, sweep, seed, threads):
    """Runs one sweep; returns {"json": bytes, "csv": bytes, "counters": dict}."""
    stem = work / f"{sweep}-t{threads}"
    paths = {kind: stem.with_suffix("." + kind) for kind in ("json", "csv")}
    metrics = stem.with_suffix(".metrics.json")
    cmd = [str(campaign), "--sweep", sweep, "--seed", str(seed), "--threads", str(threads),
           "--json", str(paths["json"]), "--csv", str(paths["csv"]), "--metrics", str(metrics)]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    out = {kind: path.read_bytes() for kind, path in paths.items()}
    out["counters"] = json.loads(metrics.read_text())["deterministic"]
    return out


def digest(data):
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default="build", help="build directory (default: build)")
    args = parser.parse_args()
    build = (ROOT / args.build).resolve()
    campaign = build / "apps" / "resloc_campaign"
    if not campaign.exists():
        print(f"sweep_digests: {campaign} not found; build first", file=sys.stderr)
        return 2
    work = build / "sweep_digests"
    work.mkdir(exist_ok=True)

    ledger = {}
    failed = False
    for sweep, seed in SWEEPS:
        runs = [run_sweep(campaign, work, sweep, seed, threads) for threads in THREADS]
        differs = [part for part in ("json", "csv", "counters") if runs[0][part] != runs[1][part]]
        for part in differs:
            print(f"FAIL {sweep} seed {seed}: {part} differs between --threads "
                  f"{THREADS[0]} and {THREADS[1]} (outputs in {work})", file=sys.stderr)
        ledger[sweep] = {"seed": seed, "json": digest(runs[0]["json"]),
                         "csv": digest(runs[0]["csv"]), "deterministic": runs[0]["counters"]}
        failed |= bool(differs)
        print(f"{'FAIL' if differs else 'ok  '} {sweep} seed {seed}: "
              f"json sha256 {ledger[sweep]['json']['sha256'][:16]}")
    if failed:
        return 1
    LEDGER.write_text(json.dumps({"sweeps": ledger}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
