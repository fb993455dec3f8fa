#!/usr/bin/env python3
"""Gates the campaign benchmark's deterministic work counters.

    python3 tools/check_work_counters.py

Run it from the repository root. It runs

    python3 perfbench/run.py --workload lss_scale --seed 1 --trace 1 --seconds 1

and exits 1 unless math.gd_evaluations, core.lss_edge_terms and
core.lss_constraint_pairs equal the default-seed values that the "Work counts
at the default seed" table of perfbench/README.md lists for lss_scale. The
counters are a pure function of the seed on any host and at any thread count,
so a mismatch means the solvers took a different trajectory: a speedup must
leave them untouched.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "perfbench" / "README.md"
WORKLOAD = "lss_scale"
COUNTERS = ("math.gd_evaluations", "core.lss_edge_terms", "core.lss_constraint_pairs")


def expected_counts(readme_text, workload):
    """{counter: value} for `workload` from the README's work-count table."""
    lines = readme_text.splitlines()
    header = next((k for k, line in enumerate(lines) if line.startswith("| counter |")), None)
    if header is None:
        raise ValueError("no '| counter |' table in perfbench/README.md")
    columns = [cell.strip() for cell in lines[header].strip("|").split("|")]
    if workload not in columns:
        raise ValueError(f"workload {workload!r} is not a column of the work-count table")
    column = columns.index(workload)
    counts = {}
    for line in lines[header + 2:]:  # skip the |---| separator row
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        counts[cells[0].strip("`")] = int(cells[column])
    return counts


def main():
    expected = expected_counts(README.read_text(), WORKLOAD)
    missing = [name for name in COUNTERS if name not in expected]
    if missing:
        print(f"check_work_counters: not in the README table: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", "1",
           "--trace", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"check_work_counters: {' '.join(cmd)} exited {proc.returncode}", file=sys.stderr)
        return 2
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print("check_work_counters: the benchmark's own checks failed", file=sys.stderr)
        return 1

    failed = False
    for name in COUNTERS:
        got = result["metrics"][name]["value"]
        ok = got == expected[name]
        failed |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got} (expected {expected[name]})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
