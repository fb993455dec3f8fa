#!/usr/bin/env python3
"""Gates the campaign benchmark's deterministic work counters.

    python3 tools/check_work_counters.py

Run it from the repository root. For each benchmark workload it runs

    python3 perfbench/run.py --workload NAME --seed 1 --trace 1 --seconds 1

and exits 1 unless every counter of the "Work counts at the default seed"
table of perfbench/README.md equals that workload's column: the acoustic
measure calls and chirp windows, the campaign turns and filtered pairs, the
gradient-descent, LSS-constraint and network counts. The counters are a pure
function of the seed on any host and at any thread count, so a mismatch means
a stage took a different trajectory: a speedup or a refactor must leave them
untouched.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "perfbench" / "README.md"
WORKLOADS = ("acoustic_survey", "lss_scale", "resilience", "distributed")


def work_count_table(readme_text):
    """{workload: {counter: value}} from the README's work-count table."""
    lines = readme_text.splitlines()
    header = next((k for k, line in enumerate(lines) if line.startswith("| counter |")), None)
    if header is None:
        raise ValueError("no '| counter |' table in perfbench/README.md")
    workloads = [cell.strip() for cell in lines[header].strip("|").split("|")][1:]
    table = {workload: {} for workload in workloads}
    for line in lines[header + 2:]:  # skip the |---| separator row
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        for workload, cell in zip(workloads, cells[1:]):
            table[workload][cells[0].strip("`")] = int(cell)
    return table


def traced_metrics(workload):
    """The metrics of one traced default-seed run, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--trace", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"check_work_counters: {' '.join(cmd)} exited {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"check_work_counters: {workload}: the benchmark's own checks failed",
              file=sys.stderr)
        return None
    return result["metrics"]


def main():
    table = work_count_table(README.read_text())
    missing = [workload for workload in WORKLOADS if workload not in table]
    if missing:
        print(f"check_work_counters: not a column of the README table: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    failed = False
    for workload in WORKLOADS:
        metrics = traced_metrics(workload)
        if metrics is None:
            return 2
        for name, want in table[workload].items():
            got = metrics.get(name, {}).get("value")
            ok = got == want
            failed |= not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload} {name}: {got} (expected {want})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
