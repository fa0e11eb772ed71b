"""Check the simulator's seeded perfbench results against committed values.

Run from the repository root::

    python3 benchmarks/check_golden.py               # every workload
    python3 benchmarks/check_golden.py exact-ddio    # one workload

For each workload in ``benchmarks/golden.json`` this runs
``perfbench/run.py --workload W --seed S --seconds 1 --trace 0`` and fails
when the run's ``sim_digest`` or ``sim_cpu_ns_per_pkt`` differs from the
golden value. Both are simulated quantities: they depend on the seed and
the simulator, not on host speed, so any difference means the simulator
computes something else. A change that means to move them updates
``golden.json`` together with a CHANGES.md line saying why.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def run(workload: str, seed: int) -> dict:
    """One short untraced perfbench run: its digest, ``sim_cpu_ns_per_pkt``
    and whether every perfbench check passed (None where the run printed
    no result)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return {"sim_digest": None, "sim_cpu_ns_per_pkt": None, "correct": False}
    return {
        "sim_digest": next((line.split()[1] for line in lines
                            if line.startswith("sim_digest ")), None),
        "sim_cpu_ns_per_pkt": result["metrics"]["sim_cpu_ns_per_pkt"]["value"],
        "correct": result["correct"] and proc.returncode == 0,
    }


def main(argv: list) -> int:
    golden = json.loads(GOLDEN.read_text())
    names = argv or list(golden["workloads"])
    failed = 0
    for name in names:
        want = golden["workloads"][name]
        got = run(name, golden["seed"])
        bad = [f"{key} {got[key]!r} != golden {want[key]!r}"
               for key in ("sim_digest", "sim_cpu_ns_per_pkt") if got[key] != want[key]]
        if not got["correct"]:
            bad.append("a perfbench check failed")
        print(f"{name}: {'ok' if not bad else 'MISMATCH ' + '; '.join(bad)}")
        failed += bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
