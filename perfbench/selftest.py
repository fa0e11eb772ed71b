"""The benchmark's own self-test, at tiny scale.

    python3 perfbench/selftest.py

Checks that

* the same seed generates the same schedule and another seed another one;
* a traced and an untraced run print every metric ``BENCHMARK.json``
  names, each with its unit, and pass every correctness check, including
  that the layers' self times plus ``bench.driver_s`` add up to the traced
  wall time;
* a packet dropped without a counted reason fails the conservation check.

Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from repro.net.link import Link  # noqa: E402

TINY = dict(tx=40, rx=40)


def fail(msg: str) -> None:
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def check_seeding() -> None:
    for name, wl in workloads.WORKLOADS.items():
        if wl.generate(3) != wl.generate(3):
            fail(f"{name}: seed 3 generated two different schedules")
        if wl.generate(3) == wl.generate(4):
            fail(f"{name}: seeds 3 and 4 generated the same schedule")
    print("ok: schedules are a function of the seed")


def tiny_run(trace: int) -> dict:
    """One planes-traced run at tiny scale through the benchmark's own
    entry point; returns its result line."""
    real = workloads.planes_generate
    workloads.WORKLOADS["planes-traced"] = workloads.Workload(
        lambda seed: real(seed, **TINY), workloads.planes_round,
        workloads._exact)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "planes-traced", "--seed", "5",
                             "--seconds", "0.1", "--trace", str(trace),
                             "--spans-out", os.path.join(HERE, "out")])
    finally:
        workloads.WORKLOADS["planes-traced"] = workloads.Workload(
            real, workloads.planes_round, workloads._exact)
    lines = out.getvalue().splitlines()
    if code != 0:
        fail(f"trace {trace} run exited {code}:\n" + "\n".join(lines))
    return json.loads(lines[-1])


def check_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = tiny_run(trace)
        if not result["correct"] or result["failed"]:
            fail(f"trace {trace} run reported {result}")
        got = result["metrics"]
        for m in spec[key]:
            entry = got.get(m["name"])
            if entry is None:
                fail(f"trace {trace} run did not print {m['name']}")
            if entry["unit"] != m["unit"]:
                fail(f"{m['name']}: unit {entry['unit']!r}, "
                     f"BENCHMARK.json says {m['unit']!r}")
        extra = set(got) - {m["name"] for m in spec[key]}
        if extra:
            fail(f"trace {trace} run printed unlisted metrics {sorted(extra)}")
    print("ok: every metric printed with its unit; self times add up")


def check_broken_input() -> None:
    """Drop the third frame any link carries, counting it nowhere."""
    real_send = Link.send
    calls = [0]

    def lossy_send(self, pkt):
        calls[0] += 1
        if calls[0] == 3:
            return True
        return real_send(self, pkt)

    schedule = workloads.planes_generate(5, **TINY)
    Link.send = lossy_send
    try:
        r = workloads.planes_round(schedule, workloads.Phases())
    finally:
        Link.send = real_send
    verdict = {name: ok for name, ok, _ in r.checks}
    if verdict.get("conservation", True):
        fail("an uncounted drop passed the conservation check")
    print("ok: an uncounted drop fails the conservation check")


def main() -> int:
    check_seeding()
    check_metrics()
    check_broken_input()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
