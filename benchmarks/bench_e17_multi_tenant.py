"""E17 — multi-tenant isolation bench: the per-tenant scheduler must hold
the noisy neighbor's interference to the pinned bound.

Replays the three-leg noisy-neighbor experiment (victims solo, contended
against a closed-loop hog with FIFO egress, contended with the per-tenant
DRR scheduler + quotas) at a CI-sized tenant count and asserts the
isolation contract:

* with isolation ON, pooled victim p99 stays within ``ISOLATION_FACTOR``
  (2x) of the solo baseline while the hog still carries the bulk of the
  delivered packets;
* with isolation OFF, the same contention degrades victim p99 by far
  more than the bound (typically orders of magnitude — the off leg also
  drops most victim traffic on the saturated FIFO);
* the E16 stage spine agrees about *where* the interference lands
  (qdisc queue-wait) and that the scheduler removes that stage.

Writes ``e17_multi_tenant.json`` next to the earlier artifacts and the
consolidated ``BENCH_PR8.json`` (events fired + wall seconds for the
E8/E15/E21/E17 replays). The consolidated pass doubles as a regression
gate: if the exact-mode E8 replay's events/s dropped more than 10%
against the ``BENCH_PR7.json`` baseline, the tenant threading leaked
cost into the default (knobs-off) path — fail. (Skipped when no
baseline exists.)
"""

import json
from pathlib import Path

from repro.experiments import e8_connection_scaling as e8
from repro.experiments.common import fmt_table
from repro.experiments.e15_flow_fastpath import run_e15_planes
from repro.experiments.e17_multi_tenant import (
    ISOLATION_FACTOR,
    run_e17,
    tenant_pressure_rows,
)
from repro.experiments.fidelity import E21, run_parity as run_fidelity_parity

ARTIFACT = Path(__file__).parent / "artifacts" / "e17_multi_tenant.json"
CONSOLIDATED = Path(__file__).parent / "artifacts" / "BENCH_PR8.json"
PR7_BASELINE = Path(__file__).parent / "artifacts" / "BENCH_PR7.json"

#: CI-sized tenant count: large enough that the off leg saturates and the
#: DRR round spans dozens of classes, small enough to replay in seconds.
N_VICTIMS = 40
VICTIM_COUNT = 25

MAX_E8_REGRESSION = 0.10


def _e17():
    return run_e17(n_victims=N_VICTIMS, victim_count=VICTIM_COUNT)


def test_e17_multi_tenant(once):
    result = once(_e17)
    h = result["headline"]

    print("\n" + fmt_table(result["rows"]))
    print("\n" + fmt_table(result["stage_rows"]))
    print("\n" + fmt_table(tenant_pressure_rows(
        result["legs"]["contended_on"])[:8]))
    print(f"\nheadline: solo p99 {h['solo_p99_us']:.1f}us, "
          f"off {h['off_p99_x_solo']:.0f}x solo, "
          f"on {h['on_p99_x_solo']:.2f}x solo "
          f"(bound {ISOLATION_FACTOR}x), "
          f"hog share {h['hog_share_on']:.0%}, "
          f"interference in {h['interference_stage']!r}")

    # Acceptance: the isolation contract, both directions. run_e17
    # asserts these itself; restate the headline bounds here so a bench
    # regression reads as numbers, not a deep traceback.
    assert h["on_p99_x_solo"] <= ISOLATION_FACTOR, h
    assert h["off_p99_x_solo"] > ISOLATION_FACTOR, h
    assert h["hog_share_on"] > 0.5, h
    assert h["interference_stage"] == "qdisc", h

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(
        json.dumps(
            {"headline": h, "rows": result["rows"],
             "stages": result["stage_rows"],
             "pressure": tenant_pressure_rows(
                 result["legs"]["contended_on"])},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {ARTIFACT}")


def test_bench_pr8_consolidated(once, metered):
    """One artifact comparing the replay cost of the suite's heavy
    experiments on this tree — and the regression gate proving the
    tenant threading costs the exact (knobs-off) path nothing."""
    entries = {}
    _, ev, s = metered(e8.run_e8, sweep=(256, 1_024), packets_per_point=4_096)
    entries["e8"] = {"events": ev, "seconds": s}
    _, ev, s = metered(run_e15_planes, count=192)
    entries["e15"] = {"events": ev, "seconds": s}
    _, ev, s = metered(run_fidelity_parity, E21)
    entries["e21"] = {"events": ev, "seconds": s}
    result, ev, s = metered(once, _e17)
    h = result["headline"]
    entries["e17"] = {
        "events": ev, "seconds": s,
        "on_p99_x_solo": h["on_p99_x_solo"],
        "off_p99_x_solo": h["off_p99_x_solo"],
        "hog_share_on": h["hog_share_on"],
    }

    CONSOLIDATED.parent.mkdir(parents=True, exist_ok=True)
    CONSOLIDATED.write_text(json.dumps(entries, indent=2) + "\n")
    for name, e in entries.items():
        print(f"{name}: {e['events']} events in {e['seconds']:.2f}s")
    print(f"wrote {CONSOLIDATED}")

    # Exact-mode regression gate: E8 runs with every tenant knob off, so
    # its events/s measures the default path the threading must not slow.
    if not PR7_BASELINE.exists():
        print(f"{PR7_BASELINE.name} absent; skipping exact-mode "
              f"E8 regression check")
        return
    base = json.loads(PR7_BASELINE.read_text()).get("e8")
    if not base or not base.get("seconds"):
        print(f"{PR7_BASELINE.name} has no usable e8 entry; skipping")
        return
    base_rate = base["events"] / base["seconds"]
    cur_rate = entries["e8"]["events"] / entries["e8"]["seconds"]
    drop = 1.0 - cur_rate / base_rate
    print(f"e8 exact-mode: {cur_rate:,.0f} events/s vs baseline "
          f"{base_rate:,.0f} ({drop:+.1%} drop)")
    assert drop <= MAX_E8_REGRESSION, (
        f"exact-mode E8 replay regressed {drop:.1%} "
        f"(> {MAX_E8_REGRESSION:.0%}) vs {PR7_BASELINE.name}"
    )
