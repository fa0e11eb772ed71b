"""E21 — fidelity-crossover bench: hybrid fast-forward must be invisible
in the observables and decisively faster at scale.

Replays both legs of the crossover experiment and asserts the acceptance
shape:

* Parity: exact and hybrid runs of the *identical* schedule agree on
  every key of the whole-simulation stats snapshot — counters exactly,
  modeled time (CPU busy, every trace stage) within the pinned
  ``ff_tolerance``, differences only where ``repro.sim.stats.EXEMPT``
  names the key — and conservation holds on both legs.
* Crossover: at 100k+ connections the hybrid leg delivers packets at
  >= 20x the packet-exact rate (delivered-packets-per-wall-second, exact
  probe measured at the same structure scale).

Writes ``e21_fidelity_crossover.json`` next to the E12–E16 artifacts and
the consolidated ``BENCH_PR6.json`` (events fired + wall seconds for the
E8/E15/E16/E21 replays). The consolidated pass doubles as a regression
gate: if the exact-mode E8 replay's events/s dropped more than 10%
against the ``BENCH_PR5.json`` baseline, the hybrid machinery leaked
cost into the default path — fail. (Skipped when no baseline exists.)
"""

import json
from pathlib import Path

from repro.experiments import e8_connection_scaling as e8
from repro.experiments.common import fmt_table, parity_report
from repro.experiments.e15_flow_fastpath import run_e15_planes
from repro.experiments.e16_latency_anatomy import run_e16
from repro.experiments.e21_fidelity_crossover import (
    headline,
    run_parity,
    run_speedup,
)

ARTIFACT = Path(__file__).parent / "artifacts" / "e21_fidelity_crossover.json"
CONSOLIDATED = Path(__file__).parent / "artifacts" / "BENCH_PR6.json"
PR5_BASELINE = Path(__file__).parent / "artifacts" / "BENCH_PR5.json"

MIN_SPEEDUP = 20.0
MAX_E8_REGRESSION = 0.10


def _crossover():
    parity = run_parity()
    speedup = run_speedup()
    return parity, speedup


def test_e21_fidelity_crossover(once):
    parity, speedup = once(_crossover)
    h = headline(parity, speedup)

    print("\n" + parity_report(parity))
    print("\n" + fmt_table([speedup]))
    print(f"\nheadline: parity_ok={h['parity_ok']} "
          f"max_rel_err={h['max_rel_err']:.4%} "
          f"fluid={h['fluid_fraction']:.0%} "
          f"speedup={h['speedup']:.1f}x @ {h['connections']:,} conns")

    # Acceptance: fidelity is invisible, and fast-forward actually pays.
    assert parity["ok"], parity["failed"]
    for row in parity["rows"]:
        assert row["ok"], row
    # The hybrid leg really went fluid (warmup packets stay exact, so the
    # default 16-packet-per-flow parity schedule tops out under 50%).
    assert parity["fluid_fraction"] > 0.25
    assert speedup["promoted"] == speedup["connections"]
    assert speedup["speedup"] >= MIN_SPEEDUP, speedup

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(
        json.dumps(
            {"headline": h, "parity": parity["rows"],
             "exempt": parity["exempt"], "speedup": speedup,
             "ff": parity["ff"]},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {ARTIFACT}")


def test_bench_pr6_consolidated(once, metered):
    """One artifact comparing the replay cost of the suite's heavy
    experiments on this tree — and the regression gate proving the
    hybrid engine costs the exact path nothing."""
    entries = {}
    _, ev, s = metered(e8.run_e8, sweep=(256, 1_024), packets_per_point=4_096)
    entries["e8"] = {"events": ev, "seconds": s}
    _, ev, s = metered(run_e15_planes, count=192)
    entries["e15"] = {"events": ev, "seconds": s}
    _, ev, s = metered(run_e16, count=192)
    entries["e16"] = {"events": ev, "seconds": s}
    parity, ev, s = metered(once, run_parity)
    entries["e21"] = {
        "events": ev, "seconds": s,
        "parity_ok": bool(parity["ok"]),
        "fluid_fraction": parity["fluid_fraction"],
    }

    CONSOLIDATED.parent.mkdir(parents=True, exist_ok=True)
    CONSOLIDATED.write_text(json.dumps(entries, indent=2) + "\n")
    for name, e in entries.items():
        print(f"{name}: {e['events']} events in {e['seconds']:.2f}s")
    print(f"wrote {CONSOLIDATED}")

    # Exact-mode regression gate: E8 runs with fast_forward off, so its
    # events/s measures the default path the hybrid engine must not slow.
    if not PR5_BASELINE.exists():
        print(f"{PR5_BASELINE.name} absent; skipping exact-mode "
              f"E8 regression check")
        return
    base = json.loads(PR5_BASELINE.read_text()).get("e8")
    if not base or not base.get("seconds"):
        print(f"{PR5_BASELINE.name} has no usable e8 entry; skipping")
        return
    base_rate = base["events"] / base["seconds"]
    cur_rate = entries["e8"]["events"] / entries["e8"]["seconds"]
    drop = 1.0 - cur_rate / base_rate
    print(f"e8 exact-mode: {cur_rate:,.0f} events/s vs baseline "
          f"{base_rate:,.0f} ({drop:+.1%} drop)")
    assert drop <= MAX_E8_REGRESSION, (
        f"exact-mode E8 replay regressed {drop:.1%} "
        f"(> {MAX_E8_REGRESSION:.0%}) vs {PR5_BASELINE.name}"
    )
