"""E23 — rack-scale fast-forward bench: end-to-end fluid epochs across
the switch hop must stay exact and beat the packet-exact engine
decisively.

Replays both legs of the ``E23`` spec of :mod:`repro.experiments.fidelity`
and asserts every bar the spec names (``fidelity.bars``):

* Parity: exact and cross-machine-fluid runs of the *identical*
  A→switch→B schedule agree on every key of the rack's stats snapshot
  (both hosts, the switch, every link) — counters exactly, modeled CPU
  time and every per-host trace stage within the pinned
  ``ff_tolerance``, differences only where ``repro.sim.stats.EXEMPT``
  names the key — per-host span conservation agrees between legs, every
  connection actually bound end-to-end, the fluid fraction of packet-legs
  exceeds 0.5, and both legs reproduce the snapshot digests pinned in
  ``golden.json``.
* Crossover: at 10k+ cross-host connections every flow binds end to end
  and the end-to-end fluid engine runs >= 5x faster (packets per wall-second) than the packet-exact
  engine (``fast_forward`` off) probed at the same scale.

Writes ``e23_rack_fastforward.json`` (including the cross-host micro-opt
before/after note) and the consolidated ``BENCH_PR9.json``; the
consolidated pass gates the exact-mode E8 replay's events/s within 10%
of the ``BENCH_PR8.json`` baseline — the switch/link hooks and the rack
coordinator must cost the default path nothing. (Skipped when no
baseline exists.)
"""

import json
from pathlib import Path

from repro.experiments import e8_connection_scaling as e8
from repro.experiments.common import fmt_table, parity_report
from repro.experiments.e15_flow_fastpath import run_e15_planes
from repro.experiments.fidelity import (
    E21,
    E23,
    bars,
    headline,
    run_parity,
    run_scale,
)

ARTIFACT = Path(__file__).parent / "artifacts" / "e23_rack_fastforward.json"
CONSOLIDATED = Path(__file__).parent / "artifacts" / "BENCH_PR9.json"
PR8_BASELINE = Path(__file__).parent / "artifacts" / "BENCH_PR8.json"

MAX_E8_REGRESSION = 0.10

#: Satellite 1 (micro-opt) before/after, measured on an isolated
#: uplink→switch→downlink hop (200k pre-built frames, best of 4) at the
#: commit boundaries of this PR. The end-to-end two-stack path is
#: dominated by the host stacks and showed no change beyond noise.
MICRO_OPT_NOTE = {
    "what": "hoisted per-frame metric/attr lookups in L2Switch._forward "
            "and Link.send/_deliver",
    "isolated_hop_ns_per_pkt_before": 7740,
    "isolated_hop_ns_per_pkt_after": 6590,
    "isolated_hop_method": "uplink.send -> switch._forward -> downlink, "
                           "200k frames, best of 4 runs",
    "end_to_end_ns_per_pkt": "~100k (two full stacks; unchanged within "
                             "noise)",
}


def _e23():
    return run_parity(E23), run_scale(E23)


def test_e23_rack_fastforward(once, fidelity_golden):
    parity, speedup = once(_e23)
    held = bars(E23, parity, speedup)

    print("\n" + parity_report(parity))
    print("\n" + fmt_table([speedup]))
    print(f"\nbars: {held}\nheadline: {headline(E23, parity, speedup)}")

    # Acceptance: the cross-machine epoch is invisible in the snapshot of
    # both machines and the switch between them, and absorbing the switch
    # hop actually pays at rack scale.
    assert all(held.values()), held
    for row in parity["rows"]:
        assert row["ok"], row
    golden = fidelity_golden(E23, parity)
    assert not golden, golden

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(
        json.dumps(
            {"headline": headline(E23, parity, speedup), "bars": held,
             "parity": parity["rows"], "exempt": parity["exempt"],
             "speedup": speedup, "rack": parity["ff"],
             "micro_opt": MICRO_OPT_NOTE},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {ARTIFACT}")


def test_bench_pr9_consolidated(once, metered):
    """One artifact comparing the replay cost of the suite's heavy
    experiments on this tree — and the regression gate proving the
    switch/link fluid hooks cost the exact path nothing."""
    entries = {}
    _, ev, s = metered(e8.run_e8, sweep=(256, 1_024), packets_per_point=4_096)
    entries["e8"] = {"events": ev, "seconds": s}
    _, ev, s = metered(run_e15_planes, count=192)
    entries["e15"] = {"events": ev, "seconds": s}
    _, ev, s = metered(run_parity, E21)
    entries["e21"] = {"events": ev, "seconds": s}
    (parity, speedup), ev, s = metered(once, _e23)
    entries["e23"] = {
        "events": ev, "seconds": s,
        "parity_ok": bool(parity["ok"]),
        "fluid_fraction": parity["fluid_fraction"],
        "rack_speedup": speedup["speedup"],
        "bound": speedup["promoted"],
    }

    CONSOLIDATED.parent.mkdir(parents=True, exist_ok=True)
    CONSOLIDATED.write_text(json.dumps(entries, indent=2) + "\n")
    for name, e in entries.items():
        print(f"{name}: {e['events']} events in {e['seconds']:.2f}s")
    print(f"wrote {CONSOLIDATED}")

    # Exact-mode regression gate: E8 runs with fast_forward off, so its
    # events/s measures the default path the new hooks must not slow.
    if not PR8_BASELINE.exists():
        print(f"{PR8_BASELINE.name} absent; skipping exact-mode "
              f"E8 regression check")
        return
    base = json.loads(PR8_BASELINE.read_text()).get("e8")
    if not base or not base.get("seconds"):
        print(f"{PR8_BASELINE.name} has no usable e8 entry; skipping")
        return
    base_rate = base["events"] / base["seconds"]
    cur_rate = entries["e8"]["events"] / entries["e8"]["seconds"]
    drop = 1.0 - cur_rate / base_rate
    print(f"e8 exact-mode: {cur_rate:,.0f} events/s vs baseline "
          f"{base_rate:,.0f} ({drop:+.1%} drop)")
    assert drop <= MAX_E8_REGRESSION, (
        f"exact-mode E8 replay regressed {drop:.1%} "
        f"(> {MAX_E8_REGRESSION:.0%}) vs {PR8_BASELINE.name}"
    )
