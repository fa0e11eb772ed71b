"""E22 — group fast-forward bench: one epoch per group must stay exact
and cost O(groups) epoch events, not O(flows).

Replays both legs of the group fast-forward experiment and asserts the
acceptance shape:

* Parity: exact and hybrid runs of the *identical* RX+TX schedule agree
  on every key of the whole-simulation stats snapshot (as in E21; the TX
  side adds NIC tx_pkts, the peer's counters, the egress link, the qdisc,
  doorbell MMIO writes and the TX DMA ledger), conservation holds on
  both legs, and grouping actually engaged (>= 2 groups, >= 1 group
  epoch).
* Scale: at 100k+ connections every connection promotes, every epoch is
  a group epoch (no per-flow residue), and each group epoch stands for
  more than ``MIN_FLOW_ROUNDS_PER_EPOCH`` flow-rounds — a deterministic
  structural check, not a wall-clock ratio.

Writes ``e22_group_fastforward.json`` next to the earlier artifacts and
the consolidated ``BENCH_PR7.json`` (events fired + wall seconds for the
E8/E15/E21/E22 replays). The consolidated pass doubles as a regression
gate: if the exact-mode E8 replay's events/s dropped more than 10%
against the ``BENCH_PR6.json`` baseline, the calendar queue or the group
machinery leaked cost into the default path — fail. (Skipped when no
baseline exists.)
"""

import json
from pathlib import Path

from repro.experiments import e8_connection_scaling as e8
from repro.experiments.common import fmt_table, parity_report
from repro.experiments.e15_flow_fastpath import run_e15_planes
from repro.experiments.e21_fidelity_crossover import (
    run_parity as run_e21_parity,
)
from repro.experiments.e22_group_fastforward import (
    headline,
    run_group_scale,
    run_parity,
)

ARTIFACT = Path(__file__).parent / "artifacts" / "e22_group_fastforward.json"
CONSOLIDATED = Path(__file__).parent / "artifacts" / "BENCH_PR7.json"
PR6_BASELINE = Path(__file__).parent / "artifacts" / "BENCH_PR6.json"

MAX_E8_REGRESSION = 0.10


def _e22():
    parity = run_parity()
    scale = run_group_scale()
    return parity, scale


def test_e22_group_fastforward(once):
    parity, scale = once(_e22)
    h = headline(parity, scale)

    print("\n" + parity_report(parity))
    print("\n" + fmt_table([scale]))
    print(f"\nheadline: parity_ok={h['parity_ok']} "
          f"max_rel_err={h['max_rel_err']:.4%} "
          f"fluid={h['fluid_fraction']:.0%} grouped={h['grouped']} "
          f"{h['group_epochs']:,} group epochs for {h['flow_rounds']:,} "
          f"flow-rounds @ {h['connections']:,} conns")

    # Acceptance: grouping and TX fast-forward are invisible in the whole
    # snapshot, and epoch events scale with groups, not flows.
    assert parity["ok"], parity["failed"]
    for row in parity["rows"]:
        assert row["ok"], row
    assert parity["grouped"], parity["ff"]
    assert parity["fluid_fraction"] > 0.25
    assert scale["ok"], scale

    # The E21 parity leg (RX-only, through the same group-charging
    # engine) must still report zero error.
    e21_parity = run_e21_parity()
    assert e21_parity["ok"], e21_parity["failed"]
    e21_max_err = e21_parity["max_rel_err"]
    print(f"e21 parity still exact: max_rel_err={e21_max_err:.4%}")
    assert e21_max_err == 0.0

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(
        json.dumps(
            {"headline": h, "parity": parity["rows"],
             "exempt": parity["exempt"], "scale": scale,
             "ff": parity["ff"], "e21_max_rel_err": e21_max_err},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {ARTIFACT}")


def test_bench_pr7_consolidated(once, metered):
    """One artifact comparing the replay cost of the suite's heavy
    experiments on this tree — and the regression gate proving the
    calendar queue and group machinery cost the exact path nothing."""
    entries = {}
    _, ev, s = metered(e8.run_e8, sweep=(256, 1_024), packets_per_point=4_096)
    entries["e8"] = {"events": ev, "seconds": s}
    _, ev, s = metered(run_e15_planes, count=192)
    entries["e15"] = {"events": ev, "seconds": s}
    _, ev, s = metered(run_e21_parity)
    entries["e21"] = {"events": ev, "seconds": s}
    (parity, scale), ev, s = metered(once, _e22)
    entries["e22"] = {
        "events": ev, "seconds": s,
        "parity_ok": bool(parity["ok"]),
        "fluid_fraction": parity["fluid_fraction"],
        "group_epochs": scale["group_epochs"],
    }

    CONSOLIDATED.parent.mkdir(parents=True, exist_ok=True)
    CONSOLIDATED.write_text(json.dumps(entries, indent=2) + "\n")
    for name, e in entries.items():
        print(f"{name}: {e['events']} events in {e['seconds']:.2f}s")
    print(f"wrote {CONSOLIDATED}")

    # Exact-mode regression gate: E8 runs with fast_forward off, so its
    # events/s measures the default path the calendar queue must not slow.
    if not PR6_BASELINE.exists():
        print(f"{PR6_BASELINE.name} absent; skipping exact-mode "
              f"E8 regression check")
        return
    base = json.loads(PR6_BASELINE.read_text()).get("e8")
    if not base or not base.get("seconds"):
        print(f"{PR6_BASELINE.name} has no usable e8 entry; skipping")
        return
    base_rate = base["events"] / base["seconds"]
    cur_rate = entries["e8"]["events"] / entries["e8"]["seconds"]
    drop = 1.0 - cur_rate / base_rate
    print(f"e8 exact-mode: {cur_rate:,.0f} events/s vs baseline "
          f"{base_rate:,.0f} ({drop:+.1%} drop)")
    assert drop <= MAX_E8_REGRESSION, (
        f"exact-mode E8 replay regressed {drop:.1%} "
        f"(> {MAX_E8_REGRESSION:.0%}) vs {PR6_BASELINE.name}"
    )
