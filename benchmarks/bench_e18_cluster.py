"""E18 — cluster scale-out bench: live flow migration must be loss-free
and re-steering a hot backend must actually pay.

Replays both legs of the cluster experiment and asserts the acceptance
shape:

* Conservation: the live-migration run of the *identical* client→VIP
  schedule matches the no-migration run on every cluster total summed
  over the rack snapshots (``CONSERVED``) — delivered messages (total
  and per-flow), NIC and switch frame meters, and conntrack packet/byte
  totals summed across all backends — exactly, with the migrated flow's
  count fully accounted for by the protocol's snapshot + delta copies.
* Rebalance: migrating the elephant flow off the hot backend cuts the
  victim mice's p99 latency by >= ``MIN_P99_IMPROVEMENT`` versus the
  no-migration leg, with every mouse still delivered.

Writes ``e18_cluster.json`` and the consolidated ``BENCH_PR10.json``;
the consolidated pass gates the exact-mode E8 replay's events/s within
10% of the ``BENCH_PR9.json`` baseline — the balancer probe in the
switch's forwarding loop and the Rack generalization must cost the
default path nothing. (Skipped when no baseline exists.)
"""

import json
from pathlib import Path

from repro.experiments import e8_connection_scaling as e8
from repro.experiments.e18_cluster import (
    MIN_P99_IMPROVEMENT,
    headline,
    run_parity,
    run_rebalance_pair,
)
from repro.experiments.e23_rack_fastforward import (
    run_parity as run_e23_parity,
)
from repro.experiments.common import fmt_table

ARTIFACT = Path(__file__).parent / "artifacts" / "e18_cluster.json"
CONSOLIDATED = Path(__file__).parent / "artifacts" / "BENCH_PR10.json"
PR9_BASELINE = Path(__file__).parent / "artifacts" / "BENCH_PR9.json"

MAX_E8_REGRESSION = 0.10


def _e18():
    parity = run_parity()
    rebalance = run_rebalance_pair()
    return parity, rebalance


def test_e18_cluster(once):
    parity, rebalance = once(_e18)
    h = headline(parity, rebalance)

    print("\n" + fmt_table(parity["rows"]))
    print(f"\nheadline: parity_ok={h['parity_ok']} "
          f"max_rel_err={h['max_rel_err']:.4%} "
          f"stale_evals={h['stale_evals']} "
          f"p99 improvement={h['p99_improvement']:.1f}x")

    # Acceptance: migration is invisible in every cluster-summed
    # observable (loss-free, counter-conserving)...
    assert parity["ok"], parity["failed"]
    for row in parity["rows"]:
        assert row["ok"], row
    assert parity["flows_ok"]
    assert parity["migration_done"]
    assert parity["moved_ok"], parity["migration"]
    assert h["max_rel_err"] == 0.0
    # ...the re-steer commit was atomic and live (some packets may land in
    # the stale window, steered by the complete OLD table — never a
    # half-installed one)...
    assert parity["commit_stats"].get("resteers", 0) >= 1
    # ...and moving the elephant actually rescues the victim's tail.
    assert rebalance["complete"], rebalance
    assert rebalance["improvement"] >= MIN_P99_IMPROVEMENT, rebalance

    record = parity["migration"]
    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(
        json.dumps(
            {
                "headline": h,
                "parity": parity["rows"],
                "migration": {
                    "snap_packets": record.snap_packets,
                    "delta_packets": record.delta_packets,
                    "verdicts_replayed": record.verdicts_replayed,
                    "ff_demoted": record.ff_demoted,
                    "commit_ns": record.committed_ns - record.requested_ns,
                    "total_ns": record.finalized_ns - record.requested_ns,
                },
                "rebalance": {
                    "improvement": rebalance["improvement"],
                    "base_p99_post_ns": rebalance["base"]["p99_post_ns"],
                    "mig_p99_post_ns": rebalance["mig"]["p99_post_ns"],
                    "mice_delivered": rebalance["mig"]["mice_delivered"],
                },
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {ARTIFACT}")


def test_bench_pr10_consolidated(once, metered):
    """One artifact comparing the replay cost of the suite's heavy
    experiments on this tree — and the regression gate proving the
    balancer probe and the N-host Rack refactor cost the exact path
    nothing."""
    entries = {}
    _, ev, s = metered(e8.run_e8, sweep=(256, 1_024),
                        packets_per_point=4_096, repeats=5)
    entries["e8"] = {"events": ev, "seconds": s}
    e23_parity, ev, s = metered(run_e23_parity)
    entries["e23"] = {"events": ev, "seconds": s,
                      "parity_ok": bool(e23_parity["ok"])}
    (parity, rebalance), ev, s = metered(once, _e18)
    entries["e18"] = {
        "events": ev, "seconds": s,
        "parity_ok": bool(parity["ok"]),
        "max_rel_err": parity["max_rel_err"],
        "p99_improvement": rebalance["improvement"],
    }

    CONSOLIDATED.parent.mkdir(parents=True, exist_ok=True)
    CONSOLIDATED.write_text(json.dumps(entries, indent=2) + "\n")
    for name, e in entries.items():
        print(f"{name}: {e['events']} events in {e['seconds']:.2f}s")
    print(f"wrote {CONSOLIDATED}")

    # Exact-mode regression gate: E8 runs with cluster_lb (and
    # fast_forward) off, so its events/s measures the default path the
    # Rack refactor and the balancer hook must not slow.
    if not PR9_BASELINE.exists():
        print(f"{PR9_BASELINE.name} absent; skipping exact-mode "
              f"E8 regression check")
        return
    base = json.loads(PR9_BASELINE.read_text()).get("e8")
    if not base or not base.get("seconds"):
        print(f"{PR9_BASELINE.name} has no usable e8 entry; skipping")
        return
    base_rate = base["events"] / base["seconds"]
    cur_rate = entries["e8"]["events"] / entries["e8"]["seconds"]
    drop = 1.0 - cur_rate / base_rate
    print(f"e8 exact-mode: {cur_rate:,.0f} events/s vs baseline "
          f"{base_rate:,.0f} ({drop:+.1%} drop)")
    assert drop <= MAX_E8_REGRESSION, (
        f"exact-mode E8 replay regressed {drop:.1%} "
        f"(> {MAX_E8_REGRESSION:.0%}) vs {PR9_BASELINE.name}"
    )
