"""Seeded benchmark of the simulator: one workload per run.

    python3 perfbench/run.py --workload exact-ddio --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up and
measured phase are repeated in rounds until ``--seconds`` of measured time
(at least three rounds), and each metric is the median over rounds.
``--trace 1`` runs one round with host-time spans around every layer and
one without, and reports the per-layer metrics; ``--seconds`` does not
apply to it. Every run checks the simulated outputs; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A failed check exits 1.

Host times (``setup_s``, ``pkts_per_s``) are scaled to a reference host
speed: a fixed pure-Python loop is timed before every set-up and measured
phase and after the round (:class:`workloads.Phases`), and the round's
times are scaled by how much slower than ``REFERENCE_PROBE_S`` the loop
ran on average. On a shared machine whose speed drifts
between runs this cancels the drift, and it makes numbers from different
machines comparable. The unscaled values are printed too
(``bench.setup_s_raw``, ``bench.pkts_per_s_raw`` in the traced run).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_ROUNDS = 3
MAX_ROUNDS = 50
END_TO_END = (
    ("setup_s", "s"),
    ("pkts_per_s", "pkt/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_cpu_ns_per_pkt", "ns/pkt"),
)

#: Which layers each workload must reach in the traced run.
REQUIRED_LAYERS = {
    "exact-ddio": ("host.cache", "nic.rings", "nic.notification",
                   "core.nic_dataplane", "core.library", "sim.engine"),
    "hybrid-steady": ("sim.fastforward", "core.control_plane", "interpose",
                      "nic.rings", "core.nic_dataplane", "sim.engine"),
    "rack-churn": ("net", "cluster", "interpose", "sim.fastforward",
                   "tools", "sim.engine"),
    "planes-traced": ("kernel", "kernel.netfilter", "kernel.qdisc",
                      "dataplanes.kernel", "dataplanes.bypass",
                      "dataplanes.sidecar", "dataplanes.hypervisor",
                      "dataplanes.kopi", "trace", "sim.engine"),
}

#: Layers that must see no call at all on a workload.
ABSENT_LAYERS = {
    "exact-ddio": ("sim.fastforward",),
}

#: Counts that must stay 0 on a workload: hybrid-steady runs the analytic
#: DDIO model, so the structural LLC sees no access.
IDLE_COUNTS = {
    "hybrid-steady": ("host.cache.dma_writes", "host.cache.cpu_reads"),
}

def setup_ref_s(r) -> float:
    """A round's set-up seconds at reference host speed."""
    return r.setup_s / r.host_scale


def pkts_per_ref_s(r) -> float:
    """A round's delivered packets per measured second at reference host
    speed."""
    return r.delivered / r.measure_s * r.host_scale


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv):
    with open(os.path.join(HERE, "plan.json")) as f:
        plan = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(plan["workloads"]))
    p.add_argument("--seed", type=int, default=plan["default_seed"])
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out", default=os.path.join(HERE, "out"),
                   help="directory the traced run writes its spans to")
    return p.parse_args(argv)


def one_round(wl, schedule, spans=None):
    import workloads

    gc.collect()
    phases = workloads.Phases(spans)
    r = wl.round(schedule, phases)
    r.setup_s, r.measure_s = phases.setup_s, phases.measure_s
    r.host_scale = phases.host_scale()
    return r


def run_untraced(wl, schedule, seconds: float):
    rounds = []
    while len(rounds) < MAX_ROUNDS and (
            len(rounds) < MIN_ROUNDS
            or sum(r.measure_s for r in rounds) < seconds):
        rounds.append(one_round(wl, schedule))
    return rounds


def run_traced(wl, schedule):
    """One round with host-time spans around every layer, then the same
    round without them."""
    import spans

    rec = spans.SpanRecorder()
    uninstall = spans.install(rec)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        traced = one_round(wl, schedule, rec)
    finally:
        uninstall()
        sys.setrecursionlimit(limit)
    return rec, traced, one_round(wl, schedule)


def per_layer_metrics(rec, r, plain, fidelity_err: float) -> dict:
    import spans
    import workloads
    from repro.trace.stages import STAGES

    c = r.counts
    out = {}
    for layer in spans.ALL_LAYERS:
        out[f"{layer}.self_s"] = metric(rec.self_s.get(layer, 0.0), "s")
    for key in ("host.cache.dma_writes", "host.cache.cpu_reads",
                "host.cache.ddio_evictions", "nic.rings.posts",
                "nic.rings.consumes", "nic.notification.posts",
                "sim.fastforward.promotions", "sim.fastforward.demotions",
                "sim.fastforward.epochs", "interpose.fastpath.lookups",
                "interpose.fastpath.invalidated", "interpose.commits",
                "interpose.stale_evals", "net.switch.frames",
                "net.switch.flooded", "net.link.sent", "cluster.migrations",
                "cluster.balancer.stale_evals", "trace.contexts"):
        out[key] = metric(c[key], "count")
    out["host.cache.cpu_miss_rate"] = metric(c["host.cache.cpu_miss_rate"],
                                             "ratio")
    out["sim.fastforward.fluid_frac"] = metric(
        c["sim.fastforward.fluid_packets"] / max(r.delivered, 1), "ratio")
    out["sim.fastforward.fidelity_err"] = metric(fidelity_err, "ratio")
    out["interpose.fastpath.hit_rate"] = metric(
        c["interpose.fastpath.hits"] / max(c["interpose.fastpath.lookups"], 1),
        "ratio")
    out["cluster.migration_sim_us"] = metric(
        c["cluster.migration_sim_ns"] / 1e3, "us")
    out["core.control_plane.open_s"] = metric(
        rec.entry_s.get(("setup", "core.control_plane"), 0.0), "s")
    for stage in STAGES:
        out[f"stage.{stage}_ns_per_pkt"] = metric(
            r.stage_ns.get(stage, 0) / max(r.delivered, 1), "ns/pkt")
    out["sim.engine.events"] = metric(r.events, "count")
    out["sim.engine.events_per_pkt"] = metric(
        r.events / max(r.delivered, 1), "events/pkt")
    out["bench.driver_s"] = metric(rec.driver_s(), "s")
    out["bench.traced_wall_s"] = metric(rec.wall_s, "s")
    out["bench.trace_overhead"] = metric(
        pkts_per_ref_s(r) / pkts_per_ref_s(plain), "ratio")
    out["bench.setup_s_raw"] = metric(plain.setup_s, "s")
    out["bench.pkts_per_s_raw"] = metric(plain.delivered / plain.measure_s,
                                         "pkt/s")
    out["bench.ops_failed_frac"] = metric(r.failed / r.attempted, "ratio")
    out["machine.calibration_s"] = metric(
        plain.host_scale * workloads.REFERENCE_PROBE_S, "s")
    out["machine.nproc"] = metric(os.cpu_count() or 1, "count")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: simulator source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    schedule = wl.generate(args.seed)
    print(f"machine: python {platform.python_version()} nproc "
          f"{os.cpu_count()}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")

    checks = []
    if args.trace:
        rec, traced, plain = run_traced(wl, schedule)
        # End-to-end metrics are measured with tracing off.
        checked, timed = [traced, plain], [plain]
        digests = {traced.digest, plain.digest}
        checks.append(("digest_traced_equals_untraced", len(digests) == 1,
                       f"digests {sorted(digests)}"))
        for layer in REQUIRED_LAYERS[args.workload]:
            n = rec.calls.get(layer, 0)
            checks.append((f"layer_reached.{layer}", n > 0, f"{n} spans"))
        for layer in ABSENT_LAYERS.get(args.workload, ()):
            n = rec.calls.get(layer, 0)
            checks.append((f"layer_idle.{layer}", n == 0, f"{n} spans"))
        for key in IDLE_COUNTS.get(args.workload, ()):
            n = traced.counts[key]
            checks.append((f"idle.{key}", n == 0, f"{n}"))
        total = sum(rec.self_s.values()) + rec.driver_s()
        checks.append(("self_times_sum_to_wall",
                       abs(total - rec.wall_s) <= 1e-6 * rec.wall_s,
                       f"{total:.6f} s vs {rec.wall_s:.6f} s"))
        os.makedirs(args.spans_out, exist_ok=True)
        rec.dump(os.path.join(args.spans_out,
                              f"spans-{args.workload}-{args.seed}.json"))
    else:
        checked = timed = run_untraced(wl, schedule, args.seconds)
        digests = {r.digest for r in timed}
        checks.append(("digest_repeats", len(digests) == 1,
                       f"{len(timed)} rounds, digests {sorted(digests)}"))
    rss = peak_rss_mib()

    fidelity_err, bad = wl.fidelity(args.seed)
    checks.append(("hybrid_parity", not bad, "; ".join(bad) or
                   f"max relative error {fidelity_err:.6f}"))
    for r in checked:
        checks.extend(r.checks)
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    first = timed[0]
    e2e = {
        "setup_s": statistics.median(setup_ref_s(r) for r in timed),
        "pkts_per_s": statistics.median(pkts_per_ref_s(r) for r in timed),
        "peak_rss_mib": rss,
        "sim_cpu_ns_per_pkt": first.sim_cpu_ns / max(first.delivered, 1),
        "fidelity_err": fidelity_err,
        "ops_failed_frac": failed / attempted,
    }
    units = dict(END_TO_END, fidelity_err="ratio", ops_failed_frac="ratio")
    for name, value in e2e.items():
        print(f"end_to_end {name} {value:.6g} {units[name]}")
    for i, r in enumerate(timed):
        print(f"round {i} setup_s {r.setup_s:.4f} measure_s "
              f"{r.measure_s:.4f} delivered {r.delivered} calibration_s "
              f"{r.host_scale * workloads.REFERENCE_PROBE_S:.4f}")
    print(f"sim_digest {first.digest}")
    if args.trace:
        metrics = per_layer_metrics(rec, traced, plain, fidelity_err)
        for name, m in metrics.items():
            print(f"per_layer {name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: metric(e2e[name], unit) for name, unit in END_TO_END}
    seen = set()
    for name, ok, detail in checks:
        if name in seen and ok:
            continue
        seen.add(name)
        print(f"check {name} {'ok' if ok else 'FAILED'}: {detail}")
    correct = all(ok for _, ok, _ in checks)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
