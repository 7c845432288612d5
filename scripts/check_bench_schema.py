#!/usr/bin/env python3
"""Schema + regression guard for the consolidated benchmark reports.

CI runs bench/run_quick.sh and then this checker over the reports it
produced. The trajectory tooling keys on these fields; a bench refactor that
renames or drops one silently breaks the perf history, so drift fails the
build. Dispatch is on the top-level "bench" tag:

  * readpath  — field-presence checks only (BENCH_readpath.json).
  * shard_scaling — field-presence checks (BENCH_shard_scaling.json; it was
    previously only cat-ed, so a field rename could silently break the
    scaling trajectory).
  * reshard_churn — field-presence checks plus the migration gates
    (BENCH_reshard.json): the run must conserve keys, the forced
    split->merge cycle of the hot shard must have run (one split, one
    merge, back at meta.shards shards), and the migration window must keep
    >= 50% of steady-state throughput.
  * obs_overhead — field-presence checks plus the observability cost gates
    (BENCH_obs.json): the always-on surface (abort taxonomy + tx latency
    histograms) must cost <= 2% over the observability-off baseline and
    the commit-event trace <= 10% (per-mode minima over interleaved reps,
    recomputed from the records — interference on shared runners is
    additive, so the fastest rep estimates intrinsic cost); the
    abort-cause partition invariant
    (sum of conflict causes == legacy aborts counter) must have held in
    every run. --fresh relaxes the ratio gates to 10%/20% for freshly
    generated reports on noisy shared runners; the committed baseline is
    always held to the strict bounds.
  * serving_ycsb — field-presence checks plus the serving-tier acceptance
    gates (BENCH_serving.json): at equal offered load on the read-mostly
    (YCSB-B-like) mix, transaction coalescing must complete >= 1.3x the
    rate of one-transaction-per-request (per-arm best over interleaved
    reps, recomputed from the records; the arms differ only in batch size
    so the ratio is a deterministic proxy for per-transaction overhead and
    gates on any core count); the batched arm must
    actually have coalesced (batch transactions committed, mean fill >= 2
    at a configured batch >= 16); every amortization rep must conserve
    keys; and the open-loop sweep must cover every mix x distribution cell
    with p50/p99/p999 latency fields and one max-sustained-rate-under-SLO
    record each. --fresh relaxes the amortization ratio to 1.15x for
    reports generated on noisy shared runners; the committed baseline is
    always held to 1.3x.
  * ckpt — field-presence checks plus the checkpoint/restore acceptance
    gates (BENCH_ckpt.json): every rep's segment checksums must have
    verified, every restore round-trip must reproduce the checkpointed
    key/value set exactly (restore_keys == meta.keys and the dumped maps
    compare equal), the 10%-dirty-slots incremental must be strictly
    smaller than the full image with at least one clean segment reused
    from the parent file, and the mutator-throughput dip while a full
    checkpoint streams must stay >= 0.5 on the best rep (interference on
    shared runners is additive, so the best rep estimates the intrinsic
    dip; --fresh relaxes the floor to 0.35 — correctness gates are never
    relaxed).
  * maintpath — field-presence checks, the targeted-vs-sweep acceptance
    gates (targeted maintenance must do >= 1.5x less maintenance work per
    committed update than full sweeps, with final height within 1.5x), and,
    with --baseline <committed BENCH_maintpath.json>, a trajectory guard
    that fails when targeted maintenance work per committed update regresses
    by more than 20% against the committed baseline. Work per committed
    update is nodes visited by maintenance / committed updates. The >= 1.5x
    saving is not a deterministic proxy: the sweep arm's figure is sweeps
    per update x nodes per sweep, and sweeps per update is the ratio of the
    maintenance thread's speed to the mutators'. On a 4-vCPU machine the
    saving read 0.85-2.06x and failed in most runs, while the trajectory
    guard on the targeted arm held (8.7-13.5 visits per update against a
    bound of 15.1). Every gate is evaluated and printed before the exit
    status is decided, and the sweep arm's two factors are printed as an
    advisory line.
"""
import argparse
import json
import sys


def fail(msg: str) -> None:
    print(f"check_bench_schema: {msg}", file=sys.stderr)
    sys.exit(1)


def require(obj, keys, where):
    for key in keys:
        if key not in obj:
            fail(f"missing key '{key}' in {where}")


class Gates:
    """Evaluates every gate of one report, printing one line per gate with
    its value and bound, and fails only after all of them have run, so one
    failing gate never hides another's reading."""

    def __init__(self, bench):
        self.bench = bench
        self.failed = []

    def check(self, name, ok, value, bound):
        print(f"check_bench_schema: {self.bench} {name}: {value} "
              f"(bound {bound}) {'OK' if ok else 'FAIL'}")
        if not ok:
            self.failed.append(name)

    def finish(self):
        if self.failed:
            fail(f"{self.bench} gates failed: {', '.join(self.failed)}")


def check_repo_report(report, name, result_keys):
    require(report, ["bench", "meta", "results"], name)
    if not isinstance(report["results"], list) or not report["results"]:
        fail(f"{name}.results must be a non-empty list")
    for i, rec in enumerate(report["results"]):
        require(rec, result_keys, f"{name}.results[{i}]")


def check_readpath(top) -> None:
    require(top, ["fig3_microbench", "fig5b_move", "table1_reads",
                  "stm_micro"], "top level")

    check_repo_report(top["fig3_microbench"], "fig3_microbench",
                      ["tree", "update_percent", "threads", "ops_per_us",
                       "abort_ratio"])
    check_repo_report(top["fig5b_move"], "fig5b_move", ["ops_per_us"])
    check_repo_report(top["table1_reads"], "table1_reads",
                      ["tree", "update_percent", "max_op_reads",
                       "mean_op_reads", "ops_per_us", "ro_commits",
                       "ro_snapshot_extensions"])

    micro = top["stm_micro"]
    if "skipped" in micro:
        print("check_bench_schema: stm_micro skipped (library not built)")
    else:
        # google-benchmark JSON: context + benchmarks[].{name, real_time,...}
        require(micro, ["context", "benchmarks"], "stm_micro")
        names = {b.get("name", "") for b in micro["benchmarks"]}
        for expected in ("BM_ReadOnlyTransaction/512",
                         "BM_LoggedReadTransaction/512",
                         "BM_WriteSetLookup/512"):
            if not any(n.startswith(expected) for n in names):
                fail(f"stm_micro is missing benchmark '{expected}'")


SHARD_SCALING_KEYS = [
    "shards", "domain_mode", "workers", "ops_per_us", "commits_per_us",
    "effective_update_ratio", "abort_ratio", "per_domain_commits",
    "per_domain_aborts", "maintenance_passes", "rotations", "removals",
    "size_estimate",
]


def check_shard_scaling(top) -> None:
    check_repo_report(top, "shard_scaling", SHARD_SCALING_KEYS)


RESHARD_RECORD_KEYS = [
    "ops_per_us", "steady_ops_per_us", "migration_min_ops_per_us",
    "migration_dip_ratio", "abort_ratio", "shard_count", "splits", "merges",
    "keys_migrated", "migration_batches", "keys_conserved",
]


def check_reshard(top) -> None:
    check_repo_report(top, "reshard_churn", RESHARD_RECORD_KEYS)
    require(top["meta"], ["threads", "shards", "hw_concurrency",
                          "hot_percent", "update_percent"],
            "reshard_churn.meta")
    shards = top["meta"]["shards"]
    gates = Gates("reshard_churn")
    for i, rec in enumerate(top["results"]):
        where = f"results[{i}]"
        gates.check(f"{where} keys_conserved", rec["keys_conserved"] is True,
                    json.dumps(rec["keys_conserved"]), "true")
        # Without the cycle the dip gate below binds on nothing: a refused
        # split migrates no key, so the dip reads about 1.0.
        ran = (rec["splits"] == 1 and rec["merges"] == 1
               and rec["shard_count"] == shards)
        gates.check(f"{where} cycle_ran", ran,
                    f"splits={rec['splits']} merges={rec['merges']} "
                    f"shards={rec['shard_count']}",
                    f"splits=1 merges=1 shards={shards}")
        dip = rec["migration_dip_ratio"]
        gates.check(f"{where} migration_dip_ratio", dip >= 0.5, f"{dip:.2f}",
                    ">= 0.5")
    gates.finish()


OBS_RECORD_KEYS = [
    "mode", "rep", "ops", "seconds", "ns_per_op", "abort_ratio",
]

OBS_META_KEYS = [
    "reps", "threads", "duration_ms", "size_log", "update_percent",
    "off_ns_per_op", "metrics_ns_per_op", "trace_ns_per_op",
    "metrics_ratio", "trace_ratio", "cause_sum_matches",
]


def check_obs_overhead(top, fresh) -> None:
    check_repo_report(top, "obs_overhead", OBS_RECORD_KEYS)
    require(top["meta"], OBS_META_KEYS, "obs_overhead.meta")

    if not top["meta"]["cause_sum_matches"]:
        fail("obs_overhead: abort-cause counters did not sum to the legacy "
             "aborts counter in at least one run (taxonomy partition "
             "invariant broken)")

    # Recompute per-mode minima from the records rather than trusting the
    # meta block, then gate on the ratios (interference is additive, so the
    # fastest rep is the robust intrinsic-cost estimator). The fresh bounds
    # absorb residual shared-runner noise; the committed baseline is held
    # to the strict bounds.
    by_mode = {}
    for rec in top["results"]:
        by_mode.setdefault(rec["mode"], []).append(rec["ns_per_op"])
    for mode in ("off", "metrics", "trace"):
        if not by_mode.get(mode):
            fail(f"obs_overhead has no '{mode}' records")

    off = min(by_mode["off"])
    if off <= 0:
        fail("obs_overhead: off-mode best ns/op is zero")
    metrics_ratio = min(by_mode["metrics"]) / off
    trace_ratio = min(by_mode["trace"]) / off

    metrics_bound = 1.10 if fresh else 1.02
    trace_bound = 1.20 if fresh else 1.10
    kind = "fresh" if fresh else "committed"
    if metrics_ratio > metrics_bound:
        fail(f"always-on observability costs {metrics_ratio:.3f}x vs off "
             f"(bound {metrics_bound:.2f} for a {kind} report)")
    if trace_ratio > trace_bound:
        fail(f"enabled tracing costs {trace_ratio:.3f}x vs off "
             f"(bound {trace_bound:.2f} for a {kind} report)")
    print(f"check_bench_schema: obs gates OK ({kind}) — metrics "
          f"{metrics_ratio:.3f}x, trace {trace_ratio:.3f}x, cause sums "
          "match")


SERVING_AMORT_KEYS = [
    "kind", "arm", "rep", "mix", "ops", "seconds", "per_s", "batch_txs",
    "batched_ops", "per_op_txs", "avg_batch_fill", "keys_conserved",
]

SERVING_OPENLOOP_KEYS = [
    "kind", "mix", "dist", "offered_per_s", "achieved_per_s", "duration_ms",
    "submitted", "completed", "rejected", "p50_ns", "p99_ns", "p999_ns",
    "max_queue_depth", "batch_txs", "per_op_txs", "avg_batch_fill",
    "batch_shrinks", "slo_ok",
]

SERVING_SLO_KEYS = ["kind", "mix", "dist", "slo_ms", "max_sustained_per_s"]

SERVING_META_KEYS = [
    "ops", "reps", "shards", "key_range", "initial_size", "batch_size",
    "slo_ms", "zipf_s", "openloop_ms", "hw_concurrency", "batched_per_s",
    "per_op_per_s", "batched_ratio", "keys_conserved",
]

SERVING_MIXES = ("ycsb_a", "ycsb_b", "ycsb_c")
SERVING_DISTS = ("uniform", "zipf")


def check_serving(top, fresh) -> None:
    check_repo_report(top, "serving_ycsb", ["kind"])
    require(top["meta"], SERVING_META_KEYS, "serving_ycsb.meta")
    meta = top["meta"]

    by_kind = {}
    for i, rec in enumerate(top["results"]):
        keys = {"amortization": SERVING_AMORT_KEYS,
                "openloop": SERVING_OPENLOOP_KEYS,
                "slo": SERVING_SLO_KEYS}.get(rec["kind"])
        if keys is None:
            fail(f"serving_ycsb.results[{i}] has unknown kind "
                 f"'{rec['kind']}'")
        require(rec, keys, f"serving_ycsb.results[{i}] ({rec['kind']})")
        by_kind.setdefault(rec["kind"], []).append(rec)

    # --- Amortization gate (deterministic proxy: equal offered load, the
    # arms differ only in batch size, so the ratio isolates per-transaction
    # overhead and gates on any core count). Per-arm best over interleaved
    # reps, recomputed from the records rather than trusted from meta.
    amort = by_kind.get("amortization", [])
    by_arm = {}
    for rec in amort:
        if not rec["keys_conserved"]:
            fail(f"serving_ycsb amortization {rec['arm']} rep {rec['rep']} "
                 "did not conserve keys (initial + inserts - erases != "
                 "final size)")
        by_arm.setdefault(rec["arm"], []).append(rec)
    for arm in ("batched", "per_op"):
        if not by_arm.get(arm):
            fail(f"serving_ycsb has no amortization '{arm}' records")
    best_batched = max(r["per_s"] for r in by_arm["batched"])
    best_per_op = max(r["per_s"] for r in by_arm["per_op"])
    if best_per_op <= 0:
        fail("serving_ycsb per_op best rate is zero")
    ratio = best_batched / best_per_op

    if meta["batch_size"] < 16:
        fail(f"serving_ycsb batch_size {meta['batch_size']} < 16 — the "
             "amortization gate requires a batch of at least 16")
    best_fill = max(r["avg_batch_fill"] for r in by_arm["batched"])
    if not any(r["batch_txs"] > 0 for r in by_arm["batched"]):
        fail("serving_ycsb batched arm committed zero batch transactions "
             "— coalescing never engaged")
    if best_fill < 2.0:
        fail(f"serving_ycsb batched arm mean batch fill {best_fill:.1f} "
             "< 2 — requests were not actually coalesced")

    kind = "fresh" if fresh else "committed"
    ratio_bound = 1.15 if fresh else 1.3
    if ratio < ratio_bound:
        fail(f"transaction coalescing completes only {ratio:.2f}x the "
             f"per-op rate at equal offered load (bound {ratio_bound:.2f} "
             f"for a {kind} report)")

    # --- Open-loop coverage: every mix x distribution cell measured, with
    # sane latency fields, and one SLO-frontier record each.
    ol_cells = {(r["mix"], r["dist"]) for r in by_kind.get("openloop", [])}
    slo_cells = {(r["mix"], r["dist"]) for r in by_kind.get("slo", [])}
    for mix in SERVING_MIXES:
        for dist in SERVING_DISTS:
            if (mix, dist) not in ol_cells:
                fail(f"serving_ycsb open-loop sweep is missing the "
                     f"({mix}, {dist}) cell")
            if (mix, dist) not in slo_cells:
                fail(f"serving_ycsb has no SLO record for ({mix}, {dist})")
    for rec in by_kind.get("openloop", []):
        if rec["completed"] > 0 and not (
                0 < rec["p50_ns"] <= rec["p99_ns"] <= rec["p999_ns"]):
            fail(f"serving_ycsb openloop ({rec['mix']}, {rec['dist']}, "
                 f"{rec['offered_per_s']}/s) latency quantiles are not "
                 "monotone positive")

    print(f"check_bench_schema: serving gates OK ({kind}) — amortization "
          f"{ratio:.2f}x (batched {best_batched:.0f}/s vs per-op "
          f"{best_per_op:.0f}/s, best fill {best_fill:.1f}), "
          f"{len(by_kind.get('openloop', []))} open-loop cells, keys "
          "conserved")


CKPT_RECORD_KEYS = [
    "rep", "baseline_ops_per_s", "stream_ops_per_s", "dip_ratio", "streams",
    "writer_keys_per_s", "full_rounds", "forced_cut", "full_bytes",
    "incr_bytes", "incr_fresh_segments", "incr_reused_segments",
    "restore_ms", "restore_keys", "roundtrip_exact", "checksums_ok",
]

CKPT_META_KEYS = [
    "threads", "keys", "window_ms", "reps", "shards", "routing_slots",
    "dirty_slot_percent", "hw_concurrency",
]


def check_ckpt(top, fresh) -> None:
    check_repo_report(top, "ckpt", CKPT_RECORD_KEYS)
    require(top["meta"], CKPT_META_KEYS, "ckpt.meta")
    meta = top["meta"]

    # Correctness gates hold per rep and are never noise-relaxed: a single
    # failed checksum or inexact round-trip is a durability bug, not noise.
    for rec in top["results"]:
        rep = rec["rep"]
        if not rec["checksums_ok"]:
            fail(f"ckpt rep {rep}: a segment or manifest checksum failed "
                 "verification during restore")
        if not rec["roundtrip_exact"]:
            fail(f"ckpt rep {rep}: the restored map did not compare equal "
                 "to the checkpointed map (key/value round-trip inexact)")
        if rec["restore_keys"] != meta["keys"]:
            fail(f"ckpt rep {rep}: restore loaded {rec['restore_keys']} "
                 f"keys, checkpointed map held {meta['keys']}")
        if rec["incr_bytes"] >= rec["full_bytes"]:
            fail(f"ckpt rep {rep}: the {meta['dirty_slot_percent']}%-dirty "
                 f"incremental ({rec['incr_bytes']} B) is not smaller than "
                 f"the full image ({rec['full_bytes']} B) — dirty-slot "
                 "tracking is not pruning clean segments")
        if rec["incr_reused_segments"] <= 0:
            fail(f"ckpt rep {rep}: the incremental reused zero clean "
                 "segments from its parent file")
        if rec["streams"] <= 0:
            fail(f"ckpt rep {rep}: no full checkpoint completed inside the "
                 "measurement window")

    # Perf gate: writers must keep most of their throughput while a full
    # checkpoint streams. Best rep over the interleaved runs (additive
    # interference — the obs_overhead rationale); fresh reports on shared
    # runners get a relaxed floor, the committed baseline does not.
    best_dip = max(r["dip_ratio"] for r in top["results"])
    kind = "fresh" if fresh else "committed"
    dip_bound = 0.35 if fresh else 0.5
    if best_dip < dip_bound:
        fail(f"mutator throughput dipped to {best_dip:.2f}x of baseline "
             f"while streaming a checkpoint (floor {dip_bound:.2f} for a "
             f"{kind} report)")
    print(f"check_bench_schema: ckpt gates OK ({kind}) — best dip "
          f"{best_dip:.2f}, incremental "
          f"{top['results'][0]['incr_bytes']}/{top['results'][0]['full_bytes']}"
          f" B, {len(top['results'])} reps round-trip exact, checksums "
          "verified")


MAINT_RECORD_KEYS = [
    "mode", "rep", "ops_per_us", "final_height", "committed_updates",
    "maint_nodes_visited", "visits_per_update", "maint_passes",
    "full_sweeps", "rotations", "removals", "queue_captured",
    "queue_enqueued", "queue_deduped", "queue_drained",
    "mean_drain_latency_us", "abort_ratio",
]


def mode_means(report):
    """Per-mode means of the guarded metrics over the interleaved reps."""
    out = {}
    for mode in ("sweep", "targeted"):
        recs = [r for r in report["results"] if r["mode"] == mode]
        if not recs:
            fail(f"maintpath A/B has no '{mode}' records")
        out[mode] = {
            "visits_per_update":
                sum(r["visits_per_update"] for r in recs) / len(recs),
            "final_height": sum(r["final_height"] for r in recs) / len(recs),
            "ops_per_us": sum(r["ops_per_us"] for r in recs) / len(recs),
        }
    return out


def sweep_factors(report):
    """The sweep arm's visits per committed update as its two factors,
    pooled over the reps: nodes per sweep and sweeps per committed update."""
    recs = [r for r in report["results"] if r["mode"] == "sweep"]
    sweeps = sum(r["full_sweeps"] for r in recs)
    nodes = sum(r["maint_nodes_visited"] for r in recs)
    updates = sum(r["committed_updates"] for r in recs)
    return (nodes / sweeps if sweeps else 0.0,
            sweeps / updates if updates else 0.0)


def check_maintpath(top, baseline_path) -> None:
    require(top, ["ablation_maintenance_ab"], "top level")
    ab = top["ablation_maintenance_ab"]
    check_repo_report(ab, "ablation_maintenance_ab", MAINT_RECORD_KEYS)

    means = mode_means(ab)
    sweep, targeted = means["sweep"], means["targeted"]
    print(f"check_bench_schema: maintpath means — "
          f"sweep {sweep['visits_per_update']:.1f} visits/update "
          f"h={sweep['final_height']:.1f} {sweep['ops_per_us']:.2f} ops/us | "
          f"targeted {targeted['visits_per_update']:.1f} visits/update "
          f"h={targeted['final_height']:.1f} "
          f"{targeted['ops_per_us']:.2f} ops/us")
    # Advisory: which factor of the sweep arm's work moved between runs.
    nodes_per_sweep, sweeps_per_update = sweep_factors(ab)
    print(f"check_bench_schema: maintpath sweep arm (advisory) — "
          f"{nodes_per_sweep:.0f} nodes/sweep x {sweeps_per_update:.5f} "
          f"sweeps/committed update")

    gates = Gates("maintpath")
    # Acceptance gate: targeted maintenance must cut the work per committed
    # update by at least 1.5x ...
    t_vpu = targeted["visits_per_update"]
    saving = sweep["visits_per_update"] / t_vpu if t_vpu > 0 else float("inf")
    gates.check("saving", saving >= 1.5, f"{saving:.2f}x (sweep "
                f"{sweep['visits_per_update']:.1f} vs targeted {t_vpu:.1f} "
                "visits/update)", ">= 1.5x")
    # ... without letting the tree degrade (final height within 1.5x of the
    # full-sweep baseline; +1 absorbs integer-height jitter on small trees).
    height_bound = 1.5 * sweep["final_height"] + 1
    gates.check("height", targeted["final_height"] <= height_bound,
                f"{targeted['final_height']:.1f}", f"<= {height_bound:.1f}")

    if baseline_path:
        try:
            with open(baseline_path) as f:
                base = json.load(f)
        except FileNotFoundError:
            fail(f"baseline '{baseline_path}' not found — the committed "
                 "BENCH_maintpath.json must be checked in")
        require(base, ["ablation_maintenance_ab"], "baseline top level")
        base_means = mode_means(base["ablation_maintenance_ab"])
        base_vpu = base_means["targeted"]["visits_per_update"]
        new_vpu = targeted["visits_per_update"]
        # Fails when targeted work per committed update regresses > 20%.
        gates.check("trajectory", base_vpu <= 0 or new_vpu <= 1.2 * base_vpu,
                    f"{new_vpu:.1f} visits/update (baseline {base_vpu:.1f})",
                    f"<= {1.2 * base_vpu:.1f}")
    gates.finish()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("report", nargs="?", default="BENCH_readpath.json")
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_maintpath.json to guard the "
                             "work-per-update trajectory against")
    parser.add_argument("--fresh", action="store_true",
                        help="the report was generated on this runner just "
                             "now: relax the obs overhead ratio gates for "
                             "shared-runner noise")
    args = parser.parse_args()

    with open(args.report) as f:
        top = json.load(f)

    require(top, ["bench"], "top level")
    if top["bench"] == "readpath":
        check_readpath(top)
    elif top["bench"] == "maintpath":
        check_maintpath(top, args.baseline)
    elif top["bench"] == "shard_scaling":
        check_shard_scaling(top)
    elif top["bench"] == "reshard_churn":
        check_reshard(top)
    elif top["bench"] == "obs_overhead":
        check_obs_overhead(top, args.fresh)
    elif top["bench"] == "serving_ycsb":
        check_serving(top, args.fresh)
    elif top["bench"] == "ckpt":
        check_ckpt(top, args.fresh)
    else:
        fail(f"unknown top-level bench tag '{top['bench']}'")

    print(f"check_bench_schema: {args.report} OK")


if __name__ == "__main__":
    main()
