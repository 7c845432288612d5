#!/usr/bin/env bash
# Quick-mode benchmark sweep for the perf trajectory:
#
#  * read path (stm_micro RO/logged primitives, fig3 read-dominated tree
#    sweep, fig5b write-heavy move composition, table1 reads-per-operation)
#    consolidated into BENCH_readpath.json;
#  * maintenance path (ablation_maintenance --ab-mode: full-sweep vs
#    targeted violation-queue maintenance, interleaved reps) consolidated
#    into BENCH_maintpath.json;
#  * observability overhead (obs_overhead: off vs always-on metrics vs
#    enabled trace, interleaved reps) written to BENCH_obs.json;
#  * serving tier (serving_ycsb: batched-vs-per-op amortization proxy plus
#    the open-loop Poisson SLO sweep over YCSB A/B/C mixes) written to
#    BENCH_serving.json;
#  * checkpoint/restore (ckpt_bench: full-image stream under live movers
#    with the mutator-dip probe, 10%-dirty incremental, restore round-trip)
#    written to BENCH_ckpt.json.
#
#   bench/run_quick.sh [BUILD_DIR] [READPATH_JSON] [MAINTPATH_JSON] \
#                      [OBS_JSON] [SERVING_JSON] [CKPT_JSON]
#
# Defaults: BUILD_DIR=build, READPATH_JSON=BENCH_readpath.json,
# MAINTPATH_JSON=BENCH_maintpath.json, OBS_JSON=BENCH_obs.json,
# SERVING_JSON=BENCH_serving.json, CKPT_JSON=BENCH_ckpt.json (in the
# current directory).
#
# Each report is emitted independently: a missing bench binary (or missing
# jq, for the two merged reports) skips just that section with a clear
# message instead of failing the whole sweep — a partial build still yields
# the reports it can. The run as a whole fails only if NOTHING could be
# emitted. Outputs are written atomically (tmp + mv), so an interrupted run
# can never leave a truncated report behind.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_readpath.json}"
OUT_MAINT="${3:-BENCH_maintpath.json}"
OUT_OBS="${4:-BENCH_obs.json}"
OUT_SERVING="${5:-BENCH_serving.json}"
OUT_CKPT="${6:-BENCH_ckpt.json}"

if [[ ! -d "$BUILD_DIR" ]]; then
  echo "run_quick.sh: build dir '$BUILD_DIR' not found" >&2
  exit 1
fi

HAVE_JQ=1
if ! command -v jq >/dev/null; then
  HAVE_JQ=0
  echo "run_quick.sh: jq not found (apt-get install jq) — the merged" \
       "readpath and maintpath reports will be skipped" >&2
fi

have_bin() { [[ -x "$BUILD_DIR/$1" ]]; }

# skip_section <report> <why>
skip_section() {
  echo "run_quick.sh: SKIP $1 — $2 (configure with -DSFTREE_BUILD_BENCH=ON" \
       "and build, then re-run for this report)" >&2
}

EMITTED=0

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# --- Read path ------------------------------------------------------------
# Read-dominated + write-heavy tree configurations. 0% updates at 8 threads
# is the headline read-path configuration; 50% and fig5b move are the
# no-regression guards.
readpath_missing=()
for bin in fig3_microbench fig5b_move table1_reads; do
  have_bin "$bin" || readpath_missing+=("$bin")
done
if (( HAVE_JQ )) && (( ${#readpath_missing[@]} == 0 )); then
  "$BUILD_DIR/fig3_microbench" --threads=8 --updates=0,50 --duration-ms=300 \
    --size-log=12 --json="$TMP/fig3.json" >/dev/null
  "$BUILD_DIR/fig5b_move" --threads=4 --duration-ms=200 \
    --json="$TMP/fig5b.json" >/dev/null
  "$BUILD_DIR/table1_reads" --threads=2 --duration-ms=150 \
    --json="$TMP/table1.json" >/dev/null

  # STM primitives (google-benchmark). stm_micro is skipped gracefully when
  # the library was unavailable at configure time.
  if have_bin stm_micro; then
    "$BUILD_DIR/stm_micro" \
      --benchmark_filter='ReadOnly|LoggedRead|WriteSetLookup|Uread' \
      --benchmark_min_time=0.2 --json="$TMP/stm_micro.json" >/dev/null
  else
    echo "run_quick.sh: stm_micro not built (libbenchmark-dev missing?);" \
         "its section is marked skipped inside $OUT" >&2
    echo '{"skipped": "stm_micro not built (google-benchmark missing)"}' \
      > "$TMP/stm_micro.json"
  fi

  jq -n \
    --slurpfile fig3 "$TMP/fig3.json" \
    --slurpfile fig5b "$TMP/fig5b.json" \
    --slurpfile table1 "$TMP/table1.json" \
    --slurpfile micro "$TMP/stm_micro.json" \
    '{
       bench: "readpath",
       fig3_microbench: $fig3[0],
       fig5b_move: $fig5b[0],
       table1_reads: $table1[0],
       stm_micro: $micro[0]
     }' > "$OUT.tmp.$$"
  mv "$OUT.tmp.$$" "$OUT"
  EMITTED=$((EMITTED + 1))
  echo "consolidated report written to $OUT"
elif (( ${#readpath_missing[@]} > 0 )); then
  skip_section "$OUT" "missing bench binaries: ${readpath_missing[*]}"
else
  skip_section "$OUT" "jq is required for the merge"
fi

# --- Maintenance path -----------------------------------------------------
# Maintenance-path A/B: 20%-update steady state, interleaved
# sweep/targeted reps. The schema checker aggregates per-mode
# visits-per-update means and guards the targeted-vs-sweep ratio and the
# committed-baseline trajectory.
if (( HAVE_JQ )) && have_bin ablation_maintenance; then
  "$BUILD_DIR/ablation_maintenance" --ab-mode --ab-reps=3 --threads=2 \
    --duration-ms=300 --update=20 --size-log=12 \
    --json="$TMP/maint_ab.json" >/dev/null

  jq -n \
    --slurpfile ab "$TMP/maint_ab.json" \
    '{
       bench: "maintpath",
       ablation_maintenance_ab: $ab[0]
     }' > "$OUT_MAINT.tmp.$$"
  mv "$OUT_MAINT.tmp.$$" "$OUT_MAINT"
  EMITTED=$((EMITTED + 1))
  echo "consolidated report written to $OUT_MAINT"
elif ! have_bin ablation_maintenance; then
  skip_section "$OUT_MAINT" "ablation_maintenance not built"
else
  skip_section "$OUT_MAINT" "jq is required for the merge"
fi

# --- Observability overhead -----------------------------------------------
# Off vs always-on metrics vs enabled trace on one workload, interleaved
# reps. obs_overhead writes the tagged report itself; copy it out
# atomically like the others.
if have_bin obs_overhead; then
  "$BUILD_DIR/obs_overhead" --reps=9 --threads=2 --duration-ms=200 \
    --size-log=16 --json="$TMP/obs.json" >/dev/null
  cp "$TMP/obs.json" "$OUT_OBS.tmp.$$"
  mv "$OUT_OBS.tmp.$$" "$OUT_OBS"
  EMITTED=$((EMITTED + 1))
  echo "overhead report written to $OUT_OBS"
else
  skip_section "$OUT_OBS" "obs_overhead not built"
fi

# --- Serving tier ---------------------------------------------------------
# Batched-vs-per-op amortization at equal offered load (the deterministic
# proxy the schema checker gates on any core count) plus the open-loop
# Poisson sweep per YCSB mix and key distribution.
if have_bin serving_ycsb; then
  "$BUILD_DIR/serving_ycsb" --ops=40000 --reps=3 --rates=10000,30000 \
    --openloop-ms=150 --json="$TMP/serving.json" >/dev/null
  cp "$TMP/serving.json" "$OUT_SERVING.tmp.$$"
  mv "$OUT_SERVING.tmp.$$" "$OUT_SERVING"
  EMITTED=$((EMITTED + 1))
  echo "serving report written to $OUT_SERVING"
else
  skip_section "$OUT_SERVING" "serving_ycsb not built"
fi

# --- Checkpoint / restore -------------------------------------------------
# Full-image stream under live token movers (mutator-dip probe), quiesced
# full + 10%-dirty-slots incremental, restore round-trip equality. The
# schema checker gates checksum verification, round-trip exactness, the
# incremental-vs-full size ratio and the mutator-dip floor.
if have_bin ckpt_bench; then
  "$BUILD_DIR/ckpt_bench" --keys=8000 --threads=4 --window-ms=250 --reps=2 \
    --dir="$TMP/ckpt_dir" --json="$TMP/ckpt.json" >/dev/null
  cp "$TMP/ckpt.json" "$OUT_CKPT.tmp.$$"
  mv "$OUT_CKPT.tmp.$$" "$OUT_CKPT"
  EMITTED=$((EMITTED + 1))
  echo "checkpoint report written to $OUT_CKPT"
else
  skip_section "$OUT_CKPT" "ckpt_bench not built"
fi

# --------------------------------------------------------------------------
if (( EMITTED == 0 )); then
  echo "run_quick.sh: no report could be emitted (no bench binaries in" \
       "'$BUILD_DIR'?) — configure with -DSFTREE_BUILD_BENCH=ON" >&2
  exit 1
fi
echo "run_quick.sh: emitted $EMITTED report(s)"
