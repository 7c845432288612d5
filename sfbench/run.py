#!/usr/bin/env python3
"""Runner for the repository benchmark; README.md describes the workloads.

Run one workload (builds sfbench first; a no-op when it is up to date):

    python3 sfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run every workload, each in a fresh process, and append the results to a
file that `compare` reads:

    python3 sfbench/run.py --workload all --seed N --out runs.json

Compare two sets of runs (each file holds at least three runs):

    python3 sfbench/run.py compare A.json B.json

The last line of a workload run's standard output is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer
ones, computed from a traced run. End-to-end numbers always come from an
untraced run.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["map-small-read", "tree-large-write", "serve-zipf-read", "ckpt-move"]
# Layers a workload does not reach; their per-layer metrics read 0 there.
UNUSED_LAYERS = {
    "map-small-read": {"serve", "ckpt"},
    "tree-large-write": {"serve", "shard", "ckpt"},
    "serve-zipf-read": {"ckpt"},
    "ckpt-move": {"serve"},
}
FLUSH_POLICY = "fflush + rename, no fsync (the library's own)"
RUN_TIMEOUT_S = 170
GEN_LATE_LIMIT_US = 100


class BenchError(Exception):
    pass


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d))


def build():
    """Configures and builds sfbench from the checkout's sources."""
    if not os.path.isfile(os.path.join(ROOT, "src", "trees", "sftree.cpp")):
        raise BenchError(f"library sources not found under {ROOT}/src")
    out = os.path.join(build_dir(), "sfbench")
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                with open(log) as g:
                    sys.stderr.write(g.read()[-4000:])
                raise BenchError(f"build failed: {' '.join(cmd)} (log: {log})")
    return os.path.join(out, "sfbench")


def run_binary(binary, workload, seed, seconds, trace_dir):
    work = os.path.join(build_dir(), "work", workload)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work-dir", work]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException as e:
        proc.kill()
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: sfbench exited {proc.returncode}")
    return json.loads(lines[-1])


def span_self_times(path):
    """Self time (duration minus the part its children cover) per span name,
    in microseconds, plus the number of spans dropped by full buffers."""
    spans, dropped = [], 0
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if "name" in rec:
                spans.append(rec)
            dropped += rec.get("dropped_spans", 0)
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    selfs = {}
    for s in spans:
        covered, reach = 0, s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        selfs.setdefault(s["name"], []).append(
            (s["end"] - s["start"] - covered) / 1e3)
    return selfs, dropped


def read_file(path, default=""):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return default


def metadata(seed):
    """Where the numbers came from; wall-clock results carry their cores."""
    cpu = "unknown"
    for line in read_file("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = read_file(os.path.join(idx, "level")).strip()
        kind = read_file(os.path.join(idx, "type")).strip()
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = read_file(os.path.join(idx, "size")).strip()
    git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    cache = {}
    for line in read_file(os.path.join(build_dir(), "sfbench",
                                       "CMakeCache.txt")).splitlines():
        key, _, value = line.partition("=")
        cache[key.split(":", 1)[0]] = value
    compiler = "unknown"
    if cache.get("CMAKE_CXX_COMPILER"):
        ver = subprocess.run([cache["CMAKE_CXX_COMPILER"], "--version"],
                             capture_output=True, text=True)
        compiler = (ver.stdout.splitlines() or ["unknown"])[0]
    work = build_dir()
    fs, best = "unknown", ""
    for line in read_file("/proc/mounts").splitlines():
        parts = line.split()
        if len(parts) > 2 and work.startswith(parts[1]) and len(parts[1]) > len(best):
            best, fs = parts[1], parts[2]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "git_commit": git.stdout.strip() if git.returncode == 0 else "unknown",
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": compiler,
        "seed": seed,
        "ckpt_fs": fs,
        "flush_policy": FLUSH_POLICY,
    }


def run_workload(spec, binary, workload, seed, seconds, trace):
    """Runs one workload in a fresh process and returns its result record."""
    trace_dir = os.path.join(build_dir(), "trace") if trace else None
    raw = run_binary(binary, workload, seed, seconds, trace_dir)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    found = dict(raw["layer"] if trace else raw["e2e"])
    if trace:
        selfs, dropped = span_self_times(
            os.path.join(trace_dir, f"{workload}.spans.jsonl"))
        for name, values in selfs.items():
            found[f"span.{name}.self_us_p50"] = statistics.median(values)
        raw["info"]["dropped_spans"] = dropped
    metrics = {}
    for m in wanted:
        name = m["name"]
        value = found.get(name)
        layer = name.split(".", 1)[0]
        if value is None and (layer == "span" or
                              layer in UNUSED_LAYERS[workload]):
            value = 0.0  # a span name or layer this workload never reaches
        if value is None:
            raise BenchError(f"{workload}: metric {name} missing from the run")
        metrics[name] = {"value": value, "unit": m["unit"]}
    marked = []
    if raw["info"].get("gen_unhealthy"):
        marked.append(f"generator lateness p99 {raw['info']['gen_late_p99_us']:.1f} us"
                      f" > {GEN_LATE_LIMIT_US} us: a machine stall, not a"
                      " program regression")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "correct": all(c["ok"] for c in raw["checks"]),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
        "checks": raw["checks"],
        "info": raw["info"],
        "marked": marked,
        "meta": metadata(seed),
    }


def print_record(rec):
    print(f"== {rec['workload']} seed={rec['seed']} seconds={rec['seconds']}"
          f" trace={rec['trace']}")
    print("   " + " ".join(f"{k}={v}" for k, v in rec["meta"].items()))
    for name, m in rec["metrics"].items():
        print(f"   {name:40s} {m['value']:>16.6g} {m['unit']}")
    for c in rec["checks"]:
        print(f"   check {c['name']}: {'ok' if c['ok'] else 'FAIL'}"
              + (f" ({c['detail']})" if c["detail"] else ""))
    frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 0.0
    print(f"   attempted {rec['attempted']}, failed {rec['failed']}"
          f" (fail_frac {frac:.3g})")
    for m in rec["marked"]:
        print(f"   MARKED: {m}")


def append_out(path, records):
    runs = []
    if os.path.exists(path):
        with open(path) as f:
            runs = json.load(f)
    runs.extend(records)
    with open(path, "w") as f:
        json.dump(runs, f, indent=1)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(spec, path_a, path_b):
    """Medians and quartiles of two sets of runs, metric by metric. Flags a
    pair whose medians differ by more than the metric's bound, and a pair
    whose own spread (IQR / median) is wider than the bound (unresolved)."""
    sets = []
    for path in (path_a, path_b):
        with open(path) as f:
            sets.append([r for r in json.load(f) if not r["trace"]])
    bad = False
    print(f"{'workload':17s} {'metric':12s} {'unit':6s} {'A median [q1, q3]':>32s}"
          f" {'B median [q1, q3]':>32s} {'delta':>7s} {'bound':>6s}"
          f" {'A iqr':>6s} {'B iqr':>6s}  flag")
    for workload in WORKLOADS:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in s
                     if r["workload"] == workload and name in r["metrics"]]
                    for s in sets]
            if not vals[0] and not vals[1]:
                continue
            (a1, a2, a3), (b1, b2, b3) = quartiles(vals[0]), quartiles(vals[1])
            delta = (b2 - a2) / a2 if a2 else float("nan")
            worse = delta if m["better"] == "lower" else -delta
            iqr_a = (a3 - a1) / a2 if a2 else float("nan")
            iqr_b = (b3 - b1) / b2 if b2 else float("nan")
            flags = []
            if min(len(v) for v in vals) < 3:
                flags.append("too-few-runs")
            if abs(delta) > bound:
                flags.append("worse" if worse > 0 else "better")
            if not (iqr_a <= bound and iqr_b <= bound):
                flags.append("unresolved")
            bad = bad or any(f != "better" for f in flags)
            print(f"{workload:17s} {name:12s} {m['unit']:6s}"
                  f" {f'{a2:.5g} [{a1:.5g}, {a3:.5g}]':>32s}"
                  f" {f'{b2:.5g} [{b1:.5g}, {b3:.5g}]':>32s}"
                  f" {delta:+7.1%} {bound:6.2f} {iqr_a:6.1%} {iqr_b:6.1%}"
                  f"  {' '.join(flags) or 'ok'}")
    return 1 if bad else 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(load_spec(), argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the result records to this JSON file")
    args = p.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    binary = build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    records = []
    for w in names:
        rec = run_workload(spec, binary, w, args.seed, seconds, args.trace)
        print_record(rec)
        records.append(rec)
    if args.out:
        append_out(args.out, records)
    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        sys.stderr.write(f"sfbench: {e}\n")
        sys.exit(2)
