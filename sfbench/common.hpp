// Shared plumbing for the sfbench workloads: the clock, the measured-window
// controller, latency samples, span logs, counter deltas over a window and
// the report every workload fills in.
//
// The benchmark measures every layer from outside: it times the calls it
// makes into the library's public functions and reads the layers' public
// statistics. Nothing here reaches into src/ internals.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_core/rng.hpp"
#include "obs/histogram.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "shard/sharded_map.hpp"
#include "stm/stats.hpp"
#include "trees/key.hpp"
#include "trees/sftree.hpp"

namespace sfbench {

using sftree::Key;
using sftree::Value;
using sftree::bench::Rng;

// Steady-clock nanoseconds since the first call.
std::uint64_t nowNs();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string traceDir;  // empty = untraced run
  std::string workDir;   // working files (checkpoints)
  bool traced() const { return !traceDir.empty(); }
};

// What a workload hands back. `e2e` holds the end-to-end metrics, `layer`
// the per-layer ones; run.py picks the set the run was asked for.
struct Report {
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, double> info;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  // Operations that failed (rejected requests, !ok checkpoint or restore
  // calls). Failed checks are added when the report is printed.
  std::uint64_t failed = 0;

  void check(std::string name, bool ok, std::string detail = {});
};

// Warm-up before a measured window of `seconds`.
inline double warmupSeconds(double seconds) {
  return seconds < 4 ? seconds / 4 : 1.0;
}

// --- spans -----------------------------------------------------------------

struct Span {
  const char* name = nullptr;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

// One thread's preallocated span buffer. Spans past the capacity are
// counted as dropped, never allocated.
class SpanLog {
 public:
  SpanLog(std::uint32_t thread, std::size_t capacity);
  // Returns the new span's id, or 0 when the buffer is full.
  std::uint64_t add(const char* name, std::uint64_t parent, std::uint64_t start,
                    std::uint64_t end);
  std::uint32_t thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint32_t thread_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
};

// Span logs for a fixed set of threads (index 0 = the main thread) plus
// counter snapshots taken at the same boundaries. Written as JSON lines to
// <traceDir>/<workload>.spans.jsonl when the run ends. An untraced run
// gives every log zero capacity, so add() is a bounds check and nothing
// else.
class Tracer {
 public:
  Tracer(const Options& opt, std::uint32_t threads);
  SpanLog& log(std::uint32_t thread) { return *logs_.at(thread); }
  void counters(const std::string& boundary, std::uint64_t at,
                const std::map<std::string, double>& values);
  // Writes the span file; returns false (with `error` set) on I/O failure.
  bool write(const Options& opt, std::string& error) const;

 private:
  struct Snapshot {
    std::string boundary;
    std::uint64_t at = 0;
    std::map<std::string, double> values;
  };
  bool enabled_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  std::vector<Snapshot> snapshots_;
};

// Every 16th closed-loop operation is timed (and, in a traced window,
// recorded as a span).
constexpr std::uint64_t kTimedStride = 16;

// --- latency samples ---------------------------------------------------------

// One thread's latency samples, each tagged with the millisecond it ended.
class LatencySamples {
 public:
  void reserve(std::size_t n) { v_.reserve(n); }
  void add(std::uint64_t endNs, std::uint64_t latNs);
  const std::vector<std::uint64_t>& raw() const { return v_; }

 private:
  std::vector<std::uint64_t> v_;  // (end ms << 32) | min(lat ns, 2^32-1)
};

// Medians over 100 ms windows of the per-window p50 and p99 latency. A
// stall of the shared machine then moves a few windows instead of the whole
// run's numbers.
struct WindowStats {
  double p50Us = 0;
  double p99Us = 0;
  std::uint64_t samples = 0;
  std::uint64_t windows = 0;
};

constexpr std::uint64_t kWindowMs = 100;

// Summarizes the samples that ended in the whole windows of
// [startNs, endNs).
WindowStats summarize(const std::vector<const LatencySamples*>& parts,
                      std::uint64_t startNs, std::uint64_t endNs);

// Exact quantile of a value list (sorts a copy).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

// --- measured window for closed loops ----------------------------------------

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

// Clients read `phase` and `traceOn` once per operation.
struct LoopControl {
  std::atomic<int> phase{kWarmup};
  std::atomic<bool> traceOn{false};
};

struct Window {
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  std::uint64_t tracedNs = 0;    // time with traceOn set
  std::uint64_t untracedNs = 0;  // measured time with traceOn clear
  double seconds() const { return static_cast<double>(endNs - startNs) / 1e9; }
};

// Half-second slices alternate untraced/traced in a traced run, so the
// trace overhead is measured against interleaved untraced slices of the
// same process.
constexpr std::uint64_t kTraceSliceNs = 500'000'000;

// Warm-up, then `seconds` of measurement (phase kMeasure), then kStop.
// `atStart` runs just before the measured window opens (counter
// snapshots); `tick` runs on the calling thread about every 10 ms (gauge
// sampling).
Window runWindow(LoopControl& ctl, const Options& opt,
                 const std::function<void()>& atStart,
                 const std::function<void()>& tick);

// Per-client counters; ops[1] counts operations in traced slices.
struct alignas(64) ClientStats {
  std::uint64_t ops[2] = {0, 0};
  std::uint64_t updates = 0;  // effective updates in the measured window
  std::int64_t inserted = 0;  // effective, every phase
  std::int64_t erased = 0;
  LatencySamples lat;
  std::uint64_t totalOps() const { return ops[0] + ops[1]; }
};

// Sums over the clients of one workload.
struct ClientTotals {
  double ops = 0;
  double updates = 0;
  std::int64_t inserted = 0;
  std::int64_t erased = 0;
};
ClientTotals totals(const std::vector<ClientStats>& clients);

// The closed-loop metrics: tput_ops_s (operations in the window ÷ its
// length), op_p50_us, client.op_p99_us, and trace_overhead: traced ÷
// untraced throughput over the interleaved slices (0 in an untraced run).
void emitClosedLoop(Report& r, const std::vector<ClientStats>& clients,
                    const Window& w);

// --- population ----------------------------------------------------------------

// `n` distinct keys drawn uniformly from [0, range), as a presence bitmap.
std::vector<bool> drawKeys(std::int64_t n, std::int64_t range,
                           std::uint64_t seed);

// The present keys of `present` in level order of a perfectly balanced
// search tree over them (median first, then the medians of both halves, and
// so on). Inserting in this order builds a balanced tree with no rotations,
// which is the shape maintenance keeps a tree in; a random order would
// leave the first seconds of the run to rebalancing a random tree.
std::vector<Key> levelOrder(const std::vector<bool>& present);

// Inserts `n` distinct random keys (value = key) in level order and
// returns the presence bitmap.
template <typename Map>
std::vector<bool> populate(Map& map, std::int64_t n, std::int64_t range,
                           std::uint64_t seed) {
  std::vector<bool> present = drawKeys(n, range, seed);
  for (const Key k : levelOrder(present)) map.insert(k, k);
  return present;
}

// Restarts the peak-RSS count (VmHWM) from the current resident size, so
// rss_peak_mb measures the built structure and the run, not set-up's
// transient buffers.
void resetPeakRss();

// Builds the workload's structure `count` times with `make`, keeping only
// the last one (the previous one is destroyed first, so peak memory holds
// one instance). Records the median build time as setup_s and one
// setup.populate span per build.
template <typename T, typename Make>
std::unique_ptr<T> timedSetups(int count, Report& r, Tracer& tracer,
                               Make make) {
  std::unique_ptr<T> out;
  std::vector<double> secs;
  for (int i = 0; i < count; ++i) {
    out.reset();
    const std::uint64_t t0 = nowNs();
    out = make();
    const std::uint64_t t1 = nowNs();
    secs.push_back(static_cast<double>(t1 - t0) / 1e9);
    tracer.log(0).add("setup.populate", 0, t0, t1);
  }
  r.e2e["setup_s"] = median(secs);
  resetPeakRss();
  return out;
}

// --- layer counters ------------------------------------------------------------

// Quantile of the samples recorded between two snapshots of one histogram.
double quantileDelta(const sftree::obs::LogHistogram& after,
                     const sftree::obs::LogHistogram& before, double q);

// stm.* metrics over a window. `userOps` is the operations the workload
// issued in the window (requests, client calls, moves).
void emitStm(Report& r, const sftree::stm::ThreadStats& before,
             const sftree::stm::ThreadStats& after, double userOps);

// Checks that the conflict-cause counters partition the abort counter.
void checkAbortPartition(Report& r, const sftree::stm::ThreadStats& s);

// trees.* and gc.* metrics over a window; `updates` is the effective
// (structure-changing) updates in the window, `wallNs` its length.
void emitMaintenance(Report& r, const sftree::trees::MaintenanceStats& before,
                     const sftree::trees::MaintenanceStats& after,
                     double updates, double wallNs);

// shard.* metrics over a window: routing attempts per operation, slot
// skew and the maintenance scheduler's pass rate.
void emitShard(Report& r, const sftree::shard::ShardedMapStats& before,
               const sftree::shard::ShardedMapStats& after,
               const sftree::shard::SchedulerStats& schedBefore,
               const sftree::shard::SchedulerStats& schedAfter, double userOps,
               double seconds);

// The trees a sharded map currently routes to (no concurrent resharding).
std::vector<sftree::trees::SFTree*> treesOf(sftree::shard::ShardedMap& map);

// Running maxima of the sampled gauges (violation-queue depth, limbo).
struct GaugeMax {
  std::uint64_t vqDepth = 0;
  std::uint64_t limboPending = 0;
  void sample(const std::vector<sftree::trees::SFTree*>& trees);
  void emit(Report& r) const;
};

// mem.* metrics and trees.height_ratio; `height` is the caller's quiesced
// measurement of the tallest tree.
void emitArenaAndHeight(Report& r,
                        const std::vector<sftree::trees::SFTree*>& trees,
                        int height);

// Runs trees::checkSFTree on every tree and records one check.
void checkTrees(Report& r, const std::vector<sftree::trees::SFTree*>& trees);

// Key conservation on a quiesced structure: the in-order key walk and the
// committed-size estimate must both equal `expected` (initial + effective
// inserts - effective erases). Returns the walked keys.
template <typename Map>
std::vector<Key> checkConservation(Report& r, Map& map, std::int64_t expected) {
  std::vector<Key> keys = map.keysInOrder();
  const auto walked = static_cast<std::int64_t>(keys.size());
  const std::int64_t estimate = map.sizeEstimate();
  r.check("key_conservation", walked == expected && estimate == expected,
          "expected " + std::to_string(expected) + ", walked " +
              std::to_string(walked) + ", size estimate " +
              std::to_string(estimate));
  return keys;
}

// VmHWM of this process in MiB (0 when /proc is unavailable).
double peakRssMiB();

// --- workloads -------------------------------------------------------------------

Report runMapSmallRead(const Options& opt);
Report runTreeLargeWrite(const Options& opt);
Report runServeZipfRead(const Options& opt);
Report runCkptMove(const Options& opt);

}  // namespace sfbench
