#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "obs/abort_cause.hpp"
#include "trees/tree_checks.hpp"

namespace sfbench {

namespace obs = sftree::obs;
namespace shard = sftree::shard;
namespace stm = sftree::stm;
namespace trees = sftree::trees;

namespace {

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

std::uint64_t nowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

void Report::check(std::string name, bool ok, std::string detail) {
  checks.push_back({std::move(name), ok, std::move(detail)});
}

// --- spans -------------------------------------------------------------------

SpanLog::SpanLog(std::uint32_t thread, std::size_t capacity)
    : thread_(thread), capacity_(capacity) {
  spans_.reserve(capacity);
}

std::uint64_t SpanLog::add(const char* name, std::uint64_t parent,
                           std::uint64_t start, std::uint64_t end) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  const std::uint64_t id = (std::uint64_t{thread_} << 40) | ++seq_;
  spans_.push_back({name, id, parent, start, end});
  return id;
}

Tracer::Tracer(const Options& opt, std::uint32_t threads)
    : enabled_(opt.traced()) {
  const std::size_t cap = enabled_ ? std::size_t{1} << 16 : 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    logs_.push_back(std::make_unique<SpanLog>(t, cap));
  }
}

void Tracer::counters(const std::string& boundary, std::uint64_t at,
                      const std::map<std::string, double>& values) {
  if (enabled_) snapshots_.push_back({boundary, at, values});
}

bool Tracer::write(const Options& opt, std::string& error) const {
  if (!enabled_) return true;
  std::error_code ec;
  std::filesystem::create_directories(opt.traceDir, ec);
  const std::string path = opt.traceDir + "/" + opt.workload + ".spans.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    error = "cannot write " + path;
    return false;
  }
  std::uint64_t dropped = 0;
  for (const auto& log : logs_) {
    dropped += log->dropped();
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"thread\":%u,\"start\":%llu,\"end\":%llu}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), log->thread(),
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end));
    }
  }
  for (const Snapshot& c : snapshots_) {
    std::fprintf(f, "{\"boundary\":\"%s\",\"at\":%llu,\"counters\":{",
                 c.boundary.c_str(), static_cast<unsigned long long>(c.at));
    bool first = true;
    for (const auto& [k, v] : c.values) {
      std::fprintf(f, "%s\"%s\":%.17g", first ? "" : ",", k.c_str(), v);
      first = false;
    }
    std::fprintf(f, "}}\n");
  }
  std::fprintf(f, "{\"dropped_spans\":%llu}\n",
               static_cast<unsigned long long>(dropped));
  const bool ok = std::fclose(f) == 0;
  if (!ok) error = "write failed: " + path;
  return ok;
}

// --- population ------------------------------------------------------------------

std::vector<bool> drawKeys(std::int64_t n, std::int64_t range,
                           std::uint64_t seed) {
  std::vector<bool> present(static_cast<std::size_t>(range), false);
  Rng rng(seed ^ 0x5EED5EEDULL);
  for (std::int64_t done = 0; done < n;) {
    const auto k = static_cast<std::size_t>(
        rng.nextBounded(static_cast<std::uint64_t>(range)));
    if (present[k]) continue;
    present[k] = true;
    ++done;
  }
  return present;
}

std::vector<Key> levelOrder(const std::vector<bool>& present) {
  std::vector<Key> sorted;
  for (std::size_t k = 0; k < present.size(); ++k) {
    if (present[k]) sorted.push_back(static_cast<Key>(k));
  }
  std::vector<Key> out;
  out.reserve(sorted.size());
  // Breadth-first over half-open index ranges.
  std::vector<std::pair<std::size_t, std::size_t>> level{{0, sorted.size()}};
  while (!level.empty()) {
    std::vector<std::pair<std::size_t, std::size_t>> next;
    for (const auto& [lo, hi] : level) {
      if (lo >= hi) continue;
      const std::size_t mid = lo + (hi - lo) / 2;
      out.push_back(sorted[mid]);
      next.emplace_back(lo, mid);
      next.emplace_back(mid + 1, hi);
    }
    level.swap(next);
  }
  return out;
}

// --- latency -------------------------------------------------------------------

void LatencySamples::add(std::uint64_t endNs, std::uint64_t latNs) {
  const std::uint64_t ms = endNs / 1'000'000;
  v_.push_back((ms << 32) | std::min<std::uint64_t>(latNs, 0xFFFFFFFFULL));
}

WindowStats summarize(const std::vector<const LatencySamples*>& parts,
                      std::uint64_t startNs, std::uint64_t endNs) {
  const std::uint64_t startMs = startNs / 1'000'000 + 1;  // first whole ms
  const std::uint64_t endMs = endNs / 1'000'000;
  const std::uint64_t nWin =
      endMs > startMs ? (endMs - startMs) / kWindowMs : 0;
  std::vector<std::vector<double>> win(nWin);
  for (const LatencySamples* p : parts) {
    for (const std::uint64_t s : p->raw()) {
      const std::uint64_t ms = s >> 32;
      if (ms < startMs) continue;
      const std::uint64_t w = (ms - startMs) / kWindowMs;
      if (w < nWin) win[w].push_back(static_cast<double>(s & 0xFFFFFFFFULL));
    }
  }
  WindowStats out;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const auto& w : win) {
    if (w.empty()) continue;
    out.samples += w.size();
    p50.push_back(median(w));
    p99.push_back(quantile(w, 0.99));
  }
  out.windows = p50.size();
  out.p50Us = median(p50) / 1e3;
  out.p99Us = median(p99) / 1e3;
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// --- measured window ----------------------------------------------------------

Window runWindow(LoopControl& ctl, const Options& opt,
                 const std::function<void()>& atStart,
                 const std::function<void()>& tick) {
  using std::chrono::nanoseconds;
  const auto warm =
      static_cast<std::uint64_t>(warmupSeconds(opt.seconds) * 1e9);
  const std::uint64_t t0 = nowNs();
  while (nowNs() - t0 < warm) {
    tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  atStart();
  Window w;
  w.startNs = nowNs();
  ctl.phase.store(kMeasure, std::memory_order_release);
  const std::uint64_t end =
      w.startNs + static_cast<std::uint64_t>(opt.seconds * 1e9);
  bool on = false;
  std::uint64_t sliceStart = w.startNs;
  const auto closeSlice = [&](std::uint64_t now) {
    (on ? w.tracedNs : w.untracedNs) += now - sliceStart;
    sliceStart = now;
  };
  for (;;) {
    const std::uint64_t now = nowNs();
    if (now >= end) break;
    if (opt.traced() && now - sliceStart >= kTraceSliceNs) {
      closeSlice(now);
      on = !on;
      ctl.traceOn.store(on, std::memory_order_relaxed);
    }
    tick();
    std::this_thread::sleep_for(
        nanoseconds(std::min<std::uint64_t>(10'000'000, end - now)));
  }
  w.endNs = nowNs();
  ctl.phase.store(kStop, std::memory_order_release);
  closeSlice(w.endNs);
  return w;
}

ClientTotals totals(const std::vector<ClientStats>& clients) {
  ClientTotals t;
  for (const ClientStats& c : clients) {
    t.ops += static_cast<double>(c.totalOps());
    t.updates += static_cast<double>(c.updates);
    t.inserted += c.inserted;
    t.erased += c.erased;
  }
  return t;
}

void emitClosedLoop(Report& r, const std::vector<ClientStats>& clients,
                    const Window& w) {
  std::vector<const LatencySamples*> parts;
  double off = 0;
  double on = 0;
  for (const ClientStats& c : clients) {
    parts.push_back(&c.lat);
    off += static_cast<double>(c.ops[0]);
    on += static_cast<double>(c.ops[1]);
  }
  const WindowStats s = summarize(parts, w.startNs, w.endNs);
  r.e2e["tput_ops_s"] = (off + on) / w.seconds();
  r.e2e["op_p50_us"] = s.p50Us;
  r.layer["client.op_p99_us"] = s.p99Us;
  r.info["latency_samples"] = static_cast<double>(s.samples);
  r.info["windows"] = static_cast<double>(s.windows);
  r.layer["trace_overhead"] =
      w.tracedNs > 0 && w.untracedNs > 0 && off > 0
          ? (on / static_cast<double>(w.tracedNs)) /
                (off / static_cast<double>(w.untracedNs))
          : 0.0;
}

// --- layer counters --------------------------------------------------------------

double quantileDelta(const obs::LogHistogram& after,
                     const obs::LogHistogram& before, double q) {
  const std::uint64_t n = after.count() - before.count();
  if (n == 0) return 0.0;
  const double target = q * static_cast<double>(n);
  double cum = 0;
  for (std::size_t b = 0; b < obs::LogHistogram::kBucketCount; ++b) {
    const auto in =
        static_cast<double>(after.bucketCount(b) - before.bucketCount(b));
    if (in == 0) continue;
    if (cum + in >= target) {
      const double lo =
          b == 0 ? 0.0
                 : static_cast<double>(
                       obs::LogHistogram::bucketUpperBound(b - 1)) + 1.0;
      const double hi =
          std::min(static_cast<double>(obs::LogHistogram::bucketUpperBound(b)),
                   static_cast<double>(after.max()));
      return lo + (hi - lo) * std::clamp((target - cum) / in, 0.0, 1.0);
    }
    cum += in;
  }
  return static_cast<double>(after.max());
}

void emitStm(Report& r, const stm::ThreadStats& before,
             const stm::ThreadStats& after, double userOps) {
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double commits = d(after.commits, before.commits);
  const double aborts = d(after.aborts, before.aborts);
  r.layer["stm.commits_per_op"] = per(commits, userOps);
  r.layer["stm.aborts_per_op"] = per(aborts, userOps);
  r.layer["stm.abort_frac"] = per(aborts, commits + aborts);
  for (std::size_t i = 0; i < obs::kFirstRestartCause; ++i) {
    r.layer[std::string("stm.aborts_per_kop.") + obs::abortCauseName(i)] =
        1e3 * per(d(after.abortsByCause[i], before.abortsByCause[i]), userOps);
  }
  r.layer["stm.ro_commit_frac"] =
      per(d(after.roCommits, before.roCommits), commits);
  r.layer["stm.ro_promotions_per_kop"] =
      1e3 * per(d(after.roPromotions, before.roPromotions), userOps);
  r.layer["stm.ro_snapshot_ext_per_kop"] =
      1e3 *
      per(d(after.roSnapshotExtensions, before.roSnapshotExtensions), userOps);
  r.layer["stm.reads_per_op"] = per(d(after.totalOpReads, before.totalOpReads),
                                    d(after.ops, before.ops));
  r.layer["stm.max_op_reads"] = static_cast<double>(after.maxOpReads);
  r.layer["stm.tx_commit_ns_p50"] =
      quantileDelta(after.txCommitNs, before.txCommitNs, 0.50);
  r.layer["stm.tx_commit_ns_p99"] =
      quantileDelta(after.txCommitNs, before.txCommitNs, 0.99);
  r.layer["stm.tx_abort_ns_p50"] =
      quantileDelta(after.txAbortNs, before.txAbortNs, 0.50);
}

void checkAbortPartition(Report& r, const stm::ThreadStats& s) {
  r.check("abort_causes_partition_aborts", s.conflictAbortTotal() == s.aborts,
          "cause sum " + std::to_string(s.conflictAbortTotal()) +
              ", aborts " + std::to_string(s.aborts));
}

void emitMaintenance(Report& r, const trees::MaintenanceStats& before,
                     const trees::MaintenanceStats& after, double updates,
                     double wallNs) {
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double rot = d(after.rotations, before.rotations);
  const double rem = d(after.removals, before.removals);
  const double fail = d(after.failedStructuralOps, before.failedStructuralOps);
  r.layer["trees.maint_pass_us_p50"] =
      quantileDelta(after.passNs, before.passNs, 0.50) / 1e3;
  r.layer["trees.maint_pass_us_p99"] =
      quantileDelta(after.passNs, before.passNs, 0.99) / 1e3;
  r.layer["trees.maint_busy_frac"] =
      per(d(after.passNs.sum(), before.passNs.sum()), wallNs);
  r.layer["trees.maint_visits_per_update"] =
      per(d(after.nodesVisited, before.nodesVisited), updates);
  r.layer["trees.rotations_per_kupdate"] = 1e3 * per(rot, updates);
  r.layer["trees.removals_per_kupdate"] = 1e3 * per(rem, updates);
  r.layer["trees.structural_fail_frac"] = per(fail, rot + rem + fail);
  r.layer["trees.vq_drain_latency_us"] =
      per(d(after.queue.drainLatencyUsSum, before.queue.drainLatencyUsSum),
          d(after.queue.drained, before.queue.drained));
  r.layer["gc.nodes_freed_per_kupdate"] =
      1e3 * per(d(after.nodesFreed, before.nodesFreed), updates);
}

void emitShard(Report& r, const shard::ShardedMapStats& before,
               const shard::ShardedMapStats& after,
               const shard::SchedulerStats& schedBefore,
               const shard::SchedulerStats& schedAfter, double userOps,
               double seconds) {
  double sum = 0;
  double hottest = 0;
  const std::size_t slots = after.slotOpTicks.size();
  for (std::size_t s = 0; s < slots; ++s) {
    const auto d =
        static_cast<double>(after.slotOpTicks[s] - before.slotOpTicks[s]);
    sum += d;
    hottest = std::max(hottest, d);
  }
  r.layer["shard.attempts_per_op"] = per(sum, userOps);
  r.layer["shard.slot_skew"] =
      per(hottest, per(sum, static_cast<double>(slots)));
  const auto passes =
      static_cast<double>(schedAfter.passes - schedBefore.passes);
  r.layer["shard.sched_passes_per_s"] = per(passes, seconds);
  r.layer["shard.sched_active_frac"] = per(
      static_cast<double>(schedAfter.activePasses - schedBefore.activePasses),
      passes);
}

std::vector<trees::SFTree*> treesOf(shard::ShardedMap& map) {
  std::vector<trees::SFTree*> out;
  for (int i = 0; i < map.shardCount(); ++i) out.push_back(&map.shard(i));
  return out;
}

void GaugeMax::sample(const std::vector<trees::SFTree*>& ts) {
  std::uint64_t vq = 0;
  std::uint64_t limbo = 0;
  for (const trees::SFTree* t : ts) {
    vq += t->violationQueueDepth();
    const trees::MaintenanceStats m = t->maintenanceStats();
    limbo += m.nodesRetired - m.nodesFreed;
  }
  vqDepth = std::max(vqDepth, vq);
  limboPending = std::max(limboPending, limbo);
}

void GaugeMax::emit(Report& r) const {
  r.layer["trees.vq_depth_max"] = static_cast<double>(vqDepth);
  r.layer["gc.limbo_pending_max"] = static_cast<double>(limboPending);
}

void emitArenaAndHeight(Report& r, const std::vector<trees::SFTree*>& ts,
                        int height) {
  double keys = 0;
  double bytes = 0;
  double allocated = 0;
  double recycled = 0;
  for (const trees::SFTree* t : ts) {
    const auto& a = t->arenaForStats();
    keys += static_cast<double>(t->sizeEstimate());
    bytes += static_cast<double>(a.slabCount() *
                                 sftree::mem::SlabArena::kSlabBytes);
    allocated += static_cast<double>(a.allocated());
    recycled += static_cast<double>(a.recycled());
  }
  r.layer["mem.arena_bytes_per_key"] = per(bytes, keys);
  r.layer["mem.arena_recycled_frac"] = per(recycled, allocated);
  const double perTree = per(keys, static_cast<double>(ts.size()));
  r.layer["trees.height_ratio"] =
      perTree > 1 ? static_cast<double>(height) / std::log2(perTree) : 0.0;
}

void checkTrees(Report& r, const std::vector<trees::SFTree*>& ts) {
  std::string error;
  for (trees::SFTree* t : ts) {
    const trees::CheckResult c = trees::checkSFTree(*t);
    if (!c.ok && error.empty()) error = c.error;
  }
  r.check("sftree_invariants", error.empty(), error);
}

void resetPeakRss() {
  // "5" resets the peak RSS to the current RSS (proc(5), clear_refs).
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace sfbench
