// Re-shard churn — the throughput dip while a forced split->merge cycle
// migrates keys under live traffic.
//
// Scenario: hot-percent of all operations target keys routed to the slots
// initially owned by shard 0 (a hot tenant/partition — per-key hashing
// means a hot *range* spreads on its own, but a hot slot group does not).
// A third of the way into the measurement, shard 0 — hot by construction —
// is split (its hottest slots peel onto a fresh tree and domain) and the
// fresh shard is merged straight back, so the cycle migrates the keys that
// carry most of the traffic and ends at the starting shard count.
//
// Reported:
//   * ops/us                — end-to-end throughput over the run;
//   * migration dip         — the slowest window that overlapped the
//                             split->merge cycle, as a fraction of the
//                             mean of the other windows;
//   * splits / merges       — the cycle ran (1 and 1);
//   * keys-ok               — size() == sizeEstimate() after quiesce.
//
//   reshard_churn --threads=4 --updates=50 --hot-percent=95 --shards=4
//                 --size-log=15 --duration-ms=1200 --json=BENCH_reshard.json
#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_core/cli.hpp"
#include "bench_core/report.hpp"
#include "bench_core/rng.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "shard/sharded_map.hpp"

namespace bench = sftree::bench;
namespace shard = sftree::shard;
using sftree::Key;
using sftree::bench::Rng;
using Clock = std::chrono::steady_clock;

namespace {

// Traffic runs this long before the first window. On a 4-vCPU KVM guest
// whose vCPUs had idled (here, through the single-threaded fill), the first
// ~1 s of any 4-thread load, a plain spin loop included, ran at a quarter to
// a third of full speed in about half of the runs; measured from the start,
// one run read a migration dip of 0.35.
constexpr int kWarmupMs = 1000;

struct RunResult {
  double opsPerUs = 0;
  double abortRatio = 0;
  int shardCount = 0;
  double steadyOpsPerUs = 0;
  double migrationMinOpsPerUs = 0;
  double migrationDipRatio = 1.0;
  bool keysConserved = false;
  shard::ReshardStats reshard;
};

struct Workload {
  std::vector<Key> hot;
  std::vector<Key> cold;
  int hotPercent;
  int updatePercent;
};

struct alignas(64) OpCounter {
  std::atomic<std::uint64_t> n{0};
};

RunResult run(const Workload& wl, int threads, int shards, int slots,
              int durationMs, int windowMs) {
  shard::MaintenanceSchedulerConfig schedCfg;
  schedCfg.workers = 2;
  shard::MaintenanceScheduler scheduler(schedCfg);

  shard::ShardedMapConfig cfg;
  cfg.shards = shards;
  cfg.routingSlots = slots;
  cfg.scheduler = &scheduler;
  cfg.domainMode = shard::DomainMode::PerShard;
  shard::ShardedMap map(cfg);

  for (std::size_t i = 0; i < wl.hot.size(); i += 2) map.insert(wl.hot[i], 1);
  for (std::size_t i = 0; i < wl.cold.size(); i += 2) {
    map.insert(wl.cold[i], 1);
  }

  std::atomic<bool> stop{false};
  std::vector<OpCounter> ops(static_cast<std::size_t>(threads));
  std::barrier sync(threads + 1);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0x9000 + static_cast<std::uint64_t>(t));
      sync.arrive_and_wait();
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& ks =
            rng.nextBounded(100) < static_cast<std::uint64_t>(wl.hotPercent)
                ? wl.hot
                : wl.cold;
        const Key k = ks[rng.nextBounded(ks.size())];
        const auto r = rng.nextBounded(100);
        if (r < static_cast<std::uint64_t>(wl.updatePercent) / 2) {
          map.insert(k, k);
        } else if (r < static_cast<std::uint64_t>(wl.updatePercent)) {
          map.erase(k);
        } else {
          map.contains(k);
        }
        // Batch the shared-counter bump: one RMW per 32 ops.
        if ((++local & 31) == 0) {
          ops[static_cast<std::size_t>(t)].n.fetch_add(
              32, std::memory_order_relaxed);
        }
      }
    });
  }
  const auto sumOps = [&] {
    std::uint64_t s = 0;
    for (const auto& c : ops) s += c.n.load(std::memory_order_relaxed);
    return s;
  };

  sync.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(kWarmupMs));
  const auto stmBefore = map.aggregatedStats().stm;

  std::vector<double> windowOps;
  std::vector<std::uint8_t> windowInMigration;
  std::atomic<bool> migrating{false};
  // Sticky per-window bit: a forced cycle that starts AND finishes between
  // two window boundaries must still label that window as migration, or
  // the dip gate would bind on nothing while the real dip folds into the
  // steady-state mean it is compared against.
  std::atomic<bool> migratedThisWindow{false};
  std::thread sampler([&] {
    const auto t0 = Clock::now();
    std::uint64_t prev = sumOps();
    auto prevT = t0;
    while (Clock::now() - t0 < std::chrono::milliseconds(durationMs)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(windowMs));
      const auto now = Clock::now();
      const std::uint64_t cur = sumOps();
      const double sec = std::chrono::duration<double>(now - prevT).count();
      windowOps.push_back(static_cast<double>(cur - prev) / (sec * 1e6));
      const bool m = migratedThisWindow.exchange(false) ||
                     migrating.load(std::memory_order_relaxed);
      windowInMigration.push_back(m ? 1 : 0);
      prev = cur;
      prevT = now;
    }
  });

  // The forced split->merge cycle of the hot shard: the dip the bench
  // exists to bound.
  std::this_thread::sleep_for(std::chrono::milliseconds(durationMs / 3));
  migrating.store(true, std::memory_order_relaxed);
  migratedThisWindow.store(true, std::memory_order_relaxed);
  const int fresh = map.splitShard(0);
  if (fresh >= 0) map.mergeShards(fresh, 0);
  migrating.store(false, std::memory_order_relaxed);

  sampler.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : workers) th.join();

  const auto stmAfter = map.aggregatedStats().stm;

  RunResult out;
  double steadySum = 0, steadyN = 0, migMin = -1;
  double totalSum = 0;
  for (std::size_t i = 0; i < windowOps.size(); ++i) {
    totalSum += windowOps[i];
    if (windowInMigration[i]) {
      migMin = migMin < 0 ? windowOps[i] : std::min(migMin, windowOps[i]);
    } else {
      steadySum += windowOps[i];
      ++steadyN;
    }
  }
  out.opsPerUs = windowOps.empty() ? 0 : totalSum / windowOps.size();
  out.steadyOpsPerUs = steadyN == 0 ? 0 : steadySum / steadyN;
  out.migrationMinOpsPerUs = migMin < 0 ? out.steadyOpsPerUs : migMin;
  out.migrationDipRatio = out.steadyOpsPerUs == 0
                              ? 1.0
                              : out.migrationMinOpsPerUs / out.steadyOpsPerUs;
  out.shardCount = map.shardCount();
  const std::uint64_t commits = stmAfter.commits - stmBefore.commits;
  const std::uint64_t aborts = stmAfter.aborts - stmBefore.aborts;
  out.abortRatio = (commits + aborts) == 0
                       ? 0.0
                       : static_cast<double>(aborts) /
                             static_cast<double>(commits + aborts);
  out.reshard = map.reshardStats();

  map.quiesce();
  out.keysConserved =
      map.size() == static_cast<std::size_t>(map.sizeEstimate());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli(argc, argv);
  const int threads = static_cast<int>(cli.integer("threads", 4));
  const int shards = static_cast<int>(cli.integer("shards", 4));
  const int slots = static_cast<int>(cli.integer("slots", 64));
  const int updatePct = static_cast<int>(cli.integer("updates", 50));
  const int hotPct = static_cast<int>(cli.integer("hot-percent", 95));
  const int durationMs = static_cast<int>(cli.integer("duration-ms", 1200));
  const int windowMs = static_cast<int>(cli.integer("window-ms", 50));
  const auto sizeLog = cli.integer("size-log", 15);
  const unsigned hw = std::thread::hardware_concurrency();

  // Hot keys = keys routed to the slots initially owned by shard 0. The
  // routing is deterministic for a given (shards, slots), so a probe map
  // classifies the key universe up front.
  Workload wl;
  wl.hotPercent = hotPct;
  wl.updatePercent = updatePct;
  {
    shard::ShardedMapConfig probeCfg;
    probeCfg.shards = shards;
    probeCfg.routingSlots = slots;
    probeCfg.tree.startMaintenance = false;
    shard::ShardedMap probe(probeCfg);
    const Key range = Key{1} << sizeLog;
    for (Key k = 0; k < range; ++k) {
      (probe.shardIndexFor(k) == 0 ? wl.hot : wl.cold).push_back(k);
    }
  }

  std::printf(
      "Re-shard churn: %d%% of ops on shard 0's initial slots (%zu hot / %zu "
      "cold keys), %d threads, %d%% updates, %d shards, hw=%u\n",
      hotPct, wl.hot.size(), wl.cold.size(), threads, updatePct, shards, hw);

  bench::JsonReport json("reshard_churn");
  json.meta()
      .set("threads", threads)
      .set("shards", shards)
      .set("routing_slots", slots)
      .set("update_percent", updatePct)
      .set("hot_percent", hotPct)
      .set("duration_ms", durationMs)
      .set("window_ms", windowMs)
      .set("size_log", static_cast<std::int64_t>(sizeLog))
      .set("hw_concurrency", static_cast<std::int64_t>(hw));

  const RunResult r = run(wl, threads, shards, slots, durationMs, windowMs);
  bench::Table table({"ops/us", "abort%", "shards", "splits", "merges",
                      "keys-migrated", "dip-ratio", "keys-ok"});
  table.addRow({bench::Table::num(r.opsPerUs, 3),
                bench::Table::num(100.0 * r.abortRatio),
                bench::Table::num(r.shardCount),
                bench::Table::num(r.reshard.splits),
                bench::Table::num(r.reshard.merges),
                bench::Table::num(r.reshard.keysMigrated),
                bench::Table::num(r.migrationDipRatio),
                r.keysConserved ? "yes" : "NO"});
  table.print();
  json.addRecord()
      .set("ops_per_us", r.opsPerUs)
      .set("steady_ops_per_us", r.steadyOpsPerUs)
      .set("migration_min_ops_per_us", r.migrationMinOpsPerUs)
      .set("migration_dip_ratio", r.migrationDipRatio)
      .set("abort_ratio", r.abortRatio)
      .set("shard_count", r.shardCount)
      .set("splits", r.reshard.splits)
      .set("merges", r.reshard.merges)
      .set("keys_migrated", r.reshard.keysMigrated)
      .set("migration_batches", r.reshard.migrationBatches)
      .set("retired_arena_bytes", r.reshard.retiredArenaBytes)
      .set("keys_conserved", r.keysConserved);
  return json.writeFile(cli.jsonPath()) ? 0 : 1;
}
