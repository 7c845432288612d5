// map-small-read: one closed-loop client calling ShardedMap directly.
//
// 4 shards over 64 routing slots, one MaintenanceScheduler worker. The map
// holds 2^14 keys in a 2^15 range (about 2 MB of nodes: it fits in L2);
// 95% of the calls are get/contains and 5% insert/erase, keys uniform.
// Descents are short and cached, so each call is dominated by per-operation
// bookkeeping (route read, census ticket, tx begin/commit, GC bracket).
// Maintenance has almost nothing to do; serve and ckpt are not used.
//
// One client, not several: with three, every call's cost depended on how
// the host placed the vCPUs sharing the map's hot lines, and run-to-run
// throughput jumped between two levels 30% apart. Alone, the client pays
// every bookkeeping step at its uncontended price, steadily.
#include <thread>
#include <vector>

#include "common.hpp"

namespace sfbench {

namespace {

namespace shard = sftree::shard;
namespace stm = sftree::stm;

constexpr int kClients = 1;
constexpr std::int64_t kKeys = 1 << 14;
constexpr std::int64_t kRange = 1 << 15;
constexpr int kSetups = 25;

// Member order is destruction order in reverse: the map unregisters from
// the scheduler and its trees run on the domain.
struct Rig {
  std::unique_ptr<stm::Domain> domain;
  std::unique_ptr<shard::MaintenanceScheduler> scheduler;
  std::unique_ptr<shard::ShardedMap> map;
};

void client(shard::ShardedMap& map, LoopControl& ctl, ClientStats& cs,
            SpanLog& spans, std::uint64_t seed) {
  Rng rng(seed);
  for (std::uint64_t i = 1;; ++i) {
    const int phase = ctl.phase.load(std::memory_order_relaxed);
    if (phase == kStop) break;
    const auto k = static_cast<Key>(rng.nextBounded(kRange));
    const std::uint64_t roll = rng.nextBounded(200);
    const bool timed = i % kTimedStride == 0;
    const std::uint64_t t0 = timed ? nowNs() : 0;
    bool changed = false;
    if (roll < 95) {
      map.get(k);
    } else if (roll < 190) {
      map.contains(k);
    } else if (roll < 195) {
      changed = map.insert(k, k);
      cs.inserted += changed;
    } else {
      changed = map.erase(k);
      cs.erased += changed;
    }
    if (phase != kMeasure) continue;
    const bool on = ctl.traceOn.load(std::memory_order_relaxed);
    ++cs.ops[on];
    cs.updates += changed;
    if (timed) {
      const std::uint64_t t1 = nowNs();
      cs.lat.add(t1, t1 - t0);
      if (on) spans.add("shard.op", 0, t0, t1);
    }
  }
}

}  // namespace

Report runMapSmallRead(const Options& opt) {
  Report r;
  Tracer tracer(opt, 1 + kClients);
  auto rig = timedSetups<Rig>(kSetups, r, tracer, [&] {
    auto g = std::make_unique<Rig>();
    g->domain = std::make_unique<stm::Domain>();
    g->scheduler = std::make_unique<shard::MaintenanceScheduler>();
    shard::ShardedMapConfig cfg;
    cfg.shards = 4;
    cfg.routingSlots = 64;
    cfg.scheduler = g->scheduler.get();
    cfg.domain = g->domain.get();
    g->map = std::make_unique<shard::ShardedMap>(cfg);
    populate(*g->map, kKeys, kRange, opt.seed);
    return g;
  });
  shard::ShardedMap& map = *rig->map;
  const auto trees = treesOf(map);

  LoopControl ctl;
  std::vector<ClientStats> cs(kClients);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    cs[t].lat.reserve(static_cast<std::size_t>(opt.seconds * 300'000));
    threads.emplace_back(client, std::ref(map), std::ref(ctl), std::ref(cs[t]),
                         std::ref(tracer.log(t + 1)),
                         opt.seed * 1000 + static_cast<std::uint64_t>(t));
  }
  shard::ShardedMapStats before;
  shard::SchedulerStats schedBefore;
  GaugeMax gauges;
  const Window w = runWindow(
      ctl, opt,
      [&] {
        before = map.aggregatedStats();
        schedBefore = rig->scheduler->stats();
        tracer.counters("measure.begin", nowNs(),
                        {{"stm.commits", double(before.stm.commits)},
                         {"stm.aborts", double(before.stm.aborts)}});
      },
      [&] { gauges.sample(trees); });
  const shard::ShardedMapStats after = map.aggregatedStats();
  const shard::SchedulerStats schedAfter = rig->scheduler->stats();
  for (std::thread& t : threads) t.join();
  tracer.counters("measure.end", w.endNs,
                  {{"stm.commits", double(after.stm.commits)},
                   {"stm.aborts", double(after.stm.aborts)}});

  const ClientTotals tot = totals(cs);
  emitClosedLoop(r, cs, w);
  r.attempted = static_cast<std::uint64_t>(tot.ops);

  emitShard(r, before, after, schedBefore, schedAfter, tot.ops, w.seconds());
  emitStm(r, before.stm, after.stm, tot.ops);
  emitMaintenance(r, before.maintenance, after.maintenance, tot.updates,
                  static_cast<double>(w.endNs - w.startNs));
  gauges.emit(r);
  emitArenaAndHeight(r, trees, map.height());

  map.quiesce();
  checkConservation(r, map, kKeys + tot.inserted - tot.erased);
  checkTrees(r, trees);
  checkAbortPartition(r, map.aggregatedStats().stm);
  std::string err;
  if (!tracer.write(opt, err)) r.check("trace_written", false, err);
  return r;
}

}  // namespace sfbench
