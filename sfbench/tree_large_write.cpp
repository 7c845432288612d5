// tree-large-write: the paper's own setting on a bare SFTree.
//
// Three closed-loop clients on one Optimized-variant tree built with
// startMaintenance=false; the benchmark's own rotator thread loops
// runMaintenancePass() and sleeps 100 us after an idle pass (the paper's
// dedicated rotator, with every pass timed here). The tree holds 2^21 keys
// in a 2^22 range: about 256 MB of 128-byte node blocks, well above the
// 105 MiB L3 of the reference machine. The mix is bench_core's
// WorkloadGenerator at 20% effective updates, keys uniform. Out-of-cache
// descents, rotations/removals, limbo and arena churn dominate; the shard
// layer is not used, so a routing or census change must leave this
// workload flat.
#include <chrono>
#include <thread>
#include <vector>

#include "bench_core/workload.hpp"
#include "common.hpp"

namespace sfbench {

namespace {

namespace bench = sftree::bench;
namespace stm = sftree::stm;
namespace trees = sftree::trees;

constexpr int kClients = 3;
constexpr std::int64_t kKeys = 1 << 21;
constexpr std::int64_t kRange = 1 << 22;
constexpr int kSetups = 3;

struct Rig {
  std::unique_ptr<stm::Domain> domain;
  std::unique_ptr<trees::SFTree> tree;
};

void client(trees::SFTree& tree, LoopControl& ctl, ClientStats& cs,
            SpanLog& spans, std::uint64_t seed) {
  bench::WorkloadConfig wc;
  wc.keyRange = kRange;
  wc.updatePercent = 20;
  bench::WorkloadGenerator gen(wc, seed);
  for (std::uint64_t i = 1;; ++i) {
    const int phase = ctl.phase.load(std::memory_order_relaxed);
    if (phase == kStop) break;
    const bench::Op op = gen.next();
    const bool timed = i % kTimedStride == 0;
    const std::uint64_t t0 = timed ? nowNs() : 0;
    bool changed = false;
    switch (op.type) {
      case bench::OpType::Insert:
        changed = tree.insert(op.key, op.key);
        cs.inserted += changed;
        break;
      case bench::OpType::Remove:
        changed = tree.erase(op.key);
        cs.erased += changed;
        break;
      default:
        tree.contains(op.key);
        break;
    }
    if (phase != kMeasure) continue;
    const bool on = ctl.traceOn.load(std::memory_order_relaxed);
    ++cs.ops[on];
    cs.updates += changed;
    if (timed) {
      const std::uint64_t t1 = nowNs();
      cs.lat.add(t1, t1 - t0);
      if (on) spans.add("tree.op", 0, t0, t1);
    }
  }
}

// The rotator: the paper's dedicated maintenance thread, driven through the
// public pass entry point. Records every pass's [start, end).
void rotator(trees::SFTree& tree, LoopControl& ctl,
             const std::atomic<bool>& cancel,
             std::vector<std::pair<std::uint64_t, std::uint64_t>>& passes,
             SpanLog& spans) {
  while (ctl.phase.load(std::memory_order_relaxed) != kStop) {
    const std::uint64_t t0 = nowNs();
    const bool did = tree.runMaintenancePass(&cancel);
    const std::uint64_t t1 = nowNs();
    passes.emplace_back(t0, t1);
    if (ctl.traceOn.load(std::memory_order_relaxed)) {
      spans.add("tree.maint_pass", 0, t0, t1);
    }
    if (!did) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace

Report runTreeLargeWrite(const Options& opt) {
  Report r;
  Tracer tracer(opt, 2 + kClients);
  auto rig = timedSetups<Rig>(kSetups, r, tracer, [&] {
    auto g = std::make_unique<Rig>();
    g->domain = std::make_unique<stm::Domain>();
    trees::SFTreeConfig cfg;
    cfg.ops = trees::OpsVariant::Optimized;
    cfg.domain = g->domain.get();
    cfg.startMaintenance = false;
    g->tree = std::make_unique<trees::SFTree>(cfg);
    populate(*g->tree, kKeys, kRange, opt.seed);
    // Maintenance catches up with the fill (height estimates, the
    // overflowed violation queue) before the clients start.
    g->tree->quiesceNow();
    return g;
  });
  trees::SFTree& tree = *rig->tree;
  stm::Domain& dom = *rig->domain;

  LoopControl ctl;
  std::atomic<bool> cancel{false};
  std::vector<ClientStats> cs(kClients);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> passes;
  passes.reserve(1 << 20);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    cs[t].lat.reserve(static_cast<std::size_t>(opt.seconds * 100'000));
    threads.emplace_back(client, std::ref(tree), std::ref(ctl), std::ref(cs[t]),
                         std::ref(tracer.log(t + 1)),
                         opt.seed * 1000 + static_cast<std::uint64_t>(t));
  }
  std::thread rot(rotator, std::ref(tree), std::ref(ctl), std::cref(cancel),
                  std::ref(passes), std::ref(tracer.log(kClients + 1)));

  stm::ThreadStats before;
  trees::MaintenanceStats mBefore;
  GaugeMax gauges;
  const std::vector<trees::SFTree*> ts{&tree};
  const Window w = runWindow(
      ctl, opt,
      [&] {
        before = dom.aggregateStats();
        mBefore = tree.maintenanceStats();
        tracer.counters("measure.begin", nowNs(),
                        {{"stm.commits", double(before.commits)},
                         {"trees.rotations", double(mBefore.rotations)}});
      },
      [&] { gauges.sample(ts); });
  const stm::ThreadStats after = dom.aggregateStats();
  const trees::MaintenanceStats mAfter = tree.maintenanceStats();
  cancel.store(true);
  for (std::thread& t : threads) t.join();
  rot.join();
  tracer.counters("measure.end", w.endNs,
                  {{"stm.commits", double(after.commits)},
                   {"trees.rotations", double(mAfter.rotations)}});

  const ClientTotals tot = totals(cs);
  emitClosedLoop(r, cs, w);
  r.attempted = static_cast<std::uint64_t>(tot.ops);
  r.info["effective_update_pct"] = 100 * tot.updates / tot.ops;

  const double wallNs = static_cast<double>(w.endNs - w.startNs);
  emitStm(r, before, after, tot.ops);
  emitMaintenance(r, mBefore, mAfter, tot.updates, wallNs);
  // The rotator's own timing of its runMaintenancePass() calls: passes that
  // ended in the window, and the share of the window spent inside a pass.
  std::vector<double> passNs;
  double busyNs = 0;
  for (const auto& [t0, t1] : passes) {
    if (t1 <= w.startNs || t0 >= w.endNs) continue;
    busyNs += static_cast<double>(std::min(t1, w.endNs) -
                                  std::max(t0, w.startNs));
    if (t1 < w.endNs) passNs.push_back(static_cast<double>(t1 - t0));
  }
  r.layer["trees.maint_pass_us_p50"] = quantile(passNs, 0.50) / 1e3;
  r.layer["trees.maint_pass_us_p99"] = quantile(passNs, 0.99) / 1e3;
  r.layer["trees.maint_busy_frac"] = busyNs / wallNs;
  gauges.emit(r);
  emitArenaAndHeight(r, ts, tree.height());

  tree.quiesceNow();
  checkConservation(r, tree, kKeys + tot.inserted - tot.erased);
  checkTrees(r, ts);
  checkAbortPartition(r, dom.aggregateStats());
  std::string err;
  if (!tracer.write(opt, err)) r.check("trace_written", false, err);
  return r;
}

}  // namespace sfbench
