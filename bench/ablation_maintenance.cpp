// Ablation — which half of the decoupling buys what?
//
// The speculation-friendly tree decouples two things (paper §3.1, §3.2):
//   1. rotations  (structural adaptation in the background), and
//   2. node removal (logical delete now, physical unlink later).
// This bench runs the same workload on the SF tree with maintenance fully
// on, rotations-only, removals-only, and fully off (== NRtree), under both
// uniform and biased key distributions. It regenerates the design-choice
// evidence DESIGN.md calls out rather than any single paper figure.
//
// --ab-mode switches to the maintenance-path A/B: full-sweep discovery vs
// targeted (violation-queue-fed) maintenance on the same workload,
// interleaved sweep/targeted/sweep/... across --ab-reps repetitions so
// machine drift hits both arms equally. The headline metric is maintenance
// work (nodes visited by maintenance) per committed update — the cost the
// violation queue converts from O(tree) to O(activity) — plus throughput
// and final height, which must not regress. run_quick.sh wraps this mode's
// --json output into BENCH_maintpath.json for the CI regression guard.
#include <cstdio>

#include "bench_core/cli.hpp"
#include "bench_core/harness.hpp"
#include "bench_core/report.hpp"
#include "stm/runtime.hpp"
#include "trees/map_interface.hpp"
#include "trees/sftree.hpp"

namespace bench = sftree::bench;
namespace trees = sftree::trees;
namespace stm = sftree::stm;

namespace {

// Thin adapter so the harness can drive a raw SFTree configuration.
class RawSFMap final : public trees::ITransactionalMap {
 public:
  explicit RawSFMap(trees::SFTreeConfig cfg) : tree_(cfg) {}
  bool insert(sftree::Key k, sftree::Value v) override {
    return tree_.insert(k, v);
  }
  bool erase(sftree::Key k) override { return tree_.erase(k); }
  bool contains(sftree::Key k) override { return tree_.contains(k); }
  std::optional<sftree::Value> get(sftree::Key k) override {
    return tree_.get(k);
  }
  bool move(sftree::Key a, sftree::Key b) override { return tree_.move(a, b); }
  bool insertTx(stm::Tx& tx, sftree::Key k, sftree::Value v) override {
    return tree_.insertTx(tx, k, v);
  }
  bool eraseTx(stm::Tx& tx, sftree::Key k) override {
    return tree_.eraseTx(tx, k);
  }
  bool containsTx(stm::Tx& tx, sftree::Key k) override {
    return tree_.containsTx(tx, k);
  }
  std::optional<sftree::Value> getTx(stm::Tx& tx, sftree::Key k) override {
    return tree_.getTx(tx, k);
  }
  std::size_t countRangeTx(stm::Tx& tx, sftree::Key lo,
                           sftree::Key hi) override {
    return tree_.countRangeTx(tx, lo, hi);
  }
  std::size_t size() override { return 0; }
  int height() override {
    tree_.stopMaintenance();
    return tree_.height();
  }
  std::vector<sftree::Key> keysInOrder() override { return {}; }

  trees::SFTree& tree() { return tree_; }

 private:
  trees::SFTree tree_;
};

struct Variant {
  const char* name;
  bool rotations;
  bool removals;
};

// Maintenance work attributable to the measured window: final minus
// post-populate counters (populate also feeds the maintenance side).
trees::MaintenanceStats statsDelta(const trees::MaintenanceStats& end,
                                   const trees::MaintenanceStats& start) {
  trees::MaintenanceStats d = end;
  d.traversals -= start.traversals;
  d.fullSweeps -= start.fullSweeps;
  d.rotations -= start.rotations;
  d.removals -= start.removals;
  d.nodesVisited -= start.nodesVisited;
  d.entriesMerged -= start.entriesMerged;
  d.queue.captured -= start.queue.captured;
  d.queue.enqueued -= start.queue.enqueued;
  d.queue.drained -= start.queue.drained;
  d.queue.drainLatencyUsSum -= start.queue.drainLatencyUsSum;
  return d;
}

// Sweep-vs-targeted A/B (see file header). Returns the process exit code.
int runMaintPathAb(bench::Cli& cli) {
  const int threads = static_cast<int>(cli.integer("threads", 2));
  const int durationMs = static_cast<int>(cli.integer("duration-ms", 300));
  const auto sizeLog = cli.integer("size-log", 12);
  const double update = cli.real("update", 20.0);
  const int reps = static_cast<int>(cli.integer("ab-reps", 3));

  bench::JsonReport json("ablation_maintenance_ab");
  json.meta()
      .set("threads", threads)
      .set("duration_ms", durationMs)
      .set("size_log", sizeLog)
      .set("update_percent", update)
      .set("reps", reps);

  std::printf("Maintenance-path A/B [%d reps interleaved, %.0f%% updates, "
              "%d threads, 2^%lld keys]\n",
              reps, update, threads, static_cast<long long>(sizeLog));
  bench::Table table({"rep", "mode", "ops/us", "height", "visits/update",
                      "rotations", "queue drained", "drain lat (us)"});

  stm::defaultDomain().setLockMode(stm::LockMode::Lazy);
  for (int rep = 0; rep < reps; ++rep) {
    for (const bool targeted : {false, true}) {
      trees::SFTreeConfig cfg;
      cfg.ops = trees::OpsVariant::Optimized;
      cfg.targetedMaintenance = targeted;
      RawSFMap map(cfg);

      bench::RunConfig run;
      run.initialSize = std::int64_t{1} << sizeLog;
      run.workload.keyRange = run.initialSize * 2;
      run.workload.updatePercent = update;
      run.threads = threads;
      run.durationMs = durationMs;
      run.seed = 42 + static_cast<std::uint64_t>(rep);
      bench::populate(map, run);
      const auto baseline = map.tree().maintenanceStats();
      const auto result = bench::runThroughput(map, run);
      const int height = map.height();  // stops maintenance
      const auto ms = statsDelta(map.tree().maintenanceStats(), baseline);

      const double updates =
          result.effectiveUpdates > 0
              ? static_cast<double>(result.effectiveUpdates)
              : 1.0;
      const double visitsPerUpdate =
          static_cast<double>(ms.nodesVisited) / updates;
      const char* mode = targeted ? "targeted" : "sweep";
      table.addRow({bench::Table::num(rep), mode,
                    bench::Table::num(result.opsPerMicrosecond()),
                    bench::Table::num(height),
                    bench::Table::num(visitsPerUpdate),
                    bench::Table::num(ms.rotations),
                    bench::Table::num(ms.queue.drained),
                    bench::Table::num(ms.queue.meanDrainLatencyUs(), 0)});
      json.addRecord()
          .set("mode", mode)
          .set("rep", rep)
          .set("ops_per_us", result.opsPerMicrosecond())
          .set("final_height", height)
          .set("committed_updates", result.effectiveUpdates)
          .set("maint_nodes_visited", ms.nodesVisited)
          .set("visits_per_update", visitsPerUpdate)
          .set("maint_passes", ms.traversals)
          .set("full_sweeps", ms.fullSweeps)
          .set("rotations", ms.rotations)
          .set("removals", ms.removals)
          .set("queue_captured", ms.queue.captured)
          .set("queue_enqueued", ms.queue.enqueued)
          // Captures the drain merged into an equal (key, kind) neighbour;
          // the key name predates the merge and keeps the report schema.
          .set("queue_deduped", ms.entriesMerged)
          .set("queue_drained", ms.queue.drained)
          .set("mean_drain_latency_us", ms.queue.meanDrainLatencyUs())
          .set("abort_ratio", result.stm.abortRatio());
    }
  }
  table.print();
  std::printf("\nExpected: targeted mode does a small fraction of the sweep "
              "mode's maintenance visits per committed update, at parity "
              "throughput and comparable final height.\n");
  return json.writeFile(cli.jsonPath()) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli(argc, argv);
  if (cli.flag("ab-mode")) return runMaintPathAb(cli);
  const int threads = static_cast<int>(cli.integer("threads", 2));
  const int durationMs = static_cast<int>(cli.integer("duration-ms", 250));
  const auto sizeLog = cli.integer("size-log", 12);
  const double update = cli.real("update", 15.0);

  const Variant variants[] = {
      {"full maintenance", true, true},
      {"rotations only", true, false},
      {"removals only", false, true},
      {"none (NRtree)", false, false},
  };

  bench::JsonReport json("ablation_maintenance");
  json.meta()
      .set("threads", threads)
      .set("duration_ms", durationMs)
      .set("size_log", sizeLog)
      .set("update_percent", update);

  stm::defaultDomain().setLockMode(stm::LockMode::Lazy);
  for (const bool biased : {false, true}) {
    std::printf("\nAblation [%s workload, %.0f%% updates, %d threads] \n",
                biased ? "biased" : "uniform", update, threads);
    bench::Table table({"maintenance", "ops/us", "final height",
                        "rotations", "removals"});
    for (const Variant& v : variants) {
      trees::SFTreeConfig cfg;
      cfg.ops = trees::OpsVariant::Optimized;
      cfg.rotations = v.rotations;
      cfg.removals = v.removals;
      cfg.startMaintenance = v.rotations || v.removals;
      RawSFMap map(cfg);

      bench::RunConfig run;
      run.initialSize = std::int64_t{1} << sizeLog;
      run.workload.keyRange = run.initialSize * 2;
      run.workload.updatePercent = update;
      run.workload.biased = biased;
      run.threads = threads;
      run.durationMs = durationMs;
      bench::populate(map, run);
      const auto result = bench::runThroughput(map, run);
      const int height = map.height();  // stops maintenance
      const auto ms = map.tree().maintenanceStats();
      table.addRow({v.name, bench::Table::num(result.opsPerMicrosecond()),
                    bench::Table::num(height), bench::Table::num(ms.rotations),
                    bench::Table::num(ms.removals)});
      json.addRecord()
          .set("variant", v.name)
          .set("biased", biased)
          .set("ops_per_us", result.opsPerMicrosecond())
          .set("final_height", height)
          .set("rotations", ms.rotations)
          .set("removals", ms.removals)
          .set("abort_ratio", result.stm.abortRatio());
    }
    table.print();
  }
  std::printf("\nExpected: under the biased workload the no-rotation "
              "variants degrade (tree degenerates);\nwith rotations the "
              "height stays logarithmic.\n");
  return json.writeFile(cli.jsonPath()) ? 0 : 1;
}
