#include "obs/stats_bridge.hpp"

#include "mem/arena.hpp"
#include "obs/abort_cause.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "stm/domain.hpp"
#include "stm/stats.hpp"
#include "trees/sftree.hpp"
#include "trees/violation_queue.hpp"

namespace sftree::obs {

namespace {

std::string join(const std::string& prefix, const char* name) {
  return prefix.empty() ? std::string(name) : prefix + "." + name;
}

}  // namespace

void emitThreadStats(MetricSink& out, const std::string& prefix,
                     const stm::ThreadStats& s) {
  out.counter(join(prefix, "commits"), s.commits);
  out.counter(join(prefix, "aborts"), s.aborts);
  for (std::size_t i = 0; i < kAbortCauseCount; ++i) {
    out.counter(join(prefix, "aborts_by_cause") + "." + abortCauseName(i),
                s.abortsByCause[i]);
  }
  out.gauge(join(prefix, "abort_ratio"), s.abortRatio());
  out.counter(join(prefix, "reads"), s.reads);
  out.counter(join(prefix, "ureads"), s.ureads);
  out.counter(join(prefix, "writes"), s.writes);
  out.counter(join(prefix, "elastic_cuts"), s.elasticCuts);
  out.counter(join(prefix, "snapshot_extensions"), s.snapshotExtensions);
  out.counter(join(prefix, "ro_commits"), s.roCommits);
  out.counter(join(prefix, "ro_snapshot_extensions"), s.roSnapshotExtensions);
  out.counter(join(prefix, "ro_promotions"), s.roPromotions);
  out.counter(join(prefix, "write_lookups"), s.writeLookups);
  out.counter(join(prefix, "write_probes"), s.writeProbes);
  out.gauge(join(prefix, "mean_write_probe"), s.meanWriteProbe());
  out.counter(join(prefix, "ops"), s.ops);
  out.gauge(join(prefix, "mean_op_reads"), s.meanOpReads());
  out.counter(join(prefix, "max_op_reads"), s.maxOpReads);
  out.histogram(join(prefix, "tx_commit_ns"), s.txCommitNs);
  out.histogram(join(prefix, "tx_abort_ns"), s.txAbortNs);
}

void emitViolationQueueStats(MetricSink& out, const std::string& prefix,
                             const trees::ViolationQueueStats& s) {
  out.counter(join(prefix, "captured"), s.captured);
  out.counter(join(prefix, "enqueued"), s.enqueued);
  out.counter(join(prefix, "drained"), s.drained);
  out.counter(join(prefix, "dropped"), s.dropped);
  out.counter(join(prefix, "overflows"), s.overflows);
  out.gauge(join(prefix, "depth"), static_cast<double>(s.depth()));
  out.gauge(join(prefix, "mean_drain_latency_us"), s.meanDrainLatencyUs());
}

void emitMaintenanceStats(MetricSink& out, const std::string& prefix,
                          const trees::MaintenanceStats& s) {
  out.counter(join(prefix, "traversals"), s.traversals);
  out.counter(join(prefix, "full_sweeps"), s.fullSweeps);
  out.counter(join(prefix, "rotations"), s.rotations);
  out.counter(join(prefix, "removals"), s.removals);
  out.counter(join(prefix, "failed_structural_ops"), s.failedStructuralOps);
  out.counter(join(prefix, "nodes_freed"), s.nodesFreed);
  out.counter(join(prefix, "nodes_retired"), s.nodesRetired);
  out.counter(join(prefix, "nodes_visited"), s.nodesVisited);
  out.counter(join(prefix, "shared_prefix_skips"), s.sharedPrefixSkips);
  out.counter(join(prefix, "entries_merged"), s.entriesMerged);
  out.counter(join(prefix, "sweeps_deferred"), s.sweepsDeferred);
  out.histogram(join(prefix, "pass_ns"), s.passNs);
  emitViolationQueueStats(out, join(prefix, "queue"), s.queue);
}

void emitSchedulerStats(MetricSink& out, const std::string& prefix,
                        const shard::SchedulerStats& s) {
  out.counter(join(prefix, "passes"), s.passes);
  out.counter(join(prefix, "active_passes"), s.activePasses);
  out.counter(join(prefix, "backoff_skips"), s.backoffSkips);
  out.counter(join(prefix, "signal_wakeups"), s.signalWakeups);
  out.counter(join(prefix, "priority_picks"), s.priorityPicks);
}

void emitArenaStats(MetricSink& out, const std::string& prefix,
                    const mem::SlabArena& a) {
  out.gauge(join(prefix, "slabs"), static_cast<double>(a.slabCount()));
  out.counter(join(prefix, "allocated"), a.allocated());
  out.counter(join(prefix, "recycled"), a.recycled());
  out.gauge(join(prefix, "live_blocks"), static_cast<double>(a.liveBlocks()));
  out.gauge(join(prefix, "block_bytes"), static_cast<double>(a.blockSize()));
}

MetricsRegistry::Registration registerDomainMetrics(MetricsRegistry& reg,
                                                    std::string prefix,
                                                    stm::Domain& d) {
  return reg.add(std::move(prefix), [&d](MetricSink& out) {
    emitThreadStats(out, "", d.aggregateStats());
  });
}

}  // namespace sftree::obs
