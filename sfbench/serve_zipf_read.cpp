// serve-zipf-read: open-loop requests through the ServingTier.
//
// ShardedMap with 2 shards (one MaintenanceScheduler worker) behind a
// ServingTier with 2 executors; the benchmark's main thread is the single
// submitter. The map holds 2^20 keys in a 2^21 range; requests are
// YCSB-B-like (95% get/contains, 5% insert/erase) with Zipf(0.99) keys, so
// hot keys share root paths.
//
//  * Phase 1, half the measured time: Poisson arrivals at a fixed
//    100k req/s after a warm-up at the same rate. Latency runs from each
//    request's due time (not from the submit call) to its completion
//    callback, which stores the time into a preallocated per-request slot
//    without a lock. Generator lateness (submit start - due) is reported,
//    and a run where its p99 exceeds 100 us is marked.
//  * Phase 2, the other half: the submitter keeps 4096 requests in flight
//    and the completion rate is the tier's saturated throughput.
//
// This is the only workload that uses the serve layer (queueing, executor
// wake-up, batching, AIMD).
#include <cmath>
#include <thread>
#include <vector>

#include "bench_core/workload.hpp"
#include "common.hpp"
#include "serve/serving.hpp"

namespace sfbench {

namespace {

namespace serve = sftree::serve;
namespace shard = sftree::shard;
namespace stm = sftree::stm;

constexpr std::int64_t kKeys = 1 << 20;
constexpr std::int64_t kRange = 1 << 21;
constexpr double kRate = 100'000;  // phase 1 offered load, req/s
constexpr std::uint64_t kInFlight = 4096;  // phase 2 window
constexpr std::size_t kPoolSize = 1 << 20;  // phase 2 requests, cycled
constexpr std::size_t kSpanSlots = 1 << 15;
constexpr int kSetups = 3;

struct Rig {
  std::unique_ptr<stm::Domain> domain;
  std::unique_ptr<shard::MaintenanceScheduler> scheduler;
  std::unique_ptr<shard::ShardedMap> map;
  std::vector<bool> initial;
};

// One tracked request: written by the submitter (due/submit times) and, for
// `done`, by the completing executor.
struct Slot {
  std::uint64_t due = 0;
  std::uint64_t submitBegin = 0;
  std::uint64_t submitEnd = 0;
  std::atomic<std::uint64_t> done{0};
};

// Outcome accounting shared by every completion callback.
struct Accounting {
  explicit Accounting(std::size_t range) : net(range) {}
  std::vector<std::atomic<std::int32_t>> net;  // per-key effective +/-
  std::atomic<std::uint64_t> resolved{0};      // completed or rejected
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> updates{0};  // effective inserts + erases

  void onResult(const serve::Result& res) {
    if (res.rejected) {
      rejected.fetch_add(1, std::memory_order_relaxed);
    } else if (res.ok && !serve::isReadOp(res.op)) {
      net[static_cast<std::size_t>(res.key)].fetch_add(
          res.op == serve::OpKind::kInsert ? 1 : -1,
          std::memory_order_relaxed);
      updates.fetch_add(1, std::memory_order_relaxed);
    }
    resolved.fetch_add(1, std::memory_order_release);
  }
};

serve::Request nextRequest(Rng& rng, const sftree::bench::ZipfKeys& zipf) {
  serve::Request q;
  q.key = zipf.pick(rng);
  q.value = q.key;
  const std::uint64_t roll = rng.nextBounded(200);
  q.op = roll < 95    ? serve::OpKind::kGet
         : roll < 190 ? serve::OpKind::kContains
         : roll < 195 ? serve::OpKind::kInsert
                      : serve::OpKind::kErase;
  return q;
}

void spinUntil(std::uint64_t t) {
  while (nowNs() < t) {
  }
}

// Waits until `acct.resolved` reaches `target` or `deadline` passes.
bool awaitResolved(const Accounting& acct, std::uint64_t target,
                   std::uint64_t deadline) {
  while (acct.resolved.load(std::memory_order_acquire) < target) {
    if (nowNs() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

}  // namespace

Report runServeZipfRead(const Options& opt) {
  Report r;
  Tracer tracer(opt, 3);
  auto rig = timedSetups<Rig>(kSetups, r, tracer, [&] {
    auto g = std::make_unique<Rig>();
    g->domain = std::make_unique<stm::Domain>();
    g->scheduler = std::make_unique<shard::MaintenanceScheduler>();
    shard::ShardedMapConfig cfg;
    cfg.shards = 2;
    cfg.routingSlots = 64;
    cfg.scheduler = g->scheduler.get();
    cfg.domain = g->domain.get();
    g->map = std::make_unique<shard::ShardedMap>(cfg);
    g->initial = populate(*g->map, kKeys, kRange, opt.seed);
    return g;
  });
  shard::ShardedMap& map = *rig->map;
  const auto trees = treesOf(map);

  // Inputs, from the seed and generated before the clock starts (a Zipf
  // draw is a binary search over a 16 MB table, slower than a submit): the
  // phase 1 arrival schedule and requests, and a pool phase 2 cycles over.
  const sftree::bench::ZipfKeys zipf(kRange, 0.99);
  Rng rng(opt.seed * 7919 + 1);
  const double warm = warmupSeconds(opt.seconds);
  const double phaseS = opt.seconds / 2;
  std::vector<std::uint64_t> offsets;
  std::vector<serve::Request> reqs;
  for (double t = 0; t < warm + phaseS;) {
    double u = rng.nextDouble();
    if (u < 1e-12) u = 1e-12;
    t += -std::log(u) / kRate;
    offsets.push_back(static_cast<std::uint64_t>(t * 1e9));
    reqs.push_back(nextRequest(rng, zipf));
  }
  const std::size_t n1 = reqs.size();
  std::vector<serve::Request> pool(kPoolSize);
  for (serve::Request& q : pool) q = nextRequest(rng, zipf);
  std::unique_ptr<Slot[]> slots(new Slot[n1]);
  std::unique_ptr<Slot[]> spanSlots(new Slot[opt.traced() ? kSpanSlots : 0]);
  Accounting acct(static_cast<std::size_t>(kRange));

  serve::ServingTierConfig tc;
  tc.executors = 2;
  serve::ServingTier tier(map, tc);

  const shard::ShardedMapStats before = map.aggregatedStats();
  const shard::SchedulerStats schedBefore = rig->scheduler->stats();
  GaugeMax gauges;

  // ---- phase 1: open loop at kRate -------------------------------------
  const std::uint64_t origin = nowNs() + 1'000'000;
  const std::uint64_t measureStart =
      origin + static_cast<std::uint64_t>(warm * 1e9);
  const std::uint64_t phase1End =
      measureStart + static_cast<std::uint64_t>(phaseS * 1e9);
  std::uint64_t nextSample = origin;
  for (std::size_t i = 0; i < n1; ++i) {
    Slot& s = slots[i];
    s.due = origin + offsets[i];
    if (s.due >= nextSample) {
      gauges.sample(trees);
      nextSample = s.due + 10'000'000;
    }
    spinUntil(s.due);
    s.submitBegin = nowNs();
    tier.submit(reqs[i], [&acct, &s](const serve::Result& res) {
      acct.onResult(res);
      s.done.store(nowNs(), std::memory_order_release);
    });
    s.submitEnd = nowNs();
  }
  const bool phase1Done = awaitResolved(acct, n1, phase1End + 1'000'000'000);
  r.check("phase1_requests_complete_within_1s", phase1Done,
          std::to_string(acct.resolved.load()) + " of " + std::to_string(n1));
  const serve::ServingTierStats s1 = tier.stats();

  // ---- phase 2: saturation with kInFlight outstanding --------------------
  std::uint64_t submitted2 = 0;
  std::size_t spansUsed = 0;
  const std::uint64_t base = acct.resolved.load(std::memory_order_acquire);
  const std::uint64_t start2 = nowNs();
  const std::uint64_t end2 = start2 + static_cast<std::uint64_t>(phaseS * 1e9);
  double resolvedIn[2] = {0, 0};  // completions in untraced / traced slices
  std::uint64_t sliceNs[2] = {0, 0};
  bool on = false;
  std::uint64_t sliceStart = start2;
  std::uint64_t sliceBase = base;
  const auto closeSlice = [&](std::uint64_t now) {
    const std::uint64_t res = acct.resolved.load(std::memory_order_acquire);
    resolvedIn[on] += static_cast<double>(res - sliceBase);
    sliceNs[on] += now - sliceStart;
    sliceBase = res;
    sliceStart = now;
  };
  for (;;) {
    const std::uint64_t now = nowNs();
    if (now >= end2) {
      closeSlice(now);
      break;
    }
    if (opt.traced() && now - sliceStart >= kTraceSliceNs) {
      closeSlice(now);
      on = !on;
    }
    if (submitted2 - (acct.resolved.load(std::memory_order_acquire) - base) >=
        kInFlight) {
      continue;
    }
    const serve::Request& q = pool[submitted2 % kPoolSize];
    if (on && submitted2 % kTimedStride == 0 && spansUsed < kSpanSlots) {
      Slot& s = spanSlots[spansUsed++];
      s.due = now;
      s.submitBegin = nowNs();
      tier.submit(q, [&acct, &s](const serve::Result& res) {
        acct.onResult(res);
        s.done.store(nowNs(), std::memory_order_release);
      });
      s.submitEnd = nowNs();
    } else {
      tier.submit(q, [&acct](const serve::Result& res) { acct.onResult(res); });
    }
    ++submitted2;
  }
  r.e2e["tput_ops_s"] = (resolvedIn[0] + resolvedIn[1]) * 1e9 /
                        static_cast<double>(sliceNs[0] + sliceNs[1]);
  r.layer["trace_overhead"] =
      sliceNs[0] > 0 && sliceNs[1] > 0 && resolvedIn[0] > 0
          ? (resolvedIn[1] / static_cast<double>(sliceNs[1])) /
                (resolvedIn[0] / static_cast<double>(sliceNs[0]))
          : 0.0;
  const bool drained =
      awaitResolved(acct, n1 + submitted2, nowNs() + 10'000'000'000ULL);
  r.check("phase2_requests_complete", drained);
  const serve::ServingTierStats s2 = tier.stats();
  const shard::ShardedMapStats after = map.aggregatedStats();
  const shard::SchedulerStats schedAfter = rig->scheduler->stats();
  const double userOps = static_cast<double>(n1 + submitted2);
  const double wallNs = static_cast<double>(nowNs() - origin);
  tier.stop();

  // ---- phase 1 latency and generator health -------------------------------
  LatencySamples lat;
  std::vector<double> plain;
  std::vector<double> late;
  std::vector<double> submitNs;
  for (std::size_t i = 0; i < n1; ++i) {
    const Slot& s = slots[i];
    const std::uint64_t done = s.done.load(std::memory_order_acquire);
    if (s.due < measureStart || done == 0) continue;
    lat.add(done, done - s.due);
    plain.push_back(static_cast<double>(done - s.due));
    late.push_back(static_cast<double>(s.submitBegin - s.due));
    submitNs.push_back(static_cast<double>(s.submitEnd - s.submitBegin));
    if (i % kTimedStride == 0) {
      const std::uint64_t id = tracer.log(1).add("serve.request", 0, s.due, done);
      tracer.log(1).add("serve.submit", id, s.submitBegin, s.submitEnd);
    }
  }
  for (std::size_t i = 0; i < spansUsed; ++i) {
    const Slot& s = spanSlots[i];
    const std::uint64_t done = s.done.load(std::memory_order_acquire);
    if (done == 0) continue;
    const std::uint64_t id =
        tracer.log(2).add("serve.request_saturated", 0, s.due, done);
    tracer.log(2).add("serve.submit", id, s.submitBegin, s.submitEnd);
  }
  const WindowStats sum = summarize({&lat}, measureStart, phase1End);
  r.e2e["op_p50_us"] = sum.p50Us;
  r.layer["client.op_p99_us"] = sum.p99Us;
  r.info["latency_samples"] = static_cast<double>(sum.samples);
  r.info["windows"] = static_cast<double>(sum.windows);
  const double lateP99 = quantile(late, 0.99) / 1e3;
  double lateMax = 0;
  for (const double v : late) lateMax = std::max(lateMax, v);
  r.info["gen_late_p99_us"] = lateP99;
  r.info["gen_unhealthy"] = lateP99 > 100 ? 1 : 0;

  r.layer["serve.submit_ns_p50"] = median(submitNs);
  r.layer["serve.batch_us_p50"] = s1.batchNs.p50() / 1e3;
  r.layer["serve.queue_depth_max"] = static_cast<double>(s1.maxQueueDepth);
  r.layer["serve.req_p99_us"] = quantile(plain, 0.99) / 1e3;
  r.layer["serve.gen_late_p99_us"] = lateP99;
  r.layer["serve.gen_stall_max_us"] = lateMax / 1e3;
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double batches = d(s2.batchTxs, s1.batchTxs);
  r.layer["serve.batch_fill_mean"] =
      batches > 0 ? d(s2.batchedOps, s1.batchedOps) / batches : 0.0;
  r.layer["serve.aimd_shrinks_per_kbatch"] =
      batches > 0 ? 1e3 * d(s2.batchShrinks, s1.batchShrinks) / batches : 0.0;
  const double completed2 = d(s2.completed, s1.completed);
  r.layer["serve.per_op_tx_frac"] =
      completed2 > 0 ? d(s2.perOpTxs, s1.perOpTxs) / completed2 : 0.0;

  const auto updates = static_cast<double>(acct.updates.load());
  emitShard(r, before, after, schedBefore, schedAfter, userOps, wallNs / 1e9);
  emitStm(r, before.stm, after.stm, userOps);
  emitMaintenance(r, before.maintenance, after.maintenance, updates, wallNs);
  gauges.emit(r);
  emitArenaAndHeight(r, trees, map.height());

  // ---- correctness ----------------------------------------------------------
  const serve::ServingTierStats fin = tier.stats();
  r.attempted = n1 + submitted2;
  r.failed += acct.rejected.load();
  r.check("no_rejects", acct.rejected.load() == 0,
          std::to_string(acct.rejected.load()) + " rejected");
  r.check("submitted_eq_completed_plus_rejected",
          fin.submitted == fin.completed + fin.rejected &&
              fin.submitted == n1 + submitted2,
          "submitted " + std::to_string(fin.submitted) + ", completed " +
              std::to_string(fin.completed) + ", rejected " +
              std::to_string(fin.rejected));
  map.quiesce();
  std::int64_t expected = kKeys;
  for (const auto& n : acct.net) expected += n.load();
  const std::vector<Key> keys = checkConservation(r, map, expected);
  std::vector<bool> present(static_cast<std::size_t>(kRange), false);
  for (const Key k : keys) present[static_cast<std::size_t>(k)] = true;
  std::int64_t badKeys = 0;
  for (std::size_t k = 0; k < present.size(); ++k) {
    const int want = (rig->initial[k] ? 1 : 0) + acct.net[k].load();
    if (want != (present[k] ? 1 : 0)) ++badKeys;
  }
  r.check("per_key_net_accounting", badKeys == 0,
          std::to_string(badKeys) + " keys disagree");
  checkTrees(r, trees);
  checkAbortPartition(r, map.aggregatedStats().stm);
  std::string err;
  if (!tracer.write(opt, err)) r.check("trace_written", false, err);
  return r;
}

}  // namespace sfbench
