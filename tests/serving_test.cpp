// Batched serving tier: request coalescing over ShardedMap. Covers
// batched-vs-sequential linearizability (one executor = submission order,
// so every result must match a sequential model), completion guarantees
// across shutdown (futures and callbacks, accepted or rejected), callback
// submissions reporting their own admission, AIMD batch shrink under forced
// write conflicts, and batches spanning a live splitShard/mergeShards
// migration with key conservation. The ThreadSanitizer CI job runs the
// shutdown and resharding tests like every suite.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "bench_core/rng.hpp"
#include "obs/metrics.hpp"
#include "serve/serving.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "shard/sharded_map.hpp"

namespace serve = sftree::serve;
namespace shard = sftree::shard;
using sftree::Key;
using sftree::Value;
using sftree::bench::Rng;

namespace {

using namespace std::chrono_literals;

// With ONE executor and ONE submitting thread the tier executes requests in
// submission order (MPSC drain + FIFO backlog), so batching K requests into
// one transaction must be observationally identical to running them one at
// a time against a sequential map model.
TEST(ServingTest, BatchedExecutionMatchesSequentialModel) {
  shard::MaintenanceScheduler scheduler;
  shard::ShardedMapConfig cfg;
  cfg.shards = 2;
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);

  serve::ServingTierConfig scfg;
  scfg.executors = 1;
  scfg.batchSize = 16;
  scfg.adaptiveBatch = false;  // fixed coalescing: every batch is 16 deep
  serve::ServingTier tier(map, scfg);

  constexpr int kOps = 20'000;
  constexpr Key kRange = 512;
  Rng rng(42);
  std::map<Key, Value> model;
  std::vector<serve::Future> futures;
  std::vector<serve::Result> expected;
  futures.reserve(kOps);
  expected.reserve(kOps);

  for (int i = 0; i < kOps; ++i) {
    serve::Request r;
    r.key = static_cast<Key>(rng.nextBounded(kRange));
    const auto roll = rng.nextBounded(100);
    if (roll < 35) {
      r.op = serve::OpKind::kInsert;
      r.value = static_cast<Value>(i);
    } else if (roll < 60) {
      r.op = serve::OpKind::kErase;
    } else if (roll < 80) {
      r.op = serve::OpKind::kGet;
    } else {
      r.op = serve::OpKind::kContains;
    }

    serve::Result e;
    e.op = r.op;
    e.key = r.key;
    const auto it = model.find(r.key);
    switch (r.op) {
      case serve::OpKind::kInsert:
        e.ok = it == model.end();
        if (e.ok) model.emplace(r.key, r.value);
        break;
      case serve::OpKind::kErase:
        e.ok = it != model.end();
        if (e.ok) model.erase(it);
        break;
      case serve::OpKind::kGet:
        e.ok = it != model.end();
        if (e.ok) e.value = it->second;
        break;
      case serve::OpKind::kContains:
        e.ok = it != model.end();
        break;
    }
    expected.push_back(e);
    futures.push_back(tier.submit(r));
  }

  for (int i = 0; i < kOps; ++i) {
    const serve::Result got = futures[static_cast<std::size_t>(i)].get();
    const serve::Result& want = expected[static_cast<std::size_t>(i)];
    ASSERT_FALSE(got.rejected) << "request " << i;
    ASSERT_EQ(got.op, want.op) << "request " << i;
    ASSERT_EQ(got.key, want.key) << "request " << i;
    ASSERT_EQ(got.ok, want.ok) << "request " << i;
    ASSERT_EQ(got.value, want.value) << "request " << i;
  }

  const auto s = tier.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(s.rejected, 0u);
  // Coalescing actually happened: far fewer transactions than requests.
  EXPECT_GT(s.batchTxs, 0u);
  EXPECT_LT(s.batchTxs + s.perOpTxs, static_cast<std::uint64_t>(kOps));
  // Latencies were recorded for both request classes.
  EXPECT_GT(s.latencyReadNs.count() + s.latencyUpdateNs.count(), 0u);

  tier.stop();
  map.quiesce();
  EXPECT_EQ(map.size(), model.size());
}

// Every submitted request completes exactly once — executor-executed or
// rejected (admission or shutdown sweep) — even when stop() races live
// submitters. Futures become ready, callbacks fire, and the counters add
// up: submitted == completed + rejected.
TEST(ServingTest, EveryRequestCompletesAcrossShutdown) {
  shard::MaintenanceScheduler scheduler;
  shard::ShardedMapConfig cfg;
  cfg.shards = 2;
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);

  auto tier = std::make_unique<serve::ServingTier>(map);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4'000;
  std::atomic<std::uint64_t> callbacksRun{0};
  std::atomic<std::uint64_t> callbackSubmits{0};
  std::vector<std::vector<serve::Future>> futures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(900 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        serve::Request r;
        r.op = rng.nextBool() ? serve::OpKind::kInsert : serve::OpKind::kGet;
        r.key = static_cast<Key>(rng.nextBounded(4'096));
        r.value = 1;
        if (i % 2 == 0) {
          futures[static_cast<std::size_t>(t)].push_back(tier->submit(r));
        } else {
          callbackSubmits.fetch_add(1, std::memory_order_relaxed);
          tier->submit(r, [&](const serve::Result&) {
            callbacksRun.fetch_add(1, std::memory_order_relaxed);
          });
        }
      }
    });
  }
  // Stop mid-stream: some submissions land before, some race the flag, some
  // arrive after and are rejected inline.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  tier->stop();
  for (auto& th : threads) th.join();

  std::uint64_t futureOk = 0;
  std::uint64_t futureRejected = 0;
  for (auto& perThread : futures) {
    for (auto& f : perThread) {
      ASSERT_TRUE(f.valid());
      const serve::Result r = f.get();  // must not hang
      (r.rejected ? futureRejected : futureOk) += 1;
    }
  }
  EXPECT_EQ(callbacksRun.load(), callbackSubmits.load());

  const auto s = tier->stats();
  EXPECT_EQ(s.submitted,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(s.completed + s.rejected, s.submitted);
  EXPECT_EQ(futureOk + futureRejected, s.submitted / 2);
  tier.reset();  // idempotent stop via destructor
}

// submit(r, cb) reports its own admission decision: while another thread's
// submissions to a full queue are rejected nonstop, every submission to an
// idle queue is accepted and returns true.
TEST(ServingTest, CallbackSubmitReportsItsOwnAdmission) {
  shard::MaintenanceScheduler scheduler;
  shard::ShardedMapConfig cfg;
  cfg.shards = 2;
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);

  serve::ServingTierConfig scfg;
  scfg.executors = 2;
  scfg.queueCapacity = 1;
  serve::ServingTier tier(map, scfg);
  const auto get = [](Key k) {
    serve::Request r;
    r.key = k;
    return r;
  };

  // Hold key 0's executor inside a callback, then fill its queue.
  std::promise<void> held;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ASSERT_TRUE(tier.submit(get(0), [&](const serve::Result&) {
    held.set_value();
    released.wait();
  }));
  held.get_future().wait();
  serve::Future filler = tier.submit(get(0));

  // A key on the other executor: the held one rejects at once.
  Key other = 1;
  while (tier.submit(get(other)).get().rejected) ++other;

  std::atomic<bool> stop{false};
  std::thread rejected([&] {
    while (!stop.load()) (void)tier.submit(get(0));
  });
  constexpr int kSubmits = 5'000;
  std::atomic<int> completed{0};
  std::atomic<int> completedRejected{0};
  int reportedRejected = 0;
  for (int i = 0; i < kSubmits; ++i) {
    // Closed loop: the previous request has completed, so the queue is
    // empty and admission cannot refuse this one.
    const bool accepted =
        tier.submit(get(other), [&](const serve::Result& res) {
          if (res.rejected) completedRejected.fetch_add(1);
          completed.fetch_add(1);
        });
    if (!accepted) ++reportedRejected;
    while (completed.load() <= i) std::this_thread::yield();
  }
  stop.store(true);
  rejected.join();
  release.set_value();

  EXPECT_EQ(reportedRejected, 0);
  EXPECT_EQ(completedRejected.load(), 0);
  EXPECT_FALSE(filler.get().rejected);
  EXPECT_GT(tier.stats().rejected, 0u);
  tier.stop();
}

// Forced write conflicts against the batch transactions: a hammer thread
// mutates the same small key range the batches touch, so batch commits
// abort and the AIMD controller must shrink the effective batch size (and
// eventually degrade lone batches to per-op transactions).
TEST(ServingTest, AimdShrinksBatchUnderConflicts) {
  shard::MaintenanceScheduler scheduler;
  shard::ShardedMapConfig cfg;
  cfg.shards = 1;  // one domain: every update contends
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);

  serve::ServingTierConfig scfg;
  scfg.executors = 1;
  scfg.batchSize = 32;
  scfg.adaptiveBatch = true;
  serve::ServingTier tier(map, scfg);

  constexpr Key kRange = 64;
  std::atomic<bool> stop{false};
  std::thread hammer([&] {
    Rng rng(7);
    while (!stop.load(std::memory_order_acquire)) {
      const Key k = static_cast<Key>(rng.nextBounded(kRange));
      map.insert(k, 1);
      map.erase(k);
    }
  });

  // Bounded-generous retry: keep offering update batches until a shrink is
  // observed (each round submits enough for many full batches).
  Rng rng(13);
  for (int round = 0; round < 200 && tier.stats().batchShrinks == 0;
       ++round) {
    std::vector<serve::Future> fs;
    fs.reserve(512);
    for (int i = 0; i < 512; ++i) {
      serve::Request r;
      r.op = rng.nextBool() ? serve::OpKind::kInsert : serve::OpKind::kErase;
      r.key = static_cast<Key>(rng.nextBounded(kRange));
      r.value = 2;
      fs.push_back(tier.submit(r));
    }
    for (auto& f : fs) f.get();
  }
  stop.store(true, std::memory_order_release);
  hammer.join();

  const auto s = tier.stats();
  EXPECT_GT(s.batchShrinks, 0u)
      << "conflicting batches never shrank the AIMD window";
  tier.stop();
}

// Batches keep executing (and stay atomic) while the routing table flips
// underneath them: a resharder runs split/merge cycles as two submitters
// stream inserts/erases with per-key net accounting through the tier. The
// surviving key set must equal the net-inserted set — a batch observing a
// migrating slot at both shards (or neither) would break it. A concurrent
// reader's lookups of a stable key set must all hit.
TEST(ServingTest, BatchesSpanLiveResharding) {
  shard::MaintenanceSchedulerConfig schedCfg;
  schedCfg.workers = 2;
  shard::MaintenanceScheduler scheduler(schedCfg);

  shard::ShardedMapConfig cfg;
  cfg.shards = 2;
  cfg.routingSlots = 32;
  cfg.migrationBatch = 16;  // more batch boundaries = more race windows
  cfg.scheduler = &scheduler;
  cfg.domainMode = shard::DomainMode::PerShard;
  shard::ShardedMap map(cfg);

  serve::ServingTierConfig scfg;
  scfg.executors = 2;  // queues span shards; batches cross migrating slots
  scfg.batchSize = 16;
  serve::ServingTier tier(map, scfg);

  constexpr int kThreads = 2;
  constexpr Key kRange = 256;
  constexpr int kOpsPerThread = 6'000;
  constexpr int kFlight = 64;
  // Read-only keys above the writers' range: every lookup must hit.
  constexpr Key kStable = 64;
  for (Key k = kRange; k < kRange + kStable; ++k) ASSERT_TRUE(map.insert(k, k));
  std::vector<std::atomic<std::int64_t>> net(kRange);
  std::atomic<bool> stopResharder{false};
  std::atomic<bool> writersDone{false};

  std::thread resharder([&] {
    Rng rng(11);
    while (!stopResharder.load(std::memory_order_acquire)) {
      const int n = map.shardCount();
      const int victim =
          static_cast<int>(rng.nextBounded(static_cast<std::uint64_t>(n)));
      if (n < 5 && rng.nextBool()) {
        map.splitShard(victim);
      } else if (n > 2) {
        map.mergeShards(victim, (victim + 1) % n);
      }
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(3'000 + t);
      std::vector<std::pair<serve::Future, Key>> flight;
      flight.reserve(kFlight);
      auto drain = [&] {
        for (auto& [f, key] : flight) {
          const serve::Result res = f.get();
          ASSERT_FALSE(res.rejected);
          if (!res.ok) continue;
          if (res.op == serve::OpKind::kInsert) {
            net[key].fetch_add(1);
          } else {
            net[key].fetch_sub(1);
          }
        }
        flight.clear();
      };
      for (int i = 0; i < kOpsPerThread; ++i) {
        serve::Request r;
        r.op =
            rng.nextBool() ? serve::OpKind::kInsert : serve::OpKind::kErase;
        r.key = static_cast<Key>(rng.nextBounded(kRange));
        r.value = r.key;
        flight.emplace_back(tier.submit(r), r.key);
        if (flight.size() >= kFlight) drain();
      }
      drain();
    });
  }
  // One-at-a-time lookups: each is its own batch, so each resolves its
  // root domain afresh while merges keep retiring shards (and, PerShard,
  // their domains) under it — the resolution must stay inside the
  // executor's bracket or ASan/TSan see the retired domain. The readers
  // outlast the writers until enough merges have run.
  constexpr std::uint64_t kMinMerges = 20;
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  std::atomic<std::uint64_t> lookups{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      for (Key i = r; !writersDone.load(std::memory_order_acquire) ||
                      (map.reshardStats().merges < kMinMerges &&
                       std::chrono::steady_clock::now() < deadline);
           ++i) {
        const Key k = kRange + i % kStable;
        const serve::Result res =
            tier.submit(serve::Request{serve::OpKind::kGet, k, 0}).get();
        ASSERT_TRUE(res.ok) << "stable key " << k << " missing";
        ASSERT_EQ(res.value, k);
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  writersDone.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  stopResharder.store(true, std::memory_order_release);
  resharder.join();
  tier.stop();
  EXPECT_GT(lookups.load(), 0u);

  std::vector<Key> expectedKeys;
  for (Key k = 0; k < kRange; ++k) {
    ASSERT_GE(net[k].load(), 0);
    ASSERT_LE(net[k].load(), 1);
    if (net[k].load() == 1) expectedKeys.push_back(k);
  }
  for (Key k = kRange; k < kRange + kStable; ++k) expectedKeys.push_back(k);
  map.quiesce();
  EXPECT_EQ(map.keysInOrder(), expectedKeys);
  EXPECT_EQ(map.sizeEstimate(),
            static_cast<std::int64_t>(expectedKeys.size()));
  const auto rs = map.reshardStats();
  EXPECT_GT(rs.splits + rs.merges, 0u) << "the race never actually ran";
  EXPECT_GT(tier.stats().batchTxs, 0u);
}

// The metrics registration exports the tier's counters and histograms
// through the shared registry like every other subsystem; the counters
// must reflect completed traffic.
TEST(ServingTest, RegisterMetricsExportsCountersAndHistograms) {
  shard::MaintenanceScheduler scheduler;
  shard::ShardedMapConfig cfg;
  cfg.shards = 1;
  cfg.scheduler = &scheduler;
  shard::ShardedMap map(cfg);
  serve::ServingTier tier(map);

  sftree::obs::MetricsRegistry reg;
  auto registration = tier.registerMetrics(reg, "serve");

  std::vector<serve::Future> futs;
  for (Key k = 0; k < 64; ++k) {
    futs.push_back(tier.submit({serve::OpKind::kInsert, k, k}));
  }
  for (auto& f : futs) EXPECT_FALSE(f.get().rejected);

  // The text exporter pads the name column; match name and value loosely.
  const std::string text = reg.renderText();
  const auto counterIs = [&text](const std::string& name,
                                 const std::string& value) {
    const auto pos = text.find(name);
    if (pos == std::string::npos) return false;
    const auto eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    return line.size() >= value.size() &&
           line.compare(line.size() - value.size(), value.size(), value) == 0;
  };
  EXPECT_TRUE(counterIs("serve.submitted", "64")) << text;
  EXPECT_TRUE(counterIs("serve.completed", "64")) << text;
  EXPECT_NE(text.find("serve.latency_update_ns.count"), std::string::npos);
  tier.stop();
}

}  // namespace
