// Shared maintenance scheduler: N trees multiplexed onto K worker threads.
// Covers quiescing real trees through the pool, register/unregister under
// races, pause semantics, backoff/work-signal accounting and stats
// consistency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "shard/maintenance_scheduler.hpp"
#include "trees/map_interface.hpp"
#include "trees/sftree.hpp"
#include "trees/tree_checks.hpp"

namespace shard = sftree::shard;
namespace trees = sftree::trees;
using sftree::Key;

namespace {

trees::SFTreeConfig externallyMaintained() {
  trees::SFTreeConfig cfg;
  cfg.startMaintenance = false;
  return cfg;
}

void waitFor(const std::function<bool()>& cond, int timeoutMs = 10'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeoutMs);
  while (!cond()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "condition not reached before timeout";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// N trees x K workers (K < N): sequential fills degenerate every tree into
// a list; the shared pool must restructure all of them to logarithmic
// height without any dedicated per-tree thread.
TEST(MaintenanceSchedulerTest, FewWorkersQuiesceManyTrees) {
  constexpr int kTrees = 4;
  constexpr Key kKeys = 512;

  shard::MaintenanceSchedulerConfig cfg;
  cfg.workers = 2;
  shard::MaintenanceScheduler scheduler(cfg);

  std::vector<std::unique_ptr<trees::SFTree>> forest;
  std::vector<shard::MaintenanceScheduler::TreeHandle> handles;
  for (int i = 0; i < kTrees; ++i) {
    forest.push_back(
        std::make_unique<trees::SFTree>(externallyMaintained()));
    trees::SFTree* tree = forest.back().get();
    handles.push_back(scheduler.registerTree(
        "tree" + std::to_string(i),
        [tree](const std::atomic<bool>* cancel) {
          return tree->runMaintenancePass(cancel);
        },
        [tree] { return tree->updateTicks(); }));
  }
  ASSERT_EQ(scheduler.registeredCount(), static_cast<std::size_t>(kTrees));

  // Ascending inserts: without restructuring each tree is a 512-long list.
  for (auto& tree : forest) {
    for (Key k = 0; k < kKeys; ++k) tree->insert(k, k);
  }

  // The scheduler (not the caller) must bring every tree near log height.
  // height() is a quiesced-only walk, so pause the tree's entry around
  // each probe (in-flight passes drain before pause() returns).
  for (int i = 0; i < kTrees; ++i) {
    trees::SFTree* t = forest[i].get();
    const auto h = handles[i];
    waitFor([&scheduler, t, h] {
      scheduler.pause(h);
      const int height = t->height();
      scheduler.resume(h);
      return height <= 18;  // ~2 * log2(512)
    });
  }

  // Pause scheduling per tree, then verify invariants on a quiesced tree.
  for (int i = 0; i < kTrees; ++i) {
    scheduler.pause(handles[i]);
    auto res = trees::checkSFTree(*forest[i]);
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_EQ(forest[i]->abstractSize(), static_cast<std::size_t>(kKeys));
    scheduler.resume(handles[i]);
  }

  const auto stats = scheduler.stats();
  EXPECT_GT(stats.passes, 0u);
  EXPECT_GT(stats.activePasses, 0u);
  EXPECT_LE(stats.activePasses, stats.passes);

  for (const auto h : handles) scheduler.unregisterTree(h);
  EXPECT_EQ(scheduler.registeredCount(), 0u);
}

// unregisterTree must block until any in-flight pass on that tree is done:
// after it returns, destroying the tree is safe even while other trees keep
// being maintained.
TEST(MaintenanceSchedulerTest, UnregisterRacesWithRunningPasses) {
  shard::MaintenanceSchedulerConfig cfg;
  cfg.workers = 2;
  shard::MaintenanceScheduler scheduler(cfg);

  constexpr int kRounds = 40;
  std::atomic<int> inPass{0};
  std::atomic<bool> sawOverlapAfterUnregister{false};

  for (int round = 0; round < kRounds; ++round) {
    auto alive = std::make_shared<std::atomic<bool>>(true);
    const auto h = scheduler.registerTree(
        "victim",
        [alive, &inPass, &sawOverlapAfterUnregister](
            const std::atomic<bool>*) {
          inPass.fetch_add(1);
          if (!alive->load()) sawOverlapAfterUnregister.store(true);
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          inPass.fetch_sub(1);
          return true;  // always "hot" so the pool re-runs it constantly
        });
    // Let the workers pick it up, then unregister mid-flight.
    std::this_thread::sleep_for(std::chrono::microseconds(50 * (round % 5)));
    scheduler.unregisterTree(h);
    alive->store(false);  // from here on, a running pass would be a bug
  }
  EXPECT_FALSE(sawOverlapAfterUnregister.load());
  EXPECT_EQ(scheduler.registeredCount(), 0u);
}

// Concurrent register/unregister from several threads while the pool runs:
// no crashes, no lost entries, all handles still valid to unregister.
TEST(MaintenanceSchedulerTest, ConcurrentRegistrationChurn) {
  shard::MaintenanceSchedulerConfig cfg;
  cfg.workers = 2;
  shard::MaintenanceScheduler scheduler(cfg);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<std::uint64_t> totalPasses{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto h = scheduler.registerTree(
            "churn", [&totalPasses](const std::atomic<bool>*) {
              totalPasses.fetch_add(1);
              return false;  // idle: exercises the backoff path too
            });
        std::this_thread::sleep_for(std::chrono::microseconds(i % 7));
        scheduler.unregisterTree(h);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(scheduler.registeredCount(), 0u);
  // Stats survive unregistration (global counters, not per-entry).
  EXPECT_EQ(scheduler.stats().passes, totalPasses.load());
}

// Idle trees back off exponentially; a hot tree keeps receiving passes. The
// work-signal callback must cut a backed-off tree's wait short.
TEST(MaintenanceSchedulerTest, BackoffSkipsIdleTreesAndSignalRevives) {
  shard::MaintenanceSchedulerConfig cfg;
  cfg.workers = 1;
  cfg.basePause = std::chrono::microseconds(200);
  cfg.maxPause = std::chrono::milliseconds(50);
  shard::MaintenanceScheduler scheduler(cfg);

  std::atomic<std::uint64_t> idlePasses{0};
  std::atomic<std::uint64_t> hotPasses{0};
  std::atomic<std::uint64_t> signal{0};

  const auto idleH = scheduler.registerTree(
      "idle",
      [&idlePasses](const std::atomic<bool>*) {
        idlePasses.fetch_add(1);
        return false;
      },
      [&signal] { return signal.load(); });
  const auto hotH = scheduler.registerTree(
      "hot", [&hotPasses](const std::atomic<bool>*) {
        hotPasses.fetch_add(1);
        // Tiny sleep so the single worker is not 100% busy on this entry.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        return true;
      });

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto idleBefore = idlePasses.load();
  const auto hotBefore = hotPasses.load();
  EXPECT_GT(hotBefore, idleBefore * 4)
      << "hot tree should receive far more passes than a backed-off one";

  // A work signal on the idle tree must revive it promptly.
  signal.fetch_add(1);
  waitFor([&] { return idlePasses.load() > idleBefore; }, 2'000);

  const auto stats = scheduler.stats();
  EXPECT_GT(stats.backoffSkips, 0u);

  // Per-tree stats line up with the callbacks' own counts.
  for (const auto& t : scheduler.treeStats()) {
    if (t.name == "idle") {
      EXPECT_EQ(t.passes, idlePasses.load());
      EXPECT_EQ(t.activePasses, 0u);
      EXPECT_GT(t.idleStreak, 0);
    } else {
      EXPECT_EQ(t.name, "hot");
      EXPECT_EQ(t.passes, t.activePasses);
    }
  }

  scheduler.unregisterTree(idleH);
  scheduler.unregisterTree(hotH);
}

// pause() excludes a tree from scheduling (and waits out an in-flight
// pass); resume() brings it back.
TEST(MaintenanceSchedulerTest, PauseStopsSchedulingUntilResume) {
  shard::MaintenanceSchedulerConfig cfg;
  cfg.workers = 2;
  shard::MaintenanceScheduler scheduler(cfg);

  std::atomic<std::uint64_t> passes{0};
  const auto h = scheduler.registerTree(
      "pausable", [&passes](const std::atomic<bool>*) {
        passes.fetch_add(1);
        return true;  // hot, so scheduling gaps are visible
      });
  waitFor([&] { return passes.load() > 0; });

  scheduler.pause(h);
  const auto frozen = passes.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(passes.load(), frozen) << "paused tree must receive no passes";

  scheduler.resume(h);
  waitFor([&] { return passes.load() > frozen; });

  // Pauses nest: two concurrent pausers (e.g. two threads doing quiesced
  // walks) must both resume before scheduling restarts.
  scheduler.pause(h);
  scheduler.pause(h);
  scheduler.resume(h);  // one pauser done, the other still active
  const auto stillFrozen = passes.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(passes.load(), stillFrozen)
      << "resume by one pauser must not unpause the other";
  scheduler.resume(h);

  waitFor([&] { return passes.load() > stillFrozen; });
  scheduler.unregisterTree(h);
}

// Destroying the scheduler with registered entries must stop cleanly and
// hand the cancel flag to in-flight passes.
TEST(MaintenanceSchedulerTest, ShutdownCancelsInFlightPass) {
  std::atomic<bool> started{false};
  std::atomic<bool> sawCancel{false};
  {
    shard::MaintenanceSchedulerConfig cfg;
    cfg.workers = 1;
    shard::MaintenanceScheduler scheduler(cfg);
    scheduler.registerTree("slow", [&started, &sawCancel](
                                       const std::atomic<bool>* cancel) {
      started.store(true);
      // Simulate a long pass over a huge tree: poll the cancel flag the way
      // SFTree::maintainSubtree does.
      for (int i = 0; i < 100'000; ++i) {
        if (cancel != nullptr && cancel->load()) {
          sawCancel.store(true);
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(10));
      }
      return false;
    });
    // Wait for the pass itself, not a fixed time: on a loaded machine the
    // worker may not have picked the tree yet after a few milliseconds.
    waitFor([&] { return started.load(); });
    // Destructor runs here while the pass is mid-flight.
  }
  EXPECT_TRUE(sawCancel.load());
}

// Load-driven priority: among simultaneously eligible trees, the worker
// must pick the one reporting the highest pending load (the violation-queue
// depth in production) ahead of its round-robin position.
TEST(MaintenanceSchedulerTest, LoadSteersWorkersToTheHottestTree) {
  shard::MaintenanceSchedulerConfig cfg;
  cfg.workers = 1;
  cfg.basePause = std::chrono::milliseconds(50);  // signals drive eligibility
  shard::MaintenanceScheduler scheduler(cfg);

  std::atomic<std::uint64_t> coldPasses{0};
  std::atomic<std::uint64_t> hotPasses{0};
  // Ever-changing signals keep both entries eligible at every scan, so each
  // pick is a genuine load comparison.
  std::atomic<std::uint64_t> tick{0};
  const auto cold = scheduler.registerTree(
      "cold",
      [&](const std::atomic<bool>*) {
        coldPasses.fetch_add(1);
        return false;
      },
      [&] { return tick.fetch_add(1); });
  const auto hot = scheduler.registerTree(
      "hot",
      [&](const std::atomic<bool>*) {
        hotPasses.fetch_add(1);
        return false;
      },
      [&] { return tick.fetch_add(1); }, [] { return std::uint64_t{64}; });

  waitFor([&] { return hotPasses.load() >= 20; });
  // The hot tree is scanned after the cold one whenever the rotation starts
  // at "cold", so every such pick must have been a load override.
  waitFor([&] { return scheduler.stats().priorityPicks > 0; });
  // Anti-starvation: the hot tree stays eligible forever (its signal keeps
  // changing), yet the overtake cap must still force the cold tree through.
  waitFor([&] { return coldPasses.load() > 0; });
  const auto trees = scheduler.treeStats();
  for (const auto& t : trees) {
    if (t.name == "hot") EXPECT_EQ(t.lastLoad, 64u);
    if (t.name == "cold") EXPECT_EQ(t.lastLoad, 0u);
  }
  scheduler.unregisterTree(hot);
  scheduler.unregisterTree(cold);
}

// A makeMap tree attached to a shared scheduler registers its
// violation-queue depth as the load gauge. A blocker entry occupies the
// single worker while the insert burst lands, then overtakes the tree by
// load at the next scan and blocks again: exactly one scan sees the tree's
// queue, and the tree has not drained it before the stats are read.
TEST(MaintenanceSchedulerTest, MakeMapTreeReportsQueueDepthAsLoad) {
  shard::MaintenanceSchedulerConfig cfg;
  cfg.workers = 1;
  shard::MaintenanceScheduler scheduler(cfg);

  std::atomic<int> started{0};
  std::atomic<int> released{0};
  const auto blocker = scheduler.registerTree(
      "blocker",
      [&](const std::atomic<bool>*) {
        const int pass = started.fetch_add(1) + 1;
        while (pass <= 2 && released.load() < pass) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        return true;
      },
      nullptr, [] { return std::numeric_limits<std::uint64_t>::max(); });
  waitFor([&] { return started.load() == 1; });

  trees::MapOptions opt;
  opt.scheduler = &scheduler;
  opt.name = "map";
  auto map = trees::makeMap(trees::MapKind::OptSFTree,
                            sftree::stm::TxKind::Normal, opt);
  for (Key k = 0; k < 256; ++k) map->insert(k, k);

  released.store(1);
  waitFor([&] { return started.load() == 2; });
  for (const auto& t : scheduler.treeStats()) {
    if (t.name == "map") {
      EXPECT_GT(t.lastLoad, 0u);
      EXPECT_EQ(t.passes, 0u);
    }
  }
  released.store(2);
  map.reset();
  scheduler.unregisterTree(blocker);
  EXPECT_EQ(scheduler.registeredCount(), 0u);
}

}  // namespace
