// Speculation-friendly skip list (the paper's §7 future-work direction):
// sequential semantics, decoupled deletion behaviour, concurrent
// linearizability, maintenance unlinking and reclamation.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>

#include "bench_core/rng.hpp"
#include "structures/sf_skiplist.hpp"

namespace stm = sftree::stm;
using sftree::Key;
using sftree::bench::Rng;
using sftree::structures::SFSkipList;

namespace {

SFSkipList::Config manualConfig() {
  SFSkipList::Config cfg;
  cfg.startMaintenance = false;
  return cfg;
}

TEST(SkipListTest, BasicSetSemantics) {
  SFSkipList sl(manualConfig());
  EXPECT_FALSE(sl.contains(5));
  EXPECT_TRUE(sl.insert(5, 50));
  EXPECT_FALSE(sl.insert(5, 51));
  EXPECT_EQ(sl.get(5), 50);
  EXPECT_TRUE(sl.erase(5));
  EXPECT_FALSE(sl.erase(5));
  EXPECT_FALSE(sl.contains(5));
}

TEST(SkipListTest, KeysComeOutSorted) {
  SFSkipList sl(manualConfig());
  for (Key k : {9, 1, 5, 3, 7}) sl.insert(k, k);
  EXPECT_EQ(sl.keysInOrder(), (std::vector<Key>{1, 3, 5, 7, 9}));
}

TEST(SkipListTest, EraseIsLogicalUntilMaintenanceRuns) {
  SFSkipList sl(manualConfig());
  for (Key k = 0; k < 32; ++k) sl.insert(k, k);
  for (Key k = 0; k < 32; k += 2) sl.erase(k);
  // Decoupling: abstraction shrinks, structure does not.
  EXPECT_EQ(sl.abstractSize(), 16u);
  EXPECT_EQ(sl.structuralSize(), 32u);
  sl.quiesceNow();
  EXPECT_EQ(sl.structuralSize(), 16u);
  EXPECT_EQ(sl.unlinksForTest(), 16u);
  EXPECT_EQ(sl.limboPending(), 0u);  // quiesced: everything reclaimed
}

TEST(SkipListTest, ReviveDeletedTower) {
  SFSkipList sl(manualConfig());
  sl.insert(7, 70);
  sl.erase(7);
  EXPECT_TRUE(sl.insert(7, 71));  // revives in place
  EXPECT_EQ(sl.get(7), 71);
  EXPECT_EQ(sl.structuralSize(), 1u);
}

TEST(SkipListTest, UnlinkSkippedWhenRevivedConcurrently) {
  SFSkipList sl(manualConfig());
  sl.insert(7, 70);
  sl.erase(7);
  sl.insert(7, 71);  // revive before maintenance ever ran
  sl.quiesceNow();
  EXPECT_TRUE(sl.contains(7));
  EXPECT_EQ(sl.unlinksForTest(), 0u);
}

TEST(SkipListTest, SequentialFuzzAgainstStdMap) {
  SFSkipList sl(manualConfig());
  std::map<Key, sftree::Value> reference;
  Rng rng(2024);
  for (int i = 0; i < 6000; ++i) {
    const Key k = static_cast<Key>(rng.nextBounded(256));
    switch (rng.nextBounded(4)) {
      case 0: {
        const bool expect = reference.emplace(k, k).second;
        ASSERT_EQ(sl.insert(k, k), expect) << "op " << i;
        break;
      }
      case 1: {
        const bool expect = reference.erase(k) > 0;
        ASSERT_EQ(sl.erase(k), expect) << "op " << i;
        break;
      }
      default:
        ASSERT_EQ(sl.contains(k), reference.count(k) > 0) << "op " << i;
        break;
    }
    if (i % 1500 == 1499) sl.quiesceNow();
  }
  sl.quiesceNow();
  std::vector<Key> expectKeys;
  for (const auto& [k, v] : reference) expectKeys.push_back(k);
  EXPECT_EQ(sl.keysInOrder(), expectKeys);
}

TEST(SkipListTest, ComposesWithTransactions) {
  SFSkipList a(manualConfig());
  SFSkipList b(manualConfig());
  a.insert(1, 10);
  // Atomic transfer between two skip lists.
  stm::atomically([&](stm::Tx& tx) {
    const auto v = a.getTx(tx, 1);
    ASSERT_TRUE(v.has_value());
    a.eraseTx(tx, 1);
    b.insertTx(tx, 1, *v);
  });
  EXPECT_FALSE(a.contains(1));
  EXPECT_EQ(b.get(1), 10);
}

TEST(SkipListTest, PerKeyLinearizabilityUnderChurn) {
  SFSkipList sl;  // background maintenance ON
  constexpr int kThreads = 4;
  constexpr Key kRange = 64;
  std::vector<std::atomic<std::int64_t>> inserted(kRange);
  std::vector<std::atomic<std::int64_t>> removed(kRange);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(42 + t);
      for (int i = 0; i < 6000; ++i) {
        const Key k = static_cast<Key>(rng.nextBounded(kRange));
        switch (rng.nextBounded(3)) {
          case 0:
            if (sl.insert(k, k)) inserted[k].fetch_add(1);
            break;
          case 1:
            if (sl.erase(k)) removed[k].fetch_add(1);
            break;
          default:
            sl.contains(k);
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // The background driver, not quiesceNow, unlinks the erased towers.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sl.unlinksForTest() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(sl.unlinksForTest(), 0u);
  sl.stopMaintenance();
  sl.quiesceNow();
  for (Key k = 0; k < kRange; ++k) {
    const auto delta = inserted[k].load() - removed[k].load();
    ASSERT_GE(delta, 0) << "key " << k;
    ASSERT_LE(delta, 1) << "key " << k;
    EXPECT_EQ(sl.contains(k), delta == 1) << "key " << k;
  }
  // Structure reflects abstraction after quiescence (no tombstone buildup).
  EXPECT_EQ(sl.structuralSize(), sl.abstractSize());
}

TEST(SkipListTest, StableKeyVisibleThroughMaintenanceChurn) {
  SFSkipList sl;
  sl.insert(1'000'000, 1);
  std::atomic<bool> stop{false};
  std::atomic<int> misses{0};
  std::thread churn([&] {
    Rng rng(5);
    while (!stop.load(std::memory_order_acquire)) {
      const Key k = static_cast<Key>(rng.nextBounded(512));
      if (rng.nextBool()) {
        sl.insert(k, k);
      } else {
        sl.erase(k);
      }
    }
  });
  for (int i = 0; i < 20000; ++i) {
    if (!sl.contains(1'000'000)) misses.fetch_add(1);
  }
  stop.store(true, std::memory_order_release);
  churn.join();
  EXPECT_EQ(misses.load(), 0);
}

TEST(SkipListTest, TowersSpanMultipleLevels) {
  SFSkipList sl(manualConfig());
  for (Key k = 0; k < 2048; ++k) sl.insert(k, k);
  // With p=1/2 towers, lookups must behave logarithmically: spot-check via
  // the transactional read count of a contains.
  stm::defaultDomain().resetStats();
  auto& stats = stm::threadStats();
  stats.reset();
  stats.beginOp();
  sl.contains(1024);
  stats.endOp();
  // A linear scan would read ~1024 pointers; a healthy skip list far fewer.
  EXPECT_LT(stats.maxOpReads, 200u);
}

}  // namespace
