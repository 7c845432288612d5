// Quiescence-based reclamation tests (paper §3.4 protocol) against the one
// process-wide registry: slots, the nestable bracket, the non-blocking
// limbo list, the blocking synchronize(), and the checkpoint fence that
// parks map operations before they enter a bracket.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gc/limbo_list.hpp"
#include "gc/thread_registry.hpp"
#include "serve/serving.hpp"
#include "shard/sharded_map.hpp"
#include "stm/stm.hpp"

namespace gc = sftree::gc;
namespace shard = sftree::shard;
namespace serve = sftree::serve;
namespace stm = sftree::stm;

namespace {

using namespace std::chrono_literals;

gc::ThreadRegistry& reg() { return gc::ThreadRegistry::instance(); }

struct Tracked {
  static std::atomic<int> liveCount;
  Tracked() { liveCount.fetch_add(1); }
  ~Tracked() { liveCount.fetch_sub(1); }
  static void deleter(void* p) { delete static_cast<Tracked*>(p); }
};
std::atomic<int> Tracked::liveCount{0};

// Spins until `pred` holds or ~5 s elapse; returns the final value.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 5000 && !pred(); ++i) std::this_thread::sleep_for(1ms);
  return pred();
}

// --- slots -----------------------------------------------------------------

TEST(ThreadRegistryTest, SlotIsStablePerThread) {
  auto* s1 = &reg().currentSlot();
  { const gc::OpGuard g; }
  auto* s2 = &reg().currentSlot();
  EXPECT_EQ(s1, s2);
}

TEST(ThreadRegistryTest, DistinctThreadsGetDistinctSlots) {
  auto* mine = &reg().currentSlot();
  gc::ThreadRegistry::Slot* theirs = nullptr;
  std::thread t([&] { theirs = &reg().currentSlot(); });
  t.join();
  EXPECT_NE(mine, theirs);
}

TEST(ThreadRegistryTest, SlotsAreReusedAfterThreadExit) {
  (void)reg().currentSlot();
  std::thread t1([] { const gc::OpGuard g; });
  t1.join();
  const auto count = reg().slotCountForTest();
  std::thread t2([] { const gc::OpGuard g; });
  t2.join();
  EXPECT_EQ(reg().slotCountForTest(), count);
}

// --- the bracket -----------------------------------------------------------

TEST(OpGuardTest, BracketsPendingAndCounter) {
  auto& slot = reg().currentSlot();
  const auto before = slot.completed.load();
  {
    const gc::OpGuard g;
    EXPECT_TRUE(slot.pending.load());
    EXPECT_EQ(gc::bracketDepth(), 1);
  }
  EXPECT_FALSE(slot.pending.load());
  EXPECT_EQ(slot.completed.load(), before + 1);
  EXPECT_EQ(gc::bracketDepth(), 0);
}

TEST(OpGuardTest, NestedBracketsTouchTheSlotOnce) {
  auto& slot = reg().currentSlot();
  const auto before = slot.completed.load();
  {
    const gc::OpGuard outer;
    {
      const gc::OpGuard inner;
      EXPECT_EQ(gc::bracketDepth(), 2);
    }
    // Leaving the inner bracket neither completes nor clears the operation.
    EXPECT_TRUE(slot.pending.load());
    EXPECT_EQ(slot.completed.load(), before);
  }
  EXPECT_FALSE(slot.pending.load());
  EXPECT_EQ(slot.completed.load(), before + 1);
}

TEST(OpGuardTest, AtomicallyHoldsOneBracketAcrossNestingAndHooks) {
  auto& slot = reg().currentSlot();
  const auto before = slot.completed.load();
  bool pendingInHook = false;
  int depthInHook = 0;
  stm::atomically([&](stm::Tx& tx) {
    EXPECT_EQ(gc::bracketDepth(), 1);
    stm::atomically([&](stm::Tx&) { EXPECT_EQ(gc::bracketDepth(), 1); });
    tx.onCommit([&] {
      pendingInHook = slot.pending.load();
      depthInHook = gc::bracketDepth();
    });
  });
  EXPECT_TRUE(pendingInHook);  // commit hooks run inside the bracket
  EXPECT_EQ(depthInHook, 1);
  EXPECT_EQ(slot.completed.load(), before + 1);
}

TEST(ThreadRegistryTest, QuiescedWhenNothingPending) {
  const auto snap = reg().snapshot();
  EXPECT_TRUE(reg().quiescedSince(snap));
}

TEST(ThreadRegistryTest, PendingBracketBlocksQuiescence) {
  gc::ThreadRegistry::Snapshot snap;
  {
    const gc::OpGuard g;
    snap = reg().snapshot();
    EXPECT_FALSE(reg().quiescedSince(snap));
  }
  // Completing the operation unblocks collection.
  EXPECT_TRUE(reg().quiescedSince(snap));
}

TEST(ThreadRegistryTest, CounterAdvanceAloneIsEnough) {
  // The thread finished the snapshotted operation and immediately started
  // a new one: pending is true again but the counter advanced, so memory
  // unlinked before the snapshot is unreachable to it.
  gc::ThreadRegistry::Snapshot snap;
  { const gc::OpGuard g; snap = reg().snapshot(); }
  const gc::OpGuard next;
  EXPECT_TRUE(reg().currentSlot().pending.load());
  EXPECT_TRUE(reg().quiescedSince(snap));
}

// --- synchronize -----------------------------------------------------------

TEST(SynchronizeTest, WaitsForBracketsOpenAtTheCall) {
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> synced{false};
  std::thread holder([&] {
    const gc::OpGuard g;
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!entered.load()) std::this_thread::yield();
  std::thread syncer([&] {
    reg().synchronize();
    synced.store(true);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(synced.load()) << "synchronize() returned under a live bracket";
  release.store(true);
  holder.join();
  syncer.join();
  EXPECT_TRUE(synced.load());
}

// Two reclaimers synchronize concurrently while readers enter and leave
// brackets; each frees (poisons, then deletes) its own canary right after
// its synchronize() returns. A synchronize that returned early — e.g. one
// whose wait interleaved badly with the other's — shows up as a reader
// seeing the poison, or as a use-after-free under ASan.
TEST(SynchronizeTest, ConcurrentSynchronizersNeverFreeUnderAReader) {
  struct Canary {
    std::atomic<std::int64_t> value{42};
  };
  std::atomic<Canary*> shared[2] = {new Canary, new Canary};
  std::atomic<bool> stop{false};
  std::atomic<int> badReads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const gc::OpGuard g;
        for (auto& p : shared) {
          Canary* c = p.load(std::memory_order_acquire);
          if (c->value.load(std::memory_order_relaxed) != 42) {
            badReads.fetch_add(1);
          }
        }
      }
    });
  }
  std::vector<std::thread> reclaimers;
  for (int w = 0; w < 2; ++w) {
    reclaimers.emplace_back([&, w] {
      for (int i = 0; i < 2000; ++i) {
        Canary* old =
            shared[w].exchange(new Canary, std::memory_order_acq_rel);
        reg().synchronize();
        old->value.store(-1, std::memory_order_relaxed);  // poison
        delete old;
      }
    });
  }
  for (auto& t : reclaimers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  for (auto& p : shared) delete p.load();
  EXPECT_EQ(badReads.load(), 0);
}

// --- limbo list ------------------------------------------------------------

TEST(LimboListTest, CollectsAfterQuiescence) {
  gc::LimboList limbo;
  limbo.retire(new Tracked, &Tracked::deleter);
  limbo.retire(new Tracked, &Tracked::deleter);
  EXPECT_EQ(Tracked::liveCount.load(), 2);

  limbo.openEpoch();
  EXPECT_EQ(limbo.tryCollect(), 2u);
  EXPECT_EQ(Tracked::liveCount.load(), 0);
}

TEST(LimboListTest, DoesNotCollectWhileOperationPending) {
  gc::LimboList limbo;
  limbo.retire(new Tracked, &Tracked::deleter);
  {
    const gc::OpGuard g;
    limbo.openEpoch();
    EXPECT_EQ(limbo.tryCollect(), 0u);
    EXPECT_EQ(Tracked::liveCount.load(), 1);
  }
  EXPECT_EQ(limbo.tryCollect(), 1u);
  EXPECT_EQ(Tracked::liveCount.load(), 0);
}

TEST(LimboListTest, OnlyEpochPrefixIsCollected) {
  gc::LimboList limbo;
  limbo.retire(new Tracked, &Tracked::deleter);
  limbo.openEpoch();
  limbo.retire(new Tracked, &Tracked::deleter);  // after the epoch snapshot

  EXPECT_EQ(limbo.tryCollect(), 1u);
  EXPECT_EQ(Tracked::liveCount.load(), 1);
  EXPECT_EQ(limbo.pending(), 1u);

  limbo.openEpoch();
  EXPECT_EQ(limbo.tryCollect(), 1u);
  EXPECT_EQ(Tracked::liveCount.load(), 0);
}

TEST(LimboListTest, DestructorFreesEverything) {
  {
    gc::LimboList limbo;
    limbo.retire(new Tracked, &Tracked::deleter);
    limbo.retire(new Tracked, &Tracked::deleter);
  }
  EXPECT_EQ(Tracked::liveCount.load(), 0);
}

TEST(LimboListTest, CountersTrackRetireAndFree) {
  gc::LimboList limbo;
  for (int i = 0; i < 5; ++i) limbo.retire(new Tracked, &Tracked::deleter);
  limbo.openEpoch();
  limbo.tryCollect();
  EXPECT_EQ(limbo.retiredTotal(), 5u);
  EXPECT_EQ(limbo.freedTotal(), 5u);
  EXPECT_EQ(limbo.pending(), 0u);
}

// End-to-end shape: readers hold brackets while "traversing" retired nodes;
// the collector must never free a node while a bracket that could
// reference it is open.
TEST(LimboListTest, StressReadersNeverSeeFreedMemory) {
  gc::LimboList limbo;

  struct Node {
    std::atomic<std::int64_t> value{42};
  };
  std::atomic<Node*> shared{new Node};
  std::atomic<bool> stop{false};
  std::atomic<int> badReads{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const gc::OpGuard g;
      Node* n = shared.load(std::memory_order_acquire);
      // Between load and dereference the node may be retired but must not
      // be freed: the bracket keeps us in the epoch.
      if (n->value.load(std::memory_order_relaxed) != 42) {
        badReads.fetch_add(1);
      }
    }
  });

  for (int i = 0; i < 2000; ++i) {
    Node* fresh = new Node;
    Node* old = shared.exchange(fresh, std::memory_order_acq_rel);
    limbo.retire(old, [](void* p) {
      auto* node = static_cast<Node*>(p);
      node->value.store(-1, std::memory_order_relaxed);  // poison
      delete node;
    });
    limbo.openEpoch();
    while (limbo.tryCollect() == 0) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  delete shared.load();
  EXPECT_EQ(badReads.load(), 0);
}

// --- the checkpoint fence --------------------------------------------------

shard::ShardedMapConfig fenceMapConfig() {
  shard::ShardedMapConfig cfg;
  cfg.shards = 2;
  cfg.routingSlots = 8;
  cfg.tree.startMaintenance = false;
  return cfg;
}

TEST(OpFenceTest, DepthZeroOperationParksUntilTheFenceLifts) {
  shard::ShardedMap map(fenceMapConfig());
  ASSERT_TRUE(map.insert(1, 10));
  map.fencedOpsBegin();
  std::atomic<bool> done{false};
  std::thread op([&] {
    EXPECT_EQ(map.get(1), 10);
    done.store(true);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(done.load()) << "a new map operation ran under the fence";
  map.fencedOpsEnd();
  op.join();
  EXPECT_TRUE(done.load());
}

TEST(OpFenceTest, OperationsInsideABracketPass) {
  shard::ShardedMap map(fenceMapConfig());
  ASSERT_TRUE(map.insert(1, 10));
  map.fencedOpsBegin();
  std::atomic<int> done{0};
  std::thread inTx([&] {
    // A composable op inside its caller's transaction never parks.
    const auto v = stm::atomically(
        [&](stm::Tx& tx) { return map.getTx(tx, 1); });
    EXPECT_EQ(v, 10);
    done.fetch_add(1);
  });
  std::thread inBracket([&] {
    // Neither does a plain op nested in an already open bracket.
    const gc::OpGuard g;
    EXPECT_TRUE(map.contains(1));
    done.fetch_add(1);
  });
  EXPECT_TRUE(eventually([&] { return done.load() == 2; }));
  map.fencedOpsEnd();
  inTx.join();
  inBracket.join();
}

TEST(OpFenceTest, ServingBatchParksBeforeItsTransaction) {
  shard::ShardedMap map(fenceMapConfig());
  ASSERT_TRUE(map.insert(1, 10));
  serve::ServingTierConfig scfg;
  scfg.executors = 1;
  serve::ServingTier tier(map, scfg);
  map.fencedOpsBegin();
  serve::Future f = tier.submit(serve::Request{serve::OpKind::kGet, 1, 0});
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(f.ready()) << "a serving batch ran under the fence";
  map.fencedOpsEnd();
  const serve::Result r = f.get();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 10);
  tier.stop();
}

}  // namespace
