// Slab arena (src/mem/arena.hpp): block recycling, header-routed recycle
// from foreign threads, reuse of blocks freed on another thread (bounded
// footprint), concurrent allocate/recycle stress, and the integration with
// the quiescence GC — recycled nodes must never be handed out while a
// pre-retirement reader could still dereference them (no ABA on recycled
// nodes; the ThreadSanitizer CI job runs this suite too).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "mem/arena.hpp"
#include "trees/sftree.hpp"

namespace mem = sftree::mem;
namespace trees = sftree::trees;

namespace {

struct TestNode {
  std::uint64_t a;
  std::uint64_t b;
  explicit TestNode(std::uint64_t v) : a(v), b(~v) {}
};

TEST(SlabArenaTest, AllocateRecycleReuse) {
  mem::SlabArena arena(sizeof(TestNode));
  EXPECT_GE(arena.strideBytes(), sizeof(TestNode));
  EXPECT_EQ(arena.strideBytes() % mem::SlabArena::kBlockAlign, 0u);

  void* p1 = arena.allocate();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p1) %
                mem::SlabArena::kBlockAlign,
            0u);
  mem::SlabArena::recycle(p1);
  // The freed block is on this thread's free-list shard: the next
  // allocation from the same thread reuses it.
  void* p2 = arena.allocate();
  EXPECT_EQ(p1, p2);
  mem::SlabArena::recycle(p2);
  EXPECT_EQ(arena.liveBlocks(), 0);
}

TEST(SlabArenaTest, BlocksAreDistinctAndAligned) {
  mem::SlabArena arena(24);
  std::set<void*> seen;
  std::vector<void*> blocks;
  constexpr int kBlocks = 40'000;
  for (int i = 0; i < kBlocks; ++i) {
    void* p = arena.allocate();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                  mem::SlabArena::kBlockAlign,
              0u);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate live block";
    blocks.push_back(p);
  }
  EXPECT_EQ(arena.liveBlocks(), kBlocks);
  for (void* p : blocks) mem::SlabArena::recycle(p);
  EXPECT_EQ(arena.liveBlocks(), 0);
  // 40 slabs: more than one run's worth.
  EXPECT_GT(arena.slabCount(),
            mem::SlabArena::kRunBytes / mem::SlabArena::kSlabBytes);
}

TEST(SlabArenaTest, RecycleRoutesToOwningArenaFromForeignThread) {
  mem::SlabArena a1(sizeof(TestNode));
  mem::SlabArena a2(sizeof(TestNode));
  void* p1 = a1.allocate();
  void* p2 = a2.allocate();
  // Recycle on a different thread than the allocator: the slab header must
  // route each block back to its own arena.
  std::thread t([&] {
    mem::SlabArena::recycle(p1);
    mem::SlabArena::recycle(p2);
  });
  t.join();
  EXPECT_EQ(a1.liveBlocks(), 0);
  EXPECT_EQ(a2.liveBlocks(), 0);
  EXPECT_EQ(a1.allocated(), 1u);
  EXPECT_EQ(a2.allocated(), 1u);
}

TEST(SlabArenaTest, NodeArenaConstructsAndDestroys) {
  mem::NodeArena<TestNode> arena;
  TestNode* n = arena.create(std::uint64_t{42});
  EXPECT_EQ(n->a, 42u);
  EXPECT_EQ(n->b, ~std::uint64_t{42});
  // destroy() is a plain function pointer compatible with the limbo-list
  // deleter signature.
  void (*deleter)(void*) = &mem::NodeArena<TestNode>::destroy;
  deleter(n);
  EXPECT_EQ(arena.raw().liveBlocks(), 0);
}

// The paper's split of work: the maintenance thread frees nearly every node
// the application threads allocate. Each round one thread allocates and
// another recycles; the allocating thread must reuse the other thread's
// frees instead of carving new slabs, so the footprint stops growing after
// the first round (each round would otherwise carve about 8 more slabs).
TEST(SlabArenaTest, CrossThreadReuseBoundsFootprint) {
  mem::SlabArena arena(128);
  constexpr int kRounds = 64;
  constexpr int kBlocks = 4096;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<void*> handoff;
  bool done = false;
  std::thread recycler([&] {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      cv.wait(lk, [&] { return !handoff.empty() || done; });
      if (handoff.empty()) return;
      for (void* p : handoff) mem::SlabArena::recycle(p);
      handoff.clear();
      cv.notify_all();
    }
  });
  std::size_t slabsAfterFirst = 0;
  for (int r = 0; r < kRounds; ++r) {
    std::vector<void*> blocks(kBlocks);
    for (void*& p : blocks) p = arena.allocate();
    {
      std::unique_lock<std::mutex> lk(mu);
      handoff = std::move(blocks);
      cv.notify_all();
      cv.wait(lk, [&] { return handoff.empty(); });
    }
    if (r == 0) slabsAfterFirst = arena.slabCount();
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    done = true;
  }
  cv.notify_all();
  recycler.join();
  EXPECT_EQ(arena.liveBlocks(), 0);
  EXPECT_GE(slabsAfterFirst, kBlocks * 128 / mem::SlabArena::kSlabBytes);
  EXPECT_LE(arena.slabCount(), slabsAfterFirst + 2)
      << "blocks freed on the recycler thread were not reused";
}

// Mixed threads allocate and recycle their own blocks; producer threads only
// allocate and hand their blocks to consumer threads, which only recycle —
// so producers keep taking over the consumers' lists while the consumers
// push onto them.
TEST(SlabArenaTest, ConcurrentAllocateRecycleStress) {
  mem::SlabArena arena(sizeof(TestNode));
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  constexpr int kPairs = 2;
  constexpr int kPairBlocks = 40000;
  constexpr std::size_t kBatch = 256;
  struct Handoff {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::vector<void*>> batches;
    bool done = false;
  };
  Handoff pairs[kPairs];
  std::vector<std::thread> threads;
  for (int t = 0; t < kPairs; ++t) {
    Handoff& h = pairs[t];
    threads.emplace_back([&arena, &h, t] {
      std::vector<void*> batch;
      for (int i = 0; i < kPairBlocks; ++i) {
        const auto v = static_cast<std::uint64_t>(i) * (t + 1);
        batch.push_back(new (arena.allocate()) TestNode(v));
        if (batch.size() == kBatch || i + 1 == kPairBlocks) {
          std::lock_guard<std::mutex> lk(h.mu);
          h.batches.push_back(std::move(batch));
          batch.clear();
          h.cv.notify_one();
        }
      }
      std::lock_guard<std::mutex> lk(h.mu);
      h.done = true;
      h.cv.notify_one();
    });
    threads.emplace_back([&h] {
      for (;;) {
        std::vector<std::vector<void*>> mine;
        {
          std::unique_lock<std::mutex> lk(h.mu);
          h.cv.wait(lk, [&] { return !h.batches.empty() || h.done; });
          if (h.batches.empty()) return;
          mine.swap(h.batches);
        }
        for (const auto& batch : mine) {
          for (void* p : batch) {
            auto* n = static_cast<TestNode*>(p);
            EXPECT_EQ(n->b, ~n->a);  // contents never trampled while live
            n->~TestNode();
            mem::SlabArena::recycle(n);
          }
        }
      }
    });
  }
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena, t] {
      std::vector<void*> mine;
      std::uint64_t seed = 0x9E3779B97F4A7C15ULL * (t + 1);
      for (int i = 0; i < kIters; ++i) {
        seed ^= seed >> 12;
        seed ^= seed << 25;
        seed ^= seed >> 27;
        if (mine.size() < 64 && (seed & 1) != 0) {
          auto* n = new (arena.allocate()) TestNode(seed);
          mine.push_back(n);
        } else if (!mine.empty()) {
          auto* n = static_cast<TestNode*>(mine.back());
          mine.pop_back();
          EXPECT_EQ(n->b, ~n->a);  // contents never trampled while live
          n->~TestNode();
          mem::SlabArena::recycle(n);
        }
      }
      for (void* p : mine) {
        static_cast<TestNode*>(p)->~TestNode();
        mem::SlabArena::recycle(p);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(arena.liveBlocks(), 0);
  EXPECT_EQ(arena.allocated(), arena.recycled());
}

// Recycle-under-GC stress: concurrent inserts/erases churn nodes through
// the limbo list (retire -> quiesce -> recycle) while readers traverse.
// A recycled node handed out too early would surface as a torn traversal,
// a wrong countRange snapshot, or a TSan race; the tree invariants and the
// arena counters must line up afterwards.
TEST(ArenaGcStressTest, RecycledNodesRespectQuiescence) {
  for (const auto variant :
       {trees::OpsVariant::Portable, trees::OpsVariant::Optimized}) {
    SCOPED_TRACE(variant == trees::OpsVariant::Portable ? "Portable"
                                                        : "Optimized");
    trees::SFTreeConfig cfg;
    cfg.ops = variant;
    trees::SFTree tree(cfg);  // dedicated maintenance thread running

    constexpr sftree::Key kRange = 2048;
    for (sftree::Key k = 0; k < kRange; k += 2) tree.insert(k, k);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> readerOps{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
      workers.emplace_back([&tree, t] {
        std::uint64_t seed = 0xDEADBEEF + t;
        for (int i = 0; i < 30000; ++i) {
          seed ^= seed >> 12;
          seed ^= seed << 25;
          seed ^= seed >> 27;
          const sftree::Key k = static_cast<sftree::Key>(seed % kRange);
          if ((seed & 1) != 0) {
            tree.insert(k, k);
          } else {
            tree.erase(k);
          }
        }
      });
    }
    std::thread reader([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (sftree::Key k = 0; k < kRange; k += 97) {
          const auto v = tree.get(k);
          if (v) {
            // Values are always written equal to their key: a recycled
            // node observed mid-traversal would break this.
            ASSERT_EQ(*v, k);
          }
        }
        readerOps.fetch_add(1);
      }
    });
    for (auto& w : workers) w.join();
    stop.store(true);
    reader.join();
    EXPECT_GT(readerOps.load(), 0u);

    tree.stopMaintenance();
    tree.quiesceNow();
    // Every key still present maps to itself; tree is structurally sound.
    const auto keys = tree.keysInOrder();
    for (const auto k : keys) {
      EXPECT_EQ(tree.get(k), std::optional<sftree::Value>(k));
    }
  }
}

}  // namespace
