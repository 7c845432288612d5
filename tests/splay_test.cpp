// Access-frequency splaying (docs/splaying.md): deterministic convergence
// of hot keys toward the root, strict no-op behavior with the policy off,
// and the mutator-churn vs splay-promotion race (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "trees/sftree.hpp"
#include "trees/tree_checks.hpp"
#include "trees/violation_queue.hpp"

namespace trees = sftree::trees;
using sftree::Key;

namespace {

// Deterministic splay configuration: no maintenance thread (tests drive
// passes themselves), every lookup hit publishes a tick (sampleShift 0),
// and an hour-long decay half-life so wall-clock jitter cannot cool the
// hot set mid-test.
trees::SFTreeConfig splayCfg(trees::SplayPolicy policy) {
  trees::SFTreeConfig cfg;
  cfg.ops = trees::OpsVariant::Optimized;
  cfg.startMaintenance = false;
  cfg.splay = policy;
  if (policy != trees::SplayPolicy::Off) {
    trees::SplayParams p;
    p.sampleShift = 0;
    p.minHeat = 4;
    p.promoteNum = 2;
    p.promoteDen = 1;
    p.minDepth = 1;
    p.slack = 32;
    p.rotationBudget = 256;
    p.decayHalfLifeNs = 3'600'000'000'000ULL;  // 1 h: no decay in-test
    cfg.splayParamsOverride = p;
  }
  return cfg;
}

int drainToFixpoint(trees::SFTree& tree, int maxPasses = 10'000) {
  for (int pass = 1; pass <= maxPasses; ++pass) {
    const bool didWork = tree.runMaintenancePass();
    if (!didWork && tree.violationQueueDepth() == 0) return pass;
  }
  ADD_FAILURE() << "maintenance did not reach a fixpoint";
  return maxPasses;
}

// Root-path length a lookup for k traverses (quiesced tree).
int depthOf(trees::SFTree& tree, Key k) {
  const trees::SFNode* n = tree.rootForTest()->left.loadRelaxed();
  int d = 1;
  while (n != nullptr && n->key != k) {
    n = (k < n->key) ? n->left.loadRelaxed() : n->right.loadRelaxed();
    ++d;
  }
  return d;
}

}  // namespace

// Hot keys must converge measurably shallower than they started while the
// tree stays a valid BST with the exact same key set — under churn, so the
// promotions race logically-deleted nodes and physical removals through the
// same queue drain.
TEST(SplayTest, HotKeysConvergeShallowerUnderChurn) {
  trees::SFTree tree(splayCfg(trees::SplayPolicy::Aggressive));
  constexpr Key kRange = 4096;
  std::mt19937_64 rng(17);
  std::set<Key> expect;
  for (int i = 0; i < 4096; ++i) {
    const Key k = static_cast<Key>(rng() % kRange);
    if (tree.insert(k, k)) expect.insert(k);
  }
  drainToFixpoint(tree);

  // A scattered hot set, measured before any access traffic.
  const std::vector<Key> hot = {3, 907, 1511, 2203, 3671};
  int beforeSum = 0;
  for (const Key k : hot) {
    ASSERT_TRUE(expect.count(k) != 0 || tree.insert(k, k));
    expect.insert(k);
    beforeSum += depthOf(tree, k);
  }

  // Interleave concentrated lookups with cold-key churn and drains, the
  // way a real workload feeds the queue a mix of kinds.
  for (int round = 0; round < 40; ++round) {
    for (const Key k : hot) {
      for (int i = 0; i < 8; ++i) ASSERT_TRUE(tree.contains(k));
    }
    for (int i = 0; i < 32; ++i) {
      const Key k = static_cast<Key>(rng() % kRange);
      if (std::find(hot.begin(), hot.end(), k) != hot.end()) continue;
      if ((rng() & 1) != 0) {
        if (tree.insert(k, k)) expect.insert(k);
      } else {
        if (tree.erase(k)) expect.erase(k);
      }
    }
    tree.runMaintenancePass();
  }
  drainToFixpoint(tree);

  const auto ms = tree.maintenanceStats();
  EXPECT_GT(ms.splaySteps, 0u);
  EXPECT_GT(ms.accessTicksConsumed, 0u);

  int afterSum = 0;
  int afterMax = 0;
  for (const Key k : hot) {
    const int d = depthOf(tree, k);
    afterSum += d;
    afterMax = std::max(afterMax, d);
  }
  // The whole hot set ends in the near-root region: strictly shallower in
  // aggregate, and no member deeper than a small constant — far above the
  // ~log2(4096) ≈ 12 levels a balanced placement would give it.
  EXPECT_LT(afterSum, beforeSum);
  EXPECT_LE(afterMax, 8) << "hot keys did not converge toward the root";

  const auto check = trees::checkSFTree(tree);
  EXPECT_TRUE(check.ok) << check.error;
  const auto keys = tree.keysInOrder();
  EXPECT_TRUE(std::equal(keys.begin(), keys.end(), expect.begin(),
                         expect.end()))
      << "key set changed under splaying";
}

// SplayPolicy::Off must be a strict no-op: lookups publish nothing, drains
// consume nothing, and the splay counters stay zero — the read path of a
// policy-off tree is byte-for-byte the pre-splay read path.
TEST(SplayTest, PolicyOffPublishesAndPromotesNothing) {
  trees::SFTree tree(splayCfg(trees::SplayPolicy::Off));
  for (Key k = 0; k < 512; ++k) tree.insert(k, k);
  drainToFixpoint(tree);
  const auto before = tree.maintenanceStats();

  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) EXPECT_TRUE(tree.contains(7));
  }
  EXPECT_EQ(tree.violationQueueDepth(), 0u);
  tree.runMaintenancePass();

  const auto after = tree.maintenanceStats();
  EXPECT_EQ(after.queue.captured, before.queue.captured);
  EXPECT_EQ(after.accessEntriesDrained, 0u);
  EXPECT_EQ(after.accessTicksConsumed, 0u);
  EXPECT_EQ(after.splaySteps, 0u);
  EXPECT_EQ(after.splayZigZigs, 0u);
  EXPECT_EQ(after.rebalanceSkippedHot, 0u);
  EXPECT_EQ(after.rotations, before.rotations);
}

// Every sampled hit reaches the heat estimate, however hits on different
// keys interleave: the drain merges them per key. Keys 1 and 2993 hash to
// the same slot of the per-key claim table the queue once deduplicated
// captures with, where the lookup of 2993 took the slot over and dropped
// the tick 1 had already banked there (3 ticks in 3 entries).
TEST(SplayTest, InterleavedHitsAllReachHeat) {
  trees::SFTree tree(splayCfg(trees::SplayPolicy::Conservative));
  tree.insert(1, 1);
  tree.insert(2993, 2993);
  drainToFixpoint(tree);
  const auto before = tree.maintenanceStats();

  for (const Key k : {1, 1, 2993, 1}) ASSERT_TRUE(tree.contains(k));
  tree.runMaintenancePass();

  const auto after = tree.maintenanceStats();
  EXPECT_EQ(after.accessTicksConsumed - before.accessTicksConsumed, 4u);
  EXPECT_EQ(after.accessEntriesDrained - before.accessEntriesDrained, 2u);
}

// Mutator churn racing splay promotions through the dedicated maintenance
// thread (the TSan configuration in CI): reader threads hammer a hot set
// while writers churn the same key range, and the tree must quiesce to a
// valid BST whose abstraction matches the committed net effect.
TEST(SplayTest, ChurnVsSplayRaceKeepsInvariants) {
  trees::SFTreeConfig cfg = splayCfg(trees::SplayPolicy::Aggressive);
  cfg.txKind = sftree::stm::TxKind::Elastic;  // spiciest update mode
  cfg.startMaintenance = true;  // dedicated thread races the mutators
  trees::SFTree tree(cfg);

  constexpr Key kRange = 2048;
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  std::atomic<std::int64_t> net{0};
  for (Key k = 0; k < kRange; k += 2) {
    if (tree.insert(k, k)) net.fetch_add(1);
  }

  std::barrier sync(kWriters + kReaders);
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(131 + t);
      sync.arrive_and_wait();
      for (int i = 0; i < 3000; ++i) {
        const Key k = static_cast<Key>(rng() % kRange);
        if ((rng() & 1) != 0) {
          if (tree.insert(k, k)) net.fetch_add(1);
        } else {
          if (tree.erase(k)) net.fetch_sub(1);
        }
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(977 + t);
      sync.arrive_and_wait();
      for (int i = 0; i < 6000; ++i) {
        // Zipf-ish: half the lookups hit an 8-key hot set, so promotions
        // run continuously while the writers churn the same region.
        const Key k = (i & 1) != 0 ? static_cast<Key>((rng() % 8) * 255)
                                   : static_cast<Key>(rng() % kRange);
        (void)tree.contains(k);
      }
    });
  }
  for (auto& th : threads) th.join();

  tree.stopMaintenance();
  tree.quiesceNow();
  const auto check = trees::checkSFTree(tree);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(tree.abstractSize(), static_cast<std::size_t>(net.load()));
  EXPECT_EQ(tree.violationQueueDepth(), 0u);
  const auto keys = tree.keysInOrder();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
      << "duplicate key in the abstraction";
}
