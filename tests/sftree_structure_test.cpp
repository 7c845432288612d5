// Structure-level behaviour of the speculation-friendly tree: logical
// deletion, decoupled physical removal, local rotations (portable and
// copy-on-rotate), balance convergence, and quiescence-based reclamation.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "bench_core/rng.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "trees/sftree.hpp"
#include "trees/tree_checks.hpp"

namespace trees = sftree::trees;
using sftree::Key;
using sftree::bench::Rng;
using trees::OpsVariant;
using trees::RemState;
using trees::SFNode;
using trees::SFTree;
using trees::SFTreeConfig;

namespace {

SFTreeConfig manualConfig(OpsVariant ops) {
  SFTreeConfig cfg;
  cfg.ops = ops;
  cfg.startMaintenance = false;  // tests drive maintenance by hand
  return cfg;
}

class SFTreeStructureTest : public ::testing::TestWithParam<OpsVariant> {};

TEST_P(SFTreeStructureTest, LogicalDeletionLeavesNodeInPlace) {
  SFTree tree(manualConfig(GetParam()));
  tree.insert(10, 1);
  tree.insert(5, 2);
  tree.insert(15, 3);
  EXPECT_TRUE(tree.erase(10));
  // Abstraction: gone. Structure: still three nodes (no maintenance ran).
  EXPECT_FALSE(tree.contains(10));
  EXPECT_EQ(tree.abstractSize(), 2u);
  EXPECT_EQ(tree.structuralSize(), 3u);
}

TEST_P(SFTreeStructureTest, MaintenancePhysicallyRemovesDeletedLeaf) {
  SFTree tree(manualConfig(GetParam()));
  tree.insert(10, 1);
  tree.insert(5, 2);
  tree.erase(5);
  tree.quiesceNow();
  EXPECT_EQ(tree.structuralSize(), 1u);
  EXPECT_EQ(tree.abstractSize(), 1u);
  const auto stats = tree.maintenanceStats();
  EXPECT_EQ(stats.removals, 1u);
}

TEST_P(SFTreeStructureTest, NodesWithTwoChildrenAreNotRemoved) {
  SFTree tree(manualConfig(GetParam()));
  tree.insert(10, 1);
  tree.insert(5, 2);
  tree.insert(15, 3);
  tree.erase(10);  // interior node with two children
  tree.quiesceNow();
  // The paper only removes nodes with at most one child; 10 must survive
  // physically (still logically deleted).
  EXPECT_EQ(tree.abstractSize(), 2u);
  EXPECT_EQ(tree.structuralSize(), 3u);
  EXPECT_FALSE(tree.contains(10));
}

TEST_P(SFTreeStructureTest, DeletedInteriorNodeRemovedOnceChildLeaves) {
  SFTree tree(manualConfig(GetParam()));
  tree.insert(10, 1);
  tree.insert(5, 2);
  tree.insert(15, 3);
  tree.erase(10);
  tree.erase(5);
  tree.quiesceNow();
  // 5 (leaf) goes first, then 10 has one child and goes too.
  EXPECT_EQ(tree.structuralSize(), 1u);
  EXPECT_EQ(tree.keysInOrder(), (std::vector<Key>{15}));
}

TEST_P(SFTreeStructureTest, ReviveDeletedNodeKeepsStructure) {
  SFTree tree(manualConfig(GetParam()));
  tree.insert(10, 1);
  tree.erase(10);
  EXPECT_TRUE(tree.insert(10, 42));  // revives the logically deleted node
  EXPECT_EQ(tree.get(10), 42);
  EXPECT_EQ(tree.structuralSize(), 1u);
}

TEST_P(SFTreeStructureTest, AscendingInsertionRebalances) {
  SFTree tree(manualConfig(GetParam()));
  constexpr Key kN = 1024;
  for (Key k = 0; k < kN; ++k) tree.insert(k, k);
  // Without maintenance the tree is a right spine.
  EXPECT_EQ(tree.height(), static_cast<int>(kN));
  tree.quiesceNow();
  // Local rotations must converge to logarithmic height (log2(1024) == 10;
  // height-relaxed AVL gives ~1.44 log2 n, leave generous slack).
  EXPECT_LE(tree.height(), 26);
  const auto check = trees::checkSFTree(tree);
  EXPECT_TRUE(check.ok) << check.error;
  // Everything still present.
  EXPECT_EQ(tree.abstractSize(), static_cast<std::size_t>(kN));
}

TEST_P(SFTreeStructureTest, RotationsPreserveContents) {
  SFTree tree(manualConfig(GetParam()));
  Rng rng(5);
  std::vector<Key> keys;
  for (int i = 0; i < 512; ++i) {
    const Key k = static_cast<Key>(rng.nextBounded(100000));
    if (tree.insert(k, k)) keys.push_back(k);
  }
  tree.quiesceNow();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(tree.keysInOrder(), keys);
  const auto check = trees::checkSFTree(tree);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST_P(SFTreeStructureTest, LimboDrainsAfterQuiescence) {
  SFTree tree(manualConfig(GetParam()));
  for (Key k = 0; k < 256; ++k) tree.insert(k, k);
  for (Key k = 0; k < 256; k += 2) tree.erase(k);
  tree.quiesceNow();
  EXPECT_EQ(tree.limboPending(), 0u);
  const auto stats = tree.maintenanceStats();
  EXPECT_GT(stats.removals, 0u);
  EXPECT_EQ(stats.nodesFreed, stats.nodesRetired);
}

TEST_P(SFTreeStructureTest, BackgroundMaintenanceUnderChurn) {
  SFTreeConfig cfg;
  cfg.ops = GetParam();
  cfg.startMaintenance = true;
  SFTree tree(cfg);
  constexpr int kThreads = 3;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(10 + t);
      for (int i = 0; i < 12000; ++i) {
        const Key k = static_cast<Key>(rng.nextBounded(2048));
        switch (rng.nextBounded(3)) {
          case 0: tree.insert(k, k); break;
          case 1: tree.erase(k); break;
          default: tree.contains(k); break;
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  tree.stopMaintenance();
  tree.quiesceNow();
  const auto check = trees::checkSFTree(tree);
  EXPECT_TRUE(check.ok) << check.error;
  // With removals enabled the physical size stays close to the abstract
  // size after quiescing (only interior deleted nodes linger).
  EXPECT_LE(tree.structuralSize(), tree.abstractSize() * 2 + 16);
}

TEST_P(SFTreeStructureTest, BiasedChurnStaysBalancedWithMaintenance) {
  SFTreeConfig cfg;
  cfg.ops = GetParam();
  cfg.startMaintenance = true;
  SFTree tree(cfg);
  // Monotone inserts (the worst case for an unbalanced tree) while
  // maintenance runs: final height must be logarithmic-ish.
  for (Key k = 0; k < 4096; ++k) tree.insert(k, k);
  tree.stopMaintenance();
  tree.quiesceNow();
  EXPECT_LE(tree.height(), 30);  // log2(4096) == 12, generous slack
  const auto check = trees::checkSFTree(tree);
  EXPECT_TRUE(check.ok) << check.error;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SFTreeStructureTest,
    ::testing::Values(OpsVariant::Portable, OpsVariant::Optimized),
    [](const ::testing::TestParamInfo<OpsVariant>& info) {
      return info.param == OpsVariant::Portable ? "portable" : "optimized";
    });

// --- optimized-variant specifics -------------------------------------------

TEST(SFTreeOptimizedTest, CopyOnRotateMarksVictimRemoved) {
  SFTree tree(manualConfig(OpsVariant::Optimized));
  // Right spine 1 -> 2 -> 3 triggers a left rotation at node 1.
  tree.insert(1, 1);
  tree.insert(2, 2);
  tree.insert(3, 3);
  SFNode* root = tree.rootForTest();
  SFNode* n1 = root->left.loadRelaxed();
  ASSERT_NE(n1, nullptr);
  EXPECT_EQ(n1->key, 1);
  tree.quiesceNow();
  // Node 1 was removed by a left rotation and replaced by a copy.
  EXPECT_EQ(n1->removed.loadRelaxed(), RemState::RemovedByLeftRot);
  // Its children still lead back into the tree (escape path, Lemma 11).
  EXPECT_EQ(tree.keysInOrder(), (std::vector<Key>{1, 2, 3}));
  EXPECT_LE(tree.height(), 2);
  const auto check = trees::checkSFTree(tree);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(SFTreeOptimizedTest, RemovalSetsEscapePointersToParent) {
  SFTree tree(manualConfig(OpsVariant::Optimized));
  tree.insert(10, 1);
  tree.insert(5, 2);
  SFNode* root = tree.rootForTest();
  SFNode* n10 = root->left.loadRelaxed();
  SFNode* n5 = n10->left.loadRelaxed();
  ASSERT_EQ(n5->key, 5);
  tree.erase(5);
  // Hold a quiescence bracket so the limbo cannot free n5 while we look at
  // it.
  {
    const sftree::gc::OpGuard guard;
    tree.quiesceNow();
    EXPECT_EQ(n5->removed.loadRelaxed(), RemState::Removed);
    EXPECT_EQ(n5->left.loadRelaxed(), n10);
    EXPECT_EQ(n5->right.loadRelaxed(), n10);
  }
}

TEST(SFTreeOptimizedTest, PortableRotationKeepsNodeInTree) {
  SFTree tree(manualConfig(OpsVariant::Portable));
  tree.insert(1, 1);
  tree.insert(2, 2);
  tree.insert(3, 3);
  SFNode* root = tree.rootForTest();
  SFNode* n1 = root->left.loadRelaxed();
  tree.quiesceNow();
  // Portable rotation is in-place: node 1 is demoted but never removed.
  EXPECT_EQ(n1->removed.loadRelaxed(), RemState::NotRemoved);
  EXPECT_EQ(tree.keysInOrder(), (std::vector<Key>{1, 2, 3}));
  const auto stats = tree.maintenanceStats();
  EXPECT_EQ(stats.nodesRetired, 0u);  // nothing leaves the tree
}

TEST(SFTreeOptimizedTest, FindReachesKeyThroughRemovedNodes) {
  // A reader that saw a node before its removal must still find keys via
  // escape pointers. We simulate by capturing a node, removing it, then
  // traversing from it manually the way findOptimized would.
  SFTree tree(manualConfig(OpsVariant::Optimized));
  for (Key k : {16, 8, 24, 4, 12, 20, 28}) tree.insert(k, k);
  SFNode* root = tree.rootForTest();
  SFNode* n16 = root->left.loadRelaxed();
  SFNode* n8 = n16->left.loadRelaxed();
  ASSERT_EQ(n8->key, 8);
  SFNode* n4 = n8->left.loadRelaxed();
  ASSERT_EQ(n4->key, 4);
  tree.erase(4);
  {
    const sftree::gc::OpGuard guard;
    tree.quiesceNow();
    ASSERT_EQ(n4->removed.loadRelaxed(), RemState::Removed);
    // Escape pointers climb back to the parent (node 8).
    EXPECT_EQ(n4->left.loadRelaxed(), n8);
    // All remaining keys are still reachable through the abstraction.
    for (Key k : {16, 8, 24, 12, 20, 28}) {
      EXPECT_TRUE(tree.contains(k)) << k;
    }
  }
}

TEST(SFTreeMaintenanceTest, MaintenanceStatsAccumulate) {
  SFTreeConfig cfg;
  cfg.startMaintenance = false;
  SFTree tree(cfg);
  for (Key k = 0; k < 128; ++k) tree.insert(k, k);
  tree.quiesceNow();
  const auto stats = tree.maintenanceStats();
  EXPECT_GT(stats.traversals, 0u);
  EXPECT_GT(stats.rotations, 0u);
}

TEST(SFTreeMaintenanceTest, StartStopIsIdempotent) {
  SFTree tree((SFTreeConfig()));
  EXPECT_TRUE(tree.maintenanceRunning());
  tree.startMaintenance();  // no-op
  tree.stopMaintenance();
  EXPECT_FALSE(tree.maintenanceRunning());
  tree.stopMaintenance();  // no-op
  tree.startMaintenance();
  EXPECT_TRUE(tree.maintenanceRunning());
}

// A tree attached to a shared scheduler: maintainWith registers it, nested
// pauses hold off every pass until the last resume, and destroying the tree
// unregisters it (the scheduler outlives the tree).
TEST(SFTreeMaintenanceTest, SharedSchedulerAttachPauseAndDestroy) {
  sftree::shard::MaintenanceScheduler scheduler;
  const auto traversals = [](const SFTree& t) {
    return t.maintenanceStats().traversals;
  };
  const auto waitForPassBeyond = [&](const SFTree& t, std::uint64_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (traversals(t) <= n) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  {
    SFTreeConfig cfg;
    cfg.startMaintenance = false;
    SFTree tree(cfg);
    EXPECT_FALSE(tree.maintenanceRunning());
    tree.maintainWith(scheduler, "attached");
    EXPECT_TRUE(tree.maintenanceRunning());
    EXPECT_EQ(scheduler.registeredCount(), 1u);
    for (Key k = 0; k < 256; ++k) tree.insert(k, k);
    waitForPassBeyond(tree, 0);

    tree.pauseMaintenance();
    tree.pauseMaintenance();
    const std::uint64_t frozen = traversals(tree);
    for (Key k = 256; k < 512; ++k) tree.insert(k, k);
    tree.resumeMaintenance();  // the other pause still holds
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(traversals(tree), frozen);
    EXPECT_TRUE(tree.maintenanceRunning());
    tree.resumeMaintenance();
    waitForPassBeyond(tree, frozen);
  }
  EXPECT_EQ(scheduler.registeredCount(), 0u);
}

TEST(SFTreeMaintenanceTest, NoRestructuringConfigNeverRotates) {
  SFTreeConfig cfg;
  cfg.rotations = false;
  cfg.removals = false;
  cfg.startMaintenance = false;
  SFTree tree(cfg);
  for (Key k = 0; k < 256; ++k) tree.insert(k, k);
  tree.erase(0);
  tree.quiesceNow();
  // NRtree semantics: a pure spine, logically deleted node still present.
  EXPECT_EQ(tree.height(), 256);
  EXPECT_EQ(tree.structuralSize(), 256u);
  const auto stats = tree.maintenanceStats();
  EXPECT_EQ(stats.rotations, 0u);
  EXPECT_EQ(stats.removals, 0u);
}

}  // namespace
