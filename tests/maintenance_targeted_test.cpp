// Targeted (violation-queue-fed) maintenance: convergence without full
// sweeps, exact height estimates at the fixpoint, how a sweeping pass
// covers the collected entries, commit-time capture and the drain's
// per-(key, kind) merge, the periodic sweep's backoff over empty drains,
// the queue's size-derived cap and the sweep its overflow forces, and the
// enqueue-at-commit vs drain/rotation race under real concurrency (run
// under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "trees/sftree.hpp"
#include "trees/tree_checks.hpp"
#include "trees/violation_queue.hpp"

namespace obs = sftree::obs;
namespace trees = sftree::trees;
using sftree::Key;

namespace {

// Targeted-only configuration: no maintenance thread, and the periodic
// full-sweep fallback disabled, so every bit of restructuring must come
// from draining the violation queue.
trees::SFTreeConfig targetedOnly(
    trees::OpsVariant ops = trees::OpsVariant::Optimized) {
  trees::SFTreeConfig cfg;
  cfg.ops = ops;
  cfg.startMaintenance = false;
  cfg.targetedMaintenance = true;
  cfg.fullSweepPeriod = 0;
  return cfg;
}

// Drives targeted passes until the queue is empty and a pass performs no
// structural change. Returns the number of passes.
int drainToFixpoint(trees::SFTree& tree, int maxPasses = 10'000) {
  for (int pass = 1; pass <= maxPasses; ++pass) {
    const bool didWork = tree.runMaintenancePass();
    if (!didWork && tree.violationQueueDepth() == 0) return pass;
  }
  ADD_FAILURE() << "targeted maintenance did not reach a fixpoint";
  return maxPasses;
}

// Real height of the subtree at n; counts into `stale` every node whose
// height estimate (localH) differs from it.
int realHeight(const trees::SFNode* n, std::size_t& stale) {
  if (n == nullptr) return 0;
  const int h = 1 + std::max(realHeight(n->left.loadAcquire(), stale),
                             realHeight(n->right.loadAcquire(), stale));
  if (n->localH != h) ++stale;
  return h;
}

// Reachable nodes (sentinel excluded) with a stale height estimate; quiesced
// trees only. Rotations and climbs derive localH from the children's, so a
// tree maintenance has caught up with must have none.
std::size_t staleHeights(trees::SFTree& tree) {
  std::size_t stale = 0;
  realHeight(tree.rootForTest()->left.loadAcquire(), stale);
  return stale;
}

// Value of the counter or gauge `name` in a collect() of `reg`.
double metricValue(const obs::MetricsRegistry& reg, const std::string& name) {
  for (const obs::Metric& m : reg.collect()) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return -1;
}

double log2OfAtLeastOne(std::size_t n) {
  return std::log2(static_cast<double>(std::max<std::size_t>(n, 1)));
}

// Inserts [0, n) in the level order of a perfectly balanced search tree
// (median first, then the medians of both halves, and so on).
void fillLevelOrder(trees::SFTree& tree, Key n) {
  std::vector<std::pair<Key, Key>> ranges{{0, n}};  // half-open, BFS queue
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const auto [lo, hi] = ranges[i];
    if (lo >= hi) continue;
    const Key mid = lo + (hi - lo) / 2;
    tree.insert(mid, mid);
    ranges.emplace_back(lo, mid);
    ranges.emplace_back(mid + 1, hi);
  }
}

// Sequential fill is the worst case for a BST: with sweeps disabled, the
// drained insertion keys alone must rebalance the degenerate list to
// logarithmic height.
TEST(MaintenanceTargetedTest, SequentialFillConvergesWithoutSweeps) {
  trees::SFTree tree(targetedOnly());
  constexpr Key kKeys = 4096;
  for (Key k = 0; k < kKeys; ++k) tree.insert(k, k);

  drainToFixpoint(tree);

  const auto ms = tree.maintenanceStats();
  EXPECT_EQ(ms.fullSweeps, 0u);
  EXPECT_GT(ms.rotations, 0u);
  EXPECT_EQ(tree.violationQueueDepth(), 0u);
  const auto check = trees::checkSFTree(tree);
  EXPECT_TRUE(check.ok) << check.error;

  // AVL-ish bound: path repair works from stored estimates, so allow a
  // little slack over the strict 1.44 log2(n) AVL height.
  const double bound = 1.7 * log2OfAtLeastOne(tree.structuralSize()) + 3.0;
  EXPECT_LE(tree.height(), bound)
      << "height " << tree.height() << " for " << tree.structuralSize()
      << " nodes";
}

// Random churn: inserts and erases feed the queue; draining must both keep
// the height logarithmic and physically remove the deleted nodes — all with
// zero full sweeps. The targeted fixpoint must leave a sweep nothing to do:
// a deleted node that a rotation leaves removable is queued by the
// rotation, so no removal (nor a rotation it would enable) waits for one.
// Every height estimate is exact there and after the sweep.
class RandomChurnTest : public ::testing::TestWithParam<trees::OpsVariant> {};

TEST_P(RandomChurnTest, ConvergesAndRemovesWithoutSweeps) {
  trees::SFTree tree(targetedOnly(GetParam()));
  constexpr Key kRange = 8192;
  std::mt19937_64 rng(7);
  std::vector<bool> present(kRange, false);

  for (int i = 0; i < 60'000; ++i) {
    const Key k = static_cast<Key>(rng() % kRange);
    if ((rng() & 3) != 0) {  // 75% inserts
      if (tree.insert(k, k)) present[static_cast<std::size_t>(k)] = true;
    } else {
      if (tree.erase(k)) present[static_cast<std::size_t>(k)] = false;
    }
    // Interleave drains so maintenance races the churn's enqueue pattern
    // (single-threaded here; the concurrent version is stressed below).
    if (i % 1024 == 0) tree.runMaintenancePass();
  }
  drainToFixpoint(tree);

  const auto ms = tree.maintenanceStats();
  EXPECT_EQ(ms.fullSweeps, 0u);
  EXPECT_GT(ms.removals, 0u);
  EXPECT_GT(ms.queue.drained, 0u);
  EXPECT_EQ(tree.violationQueueDepth(), 0u);

  const auto check = trees::checkSFTree(tree);
  EXPECT_TRUE(check.ok) << check.error;

  // The abstraction must be exactly the tracked set.
  std::vector<Key> expected;
  for (Key k = 0; k < kRange; ++k) {
    if (present[static_cast<std::size_t>(k)]) expected.push_back(k);
  }
  EXPECT_EQ(tree.keysInOrder(), expected);

  const double bound = 1.7 * log2OfAtLeastOne(tree.structuralSize()) + 3.0;
  EXPECT_LE(tree.height(), bound);
  EXPECT_EQ(staleHeights(tree), 0u) << "at the targeted fixpoint";

  tree.quiesceNow();
  const auto swept = tree.maintenanceStats();
  EXPECT_EQ(swept.removals, ms.removals) << "removals left for the sweep";
  EXPECT_EQ(swept.rotations, ms.rotations) << "rotations left for the sweep";
  EXPECT_EQ(staleHeights(tree), 0u) << "after quiesceNow";
}

INSTANTIATE_TEST_SUITE_P(
    OpsVariants, RandomChurnTest,
    ::testing::Values(trees::OpsVariant::Optimized,
                      trees::OpsVariant::Portable),
    [](const ::testing::TestParamInfo<trees::OpsVariant>& info) {
      return info.param == trees::OpsVariant::Optimized ? "Optimized"
                                                        : "Portable";
    });

// A balanced fill leaves maintenance nothing to do. quiesceNow's first pass
// sweeps, rebuilding every height estimate bottom-up, and so covers the
// queued inserts: no rotation, no copy-on-rotate allocation, one pass, and
// no repair walk after the sweep (each node is visited once).
// Repairing the inserts one root-path at a time would compare fresh on-path
// heights with off-path estimates still waiting for their own entries, and
// rotate a tree that is already perfect.
TEST(MaintenanceTargetedTest, QuiesceAfterBalancedFillRotatesNothing) {
  trees::SFTreeConfig cfg;
  cfg.startMaintenance = false;
  trees::SFTree tree(cfg);
  constexpr Key kKeys = 4095;  // 2^12 - 1: a perfect tree of height 12
  fillLevelOrder(tree, kKeys);
  ASSERT_EQ(tree.height(), 12);
  ASSERT_EQ(tree.violationQueueDepth(), static_cast<std::uint64_t>(kKeys));
  const std::size_t slabs = tree.arenaForStats().slabCount();

  EXPECT_EQ(tree.quiesceNow(), 1);

  const auto ms = tree.maintenanceStats();
  EXPECT_EQ(ms.rotations, 0u);
  EXPECT_EQ(ms.fullSweeps, 1u);
  EXPECT_EQ(ms.nodesVisited, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(tree.height(), 12);
  EXPECT_EQ(tree.arenaForStats().slabCount(), slabs);
  EXPECT_EQ(tree.violationQueueDepth(), 0u);
  EXPECT_EQ(staleHeights(tree), 0u);
  const auto check = trees::checkSFTree(tree);
  EXPECT_TRUE(check.ok) << check.error;
}

// A pass that sweeps drops the structural entries it collected, which is
// only sound when the sweep does what their repairs would have: here the
// removal of deleted leaf 1 empties one side of deleted node 2, which the
// targeted climb would re-probe — so the sweep re-probes it too.
TEST(MaintenanceTargetedTest, SweepingPassCoversCollectedErases) {
  auto cfg = targetedOnly();
  cfg.fullSweepPeriod = 1;  // every pass sweeps
  trees::SFTree tree(cfg);
  for (Key k : {2, 1, 3}) tree.insert(k, k);  // 2 on top, two children
  tree.erase(2);
  tree.erase(1);

  tree.runMaintenancePass();

  EXPECT_EQ(tree.violationQueueDepth(), 0u);
  EXPECT_EQ(tree.maintenanceStats().removals, 2u);
  EXPECT_EQ(tree.structuralSize(), 1u);
  EXPECT_EQ(tree.keysInOrder(), std::vector<Key>{3});
}

// A cancelled pass must not drop what it collected, even when it was going
// to sweep: the sweep did not run to completion, so it covers nothing.
TEST(MaintenanceTargetedTest, CancelledSweepingPassHandsEveryEntryBack) {
  auto cfg = targetedOnly();
  cfg.fullSweepPeriod = 1;  // every pass sweeps
  trees::SFTree tree(cfg);
  constexpr Key kKeys = 512;
  for (Key k = 0; k < kKeys; ++k) tree.insert(k, k);  // needs rotations
  for (Key k = 0; k < kKeys; k += 3) tree.erase(k);   // needs removals
  const std::uint64_t depth = tree.violationQueueDepth();
  ASSERT_GT(depth, 0u);
  const std::size_t nodes = tree.structuralSize();
  const int height = tree.height();

  std::atomic<bool> cancel{true};
  EXPECT_FALSE(tree.runMaintenancePass(&cancel));

  auto ms = tree.maintenanceStats();
  EXPECT_EQ(tree.violationQueueDepth(), depth);
  EXPECT_EQ(ms.rotations, 0u);
  EXPECT_EQ(ms.removals, 0u);
  EXPECT_EQ(tree.structuralSize(), nodes);
  EXPECT_EQ(tree.height(), height);

  tree.quiesceNow();
  ms = tree.maintenanceStats();
  EXPECT_GT(ms.rotations, 0u);
  EXPECT_EQ(tree.violationQueueDepth(), 0u);
  const auto check = trees::checkSFTree(tree);
  EXPECT_TRUE(check.ok) << check.error;
  std::vector<Key> expected;
  for (Key k = 0; k < kKeys; ++k) {
    if (k % 3 != 0) expected.push_back(k);
  }
  EXPECT_EQ(tree.keysInOrder(), expected);
  EXPECT_EQ(tree.structuralSize(), expected.size());
}

// Commit-time capture must be transactional: aborted and failed updates
// publish nothing. Every capture is enqueued, and the drain merges repeated
// updates on one key down to one repair per (key, kind).
TEST(MaintenanceTargetedTest, CaptureIsCommittedAndMerged) {
  trees::SFTree tree(targetedOnly());
  tree.insert(1, 1);
  const auto afterInsert = tree.maintenanceStats().queue;
  EXPECT_EQ(afterInsert.captured, 1u);
  EXPECT_EQ(afterInsert.enqueued, 1u);

  // Failed operations commit no update and must not capture: erase of a
  // missing key, duplicate insert. Nor may an aborted attempt's erase.
  tree.erase(99);
  tree.insert(1, 1);
  int attempts = 0;
  sftree::stm::atomically(tree.domain(), tree.updateTxKind(),
                          [&](sftree::stm::Tx& tx) {
                            if (++attempts == 1) {
                              EXPECT_TRUE(tree.eraseTx(tx, 1));
                              tx.restart();
                            }
                          });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(tree.maintenanceStats().queue.captured, 1u);

  // Churn one key without draining: every erase is a capture (revives are
  // abstraction-only and publish nothing), and every capture is enqueued.
  for (int i = 0; i < 100; ++i) {
    tree.erase(1);
    tree.insert(1, 1);
  }
  const auto before = tree.maintenanceStats();
  EXPECT_EQ(before.queue.captured, 101u);
  EXPECT_EQ(before.queue.enqueued, 101u);
  EXPECT_EQ(before.queue.dropped, 0u);
  EXPECT_EQ(tree.violationQueueDepth(), 101u);

  // One pass drains all 101 and repairs 2: the 100 erases merge into one
  // entry, and the insert stays apart — an erase folded into an insert
  // entry would skip the removal probe.
  tree.runMaintenancePass();
  const auto after = tree.maintenanceStats();
  EXPECT_EQ(after.queue.drained - before.queue.drained, 101u);
  EXPECT_EQ(after.entriesMerged - before.entriesMerged, 99u);
  EXPECT_EQ(tree.violationQueueDepth(), 0u);
  EXPECT_EQ(tree.keysInOrder(), std::vector<Key>{1});
}

// The queue survives keys whose nodes disappear before the drain gets to
// them: erase + physical removal via one entry, then a second entry for the
// same key drains against a tree that no longer contains it.
TEST(MaintenanceTargetedTest, StaleEntriesDrainHarmlessly) {
  trees::SFTree tree(targetedOnly());
  for (Key k = 0; k < 64; ++k) tree.insert(k, k);
  drainToFixpoint(tree);

  tree.erase(10);
  drainToFixpoint(tree);  // physically removes 10's node
  // A fresh violation for the now-absent key must be a no-op.
  tree.insert(10, 10);
  tree.erase(10);
  drainToFixpoint(tree);

  const auto check = trees::checkSFTree(tree);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(tree.abstractSize(), 63u);
}

// TSan stress: enqueue-at-commit (mutators) racing drain/rotation (the
// dedicated maintenance thread, frequent fallback sweeps — with period 1
// every pass sweeps and drops its structural entries). The tracked net
// insert count must match the final tree exactly.
class ConcurrentChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrentChurnTest, RacingDrain) {
  trees::SFTreeConfig cfg;
  cfg.ops = trees::OpsVariant::Optimized;
  cfg.txKind = sftree::stm::TxKind::Elastic;  // spiciest update mode
  cfg.targetedMaintenance = true;
  cfg.fullSweepPeriod = GetParam();
  trees::SFTree tree(cfg);  // dedicated maintenance thread running

  constexpr int kThreads = 4;
  constexpr Key kRange = 2048;
  std::atomic<std::int64_t> net{0};
  std::barrier sync(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(91 + t);
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
  for (auto& th : threads) th.join();

  tree.stopMaintenance();
  tree.quiesceNow();
  const auto check = trees::checkSFTree(tree);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(tree.abstractSize(),
            static_cast<std::size_t>(net.load()));
  EXPECT_EQ(tree.violationQueueDepth(), 0u);

  const auto keys = tree.keysInOrder();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
      << "duplicate key in the abstraction";
}

INSTANTIATE_TEST_SUITE_P(
    SweepPeriods, ConcurrentChurnTest, ::testing::Values(8, 1),
    [](const ::testing::TestParamInfo<int>& info) {
      return "Period" + std::to_string(info.param);
    });

// The violation queue itself: producer/consumer counters stay consistent
// under concurrent publishes, and every capture is enqueued (the tree size
// passed in puts the cap at exactly the captures).
TEST(MaintenanceTargetedTest, QueueCountersConsistentUnderConcurrentPublish) {
  trees::ViolationQueue q;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;
  constexpr std::int64_t kTreeSize = 8 * kThreads * kPerThread;
  ASSERT_EQ(trees::ViolationQueue::capFor(kTreeSize),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(5 + t);
      for (int i = 0; i < kPerThread; ++i) {
        q.publish(static_cast<Key>(rng() % 512),
                  trees::ViolationKind::kInsert, kTreeSize);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t consumed = 0;
  consumed += q.drain([](Key, trees::ViolationKind) { return true; });
  const auto st = q.stats();
  EXPECT_EQ(st.captured,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(st.enqueued + st.dropped, st.captured);
  EXPECT_EQ(st.enqueued, st.captured);
  EXPECT_EQ(st.drained, consumed);
  EXPECT_EQ(q.depth(), 0u);
}

// The cap is max(2^16, n/8) for a tree of n keys. A publish at the cap
// raises the overflow flag once; while the flag is up every capture is
// dropped until consumeOverflow(), even after the tree grew enough for its
// cap to admit more (a fill with maintenance stopped).
TEST(MaintenanceTargetedTest, QueueOverflowDropsUntilTheFlagIsConsumed) {
  constexpr std::uint64_t kMin = trees::ViolationQueue::kMinCap;
  EXPECT_EQ(trees::ViolationQueue::capFor(-5), kMin);
  EXPECT_EQ(trees::ViolationQueue::capFor(8 * kMin - 8), kMin);
  EXPECT_EQ(trees::ViolationQueue::capFor(std::int64_t{1} << 21),
            std::uint64_t{1} << 18);

  trees::ViolationQueue q;
  constexpr std::uint64_t kPast = 10;
  for (std::uint64_t i = 0; i < kMin + kPast; ++i) {
    q.publish(static_cast<Key>(i), trees::ViolationKind::kInsert, 0);
  }
  auto st = q.stats();
  EXPECT_EQ(q.depth(), kMin);
  EXPECT_EQ(st.overflows, 1u);
  EXPECT_EQ(st.dropped, kPast);

  // The tree grew past 8 x 2^16 keys: its cap admits more, but the flag is
  // still up and the sweep it forces covers the capture.
  constexpr std::int64_t kGrown = 16 * static_cast<std::int64_t>(kMin);
  ASSERT_GT(trees::ViolationQueue::capFor(kGrown), q.depth());
  q.publish(1, trees::ViolationKind::kErase, kGrown);
  st = q.stats();
  EXPECT_EQ(q.depth(), kMin);
  EXPECT_EQ(st.dropped, kPast + 1);
  EXPECT_EQ(st.overflows, 1u);

  EXPECT_TRUE(q.consumeOverflow());
  q.publish(2, trees::ViolationKind::kErase, kGrown);
  EXPECT_EQ(q.depth(), kMin + 1);
  EXPECT_EQ(q.stats().dropped, kPast + 1);
  EXPECT_FALSE(q.consumeOverflow());
}

// The drain merges per (key, kind): one key under two kinds is repaired
// twice (an erase is never folded into an insert entry, whose repair skips
// the removal probe), while the repeated erase merges into one entry.
TEST(MaintenanceTargetedTest, KindsMergeApart) {
  trees::SFTree tree(targetedOnly());

  tree.insert(7, 7);  // kInsert
  tree.erase(7);      // kErase
  tree.insert(7, 7);  // revive: abstraction-only, publishes nothing
  tree.erase(7);      // kErase again
  const auto before = tree.maintenanceStats();
  ASSERT_EQ(before.queue.captured, 3u);
  ASSERT_EQ(tree.violationQueueDepth(), 3u);

  tree.runMaintenancePass();

  const auto after = tree.maintenanceStats();
  const std::uint64_t drained = after.queue.drained - before.queue.drained;
  const std::uint64_t merged = after.entriesMerged - before.entriesMerged;
  EXPECT_EQ(drained, 3u);
  EXPECT_EQ(merged, 1u);
  EXPECT_EQ(drained - merged, 2u);  // kInsert + kErase
  EXPECT_EQ(after.removals, 1u) << "the kErase repair removes node 7";
  EXPECT_EQ(tree.structuralSize(), 0u);
  EXPECT_EQ(tree.violationQueueDepth(), 0u);
}

// The periodic fallback sweep backs off while the queue is empty: a due
// sweep over a pass that drained nothing is deferred, once per pass, until
// 4x the period forces it. A pass that drained an entry sweeps on time.
class SweepDeferralTest : public ::testing::TestWithParam<trees::OpsVariant> {};

TEST_P(SweepDeferralTest, EmptyDrainDefersTheSweepUntilItsCap) {
  constexpr int kPeriod = 4;
  auto cfg = targetedOnly(GetParam());
  cfg.fullSweepPeriod = kPeriod;
  trees::SFTree tree(cfg);
  for (Key k = 0; k < 64; ++k) tree.insert(k, k);
  tree.quiesceNow();  // sweeps: the queue is empty and the period restarts
  ASSERT_EQ(tree.violationQueueDepth(), 0u);
  const auto base = tree.maintenanceStats();

  for (int pass = 1; pass < 4 * kPeriod; ++pass) {
    tree.runMaintenancePass();
    const auto ms = tree.maintenanceStats();
    const std::uint64_t deferred =
        pass < kPeriod ? 0u : static_cast<std::uint64_t>(pass - kPeriod + 1);
    EXPECT_EQ(ms.sweepsDeferred - base.sweepsDeferred, deferred)
        << "pass " << pass;
    EXPECT_EQ(ms.fullSweeps, base.fullSweeps) << "pass " << pass;
  }
  tree.runMaintenancePass();  // pass 4P: the cap forces the sweep
  auto ms = tree.maintenanceStats();
  EXPECT_EQ(ms.fullSweeps - base.fullSweeps, 1u);
  EXPECT_EQ(ms.sweepsDeferred - base.sweepsDeferred,
            static_cast<std::uint64_t>(3 * kPeriod));

  // The sweep restarted the period. A pass that drains an entry sweeps as
  // soon as the period is due.
  for (int pass = 1; pass < kPeriod; ++pass) tree.runMaintenancePass();
  tree.erase(63);  // the largest key: no right child, so removable
  ASSERT_EQ(tree.violationQueueDepth(), 1u);
  const auto beforeDue = tree.maintenanceStats();
  EXPECT_EQ(beforeDue.fullSweeps - base.fullSweeps, 1u);
  tree.runMaintenancePass();
  ms = tree.maintenanceStats();
  EXPECT_EQ(ms.fullSweeps - beforeDue.fullSweeps, 1u);
  EXPECT_EQ(ms.sweepsDeferred, beforeDue.sweepsDeferred);
  EXPECT_EQ(ms.removals - beforeDue.removals, 1u) << "the sweep removes 63";
  EXPECT_EQ(tree.violationQueueDepth(), 0u);
  const auto check = trees::checkSFTree(tree);
  EXPECT_TRUE(check.ok) << check.error;
}

INSTANTIATE_TEST_SUITE_P(
    OpsVariants, SweepDeferralTest,
    ::testing::Values(trees::OpsVariant::Optimized,
                      trees::OpsVariant::Portable),
    [](const ::testing::TestParamInfo<trees::OpsVariant>& info) {
      return info.param == trees::OpsVariant::Optimized ? "Optimized"
                                                        : "Portable";
    });

// A fill past the queue's cap with maintenance stopped: at 2^17 keys the
// cap is its 2^16 floor, the rest of the captures are dropped, and the next
// pass covers them with the sweep the overflow forces.
class QueueOverflowTest : public ::testing::TestWithParam<trees::OpsVariant> {
 protected:
  static constexpr Key kKeys = Key{1} << 17;
  static constexpr std::uint64_t kCap = trees::ViolationQueue::kMinCap;
};

TEST_P(QueueOverflowTest, FillPastTheCapSweepsOnce) {
  trees::SFTree tree(targetedOnly(GetParam()));
  obs::MetricsRegistry reg;
  const auto registration = tree.registerMetrics(reg, "tree");
  fillLevelOrder(tree, kKeys);

  const auto filled = tree.maintenanceStats();
  EXPECT_EQ(tree.violationQueueDepth(), kCap);
  EXPECT_EQ(filled.queue.overflows, 1u);
  EXPECT_EQ(filled.queue.dropped, static_cast<std::uint64_t>(kKeys) - kCap);
  // 2^16 entries in 64-byte blocks, 1,023 to a 64 KiB slab (its first line
  // holds the slab header).
  EXPECT_LE(metricValue(reg, "tree.queue_arena.slabs"), 65.0);

  tree.runMaintenancePass();
  const auto swept = tree.maintenanceStats();
  EXPECT_EQ(swept.fullSweeps - filled.fullSweeps, 1u);
  EXPECT_EQ(tree.violationQueueDepth(), 0u);
  EXPECT_EQ(staleHeights(tree), 0u);
}

// The forced sweep consumes the flag before it starts. A cancel that stops
// it short (the tree's own driver stopping, a shared scheduler shutting
// down) must put the flag back, or the dropped captures would wait for a
// periodic sweep (never, at period 0).
TEST_P(QueueOverflowTest, CancelledOverflowSweepKeepsTheFlag) {
  trees::SFTree tree(targetedOnly(GetParam()));
  fillLevelOrder(tree, kKeys);
  ASSERT_EQ(tree.maintenanceStats().queue.overflows, 1u);

  const std::atomic<bool> cancel{true};
  tree.runMaintenancePass(&cancel);
  const auto cancelled = tree.maintenanceStats();
  tree.runMaintenancePass();
  EXPECT_EQ(tree.maintenanceStats().fullSweeps - cancelled.fullSweeps, 1u)
      << "the dropped captures still need a sweep";

  tree.quiesceNow();
  EXPECT_EQ(staleHeights(tree), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    OpsVariants, QueueOverflowTest,
    ::testing::Values(trees::OpsVariant::Optimized,
                      trees::OpsVariant::Portable),
    [](const ::testing::TestParamInfo<trees::OpsVariant>& info) {
      return info.param == trees::OpsVariant::Optimized ? "Optimized"
                                                        : "Portable";
    });

}  // namespace
