// Read-only transaction mode (TxKind::ReadOnly) semantics.
//
//   * zero-logging RO commits are counted and behave like normal read-only
//     transactions (same values, snapshot consistency);
//   * a write inside an RO transaction transparently promotes the attempt
//     to read-write mode and the operation stays atomic;
//   * RO snapshot isolation holds under concurrent writers on both the orec
//     and the NOrec backend, in fresh domains and across two domains;
//   * the tree read operations ride the RO path end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "stm/stm.hpp"
#include "trees/map_interface.hpp"

namespace stm = sftree::stm;
namespace trees = sftree::trees;

namespace {

stm::ThreadStats domainStatsSnapshot(stm::Domain& d) {
  return d.aggregateStats();
}

TEST(ReadOnlyTxTest, RoCommitIsCountedAndReturnsCommittedValues) {
  stm::Domain dom;
  stm::TxField<std::int64_t> x(11);
  stm::TxField<std::int64_t> y(31);
  stm::atomically(dom, [&](stm::Tx& tx) {
    x.write(tx, 1);
    y.write(tx, 2);
  });
  const auto before = domainStatsSnapshot(dom);
  const auto sum =
      stm::atomically(dom, stm::TxKind::ReadOnly, [&](stm::Tx& tx) {
        EXPECT_TRUE(tx.readOnlyMode());
        return x.read(tx) + y.read(tx);
      });
  EXPECT_EQ(sum, 3);
  const auto after = domainStatsSnapshot(dom);
  EXPECT_EQ(after.roCommits, before.roCommits + 1);
  EXPECT_EQ(after.commits, before.commits + 1);
  EXPECT_EQ(after.aborts, before.aborts);
}

TEST(ReadOnlyTxTest, WriteInsideRoPromotesAndStaysAtomic) {
  stm::Domain dom;
  stm::TxField<std::int64_t> x(5);
  stm::TxField<std::int64_t> y(5);
  const auto before = domainStatsSnapshot(dom);
  int bodyRuns = 0;
  stm::atomically(dom, stm::TxKind::ReadOnly, [&](stm::Tx& tx) {
    ++bodyRuns;
    const auto v = x.read(tx);
    // First execution runs in RO mode; the write below restarts the body
    // in read-write mode, where both writes commit atomically.
    x.write(tx, v + 1);
    y.write(tx, v + 1);
    EXPECT_FALSE(tx.readOnlyMode());
  });
  EXPECT_GE(bodyRuns, 2);  // RO attempt + promoted read-write attempt
  EXPECT_EQ(x.loadRelaxed(), 6);
  EXPECT_EQ(y.loadRelaxed(), 6);
  const auto after = domainStatsSnapshot(dom);
  EXPECT_EQ(after.roPromotions, before.roPromotions + 1);
  EXPECT_EQ(after.roCommits, before.roCommits);  // committed as read-write
  EXPECT_EQ(after.commits, before.commits + 1);
  // The promotion restart is not a conflict abort — it lands in the
  // taxonomy's restart band (ro_promotion) and stays out of the conflict
  // partition, which must still sum to the legacy counter exactly.
  EXPECT_EQ(after.aborts, before.aborts);
  EXPECT_EQ(after.abortsFor(sftree::obs::AbortCause::kRoPromotion),
            before.abortsFor(sftree::obs::AbortCause::kRoPromotion) + 1);
  EXPECT_EQ(after.conflictAbortTotal(), after.aborts);

  // The next ReadOnly operation starts in RO mode again (the promotion is
  // scoped to one operation).
  stm::atomically(dom, stm::TxKind::ReadOnly, [&](stm::Tx& tx) {
    EXPECT_TRUE(tx.readOnlyMode());
    return x.read(tx);
  });
}

// Two fields must always be observed equal: the writer increments both in
// one transaction; RO readers must never see a half-applied update.
void runSnapshotIsolation(stm::Domain& dom) {
  stm::TxField<std::int64_t> a(0);
  stm::TxField<std::int64_t> b(0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  std::thread writer([&] {
    for (int i = 1; i <= 20000 && !stop.load(); ++i) {
      stm::atomically(dom, [&](stm::Tx& tx) {
        a.write(tx, i);
        b.write(tx, i);
      });
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      // Keep reading for a minimum number of snapshots even after the
      // writer finishes (on one core the writer can run to completion
      // before the readers are scheduled at all).
      for (int i = 0; i < 500 || !stop.load(std::memory_order_relaxed);
           ++i) {
        const auto pair =
            stm::atomically(dom, stm::TxKind::ReadOnly, [&](stm::Tx& tx) {
              return std::pair<std::int64_t, std::int64_t>{a.read(tx),
                                                           b.read(tx)};
            });
        if (pair.first != pair.second) violations.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0u);
  const auto stats = domainStatsSnapshot(dom);
  EXPECT_GT(stats.roCommits, 0u);
}

TEST(ReadOnlyTxTest, SnapshotIsolationUnderWritersOrecLazy) {
  stm::Domain dom;  // default: orec backend, lazy acquirement
  runSnapshotIsolation(dom);
}

TEST(ReadOnlyTxTest, SnapshotIsolationUnderWritersOrecEager) {
  stm::Config cfg;
  cfg.lockMode = stm::LockMode::Eager;
  stm::Domain dom(cfg);
  runSnapshotIsolation(dom);
}

TEST(ReadOnlyTxTest, SnapshotIsolationUnderWritersNOrec) {
  stm::Config cfg;
  cfg.backend = stm::TmBackend::NOrec;
  stm::Domain dom(cfg);
  runSnapshotIsolation(dom);
}

// Cross-domain RO: a writer moves value between two domains atomically
// (multi-domain commit); an RO reader joining both domains must always see
// the sum conserved.
TEST(ReadOnlyTxTest, CrossDomainSnapshotIsolation) {
  stm::Domain domA;
  stm::Domain domB;
  stm::TxField<std::int64_t> a(1000);
  stm::TxField<std::int64_t> b(0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  std::thread writer([&] {
    for (int i = 0; i < 10000; ++i) {
      stm::atomically(domA, [&](stm::Tx& tx) {
        stm::DomainScope sa(tx, domA);
        const auto va = a.read(tx);
        a.write(tx, va - 1);
        stm::DomainScope sb(tx, domB);
        b.write(tx, b.read(tx) + 1);
      });
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto sum =
          stm::atomically(domA, stm::TxKind::ReadOnly, [&](stm::Tx& tx) {
            std::int64_t s = 0;
            {
              stm::DomainScope sa(tx, domA);
              s += a.read(tx);
            }
            {
              stm::DomainScope sb(tx, domB);
              s += b.read(tx);
            }
            return s;
          });
      if (sum != 1000) violations.fetch_add(1);
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(a.loadRelaxed() + b.loadRelaxed(), 1000);
}

// End-to-end: tree contains/get/countRange ride the RO path, and the
// snapshot stays consistent under concurrent tree updates.
TEST(ReadOnlyTxTest, TreeReadsUseRoPathAndStayConsistent) {
  for (const auto kind :
       {trees::MapKind::SFTree, trees::MapKind::OptSFTree,
        trees::MapKind::RBTree, trees::MapKind::AVLTree}) {
    SCOPED_TRACE(trees::mapKindName(kind));
    stm::Domain dom;
    trees::MapOptions opts;
    opts.domain = &dom;
    auto map = trees::makeMap(kind, stm::TxKind::Normal, opts);
    for (sftree::Key k = 0; k < 512; ++k) map->insert(k, k);
    // Let the trees' maintenance finish rebalancing the sequential fill: a
    // lookup racing the rotations can go stale twice and be promoted to a
    // read-write transaction, which would not count as an RO commit.
    map->quiesce();

    const auto before = dom.aggregateStats();
    EXPECT_TRUE(map->contains(17));
    EXPECT_EQ(map->get(17), std::optional<sftree::Value>(17));
    EXPECT_EQ(map->countRange(0, 511), 512u);
    const auto after = dom.aggregateStats();
    EXPECT_GE(after.roCommits, before.roCommits + 3);

    // The writer keeps the number of present keys invariant (insert one,
    // erase one per transactionally-composed move); countRange snapshots
    // must always see the invariant count.
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      for (int i = 0; i < 2000; ++i) {
        map->move(i % 512, 1000 + (i % 512));
        map->move(1000 + (i % 512), i % 512);
      }
      stop.store(true);
    });
    // do-while: the writer may finish before the first check.
    std::uint64_t checks = 0;
    do {
      ASSERT_EQ(map->countRange(0, 2000), 512u);
      ++checks;
    } while (!stop.load(std::memory_order_relaxed));
    writer.join();
    EXPECT_GT(checks, 0u);
    EXPECT_EQ(map->countRange(0, 2000), 512u);
  }
}

}  // namespace
