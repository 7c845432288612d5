// Memory that tracks the live keys: a level-order fill of 2^18 keys with
// maintenance stopped, then one quiesceNow(), may grow the process's
// resident set by the tree's node slabs plus a fixed allowance only. What
// keeps it there: the violation queue's cap follows the tree's size (so the
// fill leaves at most 2^16 entries, not one per key, and the quiesce's
// drain buffer holds no more), and slabs come from mapped runs without a
// per-slab allocator fragment.
//
// Its own binary, so the process holds nothing but this test. Sanitizer
// builds skip it: their shadow memory inflates the resident set.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "mem/arena.hpp"
#include "trees/sftree.hpp"

namespace trees = sftree::trees;
using sftree::Key;

namespace {

// VmRSS of this process in bytes.
std::size_t residentBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<std::size_t>(std::stoull(line.substr(6))) * 1024;
    }
  }
  ADD_FAILURE() << "no VmRSS line in /proc/self/status";
  return 0;
}

// [0, n) in the level order of a perfectly balanced search tree (median
// first, then the medians of both halves, and so on).
std::vector<Key> levelOrder(Key n) {
  std::vector<Key> out;
  out.reserve(static_cast<std::size_t>(n));
  std::vector<std::pair<Key, Key>> ranges{{0, n}};  // half-open, BFS queue
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const auto [lo, hi] = ranges[i];
    if (lo >= hi) continue;
    const Key mid = lo + (hi - lo) / 2;
    out.push_back(mid);
    ranges.emplace_back(lo, mid);
    ranges.emplace_back(mid + 1, hi);
  }
  return out;
}

TEST(MemoryFootprintTest, FillAndQuiesceStayWithinNodeSlabsPlusAllowance) {
#ifdef SFTREE_SANITIZED
  GTEST_SKIP() << "sanitizer shadow memory inflates the resident set";
#endif
  constexpr Key kKeys = Key{1} << 18;
  constexpr std::size_t kAllowance = std::size_t{20} << 20;
  const std::vector<Key> order = levelOrder(kKeys);
  const std::size_t before = residentBytes();

  trees::SFTreeConfig cfg;
  cfg.startMaintenance = false;
  trees::SFTree tree(cfg);
  for (Key k : order) tree.insert(k, k);
  EXPECT_EQ(tree.quiesceNow(), 1);

  const std::size_t after = residentBytes();
  const std::size_t grown = after > before ? after - before : 0;
  const std::size_t slabBytes =
      tree.arenaForStats().slabCount() * sftree::mem::SlabArena::kSlabBytes;
  std::printf("VmRSS +%.1f MiB: %.1f MiB of node slabs + %.1f MiB\n",
              grown / 1048576.0, slabBytes / 1048576.0,
              (static_cast<double>(grown) - static_cast<double>(slabBytes)) /
                  1048576.0);
  EXPECT_LE(grown, slabBytes + kAllowance);
  EXPECT_EQ(tree.abstractSize(), static_cast<std::size_t>(kKeys));
}

}  // namespace
