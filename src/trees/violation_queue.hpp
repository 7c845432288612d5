// Mutator-fed violation queue: the channel between abstract operations and
// targeted maintenance.
//
// The paper decouples structural adaptation from the abstract operations but
// still *discovers* the work by depth-first sweeping the whole tree — O(n)
// per pass even when only a handful of nodes are unbalanced or logically
// deleted. The violation queue inverts the discovery: an update transaction
// that creates a potential violation (a new leaf that may unbalance its
// ancestors, a logical deletion awaiting physical removal) publishes the
// *key* of the violated position at commit time, and the maintenance pass
// drains the queue and repairs only the affected root-paths. Adaptation cost
// then tracks update activity, not tree size (the self-adjusting-tree
// lesson; see docs/maintenance.md).
//
// Entries carry a ViolationKind so the drain can repair exactly what the
// publisher saw:
//
//   kInsert  a fresh leaf linked in — ancestors may be unbalanced, but
//            nothing on the path needs physical removal (any removable node
//            carries its own kErase entry), so the repair skips the
//            removal probes.
//   kErase   a logical deletion — the node is a physical-removal candidate.
//            If the removal is refused (two children, already gone), the
//            subtree heights did not change and the repair skips the
//            bottom-up rebalance walk entirely.
//
// Design constraints and the shapes they force:
//
//  * Keys, not node pointers. A queued entry can outlive its node (physical
//    removal, copy-on-rotate retirement, arena recycling), so entries carry
//    the key and the drain re-walks the root-path — which the targeted
//    repair needs anyway. No entry ever dangles.
//  * Sharded MPSC Treiber stacks. Producers are the application threads
//    (commit hooks), the consumer is whichever maintenance worker runs the
//    tree's pass (at most one at a time, same contract as
//    SFTree::runMaintenancePass). Producers hash their thread onto one of a
//    few stacks so concurrent commits do not serialize on one CAS line;
//    drain order is irrelevant (repair is idempotent and positional).
//  * Arena-backed entries. Entry nodes come from a mem::SlabArena and are
//    recycled by the consumer, so steady-state enqueue/drain allocates
//    nothing from the global heap (same motivation as the tree node arenas)
//    and no new slabs: the producers allocate, the consumer frees onto its
//    own free-list shard, and a producer whose shard runs dry takes over
//    the consumer's list (see mem/arena.hpp), so the arena stays at the
//    peak queue depth plus a fixed per-shard slack.
//  * No producer-side dedup. Every committed capture pushes its own entry;
//    the drain sorts each batch by (key, kind) and merges equal neighbours
//    (SFTree::collectViolations), so a burst of updates to one hot key
//    still costs one repair per pass. kInsert and kErase of one key are
//    different kinds and stay apart: an erase is never folded into an
//    insert entry, whose repair would skip the removal.
//  * Bounded depth, derived from the tree. The cap is capFor(n) =
//    max(kMinCap, n/8) for a tree of n keys: a sorted batch of k distinct
//    keys walks about k(log2(n/k) + 2) nodes, a full sweep's n near
//    k = n/4, so past n/8 such entries the sweep the overflow forces costs
//    no more than the targeted drain would (duplicates merge, so they
//    drain cheaper than that). A publish at the cap drops the entry and
//    raises a sticky overflow flag; while the flag is up every capture is
//    dropped, since the pass that consumes the flag falls back to a full
//    sweep that covers them all. The cap rises with n, so without that a
//    fill with maintenance stopped would refill the queue up to n/8 after
//    its first overflow (2^18 entries for 2^21 keys instead of 2^16). A
//    tree mutated heavily while its maintenance is stopped therefore holds
//    at most the cap it first overflowed at, and the drain buffer of the
//    next pass no more.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "mem/arena.hpp"
#include "trees/key.hpp"

namespace sftree::trees {

enum class ViolationKind : std::uint8_t {
  kInsert = 0,
  kErase = 1,
};

// Aggregate counters (racy snapshots; exact when the producer side is
// quiescent).
struct ViolationQueueStats {
  std::uint64_t captured = 0;   // commit hooks that reported a violation
                                // (enqueued + dropped)
  std::uint64_t enqueued = 0;   // entries pushed
  std::uint64_t drained = 0;    // entries consumed by maintenance
  std::uint64_t dropped = 0;    // captures dropped on overflow
  std::uint64_t overflows = 0;  // times the overflow flag was raised
  std::uint64_t drainLatencyUsSum = 0;  // enqueue -> drain, summed over drained
  std::uint64_t depth() const { return enqueued - drained; }
  double meanDrainLatencyUs() const {
    return drained == 0 ? 0.0
                        : static_cast<double>(drainLatencyUsSum) /
                              static_cast<double>(drained);
  }
};

class ViolationQueue {
 public:
  static constexpr std::size_t kShards = 8;  // power of two
  // The cap's floor, the cap itself while n/8 is below it. It sits above
  // the deepest queue measured on such trees in sfbench with a maintenance
  // worker running (51,343 entries in a serve-zipf-read build, 49,385 in a
  // ckpt-move restore), and 2^17 would add 6 MiB to what a 2^18-key fill
  // with maintenance stopped leaves resident (docs/maintenance.md).
  static constexpr std::uint64_t kMinCap = std::uint64_t{1} << 16;

  // Depth cap for a tree of `treeSize` keys (a negative estimate counts
  // as 0).
  static std::uint64_t capFor(std::int64_t treeSize) {
    const auto n =
        static_cast<std::uint64_t>(std::max<std::int64_t>(treeSize, 0));
    return std::max(kMinCap, n / 8);
  }

  ViolationQueue() = default;
  ViolationQueue(const ViolationQueue&) = delete;
  ViolationQueue& operator=(const ViolationQueue&) = delete;

  ~ViolationQueue() {
    for (auto& s : shards_) {
      Entry* e = s.head.load(std::memory_order_acquire);
      while (e != nullptr) {
        Entry* next = e->next;
        mem::SlabArena::recycle(e);
        e = next;
      }
    }
  }

  // Producer side (commit hooks, any thread); `treeSize` is the tree's
  // size estimate. At capFor(treeSize), or while the overflow flag is up,
  // the capture is dropped. Every dropping publisher raises the flag with a
  // read-modify-write, even when it is already up: if the consumer cleared
  // it first, the flag goes up again; otherwise the consumer's exchange
  // reads this write, so the sweep it forces sees the dropped update.
  void publish(Key k, ViolationKind kind, std::int64_t treeSize) {
    if (overflow_.load(std::memory_order_relaxed) ||
        depth() >= capFor(treeSize)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      if (!overflow_.exchange(true, std::memory_order_acq_rel)) {
        overflows_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    auto* e = static_cast<Entry*>(arena_.allocate());
    e->key = k;
    e->enqueuedUs = nowUs();
    e->kind = kind;
    push(shards_[shardFor()], e);
    enqueued_.fetch_add(1, std::memory_order_relaxed);
  }

  // Consumer side (single maintenance worker at a time). Pops every entry
  // present at the start of the drain and invokes fn(key, kind) for each.
  // fn returning false stops the drain; the remaining entries are pushed
  // back intact (their enqueue timestamps preserved). Returns the number of
  // entries consumed.
  template <typename F>
  std::size_t drain(F&& fn) {
    std::size_t consumed = 0;
    const std::uint64_t now = nowUs();
    for (auto& s : shards_) {
      Entry* e = s.head.exchange(nullptr, std::memory_order_acq_rel);
      while (e != nullptr) {
        Entry* next = e->next;
        drainLatencyUsSum_.fetch_add(
            now > e->enqueuedUs ? now - e->enqueuedUs : 0,
            std::memory_order_relaxed);
        drained_.fetch_add(1, std::memory_order_relaxed);
        ++consumed;
        const bool keepGoing = fn(e->key, e->kind);
        mem::SlabArena::recycle(e);
        if (!keepGoing) {
          while (next != nullptr) {
            Entry* after = next->next;
            push(s, next);
            next = after;
          }
          return consumed;
        }
        e = next;
      }
    }
    return consumed;
  }

  // Entries currently queued (racy snapshot).
  std::uint64_t depth() const {
    const std::uint64_t enq = enqueued_.load(std::memory_order_relaxed);
    const std::uint64_t dr = drained_.load(std::memory_order_relaxed);
    return enq > dr ? enq - dr : 0;
  }

  // Consumes the sticky overflow flag: true when captures were dropped since
  // the last call, i.e. the caller must fall back to a full sweep.
  bool consumeOverflow() {
    return overflow_.exchange(false, std::memory_order_acq_rel);
  }
  // Puts a consumed flag back: the sweep it forced did not complete.
  void raiseOverflow() { overflow_.store(true, std::memory_order_release); }

  ViolationQueueStats stats() const {
    ViolationQueueStats out;
    out.enqueued = enqueued_.load(std::memory_order_relaxed);
    out.drained = drained_.load(std::memory_order_relaxed);
    out.dropped = dropped_.load(std::memory_order_relaxed);
    out.captured = out.enqueued + out.dropped;
    out.overflows = overflows_.load(std::memory_order_relaxed);
    out.drainLatencyUsSum =
        drainLatencyUsSum_.load(std::memory_order_relaxed);
    return out;
  }

  // The entries' arena (footprint diagnostics).
  const mem::SlabArena& arenaForStats() const { return arena_; }

 private:
  struct Entry {
    Entry* next;
    Key key;
    std::uint64_t enqueuedUs;
    ViolationKind kind;
  };

  struct alignas(64) Shard {
    std::atomic<Entry*> head{nullptr};
  };

  static std::uint64_t nowUs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  static std::size_t shardFor() {
    // Hash the thread onto a shard, like the arena's free-list shards.
    static thread_local const std::size_t shard = [] {
      static std::atomic<std::size_t> counter{0};
      return counter.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
    }();
    return shard;
  }

  void push(Shard& s, Entry* e) {
    e->next = s.head.load(std::memory_order_relaxed);
    while (!s.head.compare_exchange_weak(e->next, e, std::memory_order_release,
                                         std::memory_order_relaxed)) {
    }
  }

  mem::SlabArena arena_{sizeof(Entry)};
  Shard shards_[kShards];

  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> drained_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> overflows_{0};
  std::atomic<std::uint64_t> drainLatencyUsSum_{0};
  std::atomic<bool> overflow_{false};
};

}  // namespace sftree::trees
