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
//   kAccess  a sampled lookup hit — no violation at all, but fuel for the
//            access-frequency splay heuristic (docs/splaying.md): the drain
//            folds the ticks into the node's decayed heat estimate and may
//            promote it toward the root. Published by read-only commits,
//            sampled 1-in-2^k per thread so the read path stays cheap.
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
//  * Lossy commit-time dedup, one claim space per kind. A small table of
//    per-slot key claims (hash(key) -> key) absorbs the common burst of
//    repeated updates to one hot key: an enqueue whose claim is already
//    present skips the push. The claim spaces are per kind so an erase
//    following an un-drained insert of the same key is never silently
//    absorbed into an entry whose repair would skip the removal — dedup can
//    suppress duplicates of the *same* kind, never lose a violation of
//    another. The claim is released by the drain *before* it examines the
//    node state (acq_rel exchange on both sides), so an update that commits
//    while its key is being repaired always re-enqueues. Collisions merely
//    overwrite a claim, which re-admits one duplicate: benign.
//  * Counted access dedup. Heat estimation needs *how often*, not just
//    *whether*, so a deduped kAccess capture increments a per-slot absorbed
//    tick counter instead of vanishing; the drain hands the entry's weight
//    (1 + absorbed) to the consumer. A claim overwritten by a colliding key
//    drops the orphaned ticks (heat is a lossy estimate by contract).
//  * Bounded depth. Past kMaxDepth the enqueue drops the entry and raises a
//    sticky overflow flag instead; the maintenance pass that observes the
//    flag falls back to a full sweep (the safety net for anything the queue
//    missed). A tree mutated heavily while its maintenance is stopped
//    therefore wastes bounded memory.
#pragma once

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
  kAccess = 2,
};

inline constexpr std::size_t kViolationKindCount = 3;

// Aggregate counters (racy snapshots; exact when the producer side is
// quiescent).
struct ViolationQueueStats {
  std::uint64_t captured = 0;       // commit hooks that reported a violation
  std::uint64_t enqueued = 0;       // entries actually pushed (captured - deduped)
  std::uint64_t deduped = 0;        // captures absorbed by an existing claim
  std::uint64_t drained = 0;        // entries consumed by maintenance
  std::uint64_t dropped = 0;        // captures dropped on overflow
  std::uint64_t overflows = 0;      // times the overflow flag was raised
  std::uint64_t absorbedTicks = 0;  // deduped kAccess captures counted into
                                    // the pending entry's weight
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
  static constexpr std::size_t kShards = 8;      // power of two
  static constexpr std::size_t kDedupSlots = 2048;  // power of two, per kind
  static constexpr std::uint64_t kMaxDepth = std::uint64_t{1} << 20;

  ViolationQueue() {
    for (auto& space : dedup_) {
      for (auto& s : space) s.key.store(kNoClaim, std::memory_order_relaxed);
    }
  }

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

  // Producer side (commit hooks, any thread). Returns true when an entry was
  // pushed, false when the capture was deduped or dropped on overflow.
  bool publish(Key k, ViolationKind kind = ViolationKind::kInsert) {
    captured_.fetch_add(1, std::memory_order_relaxed);
    // Claim the kind's dedup slot first: acq_rel pairs with the drain's
    // release, so whichever side wins the exchange race, either the claim is
    // fresh (we push) or the drain that holds it will observe this update's
    // committed state after clearing it.
    auto& slot = dedup_[kindIndex(kind)][slotFor(k)];
    const Key prev = slot.key.exchange(k, std::memory_order_acq_rel);
    if (prev == k) {
      deduped_.fetch_add(1, std::memory_order_relaxed);
      if (kind == ViolationKind::kAccess) {
        // Preserve the tick: the pending entry drains with this weight.
        slot.extra.fetch_add(1, std::memory_order_relaxed);
        absorbedTicks_.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
    if (kind == ViolationKind::kAccess && prev != kNoClaim) {
      // Collision takeover: the absorbed ticks in the slot belong to the
      // overwritten key, whose entry will drain with weight 1. Drop them
      // rather than credit them to us (heat is lossy by contract).
      slot.extra.store(0, std::memory_order_relaxed);
    }
    if (depth() >= kMaxDepth) {
      // Drop the capture and raise the sweep flag — and release the claim
      // just installed, so later captures of this key are not silently
      // absorbed by a claim that has no queued entry behind it.
      releaseClaim(k, kind);
      dropped_.fetch_add(1, std::memory_order_relaxed);
      if (!overflow_.exchange(true, std::memory_order_acq_rel)) {
        overflows_.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
    auto* e = static_cast<Entry*>(arena_.allocate());
    e->key = k;
    e->enqueuedUs = nowUs();
    e->kind = kind;
    Shard& s = shards_[shardFor()];
    e->next = s.head.load(std::memory_order_relaxed);
    while (!s.head.compare_exchange_weak(e->next, e, std::memory_order_release,
                                         std::memory_order_relaxed)) {
    }
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Consumer side (single maintenance worker at a time). Pops every entry
  // present at the start of the drain and invokes fn(key, kind, weight) for
  // each after releasing the key's dedup claim (weight is 1 plus the ticks
  // absorbed by an access entry's claim while it sat queued; 1 for the
  // structural kinds). fn returning false stops the drain; the remaining
  // entries are pushed back intact (their enqueue timestamps preserved).
  // Returns the number of entries consumed.
  template <typename F>
  std::size_t drain(F&& fn) {
    std::size_t consumed = 0;
    const std::uint64_t now = nowUs();
    for (auto& s : shards_) {
      Entry* e = s.head.exchange(nullptr, std::memory_order_acq_rel);
      while (e != nullptr) {
        Entry* next = e->next;
        const std::uint32_t weight =
            1 + releaseClaim(e->key, e->kind);
        drainLatencyUsSum_.fetch_add(
            now > e->enqueuedUs ? now - e->enqueuedUs : 0,
            std::memory_order_relaxed);
        drained_.fetch_add(1, std::memory_order_relaxed);
        ++consumed;
        const bool keepGoing = fn(e->key, e->kind, weight);
        mem::SlabArena::recycle(e);
        if (!keepGoing) {
          while (next != nullptr) {
            Entry* after = next->next;
            pushBack(s, next);
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

  ViolationQueueStats stats() const {
    ViolationQueueStats out;
    out.captured = captured_.load(std::memory_order_relaxed);
    out.enqueued = enqueued_.load(std::memory_order_relaxed);
    out.deduped = deduped_.load(std::memory_order_relaxed);
    out.drained = drained_.load(std::memory_order_relaxed);
    out.dropped = dropped_.load(std::memory_order_relaxed);
    out.overflows = overflows_.load(std::memory_order_relaxed);
    out.absorbedTicks = absorbedTicks_.load(std::memory_order_relaxed);
    out.drainLatencyUsSum =
        drainLatencyUsSum_.load(std::memory_order_relaxed);
    return out;
  }

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

  // One cache line per slot: claim exchanges ride every update commit, and
  // two concurrently hot keys must not false-share. `extra` counts absorbed
  // access ticks while the slot's claim is held (kAccess space only).
  struct alignas(64) DedupSlot {
    std::atomic<Key> key;
    std::atomic<std::uint32_t> extra{0};
  };

  // The sentinel never appears as a user key (SFTree asserts k < +inf).
  static constexpr Key kNoClaim = kInfiniteKey;

  static std::size_t kindIndex(ViolationKind k) {
    return static_cast<std::size_t>(k);
  }

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

  static std::size_t slotFor(Key k) {
    auto h = static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h >> 32) & (kDedupSlots - 1);
  }

  // Releases k's claim in its kind space and returns the absorbed ticks
  // collected while the claim was held (kAccess; 0 for the structural
  // kinds). Only releases our own key's claim: a collision may have
  // overwritten it with another key whose entry is still queued. The ticks
  // are grabbed *before* the release so a fresh burst starting right after
  // the release is not stolen from the next entry; a tick landing between
  // the grab and the release leaks into the slot's next claimant — lossy by
  // contract, like the collision cases.
  std::uint32_t releaseClaim(Key k, ViolationKind kind) {
    auto& slot = dedup_[kindIndex(kind)][slotFor(k)];
    std::uint32_t ticks = 0;
    if (kind == ViolationKind::kAccess &&
        slot.key.load(std::memory_order_acquire) == k) {
      ticks = slot.extra.exchange(0, std::memory_order_acq_rel);
    }
    Key expected = k;
    slot.key.compare_exchange_strong(expected, kNoClaim,
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed);
    return ticks;
  }

  void pushBack(Shard& s, Entry* e) {
    e->next = s.head.load(std::memory_order_relaxed);
    while (!s.head.compare_exchange_weak(e->next, e, std::memory_order_release,
                                         std::memory_order_relaxed)) {
    }
  }

  mem::SlabArena arena_{sizeof(Entry)};
  Shard shards_[kShards];
  DedupSlot dedup_[kViolationKindCount][kDedupSlots];

  std::atomic<std::uint64_t> captured_{0};
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> deduped_{0};
  std::atomic<std::uint64_t> drained_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> overflows_{0};
  std::atomic<std::uint64_t> absorbedTicks_{0};
  std::atomic<std::uint64_t> drainLatencyUsSum_{0};
  std::atomic<bool> overflow_{false};
};

}  // namespace sftree::trees
