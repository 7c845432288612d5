// The process-wide thread registry for the paper's quiescence-based
// reclamation (§3.4).
//
// Every thread that runs transactions owns one slot with
//   * a boolean `pending`  — an operation is in flight, and
//   * a counter `completed` — number of finished operations.
// The operation is the bracket (OpGuard): stm::atomically holds one across
// the whole retry loop of every outermost transaction — final validation
// and commit hooks included — and code that peeks shared memory outside a
// transaction (a routing-table read before choosing a domain) takes one
// explicitly. Brackets nest through a thread-local depth; only depth 0
// touches the slot, so an operation costs one locked instruction however
// many structures, domains and composed calls it spans.
//
// Reclaimers snapshot all slots after unlinking; memory unlinked before the
// snapshot may be freed once every slot has either completed an operation
// since the snapshot or had none pending at snapshot time (those threads
// can no longer hold references to unlinked memory: any later operation
// starts from a root that no longer reaches it). Two ways to wait:
//   * non-blocking — LimboList keeps the snapshot and polls quiescedSince()
//     (the maintenance threads, which must never stall on a mutator);
//   * blocking — synchronize() (routing-table republication, shard
//     retirement, the checkpoint barrier and fence).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace sftree::gc {

class ThreadRegistry {
 public:
  struct alignas(64) Slot {
    std::atomic<bool> pending{false};
    // Written only by the owning thread (single writer, release stores).
    // Never reset, so a slot reused by a new thread stays monotonic.
    std::atomic<std::uint64_t> completed{0};
    std::atomic<bool> inUse{false};
  };

  struct SlotSnapshot {
    const Slot* slot;
    std::uint64_t completed;
  };
  // The slots that had an operation pending at snapshot time.
  using Snapshot = std::vector<SlotSnapshot>;

  // The one registry (created on first use, never destroyed: thread exit
  // and static teardown may still release slots into it).
  static ThreadRegistry& instance();

  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;

  // Records every pending slot. Starts with a seq_cst fence so that a
  // bracket entered after the snapshot is ordered after the caller's
  // preceding unlink and cannot reach the unlinked memory.
  Snapshot snapshot() const;

  // True when every thread that was mid-operation at snapshot time has
  // since completed that operation.
  bool quiescedSince(const Snapshot& snap) const;

  // Blocks until every bracket open at the call has closed. The caller
  // must not hold a bracket itself (it would wait for itself). Concurrent
  // callers are independent: each waits on its own snapshot.
  void synchronize() const;

  std::size_t slotCountForTest() const;

  // The calling thread's slot (claimed on first use, stable until the
  // thread exits; the slot is then free for reuse).
  Slot& currentSlot();

 private:
  ThreadRegistry() = default;
  // Slow path of currentSlot(): claims a free slot (or appends one) and
  // arranges its release at thread exit.
  Slot* attachCurrentThread();

  mutable std::mutex mu_;
  // Slots are never freed: a cached slot pointer can never dangle.
  std::vector<std::unique_ptr<Slot>> slots_;
};

namespace detail {
// Trivially constructed thread-locals: the bracket fast path is a direct
// TLS access, with no initialization guard.
inline thread_local ThreadRegistry::Slot* tSlot = nullptr;
inline thread_local int tDepth = 0;
}  // namespace detail

inline ThreadRegistry::Slot& ThreadRegistry::currentSlot() {
  return detail::tSlot != nullptr ? *detail::tSlot : *attachCurrentThread();
}

// Bracket depth of the calling thread; 0 = outside every operation.
inline int bracketDepth() { return detail::tDepth; }

// One operation's bracket. Entering at depth 0 is one seq_cst store
// (pending = true); leaving at depth 1 bumps `completed` and clears
// `pending` with release stores. While any thread's bracket is open,
// memory it may reference is not freed. Prefer OpGuard; the explicit pair
// is for scopes that must do work before entering (ShardedMap::OpScope
// parks on its fence first).
inline void enterBracket() {
  if (detail::tDepth == 0) {
    ThreadRegistry::Slot* s = detail::tSlot;
    if (s == nullptr) s = &ThreadRegistry::instance().currentSlot();
    s->pending.store(true, std::memory_order_seq_cst);
  }
  ++detail::tDepth;
}

inline void exitBracket() {
  if (--detail::tDepth == 0) {
    ThreadRegistry::Slot* s = detail::tSlot;
    s->completed.store(s->completed.load(std::memory_order_relaxed) + 1,
                       std::memory_order_release);
    s->pending.store(false, std::memory_order_release);
  }
}

// RAII bracket around one operation.
class OpGuard {
 public:
  OpGuard() { enterBracket(); }
  ~OpGuard() { exitBracket(); }
  OpGuard(const OpGuard&) = delete;
  OpGuard& operator=(const OpGuard&) = delete;
};

}  // namespace sftree::gc
