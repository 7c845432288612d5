#include "gc/thread_registry.hpp"

#include <cassert>
#include <thread>

namespace sftree::gc {

namespace {

// Returns the thread's slot to the registry at thread exit. The thread is
// outside every bracket by then, so `pending` is already false.
struct SlotRelease {
  ~SlotRelease() {
    if (detail::tSlot == nullptr) return;
    detail::tSlot->inUse.store(false, std::memory_order_release);
    detail::tSlot = nullptr;
  }
};

}  // namespace

ThreadRegistry& ThreadRegistry::instance() {
  static ThreadRegistry* reg = new ThreadRegistry;
  return *reg;
}

ThreadRegistry::Slot* ThreadRegistry::attachCurrentThread() {
  thread_local SlotRelease release;
  Slot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& s : slots_) {
      bool expected = false;
      if (s->inUse.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
        slot = s.get();
        break;
      }
    }
    if (slot == nullptr) {
      slots_.push_back(std::make_unique<Slot>());
      slot = slots_.back().get();
      slot->inUse.store(true, std::memory_order_relaxed);
    }
  }
  detail::tSlot = slot;
  return slot;
}

ThreadRegistry::Snapshot ThreadRegistry::snapshot() const {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::lock_guard<std::mutex> lk(mu_);
  Snapshot snap;
  for (const auto& s : slots_) {
    if (!s->pending.load(std::memory_order_acquire)) continue;
    snap.push_back(
        SlotSnapshot{s.get(), s->completed.load(std::memory_order_acquire)});
  }
  return snap;
}

bool ThreadRegistry::quiescedSince(const Snapshot& snap) const {
  for (const SlotSnapshot& e : snap) {
    if (e.slot->completed.load(std::memory_order_acquire) > e.completed) {
      continue;  // that operation (at least) has finished since
    }
    if (!e.slot->pending.load(std::memory_order_acquire)) {
      continue;  // finished between the two loads, no new one started
    }
    return false;
  }
  return true;
}

void ThreadRegistry::synchronize() const {
  assert(bracketDepth() == 0 &&
         "synchronize() inside a bracket would wait on itself");
  const Snapshot snap = snapshot();
  while (!quiescedSince(snap)) std::this_thread::yield();
}

std::size_t ThreadRegistry::slotCountForTest() const {
  std::lock_guard<std::mutex> lk(mu_);
  return slots_.size();
}

}  // namespace sftree::gc
