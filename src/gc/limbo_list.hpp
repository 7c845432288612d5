// Limbo list: retired nodes awaiting quiescence (paper §3.4).
//
// Single-consumer design matching the paper: only the maintenance thread
// retires nodes (it is the only physical remover) and only it collects.
// Protocol per maintenance traversal, against the process-wide registry:
//
//   list.openEpoch();   // remember list end + registry snapshot
//   ... full tree traversal ...
//   list.tryCollect();  // free the remembered prefix if quiesced
//
// Collection never blocks: a maintenance thread must not stall on a
// mutator (ThreadRegistry::synchronize is the blocking alternative).
//
// The paper observes the list stays a small fraction of the tree size; we
// expose counters so tests and benches can check that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "gc/thread_registry.hpp"

namespace sftree::gc {

class LimboList {
 public:
  using Deleter = void (*)(void*);

  LimboList() = default;
  LimboList(const LimboList&) = delete;
  LimboList& operator=(const LimboList&) = delete;

  // Frees everything still in limbo. Caller must guarantee no thread can
  // still reference retired nodes (tree destructor: workers joined).
  ~LimboList() { collectAll(); }

  // Maintenance thread only.
  void retire(void* ptr, Deleter deleter) {
    items_.push_back(Item{ptr, deleter});
    ++retiredTotal_;
  }

  // Starts a collection epoch: nodes retired so far become candidates.
  void openEpoch() {
    epochEnd_ = items_.size();
    epochSnapshot_ = ThreadRegistry::instance().snapshot();
    epochOpen_ = true;
  }

  // Frees the epoch's candidates when every thread pending at openEpoch has
  // since completed an operation. Returns the number of nodes freed.
  std::size_t tryCollect() {
    if (!epochOpen_) return 0;
    if (!ThreadRegistry::instance().quiescedSince(epochSnapshot_)) return 0;
    std::size_t freed = 0;
    while (freed < epochEnd_ && !items_.empty()) {
      Item item = items_.front();
      items_.pop_front();
      item.deleter(item.ptr);
      ++freed;
    }
    freedTotal_ += freed;
    epochOpen_ = false;
    epochEnd_ = 0;
    return freed;
  }

  // Unconditional collection (destructor / quiesced teardown).
  void collectAll() {
    while (!items_.empty()) {
      Item item = items_.front();
      items_.pop_front();
      item.deleter(item.ptr);
      ++freedTotal_;
    }
    epochOpen_ = false;
    epochEnd_ = 0;
  }

  std::size_t pending() const { return items_.size(); }
  std::uint64_t retiredTotal() const { return retiredTotal_; }
  std::uint64_t freedTotal() const { return freedTotal_; }

 private:
  struct Item {
    void* ptr;
    Deleter deleter;
  };

  std::deque<Item> items_;
  std::size_t epochEnd_ = 0;
  bool epochOpen_ = false;
  ThreadRegistry::Snapshot epochSnapshot_;
  std::uint64_t retiredTotal_ = 0;
  std::uint64_t freedTotal_ = 0;
};

}  // namespace sftree::gc
