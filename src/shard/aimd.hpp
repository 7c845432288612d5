// Adaptive batch size (AIMD) for the batch loops that run transactions
// against live traffic (ShardedMap::migrateSlots, serve::ServingTier). A
// batch that aborted collided with live traffic inside its conflict window,
// so the next one is halved to narrow the window; two consecutive clean
// batches double it back toward the ceiling.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sftree::shard {

class AimdBatch {
 public:
  // Starts at the ceiling and never shrinks below `floor`.
  AimdBatch(std::size_t ceiling, std::size_t floor)
      : size_(ceiling), ceiling_(ceiling), floor_(floor) {}

  std::size_t size() const { return size_; }
  // Decisions so far. One thread records; others may read these (racy
  // snapshots for metrics).
  std::uint64_t shrinks() const {
    return shrinks_.load(std::memory_order_relaxed);
  }
  std::uint64_t grows() const { return grows_.load(std::memory_order_relaxed); }

  void record(bool aborted) {
    if (aborted) {
      cleanStreak_ = 0;
      if (size_ > floor_) {
        size_ = std::max(floor_, size_ / 2);
        shrinks_.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (++cleanStreak_ >= 2 && size_ < ceiling_) {
      cleanStreak_ = 0;
      size_ = std::min(ceiling_, size_ * 2);
      grows_.fetch_add(1, std::memory_order_relaxed);
    }
  }

 private:
  std::size_t size_;
  const std::size_t ceiling_;
  const std::size_t floor_;
  int cleanStreak_ = 0;
  std::atomic<std::uint64_t> shrinks_{0};
  std::atomic<std::uint64_t> grows_{0};
};

}  // namespace sftree::shard
