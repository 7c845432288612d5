// Slab arena for tree/list node allocation.
//
// The structures allocate one fixed-size node per insert and retire nodes
// through the quiescence GC (gc/limbo_list.hpp). Routing that traffic
// through the global allocator costs a malloc/free round trip per node,
// scatters hot nodes across the heap (header words between every node), and
// funnels every domain's allocation through one allocator lock. The arena
// replaces it with:
//
//   * slabs: 64 KiB chunks, aligned to their own size, carved into
//     cache-line-aligned blocks of one fixed stride — no per-block header,
//     adjacent allocations are adjacent in memory. Slabs are cut in turn
//     from 1 MiB runs mapped straight from the OS (mmap, trimmed to slab
//     alignment): an aligned ::operator new per slab cost about 8 KiB of
//     glibc padding per 64 KiB slab. A run's pages become resident only as
//     its slabs are carved and written;
//   * per-thread free-list shards with adoption: a free goes onto the
//     calling thread's shard (one of several independently locked lists),
//     so concurrent allocation/retirement does not serialize on one lock.
//     In the paper's design the maintenance thread frees nearly every node
//     the application threads allocate, so an allocation that finds its own
//     list empty takes over another shard's whole list before it carves
//     fresh blocks: it detaches that list in O(1) under that shard's lock
//     alone (never two shard locks at once) and splices it into its own.
//     Shards whose lock-free count hint is below kAdoptMin blocks are
//     skipped, so a fill (every list empty) takes no extra lock. A slab is
//     carved only when no shard holds kAdoptMin blocks, which bounds an
//     arena's footprint at
//         peak live blocks + kFreeShards x (kAdoptMin + kRefillBatch)
//     blocks (rounded up to whole slabs; the hints are racy, so a block
//     being freed concurrently with the check may be missed) instead of
//     letting it grow with run time;
//   * GC integration: `SlabArena::recycle(p)` finds the owning arena from
//     the slab header (slab base = pointer rounded down to the slab size),
//     so a limbo-list deleter can return a node to the arena of whatever
//     domain/structure it came from without carrying a context pointer.
//
// Safety against ABA on recycled nodes is inherited from the quiescence
// protocol: a node is only retired into the arena by the limbo list after
// every operation that could still reference it has closed its bracket in
// the process-wide registry (gc/thread_registry.hpp), exactly as with the
// global allocator before (or by an aborted transaction's rollback, for a
// node no other thread ever saw). Moving a free block between shards does
// not change when it became free. The arena never returns memory to the OS
// while alive; the destructor unmaps its runs wholesale, so a destroyed
// structure's slabs go back to the OS instead of staying in the allocator's
// heap — for a shard retired by a merge, only after
// ThreadRegistry::synchronize() has waited out every bracket that could
// still reach the tree.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

namespace sftree::mem {

class SlabArena {
 public:
  // 64 KiB slabs: big enough that the bump path is rare, small enough that
  // an idle structure wastes little. Must be a power of two — recycle()
  // masks a block pointer down to its slab base.
  static constexpr std::size_t kSlabBytes = std::size_t{1} << 16;
  // Slabs are carved from runs of this size, one mmap each.
  static constexpr std::size_t kRunBytes = std::size_t{1} << 20;
  static constexpr std::size_t kBlockAlign = 64;  // cache line
  static constexpr std::size_t kFreeShards = 8;   // power of two
  // Blocks handed from the bump region to a free shard per refill, so a
  // burst of allocations takes the slab mutex once, not per block.
  static constexpr std::size_t kRefillBatch = 16;

  explicit SlabArena(std::size_t blockSize);
  ~SlabArena();

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  // One block, cache-line aligned, uninitialized. Never returns null
  // (allocation failure throws std::bad_alloc).
  void* allocate();

  // Returns a block to the arena that allocated it, found via the slab
  // header — callable from any thread, with or without a reference to the
  // arena (this is what lets a limbo-list deleter be a plain function
  // pointer). The block must have come from a live SlabArena.
  static void recycle(void* p);

  std::size_t blockSize() const { return blockSize_; }
  std::size_t strideBytes() const { return stride_; }

  // Diagnostics (racy snapshots, test use).
  std::size_t slabCount() const;
  std::uint64_t allocated() const;
  std::uint64_t recycled() const;
  // Blocks currently handed out (allocated - recycled).
  std::int64_t liveBlocks() const {
    return static_cast<std::int64_t>(allocated()) -
           static_cast<std::int64_t>(recycled());
  }

 private:
  // A shard's list is adopted only when its count hint reaches this, so an
  // adoption moves enough blocks to pay for the foreign lock it takes.
  static constexpr std::size_t kAdoptMin = 64;

  struct FreeNode {
    FreeNode* next;
  };

  // At the base of every slab; blocks start at the next cache line.
  struct SlabHeader {
    SlabArena* owner;
  };

  // Every field is written only under `mu`. The atomics let adopters read
  // `count` as a lock-free hint and the diagnostics sum the tallies without
  // the lock; writers store load+1 rather than read-modify-write.
  struct alignas(64) FreeShard {
    std::mutex mu;
    FreeNode* head = nullptr;
    FreeNode* tail = nullptr;  // valid while head != nullptr
    std::atomic<std::size_t> count{0};       // blocks on the list
    std::atomic<std::uint64_t> allocated{0};  // handed out by this shard
    std::atomic<std::uint64_t> recycled{0};   // freed onto this shard
  };

  // A detached chain of free blocks.
  struct Chain {
    FreeNode* head = nullptr;
    FreeNode* tail = nullptr;
    std::size_t count = 0;
  };

  void pushFree(void* p);
  // Takes the whole list of the first other shard holding at least
  // kAdoptMin blocks; an empty chain when none does.
  Chain adopt(const FreeShard& own);
  // Carves up to kRefillBatch fresh blocks from the bump region, which
  // moves to the next slab of the newest run (mapping a run when it is
  // used up) once it is empty.
  Chain carve();
  // Maps one kRunBytes run aligned to kSlabBytes.
  static void* mapRun();
  // Locks `shard`, hands out `c`'s first block and splices the rest onto
  // the shard's list.
  static void* takeOneSpliceRest(FreeShard& shard, Chain c);

  static std::size_t threadShard();

  const std::size_t blockSize_;
  const std::size_t stride_;

  FreeShard shards_[kFreeShards];

  mutable std::mutex slabMu_;  // guards the runs and the bump region
  std::vector<void*> runs_;    // kRunBytes each, unmapped by the destructor
  std::size_t slabs_ = 0;      // slabs carved so far, across the runs
  unsigned char* bumpNext_ = nullptr;
  unsigned char* bumpEnd_ = nullptr;
};

// Typed convenience wrapper: placement-construction plus a deleter with the
// `void(*)(void*)` signature the limbo list and Tx::onAbortDelete expect.
template <typename T>
class NodeArena {
 public:
  NodeArena() : arena_(sizeof(T)) {}

  template <typename... Args>
  T* create(Args&&... args) {
    return new (arena_.allocate()) T(std::forward<Args>(args)...);
  }

  // Destroys and recycles a node created by any NodeArena<T> — the slab
  // header routes the block back to its owning arena, so this static
  // function is directly usable as a gc::LimboList deleter.
  static void destroy(void* p) {
    static_cast<T*>(p)->~T();
    SlabArena::recycle(p);
  }

  SlabArena& raw() { return arena_; }
  const SlabArena& raw() const { return arena_; }

 private:
  SlabArena arena_;
};

}  // namespace sftree::mem
