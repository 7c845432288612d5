#include "mem/arena.hpp"

#include <sys/mman.h>

#include <cassert>
#include <cstdint>

namespace sftree::mem {

namespace {

constexpr std::size_t roundUp(std::size_t v, std::size_t a) {
  return (v + a - 1) & ~(a - 1);
}

// Shard fields change only under the shard's lock, so load + store is an
// exact update; the atomics serve the lock-free readers.
template <typename T>
void addRelaxed(std::atomic<T>& a, T delta) {
  a.store(a.load(std::memory_order_relaxed) + delta,
          std::memory_order_relaxed);
}

}  // namespace

SlabArena::SlabArena(std::size_t blockSize)
    : blockSize_(blockSize),
      // A free block doubles as a FreeNode; keep blocks a cache-line
      // multiple so consecutive blocks never share a line.
      stride_(roundUp(blockSize < sizeof(FreeNode) ? sizeof(FreeNode)
                                                   : blockSize,
                      kBlockAlign)) {
  assert(stride_ <= kSlabBytes - kBlockAlign && "block larger than a slab");
}

SlabArena::~SlabArena() {
  // Blocks are freed wholesale with their runs; nodes must already be
  // destroyed (the structures' nodes are trivially destructible, and the
  // limbo lists run their deleters before the arena member is destroyed).
  for (void* run : runs_) ::munmap(run, kRunBytes);
}

void* SlabArena::mapRun() {
  // Map one slab more than the run, then unmap the misaligned head and
  // whatever lies past the aligned run.
  constexpr std::size_t kMapBytes = kRunBytes + kSlabBytes;
  void* raw = ::mmap(nullptr, kMapBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::size_t head = roundUp(base, kSlabBytes) - base;
  auto* run = static_cast<unsigned char*>(raw) + head;
  if (head != 0) ::munmap(raw, head);
  ::munmap(run + kRunBytes, kMapBytes - head - kRunBytes);
  return run;
}

std::size_t SlabArena::threadShard() {
  // Distinct threads land on distinct shards until kFreeShards of them
  // collide; a thread keeps its shard for its lifetime.
  static std::atomic<std::size_t> nextId{0};
  thread_local const std::size_t id =
      nextId.fetch_add(1, std::memory_order_relaxed);
  return id & (kFreeShards - 1);
}

void* SlabArena::allocate() {
  FreeShard& own = shards_[threadShard()];
  {
    std::lock_guard<std::mutex> lk(own.mu);
    if (FreeNode* n = own.head) {
      own.head = n->next;
      own.count.store(own.count.load(std::memory_order_relaxed) - 1,
                      std::memory_order_relaxed);
      addRelaxed(own.allocated, std::uint64_t{1});
      return n;
    }
  }
  // Own list empty: reuse blocks other threads freed before carving new ones.
  Chain c = adopt(own);
  if (c.count == 0) c = carve();
  return takeOneSpliceRest(own, c);
}

SlabArena::Chain SlabArena::adopt(const FreeShard& own) {
  const auto self = static_cast<std::size_t>(&own - shards_);
  for (std::size_t i = 1; i < kFreeShards; ++i) {
    FreeShard& other = shards_[(self + i) & (kFreeShards - 1)];
    if (other.count.load(std::memory_order_relaxed) < kAdoptMin) continue;
    std::lock_guard<std::mutex> lk(other.mu);
    const std::size_t n = other.count.load(std::memory_order_relaxed);
    if (n < kAdoptMin) continue;  // drained since the hint was read
    Chain c{other.head, other.tail, n};
    other.head = nullptr;
    other.count.store(0, std::memory_order_relaxed);
    return c;
  }
  return {};
}

SlabArena::Chain SlabArena::carve() {
  unsigned char* first;
  std::size_t take;
  {
    std::lock_guard<std::mutex> lk(slabMu_);
    if (bumpNext_ == bumpEnd_) {
      constexpr std::size_t kSlabsPerRun = kRunBytes / kSlabBytes;
      if (slabs_ % kSlabsPerRun == 0) runs_.push_back(mapRun());
      auto* slab = static_cast<unsigned char*>(runs_.back()) +
                   (slabs_ % kSlabsPerRun) * kSlabBytes;
      ++slabs_;
      new (slab) SlabHeader{this};
      bumpNext_ = slab + kBlockAlign;  // blocks start at the next line
      bumpEnd_ = slab + ((kSlabBytes - kBlockAlign) / stride_) * stride_ +
                 kBlockAlign;
    }
    const std::size_t avail =
        static_cast<std::size_t>(bumpEnd_ - bumpNext_) / stride_;
    take = avail < kRefillBatch ? avail : kRefillBatch;
    first = bumpNext_;
    bumpNext_ += take * stride_;
  }
  for (std::size_t i = 0; i + 1 < take; ++i) {
    reinterpret_cast<FreeNode*>(first + i * stride_)->next =
        reinterpret_cast<FreeNode*>(first + (i + 1) * stride_);
  }
  return {reinterpret_cast<FreeNode*>(first),
          reinterpret_cast<FreeNode*>(first + (take - 1) * stride_), take};
}

void* SlabArena::takeOneSpliceRest(FreeShard& shard, Chain c) {
  std::lock_guard<std::mutex> lk(shard.mu);
  if (c.count > 1) {
    c.tail->next = shard.head;
    if (shard.head == nullptr) shard.tail = c.tail;
    shard.head = c.head->next;
    addRelaxed(shard.count, c.count - 1);
  }
  addRelaxed(shard.allocated, std::uint64_t{1});
  return c.head;
}

void SlabArena::pushFree(void* p) {
  FreeShard& shard = shards_[threadShard()];
  auto* n = static_cast<FreeNode*>(p);
  std::lock_guard<std::mutex> lk(shard.mu);
  n->next = shard.head;
  if (shard.head == nullptr) shard.tail = n;
  shard.head = n;
  addRelaxed(shard.count, std::size_t{1});
  addRelaxed(shard.recycled, std::uint64_t{1});
}

void SlabArena::recycle(void* p) {
  auto base = reinterpret_cast<std::uintptr_t>(p) & ~(kSlabBytes - 1);
  auto* header = reinterpret_cast<SlabHeader*>(base);
  header->owner->pushFree(p);
}

std::size_t SlabArena::slabCount() const {
  std::lock_guard<std::mutex> lk(slabMu_);
  return slabs_;
}

std::uint64_t SlabArena::allocated() const {
  std::uint64_t sum = 0;
  for (const FreeShard& s : shards_) {
    sum += s.allocated.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t SlabArena::recycled() const {
  std::uint64_t sum = 0;
  for (const FreeShard& s : shards_) {
    sum += s.recycled.load(std::memory_order_relaxed);
  }
  return sum;
}

}  // namespace sftree::mem
