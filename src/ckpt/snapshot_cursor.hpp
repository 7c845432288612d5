#pragma once

// SnapshotCursor: streams a linearizable whole-map image out of a live
// ShardedMap without blocking writers.
//
// The stream is chunked — one bounded ReadOnly transaction per chunk, so
// each chunk is internally consistent but the chunks commit at different
// instants. What makes the assembled image a single linearizable cut is
// the per-slot dirty-tick certification (docs/checkpoint.md):
//
//   round:  sample T1  ->  synchronize  ->  stream chunks  ->  sweep Tf
//
// Every committing update bumps its slot's tick inside the transaction
// body (before it can commit, seq_cst). A writer whose bump precedes the
// T1 sample was inside its bracket, so the synchronize() (quiesceOps)
// waited out its commit before the stream reads; an update that bumped
// after T1 shows up at the sweep as Tf != T1 and invalidates the slot. So
// a slot with Tf == T1 had constant content from the synchronize to the
// sweep — and since ALL slots (including ones streamed in earlier rounds
// and baseline-clean ones reused from a parent image) are re-checked at
// the same final sweep, all their constancy windows contain that one sweep
// instant: the image equals the map's state at the sweep. Writers never
// block; a hot slot just fails certification and retries.
//
// If optimistic rounds keep failing (pathologically hot slots), the cursor
// forces a cut: one ReadOnly transaction scans the still-dirty slots across
// every tree — its commit point C is the cut for those slots, and a post-C
// sweep re-certifies the others' windows around C. As a last resort the
// whole map is scanned in a single transaction. The forced-cut transaction
// runs behind a brief operation fence (ShardedMap::fencedOpsBegin): new
// map operations park before entering their bracket while synchronize()
// waits out the in-flight ones, so the cut
// cannot be starved by sustained write traffic — without the fence a
// whole-map read set under a saturating write workload retries forever.
// Streaming chunks are attempt-bounded for the same reason: a chunk that
// keeps losing the validation race gives up and defers its slots to the
// forced cut rather than spinning.

#include <cstdint>
#include <vector>

#include "shard/sharded_map.hpp"

namespace sftree::ckpt {

struct SnapshotOptions {
  // Tick-certified rounds before falling back to a forced cut. 0 skips the
  // optimistic phase entirely (always force — deterministic cut-point
  // testing).
  int optimisticRounds = 4;
  // Forced-cut iterations before escalating to one whole-map transaction.
  int forcedRounds = 8;
};

struct SlotImage {
  // Certified dirty tick at the cut (kTickUnknown when the forced-cut
  // race window kept it from being pinned — see capture()).
  std::uint64_t writeTick = 0;
  // Streamed by this capture. false = certified clean against the caller's
  // baseline; kvs is empty and the parent image's segment is still valid.
  bool fresh = true;
  std::vector<trees::SFTree::ExtractedKV> kvs;
};

struct SnapshotResult {
  bool ok = false;
  std::vector<SlotImage> slots;  // size == map.routingSlots()
  std::vector<int> slotOwners;   // slot -> shard index (restore topology)
  int shardCount = 0;
  int rounds = 0;         // optimistic rounds consumed
  bool forcedCut = false;
  std::uint64_t keysStreamed = 0;
  // Forced cut only: the cut transaction's per-domain read stamps.
  std::vector<std::uint64_t> cutStamps;
};

class SnapshotCursor {
 public:
  explicit SnapshotCursor(shard::ShardedMap& map, SnapshotOptions opt = {});

  // Capture a consistent image. `baselineTicks` (size routingSlots, from a
  // parent image's manifest) marks slots whose tick still equals the
  // baseline as clean — certified at the same final sweep as the streamed
  // slots, so reusing their parent segments is exact, not approximate.
  // Empty baseline = full capture.
  SnapshotResult capture(
      const std::vector<std::uint64_t>& baselineTicks = {});

 private:
  enum class St : unsigned char { Pending, Staged, Clean, Forced };

  // One tree-anchored multi-chunk walk over the pending slots. Returns the
  // slots it settled (staged into kvs) and removes every slot it touched
  // from `remaining` (deferred slots stay Pending for the next round).
  void walkOne(std::vector<char>& remaining,
               const std::vector<std::uint64_t>& t1,
               std::vector<St>& st,
               std::vector<std::uint64_t>& tickAt,
               std::vector<std::vector<trees::SFTree::ExtractedKV>>& kvs,
               std::uint64_t& keysStreamed);

  shard::ShardedMap& map_;
  SnapshotOptions opt_;
};

}  // namespace sftree::ckpt
