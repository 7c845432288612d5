#include "ckpt/snapshot_cursor.hpp"

#include <algorithm>
#include <limits>

#include "ckpt/format.hpp"
#include "stm/stm.hpp"

namespace sftree::ckpt {

namespace {
using KV = trees::SFTree::ExtractedKV;

// Body attempts a streaming chunk gets before giving up (see walkOne).
constexpr int kMaxChunkAttempts = 64;

// Keys per streaming chunk transaction. Bounds the read-set each chunk
// validates, which bounds the window writers can invalidate.
constexpr std::size_t kChunkKeys = 512;

// RAII operation fence around the forced-cut transaction.
struct OpFence {
  explicit OpFence(shard::ShardedMap& m) : map(m) { map.fencedOpsBegin(); }
  ~OpFence() { map.fencedOpsEnd(); }
  OpFence(const OpFence&) = delete;
  OpFence& operator=(const OpFence&) = delete;
  shard::ShardedMap& map;
};
}  // namespace

SnapshotCursor::SnapshotCursor(shard::ShardedMap& map, SnapshotOptions opt)
    : map_(map), opt_(opt) {
  if (opt_.optimisticRounds < 0) opt_.optimisticRounds = 0;
  if (opt_.forcedRounds < 1) opt_.forcedRounds = 1;
}

void SnapshotCursor::walkOne(std::vector<char>& remaining,
                             const std::vector<std::uint64_t>& t1,
                             std::vector<St>& st,
                             std::vector<std::uint64_t>& tickAt,
                             std::vector<std::vector<KV>>& kvs,
                             std::uint64_t& keysStreamed) {
  const std::size_t S = remaining.size();
  int anchor = -1;
  for (std::size_t s = 0; s < S; ++s) {
    if (remaining[s]) {
      anchor = static_cast<int>(s);
      break;
    }
  }
  if (anchor < 0) return;

  // Targets are fixed at the first chunk: the slots the anchor's tree owns
  // outright, intersected with this round's remaining set. A completed
  // walk of one tree covers exactly its settled-owned slots (migrating
  // slots straddle two trees and are deferred; their migration batches
  // bump the dirty ticks, so deferral can't silently lose a key).
  const void* treeId = nullptr;
  std::vector<char> targetMask(S, 0);
  std::vector<int> targets;
  std::vector<std::vector<KV>> bufs(S);
  std::vector<KV> chunk;
  shard::ShardedMap::SnapshotChunk info;
  Key lo = std::numeric_limits<Key>::min();

  const auto abandon = [&](bool firstChunk) {
    // The anchor re-routed (or is migrating): a continued walk on the new
    // owner would never visit the old tree's tail, so partial buffers are
    // unusable. Drop the touched slots from this round; they stay Pending
    // and the next round (or the forced cut) re-walks them.
    if (firstChunk) {
      remaining[static_cast<std::size_t>(anchor)] = 0;
    } else {
      for (const int t : targets) remaining[static_cast<std::size_t>(t)] = 0;
    }
  };

  for (;;) {
    const std::vector<char>& predMask = (treeId == nullptr) ? remaining
                                                            : targetMask;
    const std::function<bool(Key)> pred = [&](Key k) {
      return predMask[map_.slotOfKey(k)] != 0;
    };
    // A chunk that keeps losing the validation race against writers must
    // not spin forever: after a bounded number of body attempts it commits
    // an empty body (trivial read set, always succeeds) and the walk is
    // abandoned — the slots stay Pending and the forced cut, which runs
    // behind an operation fence, finishes them. Without this bound a
    // sustained write workload can livelock a chunk while its restarting
    // body pins a GC epoch and node garbage piles up.
    int attempts = 0;
    bool gaveUp = false;
    stm::atomically(map_.snapshotRootDomain(), stm::TxKind::ReadOnly,
                    [&](stm::Tx& tx) {
                      if (++attempts > kMaxChunkAttempts) {
                        gaveUp = true;
                        return;
                      }
                      gaveUp = false;
                      map_.snapshotChunkTx(tx, anchor, lo, kChunkKeys, pred,
                                           chunk, info);
                    });
    if (gaveUp || info.migrating) {
      abandon(treeId == nullptr);
      return;
    }
    if (treeId == nullptr) {
      treeId = info.treeId;
      for (const int s : info.ownedSettledSlots) {
        if (remaining[static_cast<std::size_t>(s)]) {
          targetMask[static_cast<std::size_t>(s)] = 1;
          targets.push_back(s);
        }
      }
      if (!targetMask[static_cast<std::size_t>(anchor)]) {
        // Anchor owned by this tree but not remaining: impossible (anchor
        // came from remaining and is settled here) — defensive.
        abandon(true);
        return;
      }
    } else if (info.treeId != treeId) {
      abandon(false);
      return;
    }
    for (const KV& kv : chunk) {
      const std::size_t s = map_.slotOfKey(kv.key);
      if (targetMask[s]) bufs[s].push_back(kv);
    }
    if (info.treeComplete) break;
    lo = info.nextLo;
  }

  for (const int t : targets) {
    const auto s = static_cast<std::size_t>(t);
    keysStreamed += bufs[s].size();
    kvs[s] = std::move(bufs[s]);
    st[s] = St::Staged;
    tickAt[s] = t1[s];
    remaining[s] = 0;
  }
}

SnapshotResult SnapshotCursor::capture(
    const std::vector<std::uint64_t>& baselineTicks) {
  const auto S = static_cast<std::size_t>(map_.routingSlots());
  const bool haveBaseline = baselineTicks.size() == S;

  std::vector<St> st(S, St::Pending);
  std::vector<std::uint64_t> tickAt(S, 0);
  std::vector<std::vector<KV>> kvs(S);
  SnapshotResult res;

  if (haveBaseline) {
    const auto now = map_.slotWriteTicks();
    for (std::size_t s = 0; s < S; ++s) {
      // kTickUnknown never matches a live tick: forced-cut slots whose
      // exact cut tick could not be pinned are always re-streamed.
      if (now[s] == baselineTicks[s]) {
        st[s] = St::Clean;
        tickAt[s] = baselineTicks[s];
      }
    }
  }

  // --- optimistic tick-certified rounds ---------------------------------
  bool done = false;
  for (int round = 0; round < opt_.optimisticRounds && !done; ++round) {
    ++res.rounds;
    const auto t1 = map_.slotWriteTicks();
    // Certification barrier: updates that bumped before the t1 sample have
    // settled once this returns — their commits are visible to the chunk
    // reads below, closing the bump-sampled-but-commit-missed race.
    map_.quiesceOps();

    std::vector<char> remaining(S, 0);
    bool any = false;
    for (std::size_t s = 0; s < S; ++s) {
      if (st[s] == St::Pending) {
        remaining[s] = 1;
        any = true;
      }
    }
    while (any) {
      walkOne(remaining, t1, st, tickAt, kvs, res.keysStreamed);
      any = std::any_of(remaining.begin(), remaining.end(),
                        [](char c) { return c != 0; });
    }

    // Final joint sweep: one sample instant every certified window must
    // contain. Staged slots re-check against the tick they streamed at —
    // including slots staged in EARLIER rounds, whose windows simply grow
    // to this sweep. Clean slots re-check against the parent baseline.
    const auto tf = map_.slotWriteTicks();
    done = true;
    for (std::size_t s = 0; s < S; ++s) {
      switch (st[s]) {
        case St::Pending:
          done = false;
          break;
        case St::Staged:
          if (tf[s] != tickAt[s]) {
            st[s] = St::Pending;
            kvs[s].clear();
            done = false;
          }
          break;
        case St::Clean:
          if (tf[s] != tickAt[s]) {
            st[s] = St::Pending;
            done = false;
          }
          break;
        case St::Forced:
          break;  // not reachable in the optimistic phase
      }
    }
    // Hot-map heuristic: when the sweep invalidates most of the map the
    // workload is writing everywhere faster than we can stream — further
    // optimistic rounds would re-stream everything just to fail the same
    // way. Go force the cut instead of burning rounds.
    if (!done) {
      const auto pending = static_cast<std::size_t>(
          std::count(st.begin(), st.end(), St::Pending));
      if (pending * 2 > S) break;
    }
  }

  // --- forced cut -------------------------------------------------------
  if (!done) {
    res.forcedCut = true;
    std::vector<char> staleMask(S, 0);
    for (std::size_t s = 0; s < S; ++s) {
      if (st[s] == St::Pending) staleMask[s] = 1;
    }
    for (int f = 0; f < opt_.forcedRounds && !done; ++f) {
      const bool escalate = (f == opt_.forcedRounds - 1);
      if (escalate) {
        // Last resort: one transaction over the whole map. Its commit IS
        // the cut for every slot; nothing is left to certify.
        std::fill(staleMask.begin(), staleMask.end(), 1);
      }
      const std::function<bool(Key)> pred = [&](Key k) {
        return staleMask[map_.slotOfKey(k)] != 0;
      };
      std::vector<KV> all;
      std::vector<std::uint64_t> stamps;
      std::vector<std::uint64_t> tPre, tPost;
      {
        // The forced cut is the one place writers feel the checkpoint: the
        // fence parks newly arriving operations and waits out in-flight ones,
        // so the cut transaction runs against a near-quiescent map and
        // finishes in a bounded number of attempts. Without it, a
        // whole-map read set under sustained write traffic can starve
        // indefinitely. The pause lasts one scan of the stale slots.
        OpFence fence(map_);
        tPre = map_.slotWriteTicks();
        stm::atomically(map_.snapshotRootDomain(), stm::TxKind::ReadOnly,
                        [&](stm::Tx& tx) {
                          map_.snapshotAllTx(tx, pred, all);
                          stamps.clear();
                          for (const auto& sst : tx.snapshotStamps()) {
                            stamps.push_back(sst.rv);
                          }
                        });
        tPost = map_.slotWriteTicks();
      }
      for (std::size_t s = 0; s < S; ++s) {
        if (!staleMask[s]) continue;
        kvs[s].clear();
        st[s] = St::Forced;
        // Pin the slot's manifest tick only if no writer moved it across
        // the cut transaction — otherwise the tick at the commit point is
        // ambiguous and kTickUnknown keeps future incrementals honest.
        tickAt[s] = (tPre[s] == tPost[s]) ? tPre[s] : kTickUnknown;
      }
      for (const KV& kv : all) {
        const std::size_t s = map_.slotOfKey(kv.key);
        if (staleMask[s]) kvs[s].push_back(kv);
      }
      res.cutStamps = std::move(stamps);
      if (escalate) {
        done = true;
        break;
      }
      // Post-cut sweep: the cut transaction's commit point C lies inside
      // [stream-read, here] for every staged slot whose tick is still what
      // it streamed at, and inside the parent-certified window for clean
      // slots. A slot that moved joins the stale set and the whole set is
      // re-scanned at a new C.
      done = true;
      for (std::size_t s = 0; s < S; ++s) {
        if ((st[s] == St::Staged || st[s] == St::Clean) &&
            tPost[s] != tickAt[s]) {
          st[s] = St::Pending;
          kvs[s].clear();
          staleMask[s] = 1;
          done = false;
        }
      }
      if (!done) {
        // Re-mark the pending slots as stale for the next forced pass.
        for (std::size_t s = 0; s < S; ++s) {
          if (st[s] == St::Pending) staleMask[s] = 1;
        }
      }
    }
    for (std::size_t s = 0; s < S; ++s) {
      if (st[s] == St::Forced) res.keysStreamed += kvs[s].size();
    }
  }

  // --- assemble ---------------------------------------------------------
  res.ok = done;
  if (!res.ok) return res;
  res.slots.resize(S);
  for (std::size_t s = 0; s < S; ++s) {
    res.slots[s].writeTick = tickAt[s];
    res.slots[s].fresh = st[s] != St::Clean;
    res.slots[s].kvs = std::move(kvs[s]);
  }
  res.slotOwners = map_.slotOwners();
  res.shardCount = map_.shardCount();
  return res;
}

}  // namespace sftree::ckpt
