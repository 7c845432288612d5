// Sharded transactional map: hash-partitions the key space over N
// speculation-friendly trees behind the single ITransactionalMap interface.
//
// Each shard is a full SFTree (abstract operations decoupled from
// restructuring, paper §3); the shards' maintenance is multiplexed onto a
// shared MaintenanceScheduler worker pool instead of N dedicated rotator
// threads. Single-key operations touch exactly one shard, so transactions
// on different shards share no tree nodes; with per-shard clock domains
// (DomainMode::PerShard) they share no STM metadata either — each shard
// owns a full stm::Domain, so the shards scale like N independent trees
// with no residual version-clock contention. Cross-shard operations (move,
// countRange, sizeTx) compose the per-shard transactional pieces inside one
// flat-nested transaction; when shards live on different clock domains the
// descriptor joins every touched domain and commits with per-domain
// timestamps under an ordered multi-domain acquisition (see docs/stm.md),
// which keeps them atomic across shards.
//
// --- Dynamic re-sharding ---------------------------------------------------
// The caller can change the shard *count* online without stopping traffic.
// Keys hash to a fixed number of routing *slots*; an immutable, epoch-
// published routing table maps each slot to its owning tree. splitShard()
// moves half of a hot shard's slots onto a fresh tree; mergeShards() moves all
// of a cold shard's slots onto a sibling and retires the empty tree (and, in
// PerShard mode, its clock domain). Migration runs in bounded batched range
// moves (SFTree::extractRangeTx + adoptRangeTx) inside ordinary cross-domain
// transactions, so every key is owned by exactly one committed shard at any
// instant; while a slot migrates its table entry carries both trees and
// lookups check the pair inside one transaction. The routing-table pointer
// itself is transactional state in a map-owned routing domain — operations
// read it inside their transaction and republication is a transactional
// write, so route staleness is ordinary STM conflict. Memory reclamation
// (old tables, retired trees and their domains) waits on the process-wide
// quiescence registry: every operation runs inside a bracket (its
// transaction's, or an OpScope around a non-transactional routing peek),
// and the re-sharder frees only after gc::ThreadRegistry::synchronize()
// has waited out every bracket open at the unlink. See docs/sharding.md
// ("Dynamic re-sharding").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gc/thread_registry.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "stm/domain.hpp"
#include "stm/field.hpp"
#include "trees/map_interface.hpp"
#include "trees/sftree.hpp"

namespace sftree::shard {

// Which STM clock domain(s) the shards commit against. Shared keeps every
// shard on one domain (cross-shard operations stay single-clock); PerShard
// gives each shard its own domain (single-key throughput scales further,
// cross-shard operations pay the multi-domain commit). See
// docs/sharding.md for guidance.
enum class DomainMode : std::uint8_t { Shared, PerShard };

struct ShardedMapConfig {
  int shards = 4;
  // Routing granularity: keys hash onto this many slots, slots map to
  // shards. The slot count is fixed for the map's lifetime and bounds the
  // shard count (shards <= routingSlots); splits/merges only reassign
  // slots. More slots = finer re-sharding granularity at the cost of a
  // (slightly) larger routing table per lookup.
  int routingSlots = 64;
  // Keys moved per migration transaction during a split/merge: the ceiling
  // of the adaptive batch size. Larger batches amortize the cross-domain
  // commit better but widen the conflict window against concurrent
  // mutators, so a batch that aborted at least once before committing
  // halves the next one (floor min(8, migrationBatch)) and two consecutive
  // clean batches double it back (AIMD, see shard::AimdBatch).
  std::size_t migrationBatch = 64;
  // Per-shard tree configuration. tree.domain is overridden according to
  // domainMode; tree.startMaintenance is ignored when a scheduler is set.
  trees::SFTreeConfig tree{};
  // Maintenance pool every shard (split-born ones too) attaches to through
  // SFTree::maintainWith; not owned, must outlive the map. When null, each
  // shard runs its own one-worker driver, the paper's dedicated rotator.
  MaintenanceScheduler* scheduler = nullptr;
  // Prefix for the shards' scheduler entries (diagnostics).
  std::string name = "shard";
  // STM clock domain layout (see above).
  DomainMode domainMode = DomainMode::Shared;
  // Shared mode: the domain every shard runs on (not owned; must outlive
  // the map); null selects the process default.
  stm::Domain* domain = nullptr;
  // PerShard mode: the configuration each owned per-shard domain is
  // constructed with.
  stm::Config stmConfig{};
  // Restore-time topology: explicit slot -> shard assignment for the
  // initial routing table (ckpt::restore rebuilds the checkpointed
  // slot layout before bulk-loading each shard, so the restored map starts
  // with the same partition the image was cut from instead of the default
  // contiguous blocks). Empty = contiguous blocks; otherwise the size must
  // equal routingSlots and every value must be in [0, shards).
  std::vector<int> initialSlotAssignment{};
};

// Aggregated view over all shards. The total sizeEstimate — and, since the
// map itself settles cross-shard moves and migration batches against the
// involved trees' counters, each per-shard estimate — is exact once all
// operations have returned. (Per-shard exactness is load-bearing under
// re-sharding: a merge destroys a tree's counter with the tree, so any
// residual bias would leak into the aggregate permanently.)
struct ShardedMapStats {
  std::int64_t sizeEstimate = 0;
  std::vector<std::int64_t> shardSizeEstimates;
  trees::MaintenanceStats maintenance;  // summed over shards
  // Per-shard violation-queue occupancy (racy snapshots): the load the
  // scheduler prioritizes on, exposed for dashboards/tests. The summed
  // queue counters (enqueued/drained/latency) are in maintenance.queue.
  std::vector<std::uint64_t> shardQueueDepths;
  // Per-routing-slot operation counters (racy snapshots): every *attempt*
  // of a single-key operation bumps its slot, retries included, so the
  // gauges count traffic, not committed mutations. Size == routingSlots.
  std::vector<std::uint64_t> slotOpTicks;
  // STM statistics per clock domain: one entry per shard in PerShard mode,
  // a single entry for the shared domain otherwise. Snapshots are exact
  // only while no transactions are in flight.
  std::vector<stm::ThreadStats> domainStats;
  stm::ThreadStats stm;  // sum over domainStats
};

// Re-sharding mechanism counters (lifetime totals).
struct ReshardStats {
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::uint64_t keysMigrated = 0;
  std::uint64_t migrationBatches = 0;
  std::uint64_t tablePublishes = 0;
  // Adaptive-batch (AIMD) decisions: halvings under abort pressure and
  // re-doublings after clean streaks (see ShardedMapConfig::migrationBatch).
  std::uint64_t batchShrinks = 0;
  std::uint64_t batchGrows = 0;
  // Arena footprint (bytes) and still-live blocks of the trees retired by
  // merges, sampled just before destruction (the "drain" the retirement
  // frees wholesale).
  std::uint64_t retiredArenaBytes = 0;
  std::uint64_t retiredLiveBlocks = 0;
  // Wall time of each migration batch transaction (the extract+adopt unit
  // of work a split/merge interleaves with live traffic).
  obs::LogHistogram migrationBatchNs;
};

class ShardedMap final : public trees::ITransactionalMap {
 public:
  explicit ShardedMap(ShardedMapConfig cfg = {});
  ~ShardedMap() override;

  ShardedMap(const ShardedMap&) = delete;
  ShardedMap& operator=(const ShardedMap&) = delete;

  // --- single-key operations (one shard each) ------------------------------
  bool insert(Key k, Value v) override;
  bool erase(Key k) override;
  bool contains(Key k) override;
  std::optional<Value> get(Key k) override;

  // Atomic cross-shard relocation: composes erase(from-shard) and
  // insert(to-shard) in one transaction. No intermediate state — a key at
  // both shards or at neither — is ever observable.
  bool move(Key from, Key to) override;

  bool insertTx(stm::Tx& tx, Key k, Value v) override;
  bool eraseTx(stm::Tx& tx, Key k) override;
  bool containsTx(stm::Tx& tx, Key k) override;
  std::optional<Value> getTx(stm::Tx& tx, Key k) override;
  // Transaction-composable move (the body behind move(); public siblings
  // of the other *Tx entry points compose the same way).
  bool moveTx(stm::Tx& tx, Key from, Key to);

  // Consistent snapshot over every shard (hash partitioning scatters any
  // key range across all of them).
  std::size_t countRangeTx(stm::Tx& tx, Key lo, Key hi) override;
  std::size_t countRange(Key lo, Key hi) override;

  // --- quiesced introspection ----------------------------------------------
  // Serialized against re-sharding (they take the reshard mutex), so they
  // are safe to call while a split or merge runs on another thread — but
  // the usual quiesced-use contract vs concurrent abstract operations
  // still applies.
  std::size_t size() override;
  int height() override;  // max shard height
  std::vector<Key> keysInOrder() override;
  void quiesce() override;

  // --- sharding-specific surface -------------------------------------------
  int shardCount() const;
  int shardIndexFor(Key k) const;
  // The tree currently owning shard index i. The reference is valid only
  // while no concurrent split/merge can retire it (tests / quiesced use).
  trees::SFTree& shard(int i);

  // The clock domain shard i commits against (shard i's own domain in
  // PerShard mode; the shared one otherwise).
  stm::Domain& domainOf(int i) { return shard(i).domain(); }
  // The domain key k's current owner commits against — the natural root
  // for a transaction on k. A non-transactional routing peek: the caller
  // must hold a bracket (OpScope or gc::OpGuard) for as long as it uses
  // the result, or a concurrent merge may retire the domain.
  stm::Domain& domainForKey(Key k) const {
    return table()->slots[slotOf(k)].owner->domain();
  }
  bool perShardDomains() const {
    return cfg_.domainMode == DomainMode::PerShard;
  }
  // Every distinct domain the map's transactions touch (deduplicated; one
  // entry in Shared mode, one per live shard in PerShard mode). Useful for
  // resetting/aggregating statistics around a benchmark run.
  std::vector<stm::Domain*> domains();

  // Committed-size estimate summed over the shards; exact once all
  // operations have returned (like SFTree::sizeEstimate).
  std::int64_t sizeEstimate() const;
  ShardedMapStats aggregatedStats() const;

  // --- dynamic re-sharding --------------------------------------------------
  int routingSlots() const { return cfg_.routingSlots; }
  // Current slot -> shard-index assignment (racy snapshot; slots mid-
  // migration report their new owner).
  std::vector<int> slotOwners() const;

  // Splits shard `idx`: half of its routing slots migrate onto a freshly
  // created tree (and domain, in PerShard mode) while traffic continues.
  // Slot selection is load-aware: the shard's slots are ranked by their
  // slotOpTicks traffic gauges and the alternating ranks (hottest first)
  // move, so the split peels the *hot* slots onto the fresh shard and both
  // halves end up with balanced measured load (ticks all equal — e.g. a
  // fresh map — degrades to a stable index interleave). Blocks until the
  // migration has settled. Returns the new shard's index, or -1 when the
  // shard owns a single slot (cannot split further) or `idx` is
  // stale/out of range.
  int splitShard(int idx);
  // Migrates every slot of shard `victimIdx` onto shard `targetIdx`, then
  // retires the empty tree (unregisters maintenance, synchronizes, then
  // frees the tree — its arena wholesale — and, in PerShard mode, its
  // domain). Returns false when either index is stale/out of range or they
  // are equal.
  bool mergeShards(int victimIdx, int targetIdx);

  ReshardStats reshardStats() const;

  // --- checkpoint/snapshot support (src/ckpt) -------------------------------
  // The routing slot key k hashes onto: a pure function of the (lifetime-
  // fixed) slot count, so the checkpoint layer can demultiplex streamed
  // keys into per-slot segments and restore can re-route them.
  std::size_t slotOfKey(Key k) const { return slotOf(k); }
  // Per-slot *mutation* version counters, distinct from the slotOpTicks
  // traffic gauges (which also tick on reads and would false-dirty every
  // slot a lookup touches). Bumped inside the body of every attempt that
  // may change a slot's content — insert/erase/move and each migration
  // batch — i.e. *before* that transaction can commit, with seq_cst on
  // both sides. The checkpoint certification protocol (sample ->
  // synchronize -> stream -> resample; docs/checkpoint.md) turns "tick
  // unchanged" into "slot content unchanged across the streamed window": a
  // writer whose bump the resample missed is seq_cst-ordered after it, so
  // its commit lands after the cut; a writer that bumped before the first
  // sample was inside its bracket, so synchronize() (quiesceOps) waited out
  // its commit before the stream read anything.
  std::uint64_t slotWriteTick(int slot) const {
    return slotWriteTicks_[static_cast<std::size_t>(slot)].load(
        std::memory_order_seq_cst);
  }
  std::vector<std::uint64_t> slotWriteTicks() const;
  // Checkpoint certification barrier: waits until every operation in
  // flight at the call has fully settled (gc::ThreadRegistry::synchronize,
  // the same wait table republication uses). After it returns, any update
  // whose dirty-tick bump predates the caller's tick samples has committed
  // or aborted — the other half of the certification argument above. Must
  // be called outside every bracket.
  void quiesceOps() { gc::ThreadRegistry::instance().synchronize(); }
  // Operation fence for the checkpoint forced cut. fencedOpsBegin() raises
  // the fence — new map operations park (OpScope) until fencedOpsEnd() —
  // and then waits out the operations already in flight. In between the
  // map is near-quiescent, so a whole-map read transaction taken under the
  // fence finishes in a bounded number of attempts instead of being
  // starved by sustained write traffic. The composable *Tx entry points
  // never park (their caller's transaction already holds a bracket), which
  // is what lets the fencing thread run its cut through snapshotAllTx.
  // Maintenance and migration keep running — they preserve logical content
  // and the cut transaction serializes against them. Outside every bracket.
  void fencedOpsBegin() {
    fence_.store(true, std::memory_order_seq_cst);
    gc::ThreadRegistry::instance().synchronize();
  }
  void fencedOpsEnd() { fence_.store(false, std::memory_order_seq_cst); }

  // Map-operation bracket for code that reads the routing table outside a
  // transaction (the plain single-key ops, a serving batch resolving its
  // root domain). At bracket depth 0 it first parks while the checkpoint
  // fence is up — parking *inside* a bracket would deadlock the fencing
  // thread's synchronize() — then holds the process-wide quiescence
  // bracket, which keeps every table and tree the peek reaches alive.
  class OpScope {
   public:
    explicit OpScope(const ShardedMap& m) {
      if (gc::bracketDepth() == 0) {
        while (m.fence_.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      }
      gc::enterBracket();
    }
    ~OpScope() { gc::exitBracket(); }
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;
  };

  // One bounded streaming chunk of a snapshot walk. Inside the caller's
  // transaction: resolves `anchorSlot`'s route, and — unless the slot is
  // mid-migration (info.migrating; nothing is scanned, the caller defers
  // the slot) — scans the owning tree in key order from `lo`, collecting
  // up to maxN present pred-matching pairs. info reports the walked tree's
  // identity (the caller abandons a multi-chunk walk whose anchor re-routed
  // to a different tree between chunks) and the slots that tree currently
  // owns outright (settled, no migration source) — the slots whose keys a
  // completed walk of this tree has fully covered.
  struct SnapshotChunk {
    bool migrating = false;     // anchor slot mid-migration: nothing scanned
    bool treeComplete = false;  // the walk exhausted the tree's key space
    Key nextLo = 0;             // resume cursor when !treeComplete
    const void* treeId = nullptr;        // identity of the tree walked
    std::vector<int> ownedSettledSlots;  // slots settled-owned by that tree
  };
  void snapshotChunkTx(stm::Tx& tx, int anchorSlot, Key lo, std::size_t maxN,
                       const std::function<bool(Key)>& pred,
                       std::vector<trees::SFTree::ExtractedKV>& out,
                       SnapshotChunk& info);
  // Whole-map pred-restricted scan inside the caller's transaction: every
  // distinct tree the current route references, migration sources included.
  // Unbounded read set — the checkpoint's forced-cut fallback, the same
  // proven shape as countRangeTx (one serialization point over the map).
  void snapshotAllTx(stm::Tx& tx, const std::function<bool(Key)>& pred,
                     std::vector<trees::SFTree::ExtractedKV>& out);
  // The domain checkpoint transactions root in (the routing domain: every
  // chunk joins it first through routeTx anyway; tree domains are joined
  // per touch).
  stm::Domain& snapshotRootDomain() { return *routingDomain_; }

  // Registers a snapshot source emitting aggregatedStats() (map totals,
  // summed maintenance, STM counters + abort taxonomy), reshardStats()
  // (including the migration-batch latency histogram), and the per-slot
  // load gauges. The map must outlive the registration.
  [[nodiscard]] obs::MetricsRegistry::Registration registerMetrics(
      obs::MetricsRegistry& reg, std::string prefix);

 private:
  // --- routing ---------------------------------------------------------------
  // One slot's route. While the slot migrates, `prev` carries the tree keys
  // may still live in: lookups check the (owner, prev) pair inside one
  // transaction, inserts go to `owner` once `prev` provably lacks the key,
  // so the mover's scan of `prev` converges (it can only lose such keys).
  struct RouteEntry {
    trees::SFTree* owner = nullptr;
    trees::SFTree* prev = nullptr;
  };
  // Immutable once published; replaced wholesale. The table *pointer* is
  // transactional state (tableTx_): every operation reads it inside its
  // transaction, the re-sharder replaces it with a transactional write, so
  // an operation that resolved a route and commits after a republication
  // fails ordinary STM validation and retries against the new table. This
  // is the only sound ordering: any non-transactional scheme (we tried an
  // epoch census plus write-locking the key's position in the migration
  // source) leaves a window where an in-flight operation routed by the old
  // table serializes *around* the new table's dual-path decisions — e.g. a
  // concurrent insert of an unrelated key relocates this key's insertion
  // point past the locked position, and a stale-routed insert commits a
  // duplicate without touching anything the new-route transaction read or
  // wrote. The previous table's memory is freed only after synchronize()
  // waited out every bracket open at the republication (readers may still
  // dereference it mid-attempt even though their commits are doomed).
  struct RoutingTable {
    std::uint64_t version = 0;
    std::vector<RouteEntry> slots;
  };

  // One live shard: the tree and its owned clock domain (PerShard mode).
  // The tree is declared last so it (and its maintenance) goes first.
  struct ShardRec {
    std::unique_ptr<stm::Domain> domain;  // null in Shared mode
    std::unique_ptr<trees::SFTree> tree;
  };

  std::size_t slotOf(Key k) const;
  // Per-slot traffic gauge (see ShardedMapStats::slotOpTicks). Relaxed:
  // the slot index is already in hand at every call site, so the bump is
  // one uncontended-in-expectation RMW per attempt.
  void bumpSlotTick(std::size_t slot) {
    slotTicks_[slot].fetch_add(1, std::memory_order_relaxed);
  }
  // Pre-commit dirty mark for the checkpoint certification (see
  // slotWriteTick). seq_cst, unlike the traffic gauge: the certifying
  // resample must be able to conclude "bump not observed => bump (and the
  // commit sequenced after it) lands after my sample" from the total order.
  void bumpSlotWriteTick(std::size_t slot) {
    slotWriteTicks_[slot].fetch_add(1, std::memory_order_seq_cst);
  }
  // Non-transactional peek (root-domain/kind selection, diagnostics,
  // quiesced walks). Transactional bodies must use routeTx instead.
  const RoutingTable* table() const { return tableTx_.loadAcquire(); }
  // The transactional route read: joins the routing domain and reads the
  // table pointer, pinned (elastic window cuts must never evict it). Every
  // operation body calls this once per attempt, which also guarantees a
  // zero-logging read-only attempt always has a first read before any tree
  // read — so a stale later read restarts the body (re-resolving the
  // route) instead of sliding the snapshot under a stale one.
  const RoutingTable* routeTx(stm::Tx& tx) {
    stm::DomainScope scope(tx, *routingDomain_);
    return tableTx_.readPinned(tx);
  }

  // --- dual-path (migration-aware) transactional pieces ---------------------
  // Each resolves against one RouteEntry; when e.prev is set they compose
  // both trees inside the caller's transaction. `hit` (erase) reports the
  // tree the key was actually removed from (size-estimate bookkeeping).
  static bool entryContainsTx(stm::Tx& tx, const RouteEntry& e, Key k);
  static std::optional<Value> entryGetTx(stm::Tx& tx, const RouteEntry& e,
                                         Key k);
  static bool entryInsertTx(stm::Tx& tx, const RouteEntry& e, Key k, Value v);
  static bool entryEraseTx(stm::Tx& tx, const RouteEntry& e, Key k,
                           trees::SFTree** hit);

  // Transaction kind for a single-key update against `e`: the tree's own
  // rule on the fast path, but always Normal while the slot migrates — the
  // dual-path checks (contains-in-prev before insert-into-owner) rely on
  // full read-set validation, which elastic window cuts would skip.
  static stm::TxKind entryUpdateKind(const RouteEntry& e) {
    return e.prev == nullptr ? e.owner->updateTxKind() : stm::TxKind::Normal;
  }

  // Distinct trees referenced by `t` (owners first, then migration
  // sources), for whole-map transactional scans.
  static std::vector<trees::SFTree*> distinctTrees(const RoutingTable& t);

  // --- re-sharding machinery -------------------------------------------------
  std::unique_ptr<ShardRec> makeShard();
  // Publishes `next` as the routing table, waits out every bracket that
  // could still see the old one, and deletes it.
  void publishTable(std::unique_ptr<RoutingTable> next);
  // Moves every present key of `movedSlots` from src to dst in batched
  // range-move transactions, with the intermediate dual-route table
  // published first and the settled table after. reshardMu_ held.
  void migrateSlots(trees::SFTree* src, trees::SFTree* dst,
                    const std::vector<int>& movedSlots);

  // Pause/resume restructuring on every shard around quiesced walks.
  // topoMu_ held by caller.
  void pauseAllMaintenance();
  void resumeAllMaintenance();

  // The domain map-level (multi-shard) transactions are rooted in: the
  // first slot's owner (the remaining domains are joined as the
  // transaction touches them).
  stm::Domain& homeDomain() { return table()->slots.front().owner->domain(); }

  ShardedMapConfig cfg_;
  // Serializes split/merge against each other and against the quiesced
  // introspection walks. Ordered before topoMu_.
  mutable std::mutex reshardMu_;
  // Guards live_ (the shard list). Never held while synchronizing.
  mutable std::mutex topoMu_;
  // Dedicated clock domain guarding exactly one word: the routing-table
  // pointer. Read-shared by every operation, written only at publications
  // (rare), so it adds no write contention; it must share the trees' TM
  // backend (one transaction spans both). Declared before the shards so it
  // outlives their teardown. Aligned: it and the fields through
  // slotWriteTicks_, read by every operation, share one cache line.
  alignas(64) std::unique_ptr<stm::Domain> routingDomain_;
  stm::TxField<const RoutingTable*> tableTx_{nullptr};
  std::vector<std::unique_ptr<ShardRec>> live_;
  // Checkpoint forced-cut fence (fencedOpsBegin/End; OpScope parks on it).
  std::atomic<bool> fence_{false};
  // One relaxed counter per routing slot (fixed size routingSlots for the
  // map's lifetime, like the slot space itself).
  std::unique_ptr<std::atomic<std::uint64_t>[]> slotTicks_;
  // Per-slot mutation versions for checkpoint certification (see
  // slotWriteTick / bumpSlotWriteTick). Same fixed size.
  std::unique_ptr<std::atomic<std::uint64_t>[]> slotWriteTicks_;
  std::uint64_t tableVersion_ = 0;  // reshardMu_ (and constructor) only
  mutable std::mutex reshardStatsMu_;
  ReshardStats reshardStats_;
};

}  // namespace sftree::shard
