// The speculation-friendly binary search tree (paper §3).
//
// Abstract transactions (insert / delete / contains) only touch the
// abstraction: insertion links a leaf or clears a `deleted` flag; deletion
// *logically* deletes by setting the flag; contains reads it. All
// restructuring — local rotations, physical removal of logically deleted
// nodes, balance propagation and garbage collection — happens in small
// node-local transactions executed by one background maintenance pass at a
// time (§3.1, §3.2, §3.4). Background passes run on a
// shard::MaintenanceScheduler: one the tree owns (the paper's dedicated
// rotator) or a pool shared with other trees. The tree records which one
// drives it, so pausing, stopping and destruction work the same for both.
//
// Two operation variants are provided:
//  * Portable (Algorithm 1): every shared access is a transactional read or
//    write; works on any TM that implements the standard interface.
//  * Optimized (Algorithm 2): traversals use unit loads (`uread`) and nodes
//    carry a `removed` flag (false / true / true-by-left-rotation); rotation
//    replaces the rotated node with a fresh copy so that preempted
//    traversals keep a path to their target.
//
// The same class also serves as the paper's *no-restructuring* baseline
// (NRtree): construct it with maintenance disabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "gc/limbo_list.hpp"
#include "mem/arena.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "stm/stm.hpp"
#include "trees/key.hpp"
#include "trees/violation_queue.hpp"

namespace sftree::trees {

// Physical-removal state of a node (Algorithm 2). A removed node is no
// longer reachable from the root but remains traversable: its child pointers
// lead back into the tree. RemovedByLeftRot tells a find() that stopped on a
// node with its own key that the replacement node is in the *right* subtree.
enum class RemState : std::uint8_t {
  NotRemoved = 0,
  Removed = 1,
  RemovedByLeftRot = 2,
};

struct SFNode {
  const Key key;
  stm::TxField<Value> value;
  stm::TxField<SFNode*> left;
  stm::TxField<SFNode*> right;
  stm::TxField<bool> deleted;     // logical deletion flag (paper `del`)
  stm::TxField<RemState> removed; // physical removal flag (paper `rem`)

  // Height estimate (paper: local-h). Read and written exclusively by the
  // single maintenance thread — deliberately plain. The paper's left-h and
  // right-h are not stored: they are the children's localH, read from the
  // children, which keeps the node in one cache-line block.
  int localH = 1;

  SFNode(Key k, Value v) : key(k), value(v) {}
};
// The node arena rounds blocks up to whole cache lines: one byte more and
// every node takes two lines (twice the tree's memory and descent traffic).
static_assert(sizeof(SFNode) <= mem::SlabArena::kBlockAlign,
              "SFNode must fit one cache-line arena block");

enum class OpsVariant : std::uint8_t {
  Portable,   // Algorithm 1
  Optimized,  // Algorithm 2
};

struct SFTreeConfig {
  OpsVariant ops = OpsVariant::Optimized;
  // STM clock domain the tree's transactions run against; null selects the
  // process default. Give independent trees independent domains (e.g. one
  // per shard) to take their commits off the shared version clock.
  stm::Domain* domain = nullptr;
  // Transaction kind used by the abstract operations (Normal, or Elastic to
  // run on the E-STM-equivalent mode). With the Portable ops variant,
  // Elastic applies to read-only operations only: Algorithm 1's updates
  // rely on full read-set validation to detect a physically removed
  // insertion point, which elastic cuts would skip. Algorithm 2's
  // transactional `removed`/parent-link reads make its updates safe under
  // elastic cuts, so the Optimized variant runs every operation elastic.
  stm::TxKind txKind = stm::TxKind::Normal;
  // Background restructuring. Turning both off yields the paper's
  // no-restructuring baseline (NRtree): no rotations and no physical
  // removal ("the no-restructuring tree does not physically remove nodes").
  bool rotations = true;
  bool removals = true;
  // Call startMaintenance() from the constructor (the paper's dedicated
  // rotator). Set to false when the owner drives maintenance: by hand
  // (runMaintenancePass, quiesceNow) or through maintainWith().
  bool startMaintenance = true;
  // Targeted maintenance: update transactions publish the keys they
  // unbalance or logically delete into the tree's violation queue at commit
  // time, and a maintenance pass drains the queue and repairs only the
  // affected root-paths instead of sweeping the whole tree. Off = every
  // pass is a full depth-first sweep (the paper's original discovery mode).
  bool targetedMaintenance = true;
  // With targeted maintenance, every Nth pass additionally runs a full
  // depth-first sweep as a safety net for missed or stale queue entries
  // (dropped captures, estimate drift). A pass whose sweep completes
  // repairs none of the entries it collected: the sweep covers them. 0
  // disables the periodic fallback entirely (an overflowing queue still
  // forces one); quiesceNow() sweeps on every pass regardless.
  int fullSweepPeriod = 64;
};

struct MaintenanceStats {
  std::uint64_t traversals = 0;   // maintenance passes (targeted or sweep)
  std::uint64_t fullSweeps = 0;   // passes that included a full DFS sweep
  std::uint64_t rotations = 0;
  std::uint64_t removals = 0;
  std::uint64_t failedStructuralOps = 0;
  std::uint64_t nodesFreed = 0;
  std::uint64_t nodesRetired = 0;
  // Nodes examined by maintenance (every DFS visit + every root-path step):
  // the "maintenance work" numerator — divide by committed updates to get
  // the cost the targeted mode is built to shrink.
  std::uint64_t nodesVisited = 0;
  // Root-path steps a targeted drain avoided re-walking because consecutive
  // (key-sorted) entries shared a recorded prefix — visits that would have
  // counted into nodesVisited otherwise.
  std::uint64_t sharedPrefixSkips = 0;
  // Drained queue entries merged into an equal (key, kind) neighbour of the
  // same batch: captures that cost no repair of their own.
  std::uint64_t entriesMerged = 0;
  // Periodic fallback sweeps deferred because the pass drained nothing;
  // capped at 4x fullSweepPeriod, after which the sweep runs regardless.
  std::uint64_t sweepsDeferred = 0;
  // Drain-pass latency (ns per maintainOnce pass, targeted or sweep).
  obs::LogHistogram passNs;
  // Violation-queue view (see ViolationQueueStats for field meanings).
  ViolationQueueStats queue;
};

class SFTree {
 public:
  explicit SFTree(SFTreeConfig cfg = {});
  ~SFTree();

  SFTree(const SFTree&) = delete;
  SFTree& operator=(const SFTree&) = delete;

  // --- abstract operations (thread-safe, transactional) --------------------
  // Each runs in its own transaction, or joins the caller's transaction when
  // invoked inside stm::atomically (flat nesting), which is what makes
  // composed operations such as move() atomic.
  bool insert(Key k, Value v);
  bool erase(Key k);
  bool contains(Key k);
  std::optional<Value> get(Key k);
  // Composed operation from the paper's reusability experiment (§5.4):
  // atomically relocate the value at `from` to key `to`.
  bool move(Key from, Key to);

  // Transaction-composable variants.
  bool insertTx(stm::Tx& tx, Key k, Value v);
  bool eraseTx(stm::Tx& tx, Key k);
  bool containsTx(stm::Tx& tx, Key k);
  std::optional<Value> getTx(stm::Tx& tx, Key k);
  // Snapshot count of present keys in [lo, hi]; composes with other
  // operations (consistent at commit). Reads the whole matching region
  // transactionally — expensive by design, but *possible*, unlike on trees
  // that bypass TM bookkeeping (paper §6).
  std::size_t countRangeTx(stm::Tx& tx, Key lo, Key hi);
  std::size_t countRange(Key lo, Key hi);

  // --- bulk relocation (shard migration) ------------------------------------
  // One extracted (key, value) pair of a batched range move.
  struct ExtractedKV {
    Key key;
    Value value;
  };
  // Migration source half of a batched range move: one in-order
  // transactional walk from `lo` upward that collects and logically deletes
  // the present keys `pred` accepts — a single amortized descent instead of
  // one find() per key. The walk stops after `maxN` extractions (or an
  // internal examine budget, so a pred that rejects a long stretch cannot
  // grow one transaction's read set without bound). `out` is cleared first:
  // the enclosing transaction may retry, and each attempt must rebuild it.
  // Returns true when the walk exhausted the key space; false when it
  // stopped early, with `nextLo` set to the first key not yet examined
  // (resume cursor). Must run under TxKind::Normal (elastic window cuts
  // could evict the walk's position reads; there is no pinning here).
  bool extractRangeTx(stm::Tx& tx, Key lo, std::size_t maxN,
                      const std::function<bool(Key)>& pred,
                      std::vector<ExtractedKV>& out, Key& nextLo);
  // Migration destination half: inserts every pair inside the enclosing
  // transaction — the per-key link-in is unavoidable, but one transaction
  // (and one cross-domain join) amortizes over the whole batch. Returns the
  // number actually inserted; a key already present is skipped, which the
  // caller should treat as an invariant violation (a migrating key lives in
  // exactly one committed shard).
  std::size_t adoptRangeTx(stm::Tx& tx, const ExtractedKV* kvs,
                           std::size_t n);
  // Read-only sibling of extractRangeTx: the same in-order walk, budgets
  // and resume cursor, but it only *collects* the present pred-matching
  // pairs — no logical deletes, no violation publishes, no size-estimate
  // settlement. Safe under TxKind::ReadOnly (every read is validated in
  // place; a stale read restarts the enclosing operation body), which is
  // what lets a checkpoint stream a tree chunk-by-chunk without ever
  // blocking or aborting writers. Must not run Elastic (window cuts could
  // evict the walk's position reads; there is no pinning here).
  bool scanRangeTx(stm::Tx& tx, Key lo, std::size_t maxN,
                   const std::function<bool(Key)>& pred,
                   std::vector<ExtractedKV>& out, Key& nextLo);
  // Exclusive absence check: returns false when k is present; otherwise
  // *write-locks* k's position (a value-preserving write to the null child
  // or the deleted flag, pinned like an update's position reads) and
  // returns true. Unlike containsTx the conclusion survives an elastic
  // transaction's window cuts (pins + the write fold the window), and a
  // concurrent insert of k collides write-write at commit instead of
  // serializing after us. ShardedMap's migration-window insert path uses
  // this as its safe-under-any-TxKind "prev lacks the key" check. (Note:
  // position locks alone cannot order routing-table transitions — an
  // unrelated insert can relocate k's insertion point past the reserved
  // position; cross-table ordering comes from the map's transactional
  // table read.)
  bool reserveAbsentTx(stm::Tx& tx, Key k);

  // --- maintenance control --------------------------------------------------
  // startMaintenance() attaches the tree to a one-worker scheduler it owns
  // (shard::dedicatedRotatorConfig); no-op while attached. maintainWith()
  // attaches it to `scheduler` (not owned, must outlive the attachment)
  // instead of the current driver, registering the pass, the updateTicks
  // work signal and the violationQueueDepth load. Both do nothing on a tree
  // with neither rotations nor removals.
  void startMaintenance();
  void maintainWith(shard::MaintenanceScheduler& scheduler, std::string name);
  // Detaches; blocks until an in-flight pass has finished. The destructor
  // detaches too.
  void stopMaintenance();
  // Nesting pause: blocks until an in-flight pass has finished; a paused
  // tree counts as stopped for quiesceNow() and the quiesced walks. No-ops
  // while detached; detaching drops the pauses.
  void pauseMaintenance();
  void resumeMaintenance();
  bool maintenanceRunning() const;  // attached (paused or not)
  // One full depth-first maintenance pass (propagation + rotations +
  // physical removals + GC epoch) on the calling thread; returns true when
  // the pass performed at least one structural change. This is what the
  // driving scheduler runs; at most one thread may run it at a time, so
  // call it by hand only while maintenance is stopped or paused. `cancel`
  // (optional) aborts the traversal early when set to true.
  bool runMaintenancePass(const std::atomic<bool>* cancel = nullptr);
  // Runs maintenance passes on the calling thread until one performs no
  // structural change and leaves the queue empty (maintenance must be
  // stopped or paused). Every pass sweeps, so the queued inserts and erases
  // cost no root-path repairs: a balanced fill quiesces in one pass with no
  // rotation. Returns the number of passes.
  int quiesceNow(int maxPasses = 1000);

  MaintenanceStats maintenanceStats() const;

  // Registers this tree's snapshot metrics (maintenance counters incl. the
  // drain-pass histogram, queue occupancy, size estimate, and the node and
  // violation-queue arenas' footprints as "arena.*" and "queue_arena.*")
  // under "<prefix>." in `reg`. The tree must outlive the registration.
  [[nodiscard]] obs::MetricsRegistry::Registration registerMetrics(
      obs::MetricsRegistry& reg, std::string prefix);

  // Entries currently waiting in the violation queue (racy snapshot). This
  // is the occupancy an external scheduler uses to steer workers toward the
  // hottest shards.
  std::uint64_t violationQueueDepth() const { return violations_.depth(); }

  // Monotonic activity counter: bumped inside every update attempt that
  // reached its write (insertTx/eraseTx, so composed operations count too).
  // A hint, not an exact tally — aborted-and-retried transactions tick more
  // than once, which is fine for its purpose: an external scheduler
  // compares successive readings to tell hot trees from idle ones.
  std::uint64_t updateTicks() const {
    return updateTicks_.load(std::memory_order_relaxed);
  }

  // --- introspection (quiesced use: no concurrent operations) --------------
  std::size_t abstractSize();        // number of non-deleted reachable keys
  std::size_t structuralSize();      // number of reachable nodes
  int height();                      // height of the reachable tree
  std::vector<Key> keysInOrder();    // abstraction contents, sorted
  std::size_t limboPending() const { return limbo_.pending(); }

  // Committed-size estimate maintained outside transactions; exact once all
  // operations have returned.
  std::int64_t sizeEstimate() const {
    return sizeEstimate_.load(std::memory_order_relaxed);
  }
  // Estimate adjustment hook for composed multi-tree operations (e.g.
  // ShardedMap's migration-window single-key paths) that go through the
  // Tx-composable entry points and so bypass the insert/erase wrappers'
  // own bookkeeping.
  void bumpSizeEstimate(std::int64_t d) {
    sizeEstimate_.fetch_add(d, std::memory_order_relaxed);
  }
  // Read-only view of the node arena (shard-retirement diagnostics: the
  // slabs this tree's destruction frees wholesale).
  const mem::SlabArena& arenaForStats() const { return arena_.raw(); }

  const SFTreeConfig& config() const { return cfg_; }
  // The STM clock domain this tree runs on (the configured one, or the
  // process default).
  stm::Domain& domain() const { return domain_; }
  // Transaction kind for update operations (elastic only when safe; see
  // SFTreeConfig::txKind). Public so composed multi-tree operations (e.g.
  // ShardedMap::move) run under the same safety rule as the tree's own.
  stm::TxKind updateTxKind() const;
  // Transaction kind for read-only operations (contains/get/countRange):
  // the configured elastic mode, or zero-logging ReadOnly otherwise. Public
  // for the same composed-operation reason as updateTxKind.
  stm::TxKind readTxKind() const;
  SFNode* rootForTest() { return root_; }

 private:

  // --- find (both variants) -------------------------------------------------
  // Returns the node with key k, or the node whose null child is the unique
  // insertion point for k (paper: find "returns the correct location").
  // `pin` (update paths) records the position reads — the candidate's
  // removed flag, the pinned null child, the parent link — in the permanent
  // read set so an elastic transaction's window cuts cannot evict them
  // before the first write folds the window in (see Tx::readPinned).
  SFNode* findPortable(stm::Tx& tx, Key k) const;
  SFNode* findOptimized(stm::Tx& tx, Key k, bool pin) const;
  SFNode* find(stm::Tx& tx, Key k, bool pin = false) const;

  // --- structural transactions (maintenance thread) ------------------------
  // `changed` is true when the tree was modified; the returned pointer is
  // the node that left the tree (to retire after commit), if any.
  // `leftChild` selects which child of `parent` is the target node.
  struct StructuralResult {
    bool changed = false;
    SFNode* unlinked = nullptr;
  };
  StructuralResult rotateRight(stm::Tx& tx, SFNode* parent, bool leftChild);
  StructuralResult rotateLeft(stm::Tx& tx, SFNode* parent, bool leftChild);
  StructuralResult removePhysical(stm::Tx& tx, SFNode* parent,
                                  bool leftChild);

  // Attempt wrappers running their own transaction and handling retirement.
  bool tryRotateRight(SFNode* parent, bool leftChild);
  bool tryRotateLeft(SFNode* parent, bool leftChild);
  bool tryRemovePhysical(SFNode* parent, bool leftChild);

  // --- maintenance ----------------------------------------------------------
  // driverMu_ held. attachLocked expects a detached tree; a null scheduler
  // means one of the tree's own.
  void attachLocked(shard::MaintenanceScheduler* scheduler, std::string name);
  void detachLocked();
  bool passesMayRun() const;  // attached and not paused
  // One maintenance pass body, bracketed by one GC epoch: collect the
  // queued entries (targeted mode), then (when `fullSweep`) a depth-first
  // sweep, then repair the collected entries unless a sweep ran to
  // completion, since it already covered them. A `sweepDeferrable` sweep
  // (the periodic fallback) is skipped when the pass collected nothing,
  // until the deferral cap (4x fullSweepPeriod) forces it.
  bool maintainOnce(const std::atomic<bool>* cancel, bool fullSweep,
                    bool sweepDeferrable = false);
  // Depth-first sweep: propagates heights, triggers rotations/removals.
  // A node is probed for removal before its subtrees and again after them
  // (a removal below may have emptied one of its sides), as the targeted
  // climb re-probes each ancestor.
  void maintainSubtree(SFNode* parent, SFNode* node, bool leftChild,
                       bool& didWork, int depth,
                       const std::atomic<bool>* cancel);
  // Targeted path, first half: drains the violation queue into drainBuf_,
  // sorts the entries by (key, kind) (consecutive entries then share
  // maximal root-path prefixes, which processViolation reuses) and merges
  // equal neighbours into one entry.
  void collectViolations(const std::atomic<bool>* cancel);
  // Second half: repairs the collected entries in key order. A cancelled
  // repair hands every entry it has not repaired back to the queue.
  // Returns true when structural work happened.
  bool repairViolations(const std::atomic<bool>* cancel);
  // Repairs one drained queue entry. The kind selects the repair: kInsert
  // rebalances the root-path (no removal probes — any removable node has
  // its own kErase entry), kErase probes the physical removal and skips the
  // bottom-up rebalance when nothing was unlinked (heights unchanged).
  // With `reusePath`, the walk first follows the path recorded in pathBuf_
  // by the previous entry as far as it matches k's search path (valid only
  // when that entry did no structural work — concurrent mutators only link
  // fresh leaves, so recorded interior nodes stay on their root-paths; only
  // this worker's own rotations/removals invalidate them).
  void processViolation(Key k, ViolationKind kind, bool& didWork,
                        bool reusePath);
  // If the node hanging off (parent, leftChild) is a removable logically
  // deleted node, unlink it and load its replacement into `node`. Returns
  // true on a successful removal.
  bool tryRemoveAt(SFNode* parent, SFNode*& node, bool leftChild,
                   bool& didWork);
  // Refreshes node's height estimate from its children's and rotates when
  // the AVL bound is violated (`node` may be retired by the rotation; the
  // caller re-reads the parent's link afterwards). Returns true when the
  // node's own height changed or a rotation was attempted — i.e. when the
  // ancestors' estimates may now be stale. A false return lets a root-path
  // walk stop propagating early (the classic AVL fixup termination).
  bool rebalanceAt(SFNode* parent, SFNode* node, bool leftChild,
                   bool& didWork);
  // Publishes a violation at key k when this update transaction commits.
  void captureViolation(stm::Tx& tx, Key k, ViolationKind kind);
  // Rotation side: publishes a kErase for the rotated node's key when it is
  // logically deleted and the rotation left its demoted place (n itself in
  // the Portable variant, its copy in the Optimized one) with at most one
  // child — `left`/`right` — so it became removable.
  void captureIfRemovable(stm::Tx& tx, SFNode* n, SFNode* left,
                          SFNode* right);
  void retireNode(SFNode* n);

  // In-order walker behind extractRangeTx and scanRangeTx (ExtractCtx::
  // mutate selects between them). Returns true to keep going, false once a
  // budget stopped the walk (c.nextLo set to the first unexamined key).
  struct ExtractCtx;
  bool extractWalk(stm::Tx& tx, SFNode* n, Key lo, ExtractCtx& c);

  static void deleteNode(void* p) { mem::NodeArena<SFNode>::destroy(p); }

  SFTreeConfig cfg_;
  stm::Domain& domain_;
  // Node storage. Declared before the limbo list so retired nodes can still
  // recycle into it during destruction; one arena per tree keeps a
  // per-shard-domain deployment's node memory per domain.
  mem::NodeArena<SFNode> arena_;
  SFNode* root_;  // sentinel, key == kInfiniteKey, never rotated/removed

  gc::LimboList limbo_;  // touched only by the maintenance thread

  // Mutator -> maintenance violation channel. True when updates publish
  // into it (targeted mode with some restructuring enabled).
  ViolationQueue violations_;
  bool captureViolations_ = false;

  MaintenanceStats maintStats_;
  mutable std::mutex maintStatsMu_;
  // Passes since the last full sweep, and nodes visited by the current
  // pass (touched only by the thread running the pass, like the limbo list;
  // passVisited_ folds into maintStats_ under the mutex per pass).
  int passesSinceSweep_ = 0;
  std::uint64_t passVisited_ = 0;
  // Scratch for processViolation's root-path walk (consumer-only).
  struct PathStep {
    SFNode* parent;
    SFNode* node;
    bool leftChild;
  };
  std::vector<PathStep> pathBuf_;
  // Drain batch scratch (consumer-only): entries collected per pass, sorted
  // by (key, kind) for the shared-prefix walk reuse, one per (key, kind).
  // passPrefixSkips_ and passMerged_ accumulate the avoided steps and the
  // merged entries and fold into maintStats_ like passVisited_.
  struct DrainEntry {
    Key key;
    ViolationKind kind;
  };
  std::vector<DrainEntry> drainBuf_;
  std::uint64_t passPrefixSkips_ = 0;
  std::uint64_t passMerged_ = 0;

  // Bumped by every update: a cache line apart from the maintenance
  // worker's scratch above, which it writes on every drained entry.
  alignas(64) std::atomic<std::int64_t> sizeEstimate_{0};
  std::atomic<std::uint64_t> updateTicks_{0};

  // The scheduler driving the passes (null = none), the registration and
  // its pause depth. ownDriver_ is set when the driver is the tree's own;
  // declared last, so its worker stops before anything a pass touches dies.
  mutable std::mutex driverMu_;
  shard::MaintenanceScheduler* driver_ = nullptr;
  shard::MaintenanceScheduler::TreeHandle driverHandle_ =
      shard::MaintenanceScheduler::kInvalidHandle;
  int pauseDepth_ = 0;
  std::unique_ptr<shard::MaintenanceScheduler> ownDriver_;
};

}  // namespace sftree::trees
