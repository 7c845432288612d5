#include "shard/sharded_map.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "mem/arena.hpp"
#include "obs/clock.hpp"
#include "obs/stats_bridge.hpp"
#include "obs/trace.hpp"
#include "shard/aimd.hpp"

namespace sftree::shard {

namespace {

// kMapOp trace payload: op kind codes (record.op).
constexpr std::uint16_t kOpInsert = 1;
constexpr std::uint16_t kOpErase = 2;
constexpr std::uint16_t kOpGet = 3;
constexpr std::uint16_t kOpContains = 4;
constexpr std::uint16_t kOpMove = 5;

// splitmix64 finalizer: adjacent keys land on unrelated slots, so a
// key-range scan load-balances instead of hammering one tree.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// --------------------------------------------------------------------------
// Construction / destruction
// --------------------------------------------------------------------------
ShardedMap::ShardedMap(ShardedMapConfig cfg) : cfg_(std::move(cfg)) {
  // Hard checks, not asserts: these parameterize a modulo on every
  // operation, and release builds would die with SIGFPE instead.
  if (cfg_.shards < 1) {
    throw std::invalid_argument("ShardedMap: shards must be >= 1");
  }
  if (cfg_.routingSlots < cfg_.shards) {
    throw std::invalid_argument(
        "ShardedMap: routingSlots must be >= shards (slots are the "
        "re-sharding granularity)");
  }
  if (cfg_.migrationBatch < 1) cfg_.migrationBatch = 1;
  if (!cfg_.initialSlotAssignment.empty()) {
    if (cfg_.initialSlotAssignment.size() !=
        static_cast<std::size_t>(cfg_.routingSlots)) {
      throw std::invalid_argument(
          "ShardedMap: initialSlotAssignment must name every routing slot");
    }
    for (const int v : cfg_.initialSlotAssignment) {
      if (v < 0 || v >= cfg_.shards) {
        throw std::invalid_argument(
            "ShardedMap: initialSlotAssignment entry out of shard range");
      }
    }
  }
  if (cfg_.domainMode == DomainMode::PerShard &&
      cfg_.stmConfig.orecLogSize == stm::Config{}.orecLogSize) {
    // Keep the *total* orec footprint at the single-domain default: each
    // shard sees ~1/N of the address traffic, so 1/N of the stripes give
    // the same false-conflict rate — and N full-size tables would blow
    // the cache instead of relieving it. (Floor of 2^16 = 512 KiB.)
    std::uint32_t logN = 0;
    while ((1 << logN) < cfg_.shards) ++logN;
    cfg_.stmConfig.orecLogSize =
        std::max<std::uint32_t>(16, cfg_.stmConfig.orecLogSize - logN);
  }
  // The routing domain guards exactly one word (the table pointer); it
  // must share the trees' TM backend and can run the smallest orec table.
  {
    stm::Config routeCfg =
        cfg_.domainMode == DomainMode::PerShard
            ? cfg_.stmConfig
            : (cfg_.domain != nullptr ? cfg_.domain->config()
                                      : stm::defaultDomain().config());
    routeCfg.orecLogSize = 16;
    routingDomain_ = std::make_unique<stm::Domain>(routeCfg);
  }
  const auto n = static_cast<std::size_t>(cfg_.shards);
  live_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) live_.push_back(makeShard());

  // Per-slot traffic gauges and checkpoint dirty ticks (value-initialized
  // to zero).
  slotTicks_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(cfg_.routingSlots));
  slotWriteTicks_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(cfg_.routingSlots));

  // Initial routing: contiguous slot blocks, floor/ceil(S/N) slots each —
  // unless the caller pinned an explicit slot->shard layout (checkpoint
  // restore recreating the image's topology).
  auto t = std::make_unique<RoutingTable>();
  t->version = tableVersion_++;
  t->slots.resize(static_cast<std::size_t>(cfg_.routingSlots));
  for (std::size_t s = 0; s < t->slots.size(); ++s) {
    const std::size_t shard =
        cfg_.initialSlotAssignment.empty()
            ? s * n / t->slots.size()
            : static_cast<std::size_t>(cfg_.initialSlotAssignment[s]);
    t->slots[s].owner = live_[shard]->tree.get();
  }
  tableTx_.storeRelaxed(t.release());  // pre-publication: single-threaded
}

// Each tree detaches from its maintenance driver in its own destructor.
ShardedMap::~ShardedMap() { delete tableTx_.loadRelaxed(); }

std::unique_ptr<ShardedMap::ShardRec> ShardedMap::makeShard() {
  auto rec = std::make_unique<ShardRec>();
  if (cfg_.domainMode == DomainMode::PerShard) {
    rec->domain = std::make_unique<stm::Domain>(cfg_.stmConfig);
  }
  trees::SFTreeConfig treeCfg = cfg_.tree;
  if (cfg_.scheduler != nullptr) treeCfg.startMaintenance = false;
  treeCfg.domain = cfg_.domainMode == DomainMode::PerShard ? rec->domain.get()
                                                           : cfg_.domain;
  rec->tree = std::make_unique<trees::SFTree>(treeCfg);
  if (cfg_.scheduler != nullptr) {
    static std::atomic<std::uint64_t> nameSeq{0};
    rec->tree->maintainWith(
        *cfg_.scheduler,
        cfg_.name + "/" +
            std::to_string(nameSeq.fetch_add(1, std::memory_order_relaxed)));
  }
  return rec;
}

std::size_t ShardedMap::slotOf(Key k) const {
  return static_cast<std::size_t>(
      mix64(static_cast<std::uint64_t>(k)) %
      static_cast<std::uint64_t>(cfg_.routingSlots));
}

int ShardedMap::shardCount() const {
  std::lock_guard<std::mutex> lk(topoMu_);
  return static_cast<int>(live_.size());
}

int ShardedMap::shardIndexFor(Key k) const {
  // The bracket keeps a concurrent publishTable() from freeing the table
  // out from under this (non-transactional) read.
  const gc::OpGuard bracket;
  const RoutingTable* t = table();
  const trees::SFTree* owner = t->slots[slotOf(k)].owner;
  std::lock_guard<std::mutex> lk(topoMu_);
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (live_[i]->tree.get() == owner) return static_cast<int>(i);
  }
  return -1;  // unreachable while owner trees come from live_
}

trees::SFTree& ShardedMap::shard(int i) {
  std::lock_guard<std::mutex> lk(topoMu_);
  return *live_[static_cast<std::size_t>(i)]->tree;
}

std::vector<stm::Domain*> ShardedMap::domains() {
  std::lock_guard<std::mutex> lk(topoMu_);
  std::vector<stm::Domain*> out;
  for (const auto& rec : live_) {
    stm::Domain* d = &rec->tree->domain();
    if (std::find(out.begin(), out.end(), d) == out.end()) out.push_back(d);
  }
  return out;
}

std::vector<int> ShardedMap::slotOwners() const {
  const gc::OpGuard bracket;
  const RoutingTable* t = table();
  std::lock_guard<std::mutex> lk(topoMu_);
  std::vector<int> out(t->slots.size(), -1);
  for (std::size_t s = 0; s < t->slots.size(); ++s) {
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i]->tree.get() == t->slots[s].owner) {
        out[s] = static_cast<int>(i);
        break;
      }
    }
  }
  return out;
}

// --------------------------------------------------------------------------
// Dual-path (migration-aware) transactional pieces. The global invariant —
// a key is present in at most one tree — holds because inserts only reach
// `owner` in the same transaction that verified `prev` lacks the key, and
// the migration batches move keys prev -> owner atomically.
// --------------------------------------------------------------------------
bool ShardedMap::entryContainsTx(stm::Tx& tx, const RouteEntry& e, Key k) {
  if (e.prev != nullptr && e.prev->containsTx(tx, k)) return true;
  return e.owner->containsTx(tx, k);
}

std::optional<Value> ShardedMap::entryGetTx(stm::Tx& tx, const RouteEntry& e,
                                            Key k) {
  if (e.prev != nullptr) {
    if (auto v = e.prev->getTx(tx, k)) return v;
  }
  return e.owner->getTx(tx, k);
}

bool ShardedMap::entryInsertTx(stm::Tx& tx, const RouteEntry& e, Key k,
                               Value v) {
  // Never insert (or revive) into the migration source: new keys go to the
  // new owner so the mover's scan of `prev` converges. Ordering against
  // operations still routing by an older table is the transactional table
  // read's job (routeTx — their commits fail validation); the absence
  // check still *reserves* (pin-disciplined value-preserving write) rather
  // than merely reads k's position, because a dual-path insert can run
  // under TxKind::Elastic when the route flipped mid-operation, and
  // elastic window cuts would evict a plain containsTx's reads — the
  // reservation's pins and write survive cuts by the same discipline as
  // the trees' own update paths.
  if (e.prev != nullptr && !e.prev->reserveAbsentTx(tx, k)) return false;
  return e.owner->insertTx(tx, k, v);
}

bool ShardedMap::entryEraseTx(stm::Tx& tx, const RouteEntry& e, Key k,
                              trees::SFTree** hit) {
  if (e.prev != nullptr && e.prev->eraseTx(tx, k)) {
    if (hit != nullptr) *hit = e.prev;
    return true;
  }
  if (e.owner->eraseTx(tx, k)) {
    if (hit != nullptr) *hit = e.owner;
    return true;
  }
  return false;
}

std::vector<trees::SFTree*> ShardedMap::distinctTrees(const RoutingTable& t) {
  std::vector<trees::SFTree*> out;
  for (const RouteEntry& e : t.slots) {
    if (std::find(out.begin(), out.end(), e.owner) == out.end()) {
      out.push_back(e.owner);
    }
  }
  for (const RouteEntry& e : t.slots) {
    if (e.prev != nullptr &&
        std::find(out.begin(), out.end(), e.prev) == out.end()) {
      out.push_back(e.prev);
    }
  }
  return out;
}

// --------------------------------------------------------------------------
// Single-key operations. Each plain entry point runs its transaction body
// through the Tx-composable variant below: the routing entry is resolved
// INSIDE the body, once per attempt (an attempt that loses a conflict to a
// re-sharder re-routes on retry) and size estimates settle via commit
// hooks. Routing through the composable variants also makes flat nesting
// sound for free: a plain call inside an enclosing stm::atomically runs the
// same body inline, so the enclosing transaction inherits the
// commit-gated estimate settlement instead of the plain wrapper's
// call-scoped version. The OpScope parks on the checkpoint fence and then
// brackets the non-transactional routing peek, keeping the root domain
// (resolved once, before the retry loop) alive across retries — the
// transaction nests inside that bracket for free. The transaction kind is
// latched from the entry observed at op start — a table flip mid-op only
// changes which trees the (pin-disciplined, restart-guarded) dual paths
// compose, never their safety.
// --------------------------------------------------------------------------
bool ShardedMap::insert(Key k, Value v) {
  const OpScope scope(*this);
  const RouteEntry e0 = table()->slots[slotOf(k)];
  auto& st = stm::threadStats(e0.owner->domain());
  st.beginOp();
  const bool r = stm::atomically(
      e0.owner->domain(), entryUpdateKind(e0),
      [&](stm::Tx& tx) { return insertTx(tx, k, v); });
  st.endOp();
  return r;
}

bool ShardedMap::erase(Key k) {
  const OpScope scope(*this);
  const RouteEntry e0 = table()->slots[slotOf(k)];
  auto& st = stm::threadStats(e0.owner->domain());
  st.beginOp();
  const bool r = stm::atomically(
      e0.owner->domain(), entryUpdateKind(e0),
      [&](stm::Tx& tx) { return eraseTx(tx, k); });
  st.endOp();
  return r;
}

bool ShardedMap::contains(Key k) {
  const OpScope scope(*this);
  const RouteEntry e0 = table()->slots[slotOf(k)];
  auto& st = stm::threadStats(e0.owner->domain());
  st.beginOp();
  const bool r = stm::atomically(
      e0.owner->domain(), stm::TxKind::ReadOnly,
      [&](stm::Tx& tx) { return containsTx(tx, k); });
  st.endOp();
  return r;
}

std::optional<Value> ShardedMap::get(Key k) {
  const OpScope scope(*this);
  const RouteEntry e0 = table()->slots[slotOf(k)];
  auto& st = stm::threadStats(e0.owner->domain());
  st.beginOp();
  const auto r = stm::atomically(
      e0.owner->domain(), stm::TxKind::ReadOnly,
      [&](stm::Tx& tx) { return getTx(tx, k); });
  st.endOp();
  return r;
}

// Tx-composable variants: the caller's stm::atomically holds the bracket
// across the final validation and the commit hooks — a commit hook
// registered by the tree op below (a violation-queue publish) still
// touches tree memory a shard retirement must not free before then. They
// never park on the checkpoint fence: that would block inside a bracket.
bool ShardedMap::insertTx(stm::Tx& tx, Key k, Value v) {
  const RoutingTable* tbl = routeTx(tx);
  const std::size_t slot = slotOf(k);
  bumpSlotTick(slot);
  bumpSlotWriteTick(slot);  // body time: before this attempt can commit
  if (obs::traceEnabled()) {
    obs::trace(obs::TraceKind::kMapOp, tbl->version, slot, 0, kOpInsert);
  }
  const RouteEntry e = tbl->slots[slot];
  const bool r = entryInsertTx(tx, e, k, v);
  if (r) {
    // Settle the estimate only if the enclosing transaction commits: the
    // per-shard exactness contract is load-bearing under retirement.
    trees::SFTree* owner = e.owner;
    tx.onCommit([owner] { owner->bumpSizeEstimate(1); });
  }
  return r;
}

bool ShardedMap::eraseTx(stm::Tx& tx, Key k) {
  const RoutingTable* tbl = routeTx(tx);
  const std::size_t slot = slotOf(k);
  bumpSlotTick(slot);
  bumpSlotWriteTick(slot);  // body time: before this attempt can commit
  if (obs::traceEnabled()) {
    obs::trace(obs::TraceKind::kMapOp, tbl->version, slot, 0, kOpErase);
  }
  const RouteEntry e = tbl->slots[slot];
  trees::SFTree* hit = nullptr;
  const bool r = entryEraseTx(tx, e, k, &hit);
  if (r) {
    tx.onCommit([hit] { hit->bumpSizeEstimate(-1); });
  }
  return r;
}

bool ShardedMap::containsTx(stm::Tx& tx, Key k) {
  const RoutingTable* tbl = routeTx(tx);
  const std::size_t slot = slotOf(k);
  bumpSlotTick(slot);
  if (obs::traceEnabled()) {
    obs::trace(obs::TraceKind::kMapOp, tbl->version, slot, 0, kOpContains);
  }
  return entryContainsTx(tx, tbl->slots[slot], k);
}

std::optional<Value> ShardedMap::getTx(stm::Tx& tx, Key k) {
  const RoutingTable* tbl = routeTx(tx);
  const std::size_t slot = slotOf(k);
  bumpSlotTick(slot);
  if (obs::traceEnabled()) {
    obs::trace(obs::TraceKind::kMapOp, tbl->version, slot, 0, kOpGet);
  }
  return entryGetTx(tx, tbl->slots[slot], k);
}

bool ShardedMap::move(Key from, Key to) {
  const OpScope scope(*this);
  const RoutingTable* t0 = table();
  const RouteEntry f0 = t0->slots[slotOf(from)];
  const RouteEntry to0 = t0->slots[slotOf(to)];

  // One flat-nested transaction spanning every involved tree (same-shard
  // moves just compose against one). The STM commit makes the erase and
  // the insert visible atomically — with per-shard domains via the
  // descriptor's multi-domain commit (all domains' locks held, per-domain
  // timestamps) — so no reader can observe the key at both shards or at
  // neither. Rooting the transaction in the source shard's domain keeps
  // the common path cheap; further domains are joined on first touch.
  // Normal when a migrating slot is involved (see entryUpdateKind).
  const stm::TxKind kind = (f0.prev != nullptr || to0.prev != nullptr)
                               ? stm::TxKind::Normal
                               : f0.owner->updateTxKind();
  auto& st = stm::threadStats(f0.owner->domain());
  st.beginOp();
  const bool r =
      stm::atomically(f0.owner->domain(), kind,
                      [&](stm::Tx& tx) { return moveTx(tx, from, to); });
  st.endOp();
  return r;
}

bool ShardedMap::moveTx(stm::Tx& tx, Key from, Key to) {
  const RoutingTable* t = routeTx(tx);  // per attempt: re-route on retry
  const std::size_t slotFrom = slotOf(from);
  const std::size_t slotTo = slotOf(to);
  bumpSlotTick(slotFrom);
  if (slotTo != slotFrom) bumpSlotTick(slotTo);
  bumpSlotWriteTick(slotFrom);  // body time, both ends of the move
  if (slotTo != slotFrom) bumpSlotWriteTick(slotTo);
  if (obs::traceEnabled()) {
    obs::trace(obs::TraceKind::kMapOp, t->version, slotFrom, 0, kOpMove);
  }
  const RouteEntry eFrom = t->slots[slotFrom];
  const RouteEntry eTo = t->slots[slotTo];
  if (entryContainsTx(tx, eTo, to)) return false;
  const std::optional<Value> v = entryGetTx(tx, eFrom, from);
  if (!v) return false;
  trees::SFTree* erasedFrom = nullptr;
  if (!entryEraseTx(tx, eFrom, from, &erasedFrom)) {
    // Same subtleties as SFTree::move: under elastic reads a concurrent
    // erase of `from` can slip past the getTx above — inserting `to`
    // without having erased would conjure a key.
    tx.restart();
  }
  if (!entryInsertTx(tx, eTo, to, *v)) {
    // ... and a concurrent insert of `to` can slip past the earlier
    // contains; retry rather than lose the moved key.
    tx.restart();
  }
  // Keep the per-tree size estimates exact across trees, settled only if
  // the (possibly enclosing) transaction commits. Pre-resharding this was
  // optional (drift cancelled in the sum); with merges retiring trees, a
  // biased counter would be destroyed with its tree and the bias would
  // leak into the aggregate permanently.
  if (erasedFrom != eTo.owner) {
    trees::SFTree* src = erasedFrom;
    trees::SFTree* dst = eTo.owner;
    tx.onCommit([src, dst] {
      src->bumpSizeEstimate(-1);
      dst->bumpSizeEstimate(1);
    });
  }
  return true;
}

std::size_t ShardedMap::countRangeTx(stm::Tx& tx, Key lo, Key hi) {
  // Hash partitioning scatters [lo, hi] across every tree (including
  // migration sources); summing the per-tree transactional counts inside
  // one transaction yields a consistent snapshot of the whole range —
  // every key is present in exactly one tree at the commit point.
  const RoutingTable* tab = routeTx(tx);
  std::size_t total = 0;
  for (trees::SFTree* tree : distinctTrees(*tab)) {
    total += tree->countRangeTx(tx, lo, hi);
  }
  return total;
}

std::size_t ShardedMap::countRange(Key lo, Key hi) {
  const OpScope scope(*this);
  auto& st = stm::threadStats(homeDomain());
  st.beginOp();
  // ReadOnly unconditionally (never elastic — countRange promises a
  // consistent snapshot): with per-shard domains the zero-logging mode
  // verifies the already-touched shards' clocks at each join (and
  // transparently promotes to a logged read-write transaction if writers
  // keep moving them), so the common quiet case logs nothing across all
  // shards.
  const auto r = stm::atomically(
      homeDomain(), stm::TxKind::ReadOnly,
      [&](stm::Tx& tx) { return countRangeTx(tx, lo, hi); });
  st.endOp();
  return r;
}

// --------------------------------------------------------------------------
// Checkpoint/snapshot scans (see docs/checkpoint.md for the certification
// protocol these serve)
// --------------------------------------------------------------------------
std::vector<std::uint64_t> ShardedMap::slotWriteTicks() const {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(cfg_.routingSlots));
  for (std::size_t s = 0; s < out.size(); ++s) {
    out[s] = slotWriteTicks_[s].load(std::memory_order_seq_cst);
  }
  return out;
}

void ShardedMap::snapshotChunkTx(stm::Tx& tx, int anchorSlot, Key lo,
                                 std::size_t maxN,
                                 const std::function<bool(Key)>& pred,
                                 std::vector<trees::SFTree::ExtractedKV>& out,
                                 SnapshotChunk& info) {
  info = SnapshotChunk{};
  out.clear();
  const RoutingTable* tab = routeTx(tx);  // per attempt: re-route on retry
  const RouteEntry e = tab->slots[static_cast<std::size_t>(anchorSlot)];
  if (e.prev != nullptr) {
    // Mid-migration: the slot's keys straddle two trees. Nothing here is
    // wrong to scan, but certifying it is the dirty tick's job and the
    // migration bumps have already voided this round — defer the slot.
    info.migrating = true;
    return;
  }
  trees::SFTree* owner = e.owner;
  info.treeId = owner;
  info.ownedSettledSlots.reserve(tab->slots.size());
  for (std::size_t s = 0; s < tab->slots.size(); ++s) {
    if (tab->slots[s].owner == owner && tab->slots[s].prev == nullptr) {
      info.ownedSettledSlots.push_back(static_cast<int>(s));
    }
  }
  Key nextLo = lo;
  info.treeComplete = owner->scanRangeTx(tx, lo, maxN, pred, out, nextLo);
  info.nextLo = nextLo;
}

void ShardedMap::snapshotAllTx(stm::Tx& tx,
                               const std::function<bool(Key)>& pred,
                               std::vector<trees::SFTree::ExtractedKV>& out) {
  out.clear();  // the enclosing transaction may retry this attempt
  const RoutingTable* tab = routeTx(tx);
  std::vector<trees::SFTree::ExtractedKV> chunk;
  for (trees::SFTree* tree : distinctTrees(*tab)) {
    Key lo = std::numeric_limits<Key>::min();
    for (;;) {
      Key nextLo = lo;
      // maxN well below SIZE_MAX/4: scanRangeTx sizes its examine budget
      // at 4*maxN and must not overflow. One call normally completes the
      // tree; the loop is belt-and-braces for the budget edge.
      const bool complete =
          tree->scanRangeTx(tx, lo, std::numeric_limits<std::size_t>::max() / 8,
                            pred, chunk, nextLo);
      out.insert(out.end(), chunk.begin(), chunk.end());
      if (complete) break;
      lo = nextLo;
    }
  }
}

// --------------------------------------------------------------------------
// Re-sharding machinery
// --------------------------------------------------------------------------
void ShardedMap::publishTable(std::unique_ptr<RoutingTable> next) {
  // The transactional write is the serialization point: any in-flight
  // operation that resolved the old table and commits after this fails its
  // validation of the pinned table read and retries against `next`.
  const RoutingTable* old = tableTx_.loadAcquire();
  const RoutingTable* fresh = next.release();
  stm::atomically(*routingDomain_, stm::TxKind::Normal,
                  [&](stm::Tx& tx) { tableTx_.write(tx, fresh); });
  if (obs::traceEnabled()) {
    obs::trace(obs::TraceKind::kTablePublish, fresh->version,
               distinctTrees(*fresh).size());
  }
  // Doomed stragglers may still *dereference* `old` (and the trees it
  // names) until their attempt ends; every such dereference sits inside a
  // bracket open at the publication, which synchronize() waits out.
  gc::ThreadRegistry::instance().synchronize();
  delete old;
  std::lock_guard<std::mutex> lk(reshardStatsMu_);
  ++reshardStats_.tablePublishes;
}

void ShardedMap::migrateSlots(trees::SFTree* src, trees::SFTree* dst,
                              const std::vector<int>& movedSlots) {
  // Phase 1: dual-route table. From here on, lookups for moved slots check
  // (dst, src) and inserts land in dst — src can only lose moved-slot keys,
  // so one scan of src converges.
  {
    const RoutingTable* cur = table();
    auto next = std::make_unique<RoutingTable>();
    next->version = tableVersion_++;
    next->slots = cur->slots;
    for (const int s : movedSlots) {
      next->slots[static_cast<std::size_t>(s)].owner = dst;
      next->slots[static_cast<std::size_t>(s)].prev = src;
    }
    publishTable(std::move(next));
  }

  // Phase 2: batched range moves. Each batch extracts up to migrationBatch
  // matching present keys from src (one amortized in-order walk, logical
  // deletes) and adopts them into dst inside the same — cross-domain, when
  // the shards' clocks differ — transaction.
  std::vector<bool> moved(static_cast<std::size_t>(cfg_.routingSlots), false);
  for (const int s : movedSlots) moved[static_cast<std::size_t>(s)] = true;
  const auto pred = [&](Key k) { return moved[slotOf(k)]; };
  std::vector<trees::SFTree::ExtractedKV> batch;
  batch.reserve(cfg_.migrationBatch);
  std::uint64_t keys = 0;
  std::uint64_t batches = 0;
  const std::uint64_t dualVersion = table()->version;
  Key cursor = std::numeric_limits<Key>::min();
  // Adaptive batch sizing (AIMD). Migration runs on this thread, so the
  // thread's own conflict-abort counters on the involved domains isolate
  // exactly this batch's aborts (see docs/observability.md on the
  // single-writer thread-stats discipline).
  AimdBatch aimd(cfg_.migrationBatch, /*floor=*/8);
  const bool crossDomain = &src->domain() != &dst->domain();
  const auto myAborts = [&]() -> std::uint64_t {
    std::uint64_t a = stm::threadStats(src->domain()).conflictAbortTotal();
    if (crossDomain) a += stm::threadStats(dst->domain()).conflictAbortTotal();
    return a;
  };
  for (bool done = false; !done;) {
    Key nextLo = cursor;
    // Per-slot content is conserved by a migration batch (keys move
    // src -> dst atomically), but a snapshot walk streaming one of the
    // involved *trees* mid-batch could see a moved key at neither end of
    // its multi-chunk walk. Bumping every moved slot's dirty tick before
    // the batch transaction begins voids any certification window the
    // batch intersects: a checkpoint sweep that missed these bumps ran
    // before this point, hence before the batch could disturb anything.
    for (const int s : movedSlots) {
      bumpSlotWriteTick(static_cast<std::size_t>(s));
    }
    const std::uint64_t abortsBefore = myAborts();
    const std::uint64_t batchStart = obs::tick();
    const std::size_t adopted = stm::atomically(
        src->domain(), stm::TxKind::Normal, [&](stm::Tx& tx) -> std::size_t {
          const bool complete = src->extractRangeTx(
              tx, cursor, aimd.size(), pred, batch, nextLo);
          done = complete;
          if (batch.empty()) return 0;
          return dst->adoptRangeTx(tx, batch.data(), batch.size());
        });
    const std::uint64_t batchNs = obs::ticksToNs(obs::tick() - batchStart);
    assert(adopted == batch.size() &&
           "a migrating key was already present in the destination shard");
    (void)adopted;
    keys += batch.size();
    ++batches;
    cursor = nextLo;
    if (obs::traceEnabled()) {
      obs::trace(obs::TraceKind::kMigrationBatch, batch.size(), dualVersion);
    }
    {
      std::lock_guard<std::mutex> lk(reshardStatsMu_);
      reshardStats_.migrationBatchNs.record(batchNs);
    }
    aimd.record(myAborts() != abortsBefore);
  }

  // Phase 3: settled table — the moved slots route solely to dst. In-flight
  // dual-path operations on the old table remain correct (src provably has
  // none of the moved keys; publishTable's synchronize() retires the old
  // table afterwards).
  {
    const RoutingTable* cur = table();
    auto next = std::make_unique<RoutingTable>();
    next->version = tableVersion_++;
    next->slots = cur->slots;
    for (const int s : movedSlots) {
      next->slots[static_cast<std::size_t>(s)].owner = dst;
      next->slots[static_cast<std::size_t>(s)].prev = nullptr;
    }
    publishTable(std::move(next));
  }

  std::lock_guard<std::mutex> lk(reshardStatsMu_);
  reshardStats_.keysMigrated += keys;
  reshardStats_.migrationBatches += batches;
  reshardStats_.batchShrinks += aimd.shrinks();
  reshardStats_.batchGrows += aimd.grows();
}

int ShardedMap::splitShard(int idx) {
  std::lock_guard<std::mutex> rl(reshardMu_);
  trees::SFTree* src = nullptr;
  {
    std::lock_guard<std::mutex> lk(topoMu_);
    if (idx < 0 || static_cast<std::size_t>(idx) >= live_.size()) return -1;
    src = live_[static_cast<std::size_t>(idx)]->tree.get();
  }
  // Slots currently owned by src (reshardMu_ excludes concurrent flips).
  std::vector<int> owned;
  {
    const RoutingTable* t = table();
    for (std::size_t s = 0; s < t->slots.size(); ++s) {
      if (t->slots[s].owner == src) owned.push_back(static_cast<int>(s));
    }
  }
  if (owned.size() < 2) return -1;  // slot granularity reached

  // Load-aware selection: rank the owned slots by their traffic gauges and
  // move the alternating ranks starting with the hottest, so the fresh
  // shard takes the hot slots off the overloaded tree and both halves end
  // up with comparable measured load. stable_sort keeps all-equal ticks (a
  // map that never measured traffic) at a deterministic index interleave.
  std::stable_sort(owned.begin(), owned.end(), [&](int a, int b) {
    return slotTicks_[static_cast<std::size_t>(a)].load(
               std::memory_order_relaxed) >
           slotTicks_[static_cast<std::size_t>(b)].load(
               std::memory_order_relaxed);
  });
  std::vector<int> movedSlots;
  for (std::size_t i = 0; i < owned.size(); i += 2) {
    movedSlots.push_back(owned[i]);
  }

  std::unique_ptr<ShardRec> rec = makeShard();
  trees::SFTree* dst = rec->tree.get();
  int newIdx;
  {
    // The new shard must be live (maintained, visible to stats) before the
    // routing table can hand it traffic.
    std::lock_guard<std::mutex> lk(topoMu_);
    live_.push_back(std::move(rec));
    newIdx = static_cast<int>(live_.size() - 1);
  }
  migrateSlots(src, dst, movedSlots);
  {
    std::lock_guard<std::mutex> lk(reshardStatsMu_);
    ++reshardStats_.splits;
  }
  return newIdx;
}

bool ShardedMap::mergeShards(int victimIdx, int targetIdx) {
  std::lock_guard<std::mutex> rl(reshardMu_);
  trees::SFTree* victim = nullptr;
  trees::SFTree* target = nullptr;
  {
    std::lock_guard<std::mutex> lk(topoMu_);
    if (victimIdx < 0 || static_cast<std::size_t>(victimIdx) >= live_.size() ||
        targetIdx < 0 || static_cast<std::size_t>(targetIdx) >= live_.size() ||
        victimIdx == targetIdx || live_.size() < 2) {
      return false;
    }
    victim = live_[static_cast<std::size_t>(victimIdx)]->tree.get();
    target = live_[static_cast<std::size_t>(targetIdx)]->tree.get();
  }
  std::vector<int> movedSlots;
  {
    const RoutingTable* t = table();
    for (std::size_t s = 0; s < t->slots.size(); ++s) {
      if (t->slots[s].owner == victim) movedSlots.push_back(static_cast<int>(s));
    }
  }
  migrateSlots(victim, target, movedSlots);

  // Retirement. After the settled-table synchronize() no operation can
  // reach the victim; what may remain is its maintenance (unregister blocks
  // until the in-flight pass finishes) and any bracket that found it
  // through live_ (domainOf) before the removal below — the final
  // synchronize() waits those out before the tree and domain are freed.
  std::unique_ptr<ShardRec> retired;
  {
    std::lock_guard<std::mutex> lk(topoMu_);
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if ((*it)->tree.get() == victim) {
        retired = std::move(*it);
        live_.erase(it);
        break;
      }
    }
  }
  assert(retired != nullptr);
  retired->tree->stopMaintenance();
  gc::ThreadRegistry::instance().synchronize();
  {
    // The arena's slabs are freed wholesale with the tree; record what the
    // retirement drains.
    const mem::SlabArena& arena = retired->tree->arenaForStats();
    std::lock_guard<std::mutex> lk(reshardStatsMu_);
    ++reshardStats_.merges;
    reshardStats_.retiredArenaBytes +=
        arena.slabCount() * mem::SlabArena::kSlabBytes;
    reshardStats_.retiredLiveBlocks +=
        static_cast<std::uint64_t>(std::max<std::int64_t>(
            0, arena.liveBlocks()));
  }
  retired.reset();  // tree (and domain, PerShard) destroyed here
  return true;
}

ReshardStats ShardedMap::reshardStats() const {
  std::lock_guard<std::mutex> lk(reshardStatsMu_);
  return reshardStats_;
}

// --------------------------------------------------------------------------
// Quiesced introspection
// --------------------------------------------------------------------------
void ShardedMap::pauseAllMaintenance() {
  for (const auto& rec : live_) rec->tree->pauseMaintenance();
}

void ShardedMap::resumeAllMaintenance() {
  for (const auto& rec : live_) rec->tree->resumeMaintenance();
}

std::size_t ShardedMap::size() {
  std::lock_guard<std::mutex> rl(reshardMu_);
  std::lock_guard<std::mutex> lk(topoMu_);
  pauseAllMaintenance();
  std::size_t total = 0;
  for (const auto& rec : live_) total += rec->tree->abstractSize();
  resumeAllMaintenance();
  return total;
}

int ShardedMap::height() {
  std::lock_guard<std::mutex> rl(reshardMu_);
  std::lock_guard<std::mutex> lk(topoMu_);
  pauseAllMaintenance();
  int h = 0;
  for (const auto& rec : live_) h = std::max(h, rec->tree->height());
  resumeAllMaintenance();
  return h;
}

std::vector<Key> ShardedMap::keysInOrder() {
  std::lock_guard<std::mutex> rl(reshardMu_);
  std::lock_guard<std::mutex> lk(topoMu_);
  pauseAllMaintenance();
  std::vector<Key> out;
  for (const auto& rec : live_) {
    const auto keys = rec->tree->keysInOrder();
    out.insert(out.end(), keys.begin(), keys.end());
  }
  resumeAllMaintenance();
  // Per-shard walks are sorted, but the hash partition interleaves them.
  std::sort(out.begin(), out.end());
  return out;
}

void ShardedMap::quiesce() {
  std::lock_guard<std::mutex> rl(reshardMu_);
  std::lock_guard<std::mutex> lk(topoMu_);
  pauseAllMaintenance();
  for (const auto& rec : live_) rec->tree->quiesceNow();
  resumeAllMaintenance();
}

std::int64_t ShardedMap::sizeEstimate() const {
  std::lock_guard<std::mutex> lk(topoMu_);
  std::int64_t total = 0;
  for (const auto& rec : live_) total += rec->tree->sizeEstimate();
  return total;
}

ShardedMapStats ShardedMap::aggregatedStats() const {
  std::lock_guard<std::mutex> lk(topoMu_);
  ShardedMapStats out;
  // One STM snapshot per distinct clock domain.
  if (cfg_.domainMode == DomainMode::PerShard) {
    out.domainStats.reserve(live_.size());
    for (const auto& rec : live_) {
      out.domainStats.push_back(rec->domain->aggregateStats());
    }
  } else {
    out.domainStats.push_back(live_.front()->tree->domain().aggregateStats());
  }
  for (const auto& d : out.domainStats) out.stm += d;
  out.shardSizeEstimates.reserve(live_.size());
  out.shardQueueDepths.reserve(live_.size());
  for (const auto& rec : live_) {
    const trees::SFTree& s = *rec->tree;
    const auto est = s.sizeEstimate();
    out.sizeEstimate += est;
    out.shardSizeEstimates.push_back(est);
    out.shardQueueDepths.push_back(s.violationQueueDepth());
    const auto m = s.maintenanceStats();
    out.maintenance.traversals += m.traversals;
    out.maintenance.fullSweeps += m.fullSweeps;
    out.maintenance.rotations += m.rotations;
    out.maintenance.removals += m.removals;
    out.maintenance.failedStructuralOps += m.failedStructuralOps;
    out.maintenance.nodesFreed += m.nodesFreed;
    out.maintenance.nodesRetired += m.nodesRetired;
    out.maintenance.nodesVisited += m.nodesVisited;
    out.maintenance.sharedPrefixSkips += m.sharedPrefixSkips;
    out.maintenance.entriesMerged += m.entriesMerged;
    out.maintenance.sweepsDeferred += m.sweepsDeferred;
    out.maintenance.passNs += m.passNs;
    out.maintenance.queue.captured += m.queue.captured;
    out.maintenance.queue.enqueued += m.queue.enqueued;
    out.maintenance.queue.drained += m.queue.drained;
    out.maintenance.queue.dropped += m.queue.dropped;
    out.maintenance.queue.overflows += m.queue.overflows;
    out.maintenance.queue.drainLatencyUsSum += m.queue.drainLatencyUsSum;
  }
  out.slotOpTicks.reserve(static_cast<std::size_t>(cfg_.routingSlots));
  for (std::size_t s = 0; s < static_cast<std::size_t>(cfg_.routingSlots);
       ++s) {
    out.slotOpTicks.push_back(slotTicks_[s].load(std::memory_order_relaxed));
  }
  return out;
}

obs::MetricsRegistry::Registration ShardedMap::registerMetrics(
    obs::MetricsRegistry& reg, std::string prefix) {
  return reg.add(std::move(prefix), [this](obs::MetricSink& out) {
    const ShardedMapStats s = aggregatedStats();
    out.gauge("size_estimate", static_cast<double>(s.sizeEstimate));
    out.gauge("shards", static_cast<double>(s.shardSizeEstimates.size()));
    obs::emitThreadStats(out, "stm", s.stm);
    obs::emitMaintenanceStats(out, "maintenance", s.maintenance);
    // Slot load gauges: the full vector (dashboards can heat-map it) plus
    // the summary a skew alarm would key on.
    std::uint64_t total = 0;
    std::uint64_t hottest = 0;
    for (std::size_t i = 0; i < s.slotOpTicks.size(); ++i) {
      total += s.slotOpTicks[i];
      hottest = std::max(hottest, s.slotOpTicks[i]);
      out.counter("slot_ops.slot." + std::to_string(i), s.slotOpTicks[i]);
    }
    out.counter("slot_ops.total", total);
    out.counter("slot_ops.max", hottest);
    out.gauge("slot_ops.mean",
              s.slotOpTicks.empty()
                  ? 0.0
                  : static_cast<double>(total) /
                        static_cast<double>(s.slotOpTicks.size()));
    const ReshardStats r = reshardStats();
    out.counter("reshard.splits", r.splits);
    out.counter("reshard.merges", r.merges);
    out.counter("reshard.keys_migrated", r.keysMigrated);
    out.counter("reshard.migration_batches", r.migrationBatches);
    out.counter("reshard.batch_shrinks", r.batchShrinks);
    out.counter("reshard.batch_grows", r.batchGrows);
    out.counter("reshard.table_publishes", r.tablePublishes);
    out.counter("reshard.retired_arena_bytes", r.retiredArenaBytes);
    out.counter("reshard.retired_live_blocks", r.retiredLiveBlocks);
    out.histogram("reshard.migration_batch_ns", r.migrationBatchNs);
  });
}

}  // namespace sftree::shard
