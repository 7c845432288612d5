#include "stm/tx.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <numeric>

#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "stm/domain.hpp"

namespace sftree::stm {

namespace {

inline Word atomicLoadWord(const Word* addr) {
  return std::atomic_ref<Word>(*const_cast<Word*>(addr))
      .load(std::memory_order_relaxed);
}

inline void atomicStoreWord(Word* addr, Word value) {
  // Release so that a non-transactional acquire load of (say) a freshly
  // published node pointer also observes the node's initialization — the
  // maintenance thread's traversal relies on this.
  std::atomic_ref<Word>(*addr).store(value, std::memory_order_release);
}

inline std::uint64_t addressSignature(const void* addr) {
  auto a = reinterpret_cast<std::uintptr_t>(addr) >> 3;
  a *= 0x9E3779B97F4A7C15ULL;
  return std::uint64_t{1} << (a >> 58);
}

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

// Bound on waiting for another domain's NOrec writer while this transaction
// itself holds one or more sequence locks. Two cross-domain writers waiting
// for each other's lock would otherwise spin forever; past the bound the
// younger wait aborts (randomized backoff then breaks the symmetry).
constexpr std::uint64_t kNorecHeldSpinLimit = 1 << 12;

// Elastic window: number of most recent reads that must stay valid. The
// E-STM paper uses pairs of hand-over-hand reads.
constexpr std::size_t kElasticWindow = 2;

}  // namespace

Tx::Tx() {
  readSet_.reserve(256);
  writeSet_.reserve(64);
  views_.reserve(4);
}

Tx::~Tx() = default;

std::uint64_t Tx::norecWaitEven(Domain& d) {
  for (;;) {
    const std::uint64_t s = d.norecSeq().load(std::memory_order_acquire);
    if ((s & 1) == 0) return s;
    cpuRelax();
  }
}

void Tx::begin(Domain& d, TxKind kind, ThreadStats& stats) {
  assert(!active_ && "flat nesting is handled by stm::atomically");
  stats_ = &stats;
  kind_ = kind;
  active_ = true;
  cfg_ = d.config();
  backend_ = cfg_.backend;
  // The ReadOnly hint survives until a write (or a run of stale restarts)
  // withdraws it; roPromoted_ then forces the remaining attempts of this
  // operation into Normal mode.
  ro_ = (kind == TxKind::ReadOnly) && !roPromoted_;
  pendingReads_ = 0;
  pendingUreads_ = 0;
  norecRoPending_ = 0;
  abortIsRestart_ = false;
  views_.clear();
  views_.push_back(DomainView{&d});
  curView_ = 0;
  if (backend_ == TmBackend::NOrec) {
    // NOrec has no per-location metadata; elastic windows do not apply.
    elasticPhase_ = false;
    // Snapshot: wait until no writer holds the domain's sequence lock.
    views_[0].rv = norecWaitEven(d);
  } else {
    elasticPhase_ = (kind == TxKind::Elastic);
    views_[0].rv = d.clock().now();
    if (ro_) {
      // The clock fast path is only sound when no committer that ticked
      // before our snapshot is still writing back (its stores would be
      // invisible to the clock-equality check).
      views_[0].roFast =
          d.writebackActive().load(std::memory_order_acquire) == 0;
    }
  }
  readSet_.clear();
  valueLog_.clear();
  writeSet_.clear();
  speculativeAllocs_.clear();
  commitHooks_.clear();
  writeSigs_ = 0;
  idxMask_ = 0;
  window_.clear();
  if (elasticPhase_) window_.reserve(kElasticWindow);
  windowNext_ = 0;
  abortCause_ = obs::AbortCause::kUserRestart;
  // Sampled: one attempt in (mask+1) pays the timestamp reads; the
  // disabled/unsampled fast path is one relaxed load plus a counter bump.
  timed_ = obs::txTimingEnabled() &&
           (timingSeq_++ & obs::txTimingSampleMask()) == 0;
  if (timed_) beginTick_ = obs::tick();
  ++attempts_;
}

std::size_t Tx::enterDomain(Domain& d) {
  assert(active_ && "DomainScope requires an active transaction");
  const std::size_t prev = curView_;
  if (views_[curView_].domain == &d) return prev;
  for (std::size_t i = 0; i < views_.size(); ++i) {
    if (views_[i].domain == &d) {
      curView_ = i;
      return prev;
    }
  }
  // Join a new clock domain mid-transaction with a fresh snapshot. The
  // join is a snapshot *advance* in real time: the new domain's clock may
  // already reflect cross-domain commits that invalidated reads this
  // transaction performed earlier, so — exactly like a snapshot extension —
  // everything read so far must be revalidated before any value from the
  // new snapshot becomes visible. Without this, a reader could see the old
  // half of a cross-domain commit in one domain and the new half in the
  // other.
  assert(d.config().backend == backend_ &&
         "all domains joined by one transaction must share a TM backend");
  DomainView v{&d};
  v.rv = (backend_ == TmBackend::NOrec) ? norecWaitEven(d) : d.clock().now();
  if (ro_ && backend_ == TmBackend::Orec) {
    v.roFast = d.writebackActive().load(std::memory_order_acquire) == 0;
    // Zero-logging mode has no read set to revalidate. The join is still a
    // snapshot advance, so it is only sound if no domain we already read
    // from has committed since its snapshot — the clocks and write-back
    // gates stand in for the read set, and they are checked *after* the
    // new snapshot is taken: if the new rv includes any tick of a
    // cross-domain commit, that committer raised every gate before its
    // first tick, so we either see its gate or (once it finished) its
    // tick in the touched domain. A hit restarts the op body at fresh
    // snapshots.
    for (const DomainView& tv : views_) {
      if (tv.roTouched &&
          (tv.domain->clock().now() != tv.rv ||
           tv.domain->writebackActive().load(std::memory_order_acquire) !=
               0)) {
        stats_->onRoSnapshotExtension();
        roRestart();
      }
    }
  }
  views_.push_back(v);
  curView_ = views_.size() - 1;
  if (backend_ == TmBackend::NOrec) {
    if (!valueLog_.empty()) norecValidate(obs::AbortCause::kCrossDomainJoin);
  } else if (!readSet_.empty() || !window_.empty()) {
    if (!validateReadSet()) abortSelf(obs::AbortCause::kCrossDomainJoin);
  }
  return prev;
}

[[noreturn]] void Tx::abortSelf(obs::AbortCause cause) {
  abortCause_ = cause;
  throw TxAbort{};
}

[[noreturn]] void Tx::restart() { abortSelf(obs::AbortCause::kUserRestart); }

void Tx::finishAttempt(bool committed) {
  if (timed_ && stats_ != nullptr) {
    const std::uint64_t ns = obs::ticksToNs(obs::tick() - beginTick_);
    (committed ? stats_->txCommitNs : stats_->txAbortNs).record(ns);
  }
  if (obs::traceEnabled()) {
    const obs::TraceKind kind = committed        ? obs::TraceKind::kTxCommit
                                : abortIsRestart_ ? obs::TraceKind::kTxRestart
                                                  : obs::TraceKind::kTxAbort;
    obs::trace(kind, reinterpret_cast<std::uint64_t>(views_.front().domain),
               attempts_, static_cast<std::uint8_t>(abortCause_),
               static_cast<std::uint16_t>(kind_));
  }
}

void Tx::onAbort() {
  releaseHeldLocks(/*restoreOldVersion=*/true);
  endWritebacks();
  releaseNorecSeqLocks();
  // LIFO: a speculative allocation may depend on an earlier one (a node
  // carved from a speculatively created structure's arena); roll back in
  // reverse registration order so dependents are freed before owners.
  for (auto it = speculativeAllocs_.rbegin(); it != speculativeAllocs_.rend();
       ++it) {
    it->deleter(it->ptr);
  }
  speculativeAllocs_.clear();
  commitHooks_.clear();
  if (stats_ != nullptr) flushReadStats();
  finishAttempt(/*committed=*/false);
  if (abortIsRestart_) {
    // RO snapshot refresh or RO->RW promotion: a deliberate restart, not a
    // conflict — its own counter tracks it, and the taxonomy tags it under
    // a restart cause that stays out of the `aborts` sum.
    abortIsRestart_ = false;
    if (stats_ != nullptr) stats_->onRestart(abortCause_);
  } else if (stats_ != nullptr) {
    stats_->onAbort(abortCause_);
  }
  active_ = false;
}

void Tx::onAbortDelete(void* ptr, void (*deleter)(void*)) {
  speculativeAllocs_.push_back(AllocEntry{ptr, deleter});
}

// --- write-set lookup -------------------------------------------------------

namespace {

inline std::size_t pointerHash(const void* p) {
  auto a = reinterpret_cast<std::uintptr_t>(p) >> 3;
  a *= 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(a >> 32 ^ a);
}

}  // namespace

void Tx::writeIndexInsert(const Word* addr, std::size_t pos) {
  std::size_t slot = pointerHash(addr) & idxMask_;
  while (writeIdx_[slot] != 0) slot = (slot + 1) & idxMask_;
  writeIdx_[slot] = static_cast<std::uint32_t>(pos + 1);
}

void Tx::orecIndexInsert(const std::atomic<OrecWord>* orec, std::size_t pos) {
  std::size_t slot = pointerHash(orec) & idxMask_;
  while (orecIdx_[slot] != 0) slot = (slot + 1) & idxMask_;
  orecIdx_[slot] = static_cast<std::uint32_t>(pos + 1);
}

void Tx::rebuildWriteIndexes() {
  // Capacity >= 4x the write set keeps both tables under half full until
  // the set doubles again (distinct locked orecs never outnumber entries).
  std::size_t cap = 4 * kWriteIndexThreshold;
  while (cap < 4 * writeSet_.size()) cap <<= 1;
  idxMask_ = cap - 1;
  writeIdx_.assign(cap, 0);
  orecIdx_.assign(cap, 0);
  for (std::size_t i = 0; i < writeSet_.size(); ++i) {
    writeIndexInsert(writeSet_[i].addr, i);
    if (writeSet_[i].locked) orecIndexInsert(writeSet_[i].orec, i);
  }
}

void Tx::noteOrecLocked(std::size_t pos) {
  if (idxMask_ != 0) orecIndexInsert(writeSet_[pos].orec, pos);
}

Tx::WriteEntry* Tx::findWrite(const Word* addr) {
  // Most recent write first: read-after-write overwhelmingly targets the
  // location just written (AVL/RB rebalancing re-reads the height/color it
  // updated one step earlier).
  if (!writeSet_.empty() && writeSet_.back().addr == addr) {
    ++pendingWriteLookups_;
    ++pendingWriteProbes_;
    return &writeSet_.back();
  }
  ++pendingWriteLookups_;
  if (idxMask_ == 0) {
    for (auto it = writeSet_.rbegin(); it != writeSet_.rend(); ++it) {
      ++pendingWriteProbes_;
      if (it->addr == addr) return &*it;
    }
    return nullptr;
  }
  std::size_t slot = pointerHash(addr) & idxMask_;
  ++pendingWriteProbes_;
  while (writeIdx_[slot] != 0) {
    WriteEntry& we = writeSet_[writeIdx_[slot] - 1];
    if (we.addr == addr) return &we;
    slot = (slot + 1) & idxMask_;
    ++pendingWriteProbes_;
  }
  return nullptr;
}

Tx::WriteEntry* Tx::findLockedByOrec(const std::atomic<OrecWord>* orec) {
  if (idxMask_ == 0) {
    for (auto& we : writeSet_) {
      if (we.orec == orec && we.locked) return &we;
    }
    return nullptr;
  }
  std::size_t slot = pointerHash(orec) & idxMask_;
  while (orecIdx_[slot] != 0) {
    WriteEntry& we = writeSet_[orecIdx_[slot] - 1];
    if (we.orec == orec) return &we;
    slot = (slot + 1) & idxMask_;
  }
  return nullptr;
}

Tx::SampledWord Tx::sampleCommitted(const Word* addr,
                                    std::atomic<OrecWord>* orec,
                                    bool spinOnLock) {
  for (;;) {
    OrecWord v1 = orec->load(std::memory_order_acquire);
    if (orec::isLocked(v1)) {
      if (orec::owner(v1) == this) {
        // We hold the lock (eager mode). Memory still has the committed
        // value because writes are buffered until commit.
        WriteEntry* we = findLockedByOrec(orec);
        return {atomicLoadWord(addr),
                we ? we->prevVersion : views_[curView_].rv};
      }
      if (spinOnLock) {
        cpuRelax();
        continue;
      }
      abortSelf(obs::AbortCause::kLockConflict);
    }
    Word value = atomicLoadWord(addr);
    std::atomic_thread_fence(std::memory_order_acquire);
    OrecWord v2 = orec->load(std::memory_order_relaxed);
    if (v1 == v2) return {value, orec::version(v1)};
    // A commit slipped in between; retry the sandwich.
  }
}

[[noreturn]] void Tx::roRestart() {
  // A stale RO restart re-runs the whole operation body, where a logged
  // transaction would have revalidated its read set in place and carried
  // on. One restart is cheap insurance on a quiet domain; a second means
  // writers are winning the race — withdraw the hint and retry with a
  // read set.
  constexpr std::uint32_t kRoPromoteAttempts = 2;
  if (attempts_ >= kRoPromoteAttempts) roPromoted_ = true;
  abortCause_ = obs::AbortCause::kRoSnapshotExtension;
  abortIsRestart_ = true;
  backoffWaiver_ = true;
  throw TxAbort{};
}

[[noreturn]] void Tx::roPromote() {
  stats_->onRoPromotion();
  roPromoted_ = true;
  abortCause_ = obs::AbortCause::kRoPromotion;
  abortIsRestart_ = true;
  backoffWaiver_ = true;
  throw TxAbort{};
}

Word Tx::roRead(const Word* addr) {
  DomainView& v = views_[curView_];
  // Fast path: if the domain's clock still equals the snapshot, the value
  // just loaded cannot contain any post-snapshot write-back — a committer
  // ticks the clock *before* writing back, and the write-back's release
  // store paired with our acquire fence makes the tick visible with the
  // data. The read is then consistent at rv with no orec probe at all
  // (the orec table is 8 MiB of cold lines; the clock is one hot line).
  if (v.roFast) {
    const Word fast = atomicLoadWord(addr);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (v.domain->clock().now() == v.rv) {
      v.roTouched = true;
      ++pendingReads_;
      return fast;
    }
    // The clock is monotonic and rv is pinned: once it moved, the fast
    // path cannot succeed again until a free snapshot slide renews it.
    v.roFast = false;
  }
  // The clock moved past the snapshot: validate this read against its orec
  // (location unchanged since rv => still consistent at rv).
  std::atomic<OrecWord>* orec = v.domain->orecs().forAddress(addr);
  for (;;) {
    SampledWord s = sampleCommitted(addr, orec, /*spinOnLock=*/false);
    if (s.version <= v.rv) {
      // The location has not changed since the snapshot: the value is part
      // of a consistent state at rv. Nothing is logged.
      v.roTouched = true;
      ++pendingReads_;
      return s.value;
    }
    stats_->onRoSnapshotExtension();
    if (pendingReads_ == 0) {
      // Nothing read yet anywhere: sliding this view's snapshot forward is
      // free (the RO analogue of a successful snapshot extension). The
      // write-back gate must be sampled *after* the clock: a committer
      // whose tick the new snapshot includes raised its gate before that
      // tick, so this order either sees the gate or the committer has
      // finished.
      v.rv = v.domain->clock().now();
      v.roFast =
          v.domain->writebackActive().load(std::memory_order_acquire) == 0;
      continue;
    }
    // Earlier zero-logging reads cannot be revalidated; re-read the clock
    // on retry and restart the operation body at the fresh snapshot.
    roRestart();
  }
}

Word Tx::read(const Word* addr) {
  assert(active_);
  if (ro_) {
    // Read-only mode: no write set to consult (a write would have promoted
    // the transaction), no read-set logging on the orec backend.
    if (backend_ == TmBackend::NOrec) return norecRead(addr);
    return roRead(addr);
  }
  if ((writeSigs_ & addressSignature(addr)) != 0) {
    if (WriteEntry* we = findWrite(addr)) {
      ++pendingReads_;
      return we->value;
    }
  }
  if (backend_ == TmBackend::NOrec) return norecRead(addr);
  DomainView& v = views_[curView_];
  std::atomic<OrecWord>* orec = v.domain->orecs().forAddress(addr);

  if (elasticPhase_) {
    // Hand-over-hand: the new read must be consistent with the (at most
    // kElasticWindow) most recent reads; anything older was cut.
    SampledWord s = sampleCommitted(addr, orec, /*spinOnLock=*/false);
    elasticValidateWindow();
    elasticRecord(orec, s.version);
    if (s.version > v.rv) v.rv = s.version;
    ++pendingReads_;
    return s.value;
  }

  for (;;) {
    SampledWord s = sampleCommitted(addr, orec, /*spinOnLock=*/false);
    if (s.version > v.rv) {
      // The location is newer than our snapshot of its domain: try to slide
      // the snapshot forward (lazy snapshot extension) and re-sample.
      extendSnapshot(curView_);
      continue;
    }
    readSet_.push_back(ReadEntry{orec, s.version});
    ++pendingReads_;
    return s.value;
  }
}

Word Tx::readPinned(const Word* addr) {
  assert(active_);
  if (!elasticPhase_) return read(addr);
  // Elastic window phase. There is no write set yet (the first write ends
  // the phase), so go straight to a hand-over-hand sample — but record the
  // entry in the permanent read set instead of the sliding window, so no
  // later cut can evict it before the first write folds the window in.
  if (backend_ == TmBackend::NOrec) return norecRead(addr);
  DomainView& v = views_[curView_];
  std::atomic<OrecWord>* orec = v.domain->orecs().forAddress(addr);
  SampledWord s = sampleCommitted(addr, orec, /*spinOnLock=*/false);
  elasticValidateWindow();
  readSet_.push_back(ReadEntry{orec, s.version});
  if (s.version > v.rv) v.rv = s.version;
  ++pendingReads_;
  return s.value;
}

Word Tx::uread(const Word* addr) {
  assert(active_);
  if ((writeSigs_ & addressSignature(addr)) != 0) {
    if (WriteEntry* we = findWrite(addr)) {
      ++pendingUreads_;
      return we->value;
    }
  }
  if (backend_ == TmBackend::NOrec) return norecUread(addr);
  std::atomic<OrecWord>* orec =
      views_[curView_].domain->orecs().forAddress(addr);
  SampledWord s = sampleCommitted(addr, orec, /*spinOnLock=*/true);
  ++pendingUreads_;
  return s.value;
}

void Tx::write(Word* addr, Word value) {
  assert(active_);
  if (ro_) {
    // The ReadOnly hint was wrong for this execution: transparently restart
    // the attempt in read-write mode (zero-logging reads cannot be
    // retroactively logged, so the body must re-run).
    roPromote();
  }
  stats_->onWrite();
  if (elasticPhase_) {
    // First write: the elastic transaction becomes a normal one; the reads
    // still in the window must now stay valid until commit.
    foldElasticWindowIntoReadSet();
    elasticPhase_ = false;
  }
  if ((writeSigs_ & addressSignature(addr)) != 0) {
    if (WriteEntry* we = findWrite(addr)) {
      we->value = value;
      return;
    }
  }
  WriteEntry we{addr, value,
                views_[curView_].domain->orecs().forAddress(addr),
                /*prevVersion=*/0, /*locked=*/false, /*view=*/curView_};
  if (backend_ == TmBackend::Orec && cfg_.lockMode == LockMode::Eager) {
    acquireOrecForWrite(we);
  }
  writeSet_.push_back(we);
  writeSigs_ |= addressSignature(addr);
  if (idxMask_ != 0) {
    writeIndexInsert(addr, writeSet_.size() - 1);
    if (we.locked) orecIndexInsert(we.orec, writeSet_.size() - 1);
    if (4 * writeSet_.size() > idxMask_ + 1) rebuildWriteIndexes();
  } else if (writeSet_.size() > kWriteIndexThreshold) {
    rebuildWriteIndexes();
  }
}

void Tx::acquireOrecForWrite(WriteEntry& we) {
  DomainView& v = views_[we.view];
  for (;;) {
    OrecWord cur = we.orec->load(std::memory_order_acquire);
    if (orec::isLocked(cur)) {
      if (orec::owner(cur) == this) {
        // Another write entry of ours already owns this orec stripe.
        WriteEntry* holder = findLockedByOrec(we.orec);
        we.prevVersion = holder ? holder->prevVersion : v.rv;
        we.locked = false;
        return;
      }
      abortSelf(obs::AbortCause::kLockConflict);
    }
    if (orec::version(cur) > v.rv) {
      // Keep the snapshot consistent so read-after-write on this stripe is
      // safe; extension aborts us if the read set is stale.
      extendSnapshot(we.view);
      continue;
    }
    if (we.orec->compare_exchange_weak(cur, orec::makeLocked(this),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      we.prevVersion = orec::version(cur);
      we.locked = true;
      return;
    }
  }
}

bool Tx::validateEntry(const ReadEntry& e) const {
  OrecWord cur = e.orec->load(std::memory_order_acquire);
  if (orec::isLocked(cur)) {
    if (orec::owner(cur) != this) return false;
    const WriteEntry* we = const_cast<Tx*>(this)->findLockedByOrec(e.orec);
    return we != nullptr && we->prevVersion == e.version;
  }
  return orec::version(cur) == e.version;
}

bool Tx::validateReadSet() const {
  for (const ReadEntry& e : readSet_) {
    if (!validateEntry(e)) return false;
  }
  for (const ReadEntry& e : window_) {
    if (!validateEntry(e)) return false;
  }
  return true;
}

void Tx::extendSnapshot(std::size_t viewIdx) {
  DomainView& v = views_[viewIdx];
  const std::uint64_t now = v.domain->clock().now();
  // The whole read set — including entries from other domains — must still
  // hold: this is what keeps a multi-domain snapshot globally consistent
  // (a cross-domain commit that invalidated any earlier read is caught
  // here before the extension makes its effects readable).
  if (!validateReadSet()) abortSelf(obs::AbortCause::kReadValidation);
  v.rv = now;
  stats_->onSnapshotExtension();
}

void Tx::elasticRecord(std::atomic<OrecWord>* orec, std::uint64_t version) {
  if (window_.size() < kElasticWindow) {
    window_.push_back(ReadEntry{orec, version});
    return;
  }
  // Overwrite the oldest entry: this is the "cut" — the evicted read is no
  // longer part of the transaction's consistency obligation.
  window_[windowNext_] = ReadEntry{orec, version};
  windowNext_ = (windowNext_ + 1) % kElasticWindow;
  stats_->onElasticCut();
}

void Tx::elasticValidateWindow() {
  for (const ReadEntry& e : window_) {
    if (!validateEntry(e)) abortSelf(obs::AbortCause::kElasticValidation);
  }
  // Pinned reads (readPinned) sit in the permanent read set even during the
  // window phase. They join every hand-over-hand validation so the elastic
  // rv slide — and the rv+1 == wv commit shortcut built on it — can never
  // outrun them.
  for (const ReadEntry& e : readSet_) {
    if (!validateEntry(e)) abortSelf(obs::AbortCause::kElasticValidation);
  }
}

void Tx::foldElasticWindowIntoReadSet() {
  for (const ReadEntry& e : window_) readSet_.push_back(e);
  window_.clear();
  windowNext_ = 0;
}

void Tx::releaseHeldLocks(bool restoreOldVersion) {
  for (auto& we : writeSet_) {
    if (!we.locked) continue;
    const OrecWord out = restoreOldVersion
                             ? orec::makeVersion(we.prevVersion)
                             : orec::makeVersion(views_[we.view].wv);
    we.orec->store(out, std::memory_order_release);
    we.locked = false;
  }
}

void Tx::endWritebacks() {
  for (auto& v : views_) {
    if (!v.wbActive) continue;
    v.wbActive = false;
    v.domain->writebackActive().fetch_sub(1, std::memory_order_release);
  }
}

void Tx::releaseNorecSeqLocks() {
  for (auto& v : views_) {
    if (!v.seqLocked) continue;
    // Nothing was written back: restoring the pre-lock sequence value marks
    // the domain free with its snapshot unchanged.
    v.domain->norecSeq().store(v.rv, std::memory_order_release);
    v.seqLocked = false;
  }
}

std::vector<std::size_t> Tx::writingViewsInOrder() const {
  std::vector<std::size_t> order;
  for (const auto& we : writeSet_) {
    if (std::find(order.begin(), order.end(), we.view) == order.end()) {
      order.push_back(we.view);
    }
  }
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return views_[a].domain < views_[b].domain;
  });
  return order;
}

void Tx::commit() {
  assert(active_);
  if (backend_ == TmBackend::NOrec) {
    norecCommit();
    return;
  }
  if (writeSet_.empty()) {
    // Read-only: every read was validated against the snapshot (normal /
    // zero-logging RO) or hand-over-hand (elastic); nothing to publish.
    // This holds across domains too: any read that post-dated a
    // cross-domain commit forced an extension (or an RO restart), which
    // revalidated every domain's entries.
    speculativeAllocs_.clear();  // committed: caller keeps ownership
    flushReadStats();
    stats_->onCommit();
    if (ro_) stats_->onRoCommit();
    finishAttempt(/*committed=*/true);
    active_ = false;
    runCommitHooks();
    return;
  }

  const bool singleDomain = views_.size() == 1;

  if (cfg_.lockMode == LockMode::Lazy) {
    // Commit-time locking: acquire every write orec now. Multi-domain
    // transactions acquire domain-by-domain in canonical (pointer) order —
    // combined with never *waiting* on a held orec (conflicts abort), the
    // acquisition phase is deadlock-free by construction. The common
    // single-domain case walks the write set in insertion order without
    // building an index.
    const auto lockEntry = [this](WriteEntry& we) {
      DomainView& v = views_[we.view];
      for (;;) {
        OrecWord cur = we.orec->load(std::memory_order_acquire);
        if (orec::isLocked(cur)) {
          // Owned by someone else (self-ownership is impossible here: all
          // our locks come from earlier iterations, which are deduplicated
          // by the caller). Abort and retry with backoff.
          abortSelf(obs::AbortCause::kLockConflict);
        }
        if (orec::version(cur) > v.rv) {
          extendSnapshot(we.view);
          continue;
        }
        if (we.orec->compare_exchange_weak(cur, orec::makeLocked(this),
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
          we.prevVersion = orec::version(cur);
          we.locked = true;
          return;
        }
      }
    };
    // One dedup+lock loop serves both orders: an earlier-acquired entry on
    // the same orec stripe (found via the locked-orec lookup — O(1) once
    // the index is active) donates its prevVersion instead of re-locking.
    const auto acquireInOrder = [&](auto indexAt) {
      for (std::size_t p = 0; p < writeSet_.size(); ++p) {
        const std::size_t pos = indexAt(p);
        WriteEntry& we = writeSet_[pos];
        if (const WriteEntry* holder = findLockedByOrec(we.orec)) {
          we.prevVersion = holder->prevVersion;
          continue;
        }
        lockEntry(we);
        noteOrecLocked(pos);
      }
    };
    if (singleDomain) {
      acquireInOrder([](std::size_t p) { return p; });
    } else {
      std::vector<std::size_t> acq(writeSet_.size());
      std::iota(acq.begin(), acq.end(), std::size_t{0});
      std::stable_sort(acq.begin(), acq.end(),
                       [this](std::size_t a, std::size_t b) {
                         return views_[writeSet_[a].view].domain <
                                views_[writeSet_[b].view].domain;
                       });
      acquireInOrder([&acq](std::size_t p) { return acq[p]; });
    }
  }

  // Per-domain commit timestamps: tick every written domain's clock while
  // all write locks are held, in the same canonical order. Each written
  // domain's write-back gate goes up before its tick (so zero-logging
  // readers never pair our tick with a half-done write-back) and comes
  // down after the locks are released.
  if (singleDomain) {
    views_[0].domain->writebackActive().fetch_add(1,
                                                  std::memory_order_acq_rel);
    views_[0].wbActive = true;
    views_[0].wv = views_[0].domain->clock().tick();
    if (views_[0].rv + 1 != views_[0].wv) {
      // Someone committed since our snapshot; the read set must still hold.
      if (!validateReadSet()) abortSelf(obs::AbortCause::kReadValidation);
    }
  } else {
    // All write-back gates must be up before the *first* tick: a
    // zero-logging reader that observes any of our ticks must be able to
    // see a raised gate on every domain we write, or it could pair the
    // already-ticked half of this commit with the not-yet-ticked half.
    const std::vector<std::size_t> order = writingViewsInOrder();
    for (const std::size_t idx : order) {
      views_[idx].domain->writebackActive().fetch_add(
          1, std::memory_order_acq_rel);
      views_[idx].wbActive = true;
    }
    for (const std::size_t idx : order) {
      views_[idx].wv = views_[idx].domain->clock().tick();
    }
    // The single-domain rv+1 == wv shortcut does not compose across
    // clocks; a multi-domain commit always validates.
    if (!validateReadSet()) abortSelf(obs::AbortCause::kReadValidation);
  }
  for (const WriteEntry& we : writeSet_) {
    atomicStoreWord(we.addr, we.value);
  }
  releaseHeldLocks(/*restoreOldVersion=*/false);
  endWritebacks();
  speculativeAllocs_.clear();  // published: ownership transferred
  flushReadStats();
  stats_->onCommit();
  finishAttempt(/*committed=*/true);
  active_ = false;
  runCommitHooks();
}

// --- NOrec backend (Dalessandro, Spear, Scott — PPoPP 2010) ----------------
// One sequence lock per domain; reads log (address, value) pairs and
// revalidate by re-reading whenever a joined domain's sequence number
// moves; writers publish under the lock(s). No per-location metadata at
// all. Cross-domain commits take every written domain's sequence lock in
// canonical order before writing back.

// Batched RO validation for *scalar* reads: log the value optimistically
// and check the sequence locks only once every norecRoBatch reads (plus at
// every domain join and at commit) instead of per read. A value observed
// while a writer is mid-publish is caught by the value-based revalidation
// at the next batch boundary, and no read escapes the transaction without
// a validation point after it (norecCommit flushes the tail) — the
// committed snapshot is exactly as consistent as with per-read checks.
// Between boundaries the body may branch on a transiently stale scalar,
// which only wastes bounded work until the next boundary aborts the
// attempt.
//
// Pointer-bearing reads must NOT take this path: a traversal that
// dereferences an unvalidated pointer can wander into a node that
// quiescence reclamation legitimately freed and recycled — only the
// per-read check ties the reader's pointer chain to a consistent instant
// at which every node in it is still in its grace period. TxField routes
// non-pointer fields here and pointer fields to the validated read.
Word Tx::norecReadScalar(const Word* addr) {
  if (!(ro_ && cfg_.norecRoBatch > 1)) return norecRead(addr);
  const Word value = std::atomic_ref<Word>(*const_cast<Word*>(addr))
                         .load(std::memory_order_acquire);
  valueLog_.push_back(ValueEntry{addr, value, curView_});
  ++pendingReads_;
  if (++norecRoPending_ >= cfg_.norecRoBatch) norecRoFlushValidation();
  return value;
}

Word Tx::readScalar(const Word* addr) {
  assert(active_);
  if (ro_ && backend_ == TmBackend::NOrec && writeSet_.empty()) {
    return norecReadScalar(addr);
  }
  return read(addr);
}

Word Tx::norecRead(const Word* addr) {
  for (;;) {
    const Word value = atomicLoadWord(addr);
    std::atomic_thread_fence(std::memory_order_acquire);
    DomainView& v = views_[curView_];
    if (v.domain->norecSeq().load(std::memory_order_acquire) == v.rv) {
      valueLog_.push_back(ValueEntry{addr, value, curView_});
      ++pendingReads_;
      return value;
    }
    // A writer committed since our snapshot of this domain: revalidate the
    // whole log (all domains) and re-sample.
    norecValidate();
  }
}

Word Tx::norecUread(const Word* addr) {
  // A unit load only needs a committed value of this single word: sample
  // the domain's sequence lock around the load.
  std::atomic<std::uint64_t>& seq = views_[curView_].domain->norecSeq();
  for (;;) {
    const std::uint64_t s1 = seq.load(std::memory_order_acquire);
    if ((s1 & 1) != 0) {
      cpuRelax();
      continue;
    }
    const Word value = atomicLoadWord(addr);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq.load(std::memory_order_relaxed) == s1) {
      ++pendingUreads_;
      return value;
    }
  }
}

void Tx::norecRoFlushValidation() {
  norecRoPending_ = 0;
  for (const DomainView& v : views_) {
    if (v.domain->norecSeq().load(std::memory_order_acquire) != v.rv) {
      // A writer committed somewhere since the snapshot: fall back to the
      // full value-based revalidation (aborts on mismatch, else refreshes
      // every view's snapshot — the RO analogue of a snapshot extension).
      stats_->onRoSnapshotExtension();
      norecValidate();
      return;
    }
  }
}

void Tx::norecValidate(obs::AbortCause mismatchCause) {
  bool holdingLocks = false;
  for (const auto& v : views_) holdingLocks |= v.seqLocked;
  seqSnap_.resize(views_.size());
  for (;;) {
    for (std::size_t i = 0; i < views_.size(); ++i) {
      DomainView& v = views_[i];
      if (v.seqLocked) continue;  // frozen by us: cannot move
      std::uint64_t spins = 0;
      for (;;) {
        const std::uint64_t s =
            v.domain->norecSeq().load(std::memory_order_acquire);
        if ((s & 1) == 0) {
          seqSnap_[i] = s;
          break;
        }
        // While we hold sequence locks ourselves, waiting unboundedly for
        // another domain's writer could deadlock with a writer waiting for
        // ours; bound the wait and abort (backoff breaks the symmetry).
        if (holdingLocks && ++spins > kNorecHeldSpinLimit)
          abortSelf(obs::AbortCause::kLockConflict);
        cpuRelax();
      }
    }
    bool ok = true;
    for (const ValueEntry& e : valueLog_) {
      if (atomicLoadWord(e.addr) != e.value) {
        ok = false;
        break;
      }
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    bool moved = false;
    for (std::size_t i = 0; i < views_.size(); ++i) {
      if (views_[i].seqLocked) continue;
      if (views_[i].domain->norecSeq().load(std::memory_order_relaxed) !=
          seqSnap_[i]) {
        moved = true;
        break;
      }
    }
    if (moved) continue;
    if (!ok) abortSelf(mismatchCause);
    for (std::size_t i = 0; i < views_.size(); ++i) {
      if (!views_[i].seqLocked) views_[i].rv = seqSnap_[i];
    }
    norecRoPending_ = 0;  // everything logged was just revalidated
    return;
  }
}

void Tx::norecCommit() {
  if (writeSet_.empty()) {
    // Read-only transactions are always consistent at their last
    // validation point. Batched RO reads past that point are flushed here,
    // so the commit itself is the final validation point.
    if (ro_ && norecRoPending_ != 0) norecRoFlushValidation();
    speculativeAllocs_.clear();
    flushReadStats();
    stats_->onCommit();
    if (ro_) stats_->onRoCommit();
    finishAttempt(/*committed=*/true);
    active_ = false;
    runCommitHooks();
    return;
  }
  // Acquire every written domain's sequence lock in canonical order (the
  // dominant single-domain case skips building the order).
  const auto lockView = [this](DomainView& v) {
    std::uint64_t s = v.rv;
    while (!v.domain->norecSeq().compare_exchange_weak(
        s, s + 1, std::memory_order_acq_rel, std::memory_order_relaxed)) {
      norecValidate();  // aborts on value mismatch; refreshes v.rv
      s = v.rv;
    }
    v.rv = s;
    v.seqLocked = true;
  };
  if (views_.size() == 1) {
    lockView(views_[0]);
  } else {
    for (const std::size_t idx : writingViewsInOrder()) {
      lockView(views_[idx]);
    }
  }
  // Locks held: reads in written domains are implicitly valid (their
  // sequence number had not moved since the last validation when the CAS
  // succeeded). Reads in read-only domains need one final validation to
  // pin the linearization point.
  bool readOnlyDomainEntries = false;
  for (const ValueEntry& e : valueLog_) {
    if (!views_[e.view].seqLocked) {
      readOnlyDomainEntries = true;
      break;
    }
  }
  if (readOnlyDomainEntries) norecValidate();
  // Publish.
  for (const WriteEntry& we : writeSet_) {
    atomicStoreWord(we.addr, we.value);
  }
  for (auto& v : views_) {
    if (!v.seqLocked) continue;
    v.seqLocked = false;
    v.domain->norecSeq().store(v.rv + 2, std::memory_order_release);
  }
  speculativeAllocs_.clear();
  flushReadStats();
  stats_->onCommit();
  finishAttempt(/*committed=*/true);
  active_ = false;
  runCommitHooks();
}

void Tx::runCommitHooks() {
  if (commitHooks_.empty()) return;
  // Steal the hooks first: a hook may start a new transaction, which
  // clears commitHooks_ in begin(). The steal moves the inline slots, so
  // the common one-or-two-hook commit still allocates nothing.
  HookVec hooks(std::move(commitHooks_));
  commitHooks_.clear();
  hooks.runAll();
}

}  // namespace sftree::stm
