// Transaction descriptor: read/write sets, speculative loads and stores,
// commit and abort.
//
// The algorithm is a word-based, lazy-snapshot STM in the TL2/TinySTM
// family:
//   * a transaction records its begin snapshot `rv` from the domain clock;
//   * every transactional read double-checks the orec around the data load
//     and, when the location is newer than `rv`, tries to *extend* the
//     snapshot by revalidating the read set against the current clock;
//   * writes are buffered (write-back) in both lock modes; Lazy (CTL) locks
//     orecs at commit, Eager (ETL) locks them at the first write;
//   * commit increments the clock, validates the read set (unless the
//     transaction saw the immediately preceding timestamp), writes back and
//     releases the orecs with the new version.
//
// Unit loads (`uread`) return the latest committed value without any read
// set bookkeeping; elastic transactions keep a sliding window of the most
// recent reads instead of the full read set until their first write.
//
// --- Read-only mode --------------------------------------------------------
// TxKind::ReadOnly runs the orec backend with *zero* read-set logging: every
// read is validated in place against the begin snapshot (sandwiched load,
// version <= rv), so commit has nothing to validate and nothing to log. A
// read that observes a newer version cannot extend the snapshot (there is no
// read set to revalidate), so it re-reads the clock and restarts the
// operation body at the fresh snapshot — counted as an RO snapshot
// extension, not an abort, and exempt from backoff. A write inside a
// ReadOnly transaction (or too many stale restarts in a row) transparently
// promotes the transaction: the attempt restarts in Normal (read-write)
// mode, so the hint can never cost correctness. On NOrec, ReadOnly keeps
// the value log (NOrec cannot validate without it) but skips all write-set
// machinery.
//
// --- Write-set lookup ------------------------------------------------------
// Read-after-write and locked-orec lookups are gated by a coarse address
// bloom filter and served by the write set directly while it is small; past
// kWriteIndexThreshold entries two per-transaction open-addressing tables
// (address -> entry, locked orec -> holding entry) replace the linear scan,
// so large transactions (tree rotations, move, vacation) stop paying O(W)
// per access.
//
// --- Clock domains ---------------------------------------------------------
// A transaction is rooted in one stm::Domain (the argument of atomically)
// but may *join* further domains mid-flight via DomainScope — this is how a
// cross-shard move composes two trees that live on different clocks. The
// descriptor keeps one DomainView (snapshot rv, commit timestamp wv) per
// joined domain; reads and writes are attributed to the innermost scope's
// domain. Snapshot extension in any domain revalidates the *entire* read
// set, which is what makes the combined multi-domain snapshot consistent.
// Commit acquires write locks domain-by-domain in canonical (pointer)
// order, ticks each written domain's clock for a per-domain timestamp,
// validates, writes back and releases — so the transaction becomes visible
// in all domains atomically. All joined domains must share one TM backend;
// the root domain's lock mode and elastic window govern the transaction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/abort_cause.hpp"
#include "stm/clock.hpp"
#include "stm/config.hpp"
#include "stm/hooks.hpp"
#include "stm/orec.hpp"
#include "stm/stats.hpp"
#include "stm/word.hpp"

namespace sftree::stm {

class Domain;

// Thrown by the STM to roll back a speculative execution; caught only by the
// retry loop in stm::atomically. User code must never swallow it.
struct TxAbort {};

class alignas(64) Tx {
 public:
  Tx();
  ~Tx();

  Tx(const Tx&) = delete;
  Tx& operator=(const Tx&) = delete;

  // --- lifecycle (called by stm::atomically) -------------------------------
  // `stats` is the calling thread's slot for `d` (the root domain); every
  // counter this attempt produces — including accesses made in joined
  // domains — is attributed to the root domain's registry.
  void begin(Domain& d, TxKind kind, ThreadStats& stats);
  void commit();
  // Releases any held locks, bumps stats, prepares for retry. Does not throw.
  void onAbort();
  bool active() const { return active_; }
  TxKind kind() const { return kind_; }
  // True while this attempt runs in zero-logging read-only mode.
  bool readOnlyMode() const { return ro_; }
  std::uint32_t attempts() const { return attempts_; }
  void resetAttempts() {
    attempts_ = 0;
    roPromoted_ = false;  // the RO hint applies afresh to the next operation
  }
  // True once, after an abort that was a deliberate restart (RO snapshot
  // refresh or RO->RW promotion) rather than a conflict: the retry loop
  // skips contention backoff for it.
  bool consumeBackoffWaiver() {
    const bool w = backoffWaiver_;
    backoffWaiver_ = false;
    return w;
  }

  // The domain the current attempt was begun in. Precondition: begin() has
  // run at least once.
  Domain& rootDomain() const { return *views_.front().domain; }
  // The domain the next access will be attributed to (innermost scope).
  Domain& currentDomain() const { return *views_[curView_].domain; }

  // --- domain scoping (called by DomainScope / stm::atomically) ------------
  // Makes `d` the current access domain, joining it (fresh snapshot) if the
  // transaction has not touched it yet. Returns the previous scope index
  // for exitDomain. Precondition: active(), and d's backend matches the
  // root domain's.
  std::size_t enterDomain(Domain& d);
  void exitDomain(std::size_t prev) { curView_ = prev; }

  // --- speculative accesses -------------------------------------------------
  // Transactional read: recorded and validated; opacity preserved.
  Word read(const Word* addr);
  // Transactional read of a value the caller will never dereference.
  // Identical to read() except that a zero-write-set ReadOnly transaction
  // on the NOrec backend may defer its sequence-lock check to the next
  // batch boundary (Config::norecRoBatch) — safe only because a stale
  // scalar can at worst steer bounded wasted work, unlike a stale pointer,
  // which could be chased into reclaimed memory. TxField selects this
  // overload for non-pointer field types.
  Word readScalar(const Word* addr);
  // Transactional write (buffered).
  void write(Word* addr, Word value);
  // Unit load: latest committed value, no read-set entry (TinySTM unit
  // loads; the paper's `uread`). Spins while the location is being
  // committed by another transaction.
  Word uread(const Word* addr);
  // Transactional read recorded in the *permanent* read set even while an
  // elastic transaction is still in its window phase. Elastic cuts must
  // never evict the position reads an update's correctness hangs on (a
  // node's removed flag, the null child an insert links into, the parent
  // link find() validated): pin those, leave traversal reads cuttable.
  // Identical to read() outside the elastic window phase.
  Word readPinned(const Word* addr);
  // Pin bookkeeping for speculative position pins. A traversal pins the
  // reads of each candidate position as it examines it; when the candidate
  // is abandoned (its parent link failed validation, a child appeared), the
  // abandoned pins are demoted back to cut reads with dropPinsAfter —
  // otherwise a churning search region grows the pin set without bound and
  // every hand-over-hand validation over it turns quadratic. Dropping is
  // sound for exactly the reason elastic cuts are: an abandoned candidate's
  // values only steered the traversal, and the position finally returned
  // carries its own still-pinned reads. Both are no-ops outside the elastic
  // window phase (in read-write mode the read set must never shrink).
  std::size_t pinMark() const { return elasticPhase_ ? readSet_.size() : 0; }
  void dropPinsAfter(std::size_t mark) {
    if (elasticPhase_ && readSet_.size() > mark) readSet_.resize(mark);
  }

  // Aborts the current speculation and retries from the top.
  [[noreturn]] void restart();

  // Registers memory allocated speculatively inside this transaction: if the
  // current attempt aborts, `deleter(ptr)` runs; if it commits, ownership
  // has been published and the hook is dropped (TinySTM's stm_malloc
  // equivalent — prevents leaks across retries).
  void onAbortDelete(void* ptr, void (*deleter)(void*));

  // Registers an action to run after this transaction commits; dropped if
  // the attempt aborts (TinySTM's stm_free equivalent: defer side effects —
  // typically retiring an unlinked node — until the unlink is durable).
  // Composes correctly with flat nesting: hooks registered by nested
  // operations run only when the outermost transaction commits. Hooks run
  // inside the quiescence bracket stm::atomically holds, so they may still
  // touch memory the transaction read. Hooks are stored inline (no
  // allocation) while their captures fit SmallHook.
  template <typename F>
  void onCommit(F&& hook) {
    commitHooks_.push(std::forward<F>(hook));
  }

  // One (domain, snapshot) pair per joined domain: the per-domain begin
  // snapshots the current attempt's reads are consistent at (views_[i].rv,
  // refreshed by snapshot extension). Sampled at body end by consumers that
  // need cut provenance — the checkpoint writer stamps the forced-cut
  // transaction's joined-domain snapshots into the manifest, recording
  // *where on each clock* the multi-domain read-only view was pinned.
  // Precondition: active().
  struct SnapshotStamp {
    const Domain* domain;
    std::uint64_t rv;
  };
  std::vector<SnapshotStamp> snapshotStamps() const {
    std::vector<SnapshotStamp> out;
    out.reserve(views_.size());
    for (const DomainView& v : views_) out.push_back({v.domain, v.rv});
    return out;
  }

  // The root domain's (thread, domain) statistics slot. Precondition:
  // begin() has run at least once.
  ThreadStats& stats() { return *stats_; }
  const ThreadStats& stats() const { return *stats_; }

 private:
  // Per-joined-domain state. views_[0] is the root domain's view.
  struct DomainView {
    Domain* domain;
    std::uint64_t rv = 0;   // snapshot (read version / NOrec sequence)
    std::uint64_t wv = 0;   // commit timestamp (set during commit)
    bool seqLocked = false;  // NOrec: this view's sequence lock is held
    // RO mode: at least one zero-logging read was served from this view's
    // snapshot. Joining a further domain must then verify this domain's
    // clock has not moved (there is no read set to revalidate).
    bool roTouched = false;
    // RO mode: the clock fast path is sound for this view — no committer
    // was mid-write-back when the snapshot was taken (see
    // Domain::writebackActive). Falls back to per-read orec validation
    // otherwise.
    bool roFast = false;
    // This transaction holds a +1 on the domain's writebackActive counter
    // (writing commit in progress); released by endWritebacks().
    bool wbActive = false;
  };

  struct ReadEntry {
    std::atomic<OrecWord>* orec;
    std::uint64_t version;
  };
  // NOrec value log entry: validation re-reads the address and compares.
  struct ValueEntry {
    const Word* addr;
    Word value;
    std::size_t view;  // domain whose sequence lock guards the address
  };
  struct WriteEntry {
    Word* addr;
    Word value;
    std::atomic<OrecWord>* orec;
    std::uint64_t prevVersion;  // version observed when the orec was locked
    bool locked;                // this entry holds the orec lock
    std::size_t view;           // domain the address belongs to
  };

  // Consistent (orec-sandwiched) load of a committed value. Returns the
  // value and the orec version it was valid at. Spins across concurrent
  // commits; aborts on encountering a lock held by another transaction when
  // `spinOnLock` is false.
  struct SampledWord {
    Word value;
    std::uint64_t version;
  };
  SampledWord sampleCommitted(const Word* addr, std::atomic<OrecWord>* orec,
                              bool spinOnLock);

  // Write-set lookup. Linear over the (small) write set below
  // kWriteIndexThreshold entries; served by the open-addressing indexes
  // above it. findLockedByOrec returns the entry that *holds* the lock on
  // `orec` (the one carrying the stripe's pre-lock version), or null.
  static constexpr std::size_t kWriteIndexThreshold = 8;
  WriteEntry* findWrite(const Word* addr);
  WriteEntry* findLockedByOrec(const std::atomic<OrecWord>* orec);

  // Open-addressing helpers. Both tables store writeSet_ positions + 1 (0 ==
  // empty slot) and share one capacity, kept at most half full. rebuild
  // (re)creates both from writeSet_ — on first activation and on growth.
  void rebuildWriteIndexes();
  void writeIndexInsert(const Word* addr, std::size_t pos);
  void orecIndexInsert(const std::atomic<OrecWord>* orec, std::size_t pos);
  // Records that writeSet_[pos] now holds its orec's lock.
  void noteOrecLocked(std::size_t pos);

  // --- read-only mode -------------------------------------------------------
  // Zero-logging transactional read (orec backend).
  Word roRead(const Word* addr);
  // Restart of the operation body at a fresh snapshot (or, past
  // kRoPromoteAttempts, in read-write mode). Not counted as an abort; waives
  // the retry backoff.
  [[noreturn]] void roRestart();
  // Promotes the transaction to read-write mode and restarts the attempt.
  [[noreturn]] void roPromote();

  // Validates every read-set (and elastic-window) entry: each orec is either
  // at the recorded version, or locked by this very transaction having been
  // locked at the recorded version.
  bool validateReadSet() const;
  bool validateEntry(const ReadEntry& e) const;

  // Attempts to advance views_[viewIdx].rv to that domain's current clock.
  // Revalidates the *whole* read set (all domains) so the combined snapshot
  // stays consistent; aborts the caller on failure (returns only on
  // success).
  void extendSnapshot(std::size_t viewIdx);

  // Write-set view indices with at least one entry, ordered by domain
  // pointer — the canonical multi-domain acquisition order.
  std::vector<std::size_t> writingViewsInOrder() const;

  // Elastic helpers.
  void elasticRecord(std::atomic<OrecWord>* orec, std::uint64_t version);
  void elasticValidateWindow();
  void foldElasticWindowIntoReadSet();

  void acquireOrecForWrite(WriteEntry& we);
  void releaseHeldLocks(bool restoreOldVersion);
  void releaseNorecSeqLocks();
  // Drops every writebackActive hold this transaction still has (after the
  // write-back completed, or on abort between tick and write-back).
  void endWritebacks();
  void runCommitHooks();
  void flushReadStats() {
    if (pendingReads_ != 0) {
      stats_->onReadBatch(pendingReads_);
      pendingReads_ = 0;
    }
    if (pendingUreads_ != 0) {
      stats_->onUreadBatch(pendingUreads_);
      pendingUreads_ = 0;
    }
    if (pendingWriteLookups_ != 0) {
      stats_->onWriteLookup(pendingWriteLookups_, pendingWriteProbes_);
      pendingWriteLookups_ = 0;
      pendingWriteProbes_ = 0;
    }
  }

  // --- NOrec backend ---------------------------------------------------------
  Word norecRead(const Word* addr);
  // Scalar-only batched variant of norecRead (see readScalar).
  Word norecReadScalar(const Word* addr);
  Word norecUread(const Word* addr);
  // Batched RO validation: checks every joined domain's sequence lock and,
  // when any moved past its snapshot, runs the full value-based
  // revalidation. Resets the unvalidated-read counter.
  void norecRoFlushValidation();
  // Waits for every joined domain's sequence lock to be free (bounded spin
  // while this transaction itself holds sequence locks, to stay
  // deadlock-free), re-reads the value log; aborts on mismatch, else
  // refreshes every view's snapshot.
  // `mismatchCause` tags the abort raised on a value-log mismatch
  // (NorecValidation normally; CrossDomainJoin when validating a join).
  void norecValidate(
      obs::AbortCause mismatchCause = obs::AbortCause::kNorecValidation);
  void norecCommit();
  static std::uint64_t norecWaitEven(Domain& d);

  [[noreturn]] void abortSelf(obs::AbortCause cause);
  // Attempt epilogue: records the attempt-latency histogram and emits the
  // commit/abort trace record. Runs on every attempt end.
  void finishAttempt(bool committed);

  TxKind kind_ = TxKind::Normal;
  bool active_ = false;
  bool elasticPhase_ = false;  // true while elastic and write-free
  bool ro_ = false;            // this attempt runs in read-only mode
  // Sticky across retries of one operation (cleared by resetAttempts): the
  // RO hint was withdrawn — a write occurred or stale restarts piled up —
  // and further attempts run in Normal mode.
  bool roPromoted_ = false;
  // The abort in flight is a deliberate restart (snapshot refresh or
  // promotion), not a conflict: skip the abort counter and the backoff.
  bool abortIsRestart_ = false;
  bool backoffWaiver_ = false;
  // Taxonomy tag of the abort/restart in flight. Reset to kUserRestart at
  // begin() so an abort nothing tagged (tx.restart(), a user exception
  // unwinding through stm::atomically) is attributed to the user.
  obs::AbortCause abortCause_ = obs::AbortCause::kUserRestart;
  // Attempt latency: begin() latches the timing toggle and timestamp once
  // per attempt (obs::txTimingEnabled() is the always-on default, sampled
  // 1-in-(mask+1) attempts via timingSeq_).
  bool timed_ = false;
  std::uint32_t timingSeq_ = 0;
  std::uint64_t beginTick_ = 0;
  // Per-attempt read/lookup counters, flushed to the stats slot once at
  // attempt end (commit or abort) — keeps the atomic-ref pairs off every
  // read and write-set probe. pendingReads_ doubles as the "has this
  // attempt read anything yet" test the RO mode's free first-read snapshot
  // slide relies on.
  std::uint64_t pendingReads_ = 0;
  std::uint64_t pendingUreads_ = 0;
  std::uint64_t pendingWriteLookups_ = 0;
  std::uint64_t pendingWriteProbes_ = 0;
  // NOrec RO mode: reads logged since the last validation point (batched
  // validation flushes when it reaches cfg_.norecRoBatch).
  std::uint32_t norecRoPending_ = 0;
  std::uint32_t attempts_ = 0;
  Config cfg_{};               // root domain's config, latched at begin()
  TmBackend backend_ = TmBackend::Orec;

  std::vector<DomainView> views_;
  std::size_t curView_ = 0;

  struct AllocEntry {
    void* ptr;
    void (*deleter)(void*);
  };

  std::vector<ReadEntry> readSet_;
  std::vector<WriteEntry> writeSet_;
  std::vector<ValueEntry> valueLog_;  // NOrec backend only
  std::vector<AllocEntry> speculativeAllocs_;
  HookVec commitHooks_;
  std::uint64_t writeSigs_ = 0;  // bloom signature over write addresses

  // Open-addressing indexes over writeSet_, active once the write set
  // outgrows kWriteIndexThreshold (idxMask_ == 0 means inactive). Slots
  // hold position + 1; 0 is empty.
  std::vector<std::uint32_t> writeIdx_;  // keyed by written address
  std::vector<std::uint32_t> orecIdx_;   // keyed by locked orec
  std::size_t idxMask_ = 0;

  // Elastic sliding window (kElasticWindow entries, kept tiny).
  std::vector<ReadEntry> window_;
  std::size_t windowNext_ = 0;

  // Scratch for norecValidate (avoids per-validation allocation).
  std::vector<std::uint64_t> seqSnap_;

  ThreadStats* stats_ = nullptr;  // root domain's slot for this thread
};

// RAII domain scope: inside a transaction, makes `d` the domain that
// transactional accesses are attributed to. Data structures bound to a
// non-default domain open one of these at the top of their Tx-composable
// operations, so a flat-nested caller transparently becomes a cross-domain
// transaction. Cheap when `d` is already the current domain.
class DomainScope {
 public:
  DomainScope(Tx& tx, Domain& d) : tx_(tx), prev_(tx.enterDomain(d)) {}
  ~DomainScope() { tx_.exitDomain(prev_); }

  DomainScope(const DomainScope&) = delete;
  DomainScope& operator=(const DomainScope&) = delete;

 private:
  Tx& tx_;
  std::size_t prev_;
};

}  // namespace sftree::stm
