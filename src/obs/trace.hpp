// Commit-event trace ring — the PR 5 stale-routing forensics tool, made
// permanent.
//
// Each thread that emits an event owns a fixed-size ring of compact records.
// Tracing is toggled by a global generation ("span") counter: when disabled,
// the emit fast path is a single relaxed load.  Each record carries the span
// it was recorded under, so dumpTrace() returns only the most recent span's
// records even after stale records from earlier spans remain in the rings.
//
// Records are written under a per-slot seqlock (all payload words accessed
// through relaxed atomic_refs, the sequence word with acquire/release +
// fences) so a concurrent dumpTrace() is data-race-free under TSan: a dump
// that races a writer simply skips the torn slot.
//
// dumpTrace() merges every thread's ring sorted by timestamp.  Rings are
// owned by shared_ptr from a global registry, so records from exited threads
// remain dumpable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/abort_cause.hpp"

namespace sftree::obs {

enum class TraceKind : std::uint8_t {
  // Transaction lifecycle is traced at attempt *end* only (commit/abort/
  // restart, with the attempt count in the payload): one record per attempt
  // keeps the enabled-trace overhead inside the <= 10% budget.
  kTxCommit = 1,
  kTxAbort = 2,    // conflict abort; cause field holds the AbortCause
  kTxRestart = 3,  // RO snapshot-extension / promotion restart
  kMapOp = 4,      // ShardedMap op entry; a = routing-table version, b = slot
  kTablePublish = 5,    // a = new routing-table version, b = shard count
  kMigrationBatch = 6,  // a = keys moved in batch, b = routing-table version
  kMaintPass = 8,  // a = tree id, b = pass duration ns (7 is retired)
};

const char* traceKindName(TraceKind k);

struct TraceRecord {
  std::uint64_t ns = 0;  // obs::nowNs() at emit time
  std::uint64_t a = 0;   // kind-specific payload (see TraceKind comments)
  std::uint64_t b = 0;
  std::uint32_t tid = 0;  // registration-order thread id
  TraceKind kind = TraceKind::kTxCommit;
  std::uint8_t cause = 0;   // AbortCause index for kTxAbort/kTxRestart
  std::uint16_t op = 0;     // small free-form payload (op kind, TxKind, ...)
};

namespace detail {

std::atomic<std::uint64_t>& traceSpan();
void traceEmitSlow(TraceKind kind, std::uint64_t span, std::uint64_t a,
                   std::uint64_t b, std::uint8_t cause, std::uint16_t op);

}  // namespace detail

inline bool traceEnabled() {
  return detail::traceSpan().load(std::memory_order_relaxed) != 0;
}

// Starts a new trace span (implicitly discarding prior-span records from
// future dumps) / stops recording.  dumpTrace() after disable still returns
// the last span — post-mortem dumps are the main use case.
void traceEnable();
void traceDisable();

inline void trace(TraceKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
                  std::uint8_t cause = 0, std::uint16_t op = 0) {
  const std::uint64_t span =
      detail::traceSpan().load(std::memory_order_relaxed);
  if (span == 0) return;  // disabled fast path: one relaxed load
  detail::traceEmitSlow(kind, span, a, b, cause, op);
}

// Merged view of every ring's current-span records, sorted by timestamp.
// Safe to call while other threads keep emitting.
std::vector<TraceRecord> dumpTrace();

// Human-readable rendering (one line per record).
void dumpTrace(std::ostream& os);
std::string formatTraceRecord(const TraceRecord& r);

// Per-thread ring capacity (records); fixed at compile time.
std::size_t traceRingCapacity();

}  // namespace sftree::obs
