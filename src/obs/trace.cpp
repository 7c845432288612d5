#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

#include "obs/clock.hpp"

namespace sftree::obs {

namespace {

constexpr std::size_t kRingCapacity = 4096;

// One record slot, written under a seqlock.  Payload words are accessed with
// relaxed atomic_refs so a racing dump is TSan-clean; the sequence word
// (odd = write in progress) plus fences publishes them.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::uint64_t span = 0;
  std::uint64_t ns = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t meta = 0;  // kind | cause<<8 | op<<16
};

inline void slotStore(std::uint64_t& w, std::uint64_t v) {
  std::atomic_ref<std::uint64_t>(w).store(v, std::memory_order_relaxed);
}

inline std::uint64_t slotLoad(const std::uint64_t& w) {
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(w))
      .load(std::memory_order_relaxed);
}

struct ThreadRing {
  std::uint32_t tid = 0;
  std::uint64_t next = 0;  // owner-thread only
  Slot slots[kRingCapacity];

  void emit(TraceKind kind, std::uint64_t span, std::uint64_t a,
            std::uint64_t b, std::uint8_t cause, std::uint16_t op) {
    Slot& s = slots[next++ % kRingCapacity];
    const std::uint64_t seq0 = s.seq.load(std::memory_order_relaxed);
    s.seq.store(seq0 + 1, std::memory_order_relaxed);  // odd: write begins
    std::atomic_thread_fence(std::memory_order_release);
    slotStore(s.span, span);
    slotStore(s.ns, nowNs());
    slotStore(s.a, a);
    slotStore(s.b, b);
    slotStore(s.meta, static_cast<std::uint64_t>(kind) |
                          (static_cast<std::uint64_t>(cause) << 8) |
                          (static_cast<std::uint64_t>(op) << 16));
    s.seq.store(seq0 + 2, std::memory_order_release);  // even: write done
  }

  // Returns false if the slot was torn by a concurrent write (caller skips).
  bool read(std::size_t i, std::uint64_t wantSpan, TraceRecord& out) const {
    const Slot& s = slots[i];
    const std::uint64_t seq1 = s.seq.load(std::memory_order_acquire);
    if (seq1 == 0 || (seq1 & 1) != 0) return false;
    TraceRecord r;
    const std::uint64_t span = slotLoad(s.span);
    r.ns = slotLoad(s.ns);
    r.a = slotLoad(s.a);
    r.b = slotLoad(s.b);
    const std::uint64_t meta = slotLoad(s.meta);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != seq1) return false;
    if (span != wantSpan) return false;
    r.tid = tid;
    r.kind = static_cast<TraceKind>(meta & 0xff);
    r.cause = static_cast<std::uint8_t>((meta >> 8) & 0xff);
    r.op = static_cast<std::uint16_t>((meta >> 16) & 0xffff);
    out = r;
    return true;
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::uint32_t nextTid = 0;
  std::uint64_t nextSpan = 0;  // last span handed out by traceEnable()
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: rings outlive all threads
  return *r;
}

// Keeps the ring alive (registry holds another reference, so records stay
// dumpable after the thread exits).
struct RingHolder {
  std::shared_ptr<ThreadRing> ring;
};

ThreadRing& localRing() {
  // Constant-initialized pointer cache: the emit path pays one TLS load and
  // a null check instead of a guarded dynamic initializer + shared_ptr
  // indirection per record.
  thread_local ThreadRing* cached = nullptr;
  thread_local RingHolder holder;
  if (cached == nullptr) {
    holder.ring = std::make_shared<ThreadRing>();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    holder.ring->tid = reg.nextTid++;
    reg.rings.push_back(holder.ring);
    cached = holder.ring.get();
  }
  return *cached;
}

}  // namespace

namespace detail {

std::atomic<std::uint64_t>& traceSpan() {
  static std::atomic<std::uint64_t> span{0};
  return span;
}

void traceEmitSlow(TraceKind kind, std::uint64_t span, std::uint64_t a,
                   std::uint64_t b, std::uint8_t cause, std::uint16_t op) {
  localRing().emit(kind, span, a, b, cause, op);
}

}  // namespace detail

void traceEnable() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  detail::traceSpan().store(++reg.nextSpan, std::memory_order_relaxed);
}

void traceDisable() {
  detail::traceSpan().store(0, std::memory_order_relaxed);
}

std::size_t traceRingCapacity() { return kRingCapacity; }

std::vector<TraceRecord> dumpTrace() {
  Registry& reg = registry();
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::uint64_t span;
  {
    std::lock_guard<std::mutex> lk(reg.mu);
    rings = reg.rings;
    span = reg.nextSpan;  // dump the latest span even after traceDisable()
  }
  std::vector<TraceRecord> out;
  if (span == 0) return out;
  for (const auto& ring : rings) {
    for (std::size_t i = 0; i < kRingCapacity; ++i) {
      TraceRecord r;
      if (ring->read(i, span, r)) out.push_back(r);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& x, const TraceRecord& y) {
              return x.ns != y.ns ? x.ns < y.ns : x.tid < y.tid;
            });
  return out;
}

const char* traceKindName(TraceKind k) {
  switch (k) {
    case TraceKind::kTxCommit: return "tx_commit";
    case TraceKind::kTxAbort: return "tx_abort";
    case TraceKind::kTxRestart: return "tx_restart";
    case TraceKind::kMapOp: return "map_op";
    case TraceKind::kTablePublish: return "table_publish";
    case TraceKind::kMigrationBatch: return "migration_batch";
    case TraceKind::kMaintPass: return "maint_pass";
  }
  return "unknown";
}

std::string formatTraceRecord(const TraceRecord& r) {
  std::ostringstream os;
  os << r.ns << " tid=" << r.tid << " " << traceKindName(r.kind);
  if (r.kind == TraceKind::kTxAbort || r.kind == TraceKind::kTxRestart)
    os << " cause=" << abortCauseName(static_cast<std::size_t>(r.cause));
  os << " a=" << r.a << " b=" << r.b << " op=" << r.op;
  return os.str();
}

void dumpTrace(std::ostream& os) {
  for (const TraceRecord& r : dumpTrace()) os << formatTraceRecord(r) << "\n";
}

}  // namespace sftree::obs
