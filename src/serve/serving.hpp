// Batched serving tier: an open-loop request front-end over ShardedMap.
//
// Every number the benches produced before this layer was closed-loop
// thread throughput; a serving system sees an *arrival stream* instead —
// requests queue, wait, and either meet a latency objective or do not. The
// tier accepts Request{op, key, value} into per-executor MPSC submission
// queues (the violation queue's sharded Treiber-stack idiom, lifted to
// whole requests), and per-executor threads drain up to batchSize requests
// and execute each batch inside ONE transaction via the map's composable
// insertTx/eraseTx/getTx/containsTx. Coalescing K same-queue requests into
// a single commit amortizes the begin/validate/commit and orec traffic the
// STM pays per transaction — the batching analogue of flat combining,
// applied to a transactional map. It is also the same perf lever the paper
// pulls for maintenance: move shared-structure work off the caller's
// critical path and amortize it.
//
// Batching widens the conflict window (one hot key can abort a whole
// batch), so the executor adapts exactly like the migration batches
// (docs/sharding.md, "Adaptive migration batches"): a batch transaction
// that aborted at least once halves the next batch (AIMD, floor 1 — which
// IS one-transaction-per-op), two consecutive clean batches double it back
// toward the configured ceiling; and a batch that keeps aborting past a
// small retry limit degrades to committing only its first request, so one
// conflicting key cannot convict the same batch repeatedly.
//
// Completion is a Future<Result> / callback API. Enqueue-to-completion
// latency rides the sampled TSC clock (obs::tick) into per-executor
// obs::LogHistograms, so p50/p99/p999 come from the metrics registry like
// every other subsystem's numbers. See docs/serving.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "shard/aimd.hpp"
#include "shard/sharded_map.hpp"
#include "trees/key.hpp"

namespace sftree::serve {

enum class OpKind : std::uint8_t {
  kGet = 0,
  kContains = 1,
  kInsert = 2,
  kErase = 3,
};

inline bool isReadOp(OpKind op) {
  return op == OpKind::kGet || op == OpKind::kContains;
}

struct Request {
  OpKind op = OpKind::kGet;
  Key key = 0;
  Value value = 0;  // kInsert only
};

struct Result {
  OpKind op = OpKind::kGet;
  Key key = 0;
  // kInsert: inserted (false = already present). kErase: removed. kContains
  // / kGet: present. Meaningless when rejected.
  bool ok = false;
  // Admission control refused the request (queue at capacity, or submitted
  // after stop()); the operation did not run.
  bool rejected = false;
  std::optional<Value> value;     // kGet hit only
  std::uint64_t latencyNs = 0;    // enqueue -> completion
};

namespace detail {

// One in-flight request: the Treiber-stack node, the result slot and the
// completion state, refcounted between the executor and the Future (a
// callback-only submission holds a single reference). Heap-allocated per
// request: the serving tier sits above the STM fast path, and the queue
// node doubles as the future's shared state, so one allocation covers both.
struct PendingOp {
  PendingOp* next = nullptr;
  Request req;
  Result res;
  std::uint64_t enqueueTick = 0;
  std::function<void(const Result&)> callback;
  std::atomic<bool> done{false};
  std::atomic<int> refs{1};
  std::mutex mu;
  std::condition_variable cv;

  void release() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }
  // Publishes res, wakes waiters, runs the callback (on the completing
  // thread), drops the completer's reference.
  void complete() {
    {
      std::lock_guard<std::mutex> lk(mu);
      done.store(true, std::memory_order_release);
    }
    cv.notify_all();
    if (callback) callback(res);
    release();
  }
};

}  // namespace detail

// Completion handle for one submitted request. Movable, not copyable;
// get()/wait() block until the executor (or the shutdown path) completed
// the request — every accepted request is guaranteed to complete.
class Future {
 public:
  Future() = default;
  explicit Future(detail::PendingOp* op) : op_(op) {}
  Future(Future&& o) noexcept : op_(o.op_) { o.op_ = nullptr; }
  Future& operator=(Future&& o) noexcept {
    if (this != &o) {
      reset();
      op_ = o.op_;
      o.op_ = nullptr;
    }
    return *this;
  }
  Future(const Future&) = delete;
  Future& operator=(const Future&) = delete;
  ~Future() { reset(); }

  bool valid() const { return op_ != nullptr; }
  bool ready() const {
    return op_ != nullptr && op_->done.load(std::memory_order_acquire);
  }
  void wait() {
    if (op_ == nullptr || op_->done.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lk(op_->mu);
    op_->cv.wait(lk,
                 [this] { return op_->done.load(std::memory_order_acquire); });
  }
  // Blocks, returns the result, invalidates the future.
  Result get() {
    wait();
    Result r = op_->res;
    reset();
    return r;
  }

 private:
  void reset() {
    if (op_ != nullptr) {
      op_->release();
      op_ = nullptr;
    }
  }
  detail::PendingOp* op_ = nullptr;
};

struct ServingTierConfig {
  // Executor threads (and submission queues). 0 = one per shard the map has
  // at construction time.
  int executors = 0;
  // Requests coalesced into one transaction (the AIMD ceiling).
  std::size_t batchSize = 32;
  // Adapt the effective batch size to observed abort pressure
  // (shard::AimdBatch, shared with the migration batches): halve after a
  // batch that aborted (floor 1 = per-op transactions), double back after
  // two clean batches.
  bool adaptiveBatch = true;
  // Admission bound per submission queue; submissions beyond it complete
  // immediately with rejected = true. 0 = unbounded.
  std::size_t queueCapacity = 1 << 16;
};

// Aggregated counters + latency histograms (merged over executors; racy
// snapshots, exact when quiescent).
struct ServingTierStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t batchTxs = 0;       // batch transactions committed
  std::uint64_t batchedOps = 0;     // requests executed inside batch txs
  std::uint64_t perOpTxs = 0;       // requests executed one-tx-per-op
                                    // (conflict fallback tail)
  std::uint64_t conflictFallbacks = 0;  // batches that degraded to a prefix
  std::uint64_t batchShrinks = 0;   // AIMD halvings
  std::uint64_t batchGrows = 0;     // AIMD re-doublings
  std::uint64_t queueDepth = 0;     // currently queued (all executors)
  std::uint64_t maxQueueDepth = 0;  // high-water mark over any executor
  obs::LogHistogram latencyReadNs;    // enqueue -> completion, get/contains
  obs::LogHistogram latencyUpdateNs;  // enqueue -> completion, insert/erase
  obs::LogHistogram batchNs;          // batch transaction wall time
  obs::LogHistogram batchFill;        // requests committed per batch tx
};

class ServingTier {
 public:
  explicit ServingTier(shard::ShardedMap& map, ServingTierConfig cfg = {});
  ~ServingTier();  // stop()

  ServingTier(const ServingTier&) = delete;
  ServingTier& operator=(const ServingTier&) = delete;

  // Submit with a Future completion handle. Always returns a valid future;
  // an admission rejection completes it immediately with rejected = true.
  Future submit(const Request& r);
  // Submit with a completion callback (invoked once, on the executor thread
  // — or inline on this thread when the request is rejected). Returns false
  // when admission control rejected the request; an accepted request that
  // stop() finds still queued completes with rejected = true.
  bool submit(const Request& r, std::function<void(const Result&)> cb);

  // Stops accepting, drains every queue (each accepted request completes),
  // joins the executors. Idempotent; the destructor calls it.
  void stop();

  std::uint64_t queueDepth() const;
  int executors() const { return static_cast<int>(execs_.size()); }
  ServingTierStats stats() const;

  // Registers a snapshot source emitting the counters and the latency /
  // batch histograms. The tier must outlive the registration.
  [[nodiscard]] obs::MetricsRegistry::Registration registerMetrics(
      obs::MetricsRegistry& reg, std::string prefix);

 private:
  // One submission queue + its executor thread. The queue reuses the
  // violation queue's MPSC Treiber-stack idiom (CAS push, exchange-drain);
  // FIFO order is restored by reversing the drained chain into a backlog.
  struct alignas(64) Executor {
    explicit Executor(std::size_t batchCeiling)
        : aimd(batchCeiling, /*floor=*/1) {}

    std::atomic<detail::PendingOp*> head{nullptr};
    std::atomic<std::int64_t> depth{0};
    std::atomic<std::uint64_t> maxDepth{0};
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> sleeping{false};
    // Worker-owned drain state (FIFO backlog; backlogPos is the cursor).
    std::vector<detail::PendingOp*> backlog;
    std::size_t backlogPos = 0;
    shard::AimdBatch aimd;
    // Single-writer (the executor thread) counters and histograms; readers
    // take racy snapshots (the LogHistogram contract).
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> batchTxs{0};
    std::atomic<std::uint64_t> batchedOps{0};
    std::atomic<std::uint64_t> perOpTxs{0};
    std::atomic<std::uint64_t> conflictFallbacks{0};
    obs::LogHistogram latencyReadNs;
    obs::LogHistogram latencyUpdateNs;
    obs::LogHistogram batchNs;
    obs::LogHistogram batchFill;
    std::thread thread;
  };

  std::size_t queueFor(Key k) const;
  // Admits the request or completes it inline as rejected; returns the
  // admission decision. With `future` non-null the op also gets a future
  // reference, handed out through it.
  bool enqueue(const Request& r, std::function<void(const Result&)> cb,
               detail::PendingOp** future);
  void executorLoop(Executor& ex);
  void executeBatch(Executor& ex, detail::PendingOp* const* ops,
                    std::size_t n);
  void execOneTx(stm::Tx& tx, detail::PendingOp& op);
  void completeOp(Executor& ex, detail::PendingOp* op);

  shard::ShardedMap& map_;
  ServingTierConfig cfg_;
  std::vector<std::unique_ptr<Executor>> execs_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};
  std::mutex stopMu_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace sftree::serve
