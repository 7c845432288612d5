// Maintenance scheduler: the one driver of background restructuring.
//
// The paper dedicates one rotator thread per tree (§3.1); that rotator is
// the one-worker configuration below (dedicatedRotatorConfig), which an
// SFTree owns when it maintains itself. A process hosting more trees than
// spare cores shares one pool instead: N trees register a pass callback, K
// worker threads (K typically << N) round-robin passes across them.
// Splay-tree analysis reminds us restructuring cost is
// access-sequence-dependent, so passes are steered to where the work is:
//
//  * per-tree exponential backoff — a tree whose pass performed no
//    structural change waits basePause, then 2x, 4x, ... up to maxPause
//    before it is polled again, so idle trees cost (almost) nothing; a
//    tree whose pass did work is eligible again at once;
//  * work signal — each tree may expose a monotonic update counter; any
//    observed change resets its backoff, so a tree that turns hot is picked
//    up on the next scan instead of after the full backoff window;
//  * load-driven priority — each tree may additionally expose its pending
//    work (SFTree's violation-queue depth); among the trees eligible at a
//    scan, workers run the one with the most queued work first instead of
//    blind round-robin, so a burst against one shard is drained before the
//    pool cycles through cold shards. Trees reporting equal (or no) load
//    keep the round-robin order, which keeps the pick starvation-free.
//
// The scheduler is deliberately tree-agnostic (callbacks only): SFTree
// registers itself, and unit tests register plain lambdas.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace sftree::shard {

struct MaintenanceSchedulerConfig {
  // Worker threads in the pool. The whole point is workers < trees; one
  // worker is enough for most shard counts on small machines.
  int workers = 1;
  // Backoff after the first idle pass on a tree; doubles per consecutive
  // idle pass up to maxPause.
  std::chrono::microseconds basePause{100};
  std::chrono::microseconds maxPause{20'000};
};

// The paper's dedicated rotator as a scheduler configuration: one worker,
// a pass right after every pass that did work, and a fixed 100 us nap
// after an idle one (basePause == maxPause: no exponential backoff).
inline MaintenanceSchedulerConfig dedicatedRotatorConfig() {
  MaintenanceSchedulerConfig cfg;
  cfg.workers = 1;
  cfg.basePause = std::chrono::microseconds{100};
  cfg.maxPause = cfg.basePause;
  return cfg;
}

// Aggregate counters over the scheduler's lifetime.
struct SchedulerStats {
  std::uint64_t passes = 0;        // maintenance passes executed
  std::uint64_t activePasses = 0;  // passes that performed structural work
  std::uint64_t backoffSkips = 0;  // scan visits skipped due to backoff
  std::uint64_t signalWakeups = 0; // backoffs cut short by a work signal
  // Picks where a higher-load tree overtook an earlier-in-rotation eligible
  // tree (the load callback steering workers toward the hottest shard).
  std::uint64_t priorityPicks = 0;
};

// Per-tree view of the same counters.
struct TreeMaintStats {
  std::string name;
  std::uint64_t passes = 0;
  std::uint64_t activePasses = 0;
  int idleStreak = 0;  // consecutive idle passes (drives the backoff)
  std::uint64_t lastLoad = 0;  // load reported at the most recent scan
};

class MaintenanceScheduler {
 public:
  // One full maintenance pass; must return true when the pass performed at
  // least one structural change. `cancel` turns true when the scheduler is
  // shutting down; long passes should bail out promptly.
  using PassFn = std::function<bool(const std::atomic<bool>* cancel)>;
  // Optional monotonic activity counter (e.g. SFTree::updateTicks). Any
  // change between polls resets the tree's backoff.
  using WorkSignalFn = std::function<std::uint64_t()>;
  // Optional pending-work gauge (e.g. SFTree::violationQueueDepth). Among
  // simultaneously eligible trees, the one reporting the highest load runs
  // first; zero/absent loads fall back to round-robin order.
  using LoadFn = std::function<std::uint64_t()>;

  using TreeHandle = std::uint64_t;
  static constexpr TreeHandle kInvalidHandle = 0;

  explicit MaintenanceScheduler(MaintenanceSchedulerConfig cfg = {});
  ~MaintenanceScheduler();  // stops the pool; joins all workers

  MaintenanceScheduler(const MaintenanceScheduler&) = delete;
  MaintenanceScheduler& operator=(const MaintenanceScheduler&) = delete;

  // Registers a tree; maintenance passes start being scheduled immediately.
  // The callbacks must stay valid until unregisterTree() returns.
  TreeHandle registerTree(std::string name, PassFn pass,
                          WorkSignalFn signal = nullptr,
                          LoadFn load = nullptr);

  // Removes the tree. Blocks until any in-flight pass on it has finished,
  // so the caller may destroy the tree as soon as this returns.
  void unregisterTree(TreeHandle h);

  // Temporarily excludes the tree from scheduling; blocks until any
  // in-flight pass on it has finished. Used to quiesce a single tree (e.g.
  // for introspection walks) without perturbing the rest of the pool.
  // Pauses nest: concurrent pausers each pause/resume, and scheduling only
  // resumes when the last one has called resume().
  void pause(TreeHandle h);
  void resume(TreeHandle h);

  SchedulerStats stats() const;
  std::vector<TreeMaintStats> treeStats() const;
  // Registers the pool counters plus per-tree pass/backlog gauges (under
  // "<prefix>.tree.<name>.") in `reg`. The scheduler must outlive the
  // registration.
  [[nodiscard]] obs::MetricsRegistry::Registration registerMetrics(
      obs::MetricsRegistry& reg, std::string prefix);
  std::size_t registeredCount() const;
  int workerCount() const { return cfg_.workers; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    TreeHandle handle = kInvalidHandle;
    std::string name;
    PassFn pass;
    WorkSignalFn signal;
    LoadFn load;

    int pauseDepth = 0;  // paused while > 0 (pauses nest)
    bool dead = false;
    bool inPass = false;
    Clock::time_point nextEligible{};  // epoch start: eligible immediately
    std::uint64_t lastSignal = 0;
    std::uint64_t lastLoad = 0;
    int idleStreak = 0;

    std::uint64_t passes = 0;
    std::uint64_t activePasses = 0;
  };

  void workerLoop();
  // Picks the next runnable entry (mu_ held): among the eligible entries,
  // the one reporting the highest load, with round-robin order from
  // cursor_ as the tiebreak (and the sole rule when no entry reports
  // load). Returns nullptr when nothing is eligible and sets `earliest` to
  // the soonest backoff expiry among the skipped entries
  // (Clock::time_point::max() when there is none). `signalPollNeeded`
  // reports whether any skipped entry has a work-signal callback, i.e.
  // whether sleeping past `earliest` could miss a wakeup only a poll would
  // notice.
  std::shared_ptr<Entry> pickRunnable(Clock::time_point now,
                                      Clock::time_point& earliest,
                                      bool& signalPollNeeded);
  std::shared_ptr<Entry> findEntry(TreeHandle h) const;  // mu_ held

  const MaintenanceSchedulerConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::shared_ptr<Entry>> entries_;
  std::size_t cursor_ = 0;  // round-robin start position for the next scan
  // Consecutive picks in which load overrode the round-robin head; at
  // kMaxPriorityStreak the head runs regardless (anti-starvation).
  static constexpr int kMaxPriorityStreak = 8;
  int priorityStreak_ = 0;
  TreeHandle nextHandle_ = 1;
  SchedulerStats stats_;

  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

}  // namespace sftree::shard
