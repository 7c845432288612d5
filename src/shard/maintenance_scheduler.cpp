#include "shard/maintenance_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/stats_bridge.hpp"

namespace sftree::shard {

MaintenanceScheduler::MaintenanceScheduler(MaintenanceSchedulerConfig cfg)
    : cfg_(cfg) {
  if (cfg_.workers < 1) {
    throw std::invalid_argument(
        "MaintenanceScheduler: workers must be >= 1");
  }
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

MaintenanceScheduler::~MaintenanceScheduler() {
  {
    // Under the mutex: a worker that checked stop_ and is about to block
    // in cv_.wait() would otherwise miss the notification and never wake
    // (an empty pool waits without a timeout), hanging the join below.
    std::lock_guard<std::mutex> lk(mu_);
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

MaintenanceScheduler::TreeHandle MaintenanceScheduler::registerTree(
    std::string name, PassFn pass, WorkSignalFn signal, LoadFn load) {
  auto entry = std::make_shared<Entry>();
  entry->name = std::move(name);
  entry->pass = std::move(pass);
  entry->signal = std::move(signal);
  entry->load = std::move(load);
  entry->nextEligible = Clock::now();
  if (entry->signal) entry->lastSignal = entry->signal();
  std::lock_guard<std::mutex> lk(mu_);
  entry->handle = nextHandle_++;
  entries_.push_back(entry);
  cv_.notify_all();
  return entry->handle;
}

std::shared_ptr<MaintenanceScheduler::Entry> MaintenanceScheduler::findEntry(
    TreeHandle h) const {
  for (const auto& e : entries_) {
    if (e->handle == h) return e;
  }
  return nullptr;
}

void MaintenanceScheduler::unregisterTree(TreeHandle h) {
  std::unique_lock<std::mutex> lk(mu_);
  auto entry = findEntry(h);
  if (entry == nullptr) return;
  entry->dead = true;
  cv_.wait(lk, [&] { return !entry->inPass; });
  // A concurrent unregisterTree(h) may have erased the entry while we
  // waited; the shared_ptr keeps it alive, but erase only what is present.
  const auto it = std::find(entries_.begin(), entries_.end(), entry);
  if (it != entries_.end()) entries_.erase(it);
  if (cursor_ >= entries_.size()) cursor_ = 0;
}

void MaintenanceScheduler::pause(TreeHandle h) {
  std::unique_lock<std::mutex> lk(mu_);
  auto entry = findEntry(h);
  if (entry == nullptr) return;
  ++entry->pauseDepth;
  cv_.wait(lk, [&] { return !entry->inPass; });
}

void MaintenanceScheduler::resume(TreeHandle h) {
  std::lock_guard<std::mutex> lk(mu_);
  auto entry = findEntry(h);
  if (entry == nullptr || entry->pauseDepth == 0) return;
  if (--entry->pauseDepth > 0) return;  // another pauser still active
  entry->nextEligible = Clock::now();
  entry->idleStreak = 0;
  cv_.notify_all();
}

SchedulerStats MaintenanceScheduler::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::vector<TreeMaintStats> MaintenanceScheduler::treeStats() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TreeMaintStats> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    out.push_back(
        {e->name, e->passes, e->activePasses, e->idleStreak, e->lastLoad});
  }
  return out;
}

obs::MetricsRegistry::Registration MaintenanceScheduler::registerMetrics(
    obs::MetricsRegistry& reg, std::string prefix) {
  return reg.add(std::move(prefix), [this](obs::MetricSink& out) {
    obs::emitSchedulerStats(out, "", stats());
    out.gauge("registered_trees", static_cast<double>(registeredCount()));
    out.gauge("workers", workerCount());
    for (const TreeMaintStats& t : treeStats()) {
      const std::string p = "tree." + t.name + ".";
      out.counter(p + "passes", t.passes);
      out.counter(p + "active_passes", t.activePasses);
      out.gauge(p + "idle_streak", t.idleStreak);
      out.gauge(p + "last_load", static_cast<double>(t.lastLoad));
    }
  });
}

std::size_t MaintenanceScheduler::registeredCount() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

std::shared_ptr<MaintenanceScheduler::Entry>
MaintenanceScheduler::pickRunnable(Clock::time_point now,
                                   Clock::time_point& earliest,
                                   bool& signalPollNeeded) {
  earliest = Clock::time_point::max();
  signalPollNeeded = false;
  const std::size_t n = entries_.size();
  // The scan considers every entry so eligible trees can compete on load;
  // the first eligible entry in cursor order is the round-robin default,
  // overtaken only by a *strictly* higher load. A sustained hot shard can
  // stay eligible (its queue refills during its own drain, and its work
  // signal bypasses the backoff), so overtakes are capped: after
  // kMaxPriorityStreak consecutive overrides the round-robin head runs
  // regardless, which bounds every eligible tree's wait.
  std::shared_ptr<Entry> best;
  std::shared_ptr<Entry> firstEligible;
  std::size_t bestIdx = 0;
  std::size_t firstIdx = 0;
  std::uint64_t bestLoad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (cursor_ + i) % n;
    const auto& e = entries_[idx];
    if (e->dead || e->pauseDepth > 0 || e->inPass) continue;
    bool eligible = now >= e->nextEligible;
    if (!eligible && e->signal) {
      // A backed-off tree that received updates turns hot again right away.
      const std::uint64_t cur = e->signal();
      if (cur != e->lastSignal) {
        e->lastSignal = cur;
        e->idleStreak = 0;
        eligible = true;
        ++stats_.signalWakeups;
      }
    }
    if (!eligible) {
      ++stats_.backoffSkips;
      if (e->signal) signalPollNeeded = true;
      earliest = std::min(earliest, e->nextEligible);
      continue;
    }
    const std::uint64_t load = e->load ? e->load() : 0;
    e->lastLoad = load;
    if (best == nullptr) {
      best = e;
      firstEligible = e;
      bestIdx = idx;
      firstIdx = idx;
      bestLoad = load;
    } else if (load > bestLoad) {
      best = e;
      bestIdx = idx;
      bestLoad = load;
    }
  }
  if (best != nullptr) {
    if (best != firstEligible) {
      if (++priorityStreak_ > kMaxPriorityStreak) {
        // Anti-starvation: the round-robin head has been overtaken for a
        // full streak; run it now.
        best = firstEligible;
        bestIdx = firstIdx;
        priorityStreak_ = 0;
      } else {
        ++stats_.priorityPicks;
      }
    } else {
      priorityStreak_ = 0;
    }
    cursor_ = (bestIdx + 1) % n;
  }
  return best;
}

void MaintenanceScheduler::workerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_.load(std::memory_order_acquire)) {
    Clock::time_point earliest;
    bool signalPollNeeded = false;
    auto entry = pickRunnable(Clock::now(), earliest, signalPollNeeded);
    if (entry == nullptr) {
      // Nothing runnable: sleep until the soonest backoff expires or a
      // register/resume notifies. Only when a backed-off tree has a
      // work-signal callback is the sleep capped (1 ms poll cadence) — an
      // empty or signal-less pool parks on the condition variable instead
      // of spinning.
      if (signalPollNeeded) {
        const auto cap = Clock::now() + std::chrono::milliseconds(1);
        cv_.wait_until(lk, std::min(earliest, cap));
      } else if (earliest != Clock::time_point::max()) {
        cv_.wait_until(lk, earliest);
      } else {
        cv_.wait(lk);
      }
      continue;
    }

    entry->inPass = true;
    // Sample the signal *before* the pass: updates racing with the
    // traversal then still differ from lastSignal at the next scan and cut
    // the backoff short, instead of being silently absorbed.
    const std::uint64_t signalBefore = entry->signal ? entry->signal() : 0;
    lk.unlock();
    const bool didWork = entry->pass(&stop_);
    lk.lock();
    entry->inPass = false;

    if (entry->signal) entry->lastSignal = signalBefore;
    if (didWork) {
      // Structural work usually leaves more behind it (a rotation unbalances
      // the parent): re-poll at once, like the paper's continuous rotator.
      entry->idleStreak = 0;
      entry->nextEligible = Clock::now();
      ++entry->activePasses;
      ++stats_.activePasses;
    } else {
      entry->idleStreak = std::min(entry->idleStreak + 1, 16);
      auto pause = cfg_.basePause * (1LL << std::min(entry->idleStreak - 1, 10));
      if (pause > cfg_.maxPause) pause = cfg_.maxPause;
      entry->nextEligible = Clock::now() + pause;
    }
    ++entry->passes;
    ++stats_.passes;
    // Wake pause()/unregisterTree() waiters and idle co-workers.
    cv_.notify_all();
  }
}

}  // namespace sftree::shard
