#include "shard/reshard.hpp"

#include <algorithm>
#include <vector>

#include "obs/clock.hpp"
#include "obs/trace.hpp"

namespace sftree::shard {

ReshardController::ReshardController(ShardedMap& map,
                                     ReshardControllerConfig cfg)
    : map_(map), cfg_(cfg) {}

ReshardController::~ReshardController() { stop(); }

void ReshardController::start() {
  if (thread_.joinable()) return;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      sampleAndAct();
      // Sleep in small steps so stop() stays responsive even with long
      // sampling periods.
      auto left = cfg_.samplePeriod;
      while (left.count() > 0 && !stop_.load(std::memory_order_acquire)) {
        const auto step = std::min<std::chrono::milliseconds>(
            left, std::chrono::milliseconds(10));
        std::this_thread::sleep_for(step);
        left -= step;
      }
    }
  });
}

void ReshardController::stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

bool ReshardController::sampleAndAct() {
  // Sampling and acting run with NO controller lock held: mu_ is a leaf
  // lock guarding prevTicks_/stats_/decisions_ only, never ordered before
  // the map's reshard/topology mutexes or — via SFTree::maintainWith —
  // the maintenance scheduler's. Holding it across splitShard/mergeShards
  // would make stats()/decisionLog()/metrics collection block behind a
  // whole migration and closes lock cycles with quiesced walks that pause
  // maintenance. Concurrent sampleAndAct calls (manual vs background) are
  // instead serialized where it matters, by the map's own reshard mutex.
  const auto samples = map_.loadSamples();
  const int n = static_cast<int>(samples.size());

  // Heat-weighted splitting inputs: per-slot traffic and the slot->shard
  // assignment, both fetched before mu_ (leaf-lock discipline; the
  // snapshots are racy against each other like every gauge here).
  std::vector<std::uint64_t> slotTicks;
  std::vector<int> slotOwnersNow;
  if (cfg_.heatWeight > 0) {
    slotTicks = map_.slotOpTicks();
    slotOwnersNow = map_.slotOwners();
  }

  // Interval load per shard: update-tick delta since the previous sample
  // (traffic) plus (heatWeight) the decayed traffic of the shard's hottest
  // routing slot — the skew signal: concentrated traffic out-scores the
  // same volume spread evenly. A shard seen for the first time (no previous
  // reading) has no tick delta yet.
  //
  // The violation-queue depth is not part of the load: the updates that
  // fill the queue are already counted as ticks, and the queue holds every
  // pending capture until the drain merges equal (key, kind) entries, so on
  // repeated updates to a few keys its depth measures how far the
  // maintenance worker lags behind them, not repair work. The maintenance
  // scheduler is what reacts to it.
  // Per-interval decay d of a slot's heat: a slot sustaining delta t per
  // interval converges to t / (1 - d).
  constexpr double kHeatDecay = 0.5;
  std::vector<Score> scores;
  scores.reserve(samples.size());
  double total = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.samples;
    if (n == 0) return false;
    std::vector<double> hotHeatByShard(static_cast<std::size_t>(n), 0.0);
    if (cfg_.heatWeight > 0) {
      if (slotHeat_.size() != slotTicks.size()) {
        slotHeat_.assign(slotTicks.size(), 0.0);
        prevSlotTicks_.assign(slotTicks.size(), 0);
        prevSlotTicks_ = slotTicks;  // first sample: zero deltas
      }
      for (std::size_t s = 0; s < slotTicks.size(); ++s) {
        const std::uint64_t delta = slotTicks[s] >= prevSlotTicks_[s]
                                        ? slotTicks[s] - prevSlotTicks_[s]
                                        : 0;
        slotHeat_[s] =
            kHeatDecay * slotHeat_[s] + static_cast<double>(delta);
        const int owner =
            s < slotOwnersNow.size() ? slotOwnersNow[s] : -1;
        if (owner >= 0 && owner < n) {
          hotHeatByShard[static_cast<std::size_t>(owner)] = std::max(
              hotHeatByShard[static_cast<std::size_t>(owner)], slotHeat_[s]);
        }
      }
      prevSlotTicks_ = slotTicks;
    }
    std::map<const void*, std::uint64_t> ticksNow;
    for (const ShardLoadSample& s : samples) {
      ticksNow[s.id] = s.updateTicks;
      const auto it = prevTicks_.find(s.id);
      const std::uint64_t delta =
          it == prevTicks_.end()
              ? 0
              : (s.updateTicks >= it->second ? s.updateTicks - it->second : 0);
      const double hotHeat =
          s.index >= 0 && s.index < n
              ? hotHeatByShard[static_cast<std::size_t>(s.index)]
              : 0.0;
      const double load =
          static_cast<double>(delta) + cfg_.heatWeight * hotHeat;
      scores.push_back(Score{s.index, load, delta, hotHeat});
      total += load;
    }
    prevTicks_ = std::move(ticksNow);

    if (total < static_cast<double>(cfg_.minOpsPerSample)) {
      ++stats_.idleSamples;
      return false;
    }
  }
  const double fairShare = total / n;

  std::sort(scores.begin(), scores.end(),
            [](const Score& a, const Score& b) { return a.load > b.load; });

  const int maxShards =
      cfg_.maxShards > 0 ? std::min(cfg_.maxShards, map_.routingSlots())
                         : map_.routingSlots();

  // Every non-idle sample yields one decision record; the inputs (load,
  // fair share, threshold, tick delta, heat) are captured before the
  // mechanism runs so a refused action still logs what was attempted.
  ReshardDecision d;
  d.ns = obs::nowNs();
  d.fairShare = fairShare;
  d.total = total;

  if (scores.front().load > cfg_.splitFactor * fairShare && n < maxShards) {
    d.action = ReshardDecision::Action::kSplit;
    d.shard = scores.front().index;
    d.load = scores.front().load;
    d.threshold = cfg_.splitFactor * fairShare;
    d.tickDelta = scores.front().tickDelta;
    d.hotSlotHeat = scores.front().hotHeat;
    const int born = map_.splitShard(scores.front().index);
    d.other = born;
    d.acted = born >= 0;
    recordDecision(d);
    if (born >= 0) {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.splits;
      return true;
    }
    // -1: the shard is down to one slot (or the index went stale); fall
    // through and let a merge rebalance instead if one applies.
    d = ReshardDecision{};
    d.ns = obs::nowNs();
    d.fairShare = fairShare;
    d.total = total;
  }

  if (n > std::max(cfg_.minShards, 1) && n >= 2) {
    const Score& coldest = scores[scores.size() - 1];
    const Score& secondColdest = scores[scores.size() - 2];
    if (coldest.load + secondColdest.load < cfg_.mergeFactor * fairShare) {
      d.action = ReshardDecision::Action::kMerge;
      d.shard = coldest.index;
      d.other = secondColdest.index;
      d.load = coldest.load + secondColdest.load;
      d.threshold = cfg_.mergeFactor * fairShare;
      d.tickDelta = coldest.tickDelta;
      d.acted = map_.mergeShards(coldest.index, secondColdest.index);
      recordDecision(d);
      if (d.acted) {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.merges;
        return true;
      }
      return false;
    }
  }

  // Neither threshold tripped: log the hottest/coldest pair the thresholds
  // were judged against (the "why not" record).
  d.action = ReshardDecision::Action::kNone;
  d.shard = scores.front().index;
  d.other = scores.back().index;
  d.load = scores.front().load;
  d.threshold = cfg_.splitFactor * fairShare;
  d.tickDelta = scores.front().tickDelta;
  d.hotSlotHeat = scores.front().hotHeat;
  recordDecision(d);
  return false;
}

void ReshardController::recordDecision(ReshardDecision d) {
  if (obs::traceEnabled()) {
    // a = shard index (as unsigned; -1 never reaches here for the deciding
    // shard), b = rounded deciding load, op = action code, cause = acted.
    // Emitted before taking mu_ so mu_ stays a leaf even against the trace
    // ring registry lock (first emission on a thread registers its ring).
    obs::trace(obs::TraceKind::kReshardDecision,
               static_cast<std::uint64_t>(d.shard < 0 ? 0 : d.shard),
               static_cast<std::uint64_t>(d.load < 0 ? 0 : d.load),
               d.acted ? 1 : 0, static_cast<std::uint16_t>(d.action));
  }
  std::lock_guard<std::mutex> lk(mu_);
  decisions_.push_back(std::move(d));
  while (decisions_.size() > kDecisionLogCapacity) decisions_.pop_front();
}

std::vector<ReshardDecision> ReshardController::decisionLog() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {decisions_.begin(), decisions_.end()};
}

obs::MetricsRegistry::Registration ReshardController::registerMetrics(
    obs::MetricsRegistry& reg, std::string prefix) {
  return reg.add(std::move(prefix), [this](obs::MetricSink& out) {
    ReshardControllerStats s;
    ReshardDecision last;
    bool haveLast = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      s = stats_;
      if (!decisions_.empty()) {
        last = decisions_.back();
        haveLast = true;
      }
    }
    out.counter("samples", s.samples);
    out.counter("idle_samples", s.idleSamples);
    out.counter("splits", s.splits);
    out.counter("merges", s.merges);
    if (haveLast) {
      out.gauge("last_decision.action", static_cast<double>(last.action));
      out.gauge("last_decision.acted", last.acted ? 1.0 : 0.0);
      out.gauge("last_decision.shard", static_cast<double>(last.shard));
      out.gauge("last_decision.load", last.load);
      out.gauge("last_decision.fair_share", last.fairShare);
      out.gauge("last_decision.threshold", last.threshold);
      out.gauge("last_decision.hot_slot_heat", last.hotSlotHeat);
    }
  });
}

ReshardControllerStats ReshardController::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace sftree::shard
