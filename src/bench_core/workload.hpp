// Integer-set micro-benchmark workloads (paper §5.2, synchrobench
// equivalent).
//
// * Normal: keys uniform over [0, keyRange); an update is an insert or a
//   remove with equal probability, so the expected set size stays at
//   keyRange/2 (the paper fixes the expectation to 2^12 this way).
// * Biased: "inserting (resp. deleting) random values skewed towards high
//   (resp. low) numbers in the value range: the values ... are skewed with a
//   fixed probability by incrementing (resp. decrementing) with an integer
//   uniformly taken within [0..9]". We realize this as drifting per-thread
//   cursors: each insert key is the previous insert key plus U[0..9]
//   (wrapping), each delete key the previous delete key minus U[0..9], which
//   yields the sustained high/low skew that collapses the no-restructuring
//   tree to a linear shape exactly as in Figure 3 (right).
//
// Update ratios are *effective*: the paper counts only operations that
// modified the structure. At steady state roughly half the attempted
// updates fail (insert of a present key / remove of an absent one), so the
// generator attempts updates at twice the target rate and the harness
// reports the measured effective ratio.
// * Zipf: keys drawn rank-wise from Zipf(s) (zipfS > 0 overrides uniform
//   and biased for every key draw) — the "millions of users, few of them
//   hot" access pattern of the serving benches.
//   Ranks scatter onto keys through a fixed multiplicative bijection so the
//   hot set is spread across the key space instead of clustering at the low
//   end (which would alias the biased workload's drift, and pile the heat
//   onto adjacent routing slots of a ShardedMap for the wrong reason).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "bench_core/rng.hpp"
#include "trees/key.hpp"

namespace sftree::bench {

enum class OpType { Contains, Insert, Remove, Move };

struct WorkloadConfig {
  std::int64_t keyRange = 1 << 13;  // 2x the expected set size of 2^12
  // Target effective update ratio in percent (paper: 0..50).
  double updatePercent = 10.0;
  // Of the update budget, fraction that are composed move operations
  // (Figure 5(b): 1%, 5%, 10% of all operations).
  double movePercent = 0.0;
  bool biased = false;
  // Zipf exponent; > 0 draws every key from Zipf(zipfS) over the range
  // (0.99 is the YCSB-style default for skewed runs).
  double zipfS = 0.0;
};

// Zipf(s) sampler over ranks [0, range), rank r with probability
// proportional to 1/(r+1)^s, inverted through a precomputed CDF (one
// binary search per draw). keyForRank exposes the rank -> key scatter so
// measurement code can enumerate the hot set.
class ZipfKeys {
 public:
  ZipfKeys(std::int64_t range, double s)
      : n_(static_cast<std::uint64_t>(range < 1 ? 1 : range)) {
    // The golden-ratio multiplier is odd but not prime; fall back to the
    // identity scatter for the rare range it fails to be coprime with
    // (the bijection matters more than the spreading).
    if (std::gcd(kScatter, n_) != 1) scatter_ = 1;
    cdf_.resize(static_cast<std::size_t>(n_));
    double sum = 0.0;
    for (std::size_t r = 0; r < cdf_.size(); ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
    cdf_.back() = 1.0;  // guard the lower_bound against rounding
  }

  sftree::Key pick(Rng& rng) const {
    const double u = rng.nextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank = static_cast<std::uint64_t>(
        it == cdf_.end() ? cdf_.size() - 1
                         : static_cast<std::size_t>(it - cdf_.begin()));
    return keyForRank(rank);
  }

  // The key rank r maps to (a fixed bijection on [0, range)): rank 0 is the
  // hottest key, rank 1 the second hottest, ...
  sftree::Key keyForRank(std::uint64_t rank) const {
    return static_cast<sftree::Key>((rank * scatter_) % n_);
  }

 private:
  static constexpr std::uint64_t kScatter = 0x9E3779B97F4A7C15ULL;
  std::uint64_t n_;
  std::uint64_t scatter_ = kScatter;
  std::vector<double> cdf_;
};

struct Op {
  OpType type;
  sftree::Key key;
  sftree::Key destKey;  // move only
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(const WorkloadConfig& cfg, std::uint64_t seed)
      : cfg_(cfg),
        rng_(seed),
        insertCursor_(static_cast<sftree::Key>(rng_.nextBounded(
            static_cast<std::uint64_t>(cfg.keyRange)))),
        deleteCursor_(static_cast<sftree::Key>(rng_.nextBounded(
            static_cast<std::uint64_t>(cfg.keyRange)))) {
    if (cfg_.zipfS > 0.0) zipf_.emplace(cfg_.keyRange, cfg_.zipfS);
  }

  Op next() {
    const double roll = rng_.nextDouble() * 100.0;
    const double attemptedUpdates = effectiveToAttempted(cfg_.updatePercent);
    const double movesShare = effectiveToAttempted(cfg_.movePercent);
    if (roll < movesShare) {
      return Op{OpType::Move, uniformKey(), uniformKey()};
    }
    if (roll < attemptedUpdates) {
      if (rng_.nextBool()) {
        return Op{OpType::Insert, insertKey(), 0};
      }
      return Op{OpType::Remove, removeKey(), 0};
    }
    return Op{OpType::Contains, uniformKey(), 0};
  }

  sftree::Key uniformKey() {
    if (zipf_) return zipf_->pick(rng_);
    return static_cast<sftree::Key>(
        rng_.nextBounded(static_cast<std::uint64_t>(cfg_.keyRange)));
  }

 private:
  // Attempted = 2x effective (capped), since ~half the attempts fail at
  // steady state.
  static double effectiveToAttempted(double effective) {
    const double attempted = 2.0 * effective;
    return attempted > 100.0 ? 100.0 : attempted;
  }

  // The drifting-cursor bias only applies to plain uniform draws; a Zipf
  // workload routes updates through the same skewed distribution as the
  // lookups (hot keys are hot for every operation type).
  sftree::Key insertKey() {
    if (!cfg_.biased || zipf_) return uniformKey();
    insertCursor_ += static_cast<sftree::Key>(rng_.nextBounded(10));
    if (insertCursor_ >= cfg_.keyRange) insertCursor_ -= cfg_.keyRange;
    return insertCursor_;
  }

  sftree::Key removeKey() {
    if (!cfg_.biased || zipf_) return uniformKey();
    deleteCursor_ -= static_cast<sftree::Key>(rng_.nextBounded(10));
    if (deleteCursor_ < 0) deleteCursor_ += cfg_.keyRange;
    return deleteCursor_;
  }

  WorkloadConfig cfg_;
  Rng rng_;
  sftree::Key insertCursor_;
  sftree::Key deleteCursor_;
  std::optional<ZipfKeys> zipf_;
};

}  // namespace sftree::bench
