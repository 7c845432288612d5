// ckpt-move: token movers under back-to-back full checkpoints.
//
// Two mover threads run ShardedMap::move (the composed move of paper §5.4)
// over 2^18 tokens on a 4-shard map (64 routing slots, one scheduler
// worker): token t lives at exactly one key and carries value t. The first
// third of the measured time runs with no checkpoint (the baseline mover
// rate); the rest runs with CheckpointWriter::full() called back to back
// from the main thread. Then the movers stop, a final checkpoint is taken
// and ckpt::restore runs five times. The flush policy is the library's own:
// fflush + rename, no fsync. Snapshot reads run beside writes on the same
// shard/stm layers; the other three workloads never use ckpt.
#include <filesystem>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "common.hpp"

namespace sfbench {

namespace {

namespace ckpt = sftree::ckpt;
namespace fs = std::filesystem;
namespace shard = sftree::shard;
namespace stm = sftree::stm;

constexpr int kMovers = 2;
constexpr std::int64_t kTokens = 1 << 18;
constexpr std::int64_t kKeyspace = 1 << 22;
constexpr int kSetups = 5;
constexpr int kRestores = 5;
// A move is an order of magnitude slower than a map-small-read call, so
// every 4th (not every 16th) is sampled to fill the 100 ms latency windows.
constexpr std::uint64_t kMoveStride = 4;

struct Rig {
  std::unique_ptr<stm::Domain> domain;
  std::unique_ptr<shard::MaintenanceScheduler> scheduler;
  std::unique_ptr<shard::ShardedMap> map;
  std::vector<Key> position;  // token -> key; mover (t % kMovers) owns t
};

struct alignas(64) MoverStats {
  ClientStats c;                 // checkpointing phase
  std::uint64_t baselineOps = 0;  // no-checkpoint phase
  std::uint64_t maxGapNs = 0;     // longest gap between completions while
                                  // checkpointing
};

void mover(shard::ShardedMap& map, std::vector<Key>& position, int self,
           LoopControl& ctl, const std::atomic<bool>& checkpointing,
           MoverStats& ms, SpanLog& spans, std::uint64_t seed) {
  Rng rng(seed);
  const auto mine = static_cast<std::uint64_t>(kTokens / kMovers);
  std::uint64_t prev = nowNs();
  for (std::uint64_t i = 1;; ++i) {
    const int phase = ctl.phase.load(std::memory_order_relaxed);
    if (phase == kStop) break;
    const auto tok = static_cast<std::size_t>(
        self + kMovers * static_cast<std::int64_t>(rng.nextBounded(mine)));
    const auto dst = static_cast<Key>(rng.nextBounded(kKeyspace));
    const bool moved = map.move(position[tok], dst);
    if (moved) position[tok] = dst;
    // Every call is timed as the gap since the previous completion: the
    // loop between calls is a few arithmetic operations.
    const std::uint64_t t1 = nowNs();
    const std::uint64_t lat = t1 - prev;
    prev = t1;
    if (phase != kMeasure) continue;
    if (!checkpointing.load(std::memory_order_relaxed)) {
      ++ms.baselineOps;
      continue;
    }
    const bool on = ctl.traceOn.load(std::memory_order_relaxed);
    ++ms.c.ops[on];
    ms.c.updates += moved ? 2 : 0;  // one erase + one insert
    ms.maxGapNs = std::max(ms.maxGapNs, lat);
    if (i % kMoveStride == 0) {
      ms.c.lat.add(t1, lat);
      if (on) spans.add("shard.op", 0, t1 - lat, t1);
    }
  }
}

// (key, value) image of a quiesced map.
std::vector<std::pair<Key, Value>> image(shard::ShardedMap& map) {
  std::vector<std::pair<Key, Value>> out;
  for (const Key k : map.keysInOrder()) out.emplace_back(k, *map.get(k));
  return out;
}

// True when the image holds every token exactly once.
bool tokensExact(const std::vector<std::pair<Key, Value>>& img) {
  if (static_cast<std::int64_t>(img.size()) != kTokens) return false;
  std::vector<bool> seen(static_cast<std::size_t>(kTokens), false);
  for (const auto& [k, v] : img) {
    if (v < 0 || v >= kTokens || seen[static_cast<std::size_t>(v)]) {
      return false;
    }
    seen[static_cast<std::size_t>(v)] = true;
  }
  return true;
}

// Deletes every checkpoint file in `dir` except `keep`. Only full images
// are written here, so no newer file references an older one.
void pruneExcept(const std::string& dir, const std::string& keep) {
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path() != fs::path(keep)) fs::remove(e.path(), ec);
  }
}

}  // namespace

Report runCkptMove(const Options& opt) {
  Report r;
  Tracer tracer(opt, 1 + kMovers);
  const std::string ckptDir = opt.workDir + "/ckpt";
  const std::string underLoadDir = opt.workDir + "/under-load";
  std::error_code ec;
  fs::remove_all(opt.workDir, ec);
  fs::create_directories(underLoadDir, ec);

  auto rig = timedSetups<Rig>(kSetups, r, tracer, [&] {
    auto g = std::make_unique<Rig>();
    g->domain = std::make_unique<stm::Domain>();
    g->scheduler = std::make_unique<shard::MaintenanceScheduler>();
    shard::ShardedMapConfig cfg;
    cfg.shards = 4;
    cfg.routingSlots = 64;
    cfg.scheduler = g->scheduler.get();
    cfg.domain = g->domain.get();
    g->map = std::make_unique<shard::ShardedMap>(cfg);
    g->position = levelOrder(drawKeys(kTokens, kKeyspace, opt.seed));
    for (std::size_t t = 0; t < g->position.size(); ++t) {
      g->map->insert(g->position[t], static_cast<Value>(t));
    }
    return g;
  });
  shard::ShardedMap& map = *rig->map;
  const auto trees = treesOf(map);

  LoopControl ctl;
  std::atomic<bool> checkpointing{false};
  std::vector<MoverStats> ms(kMovers);
  std::vector<std::thread> threads;
  for (int t = 0; t < kMovers; ++t) {
    ms[t].c.lat.reserve(static_cast<std::size_t>(opt.seconds * 100'000));
    threads.emplace_back(mover, std::ref(map), std::ref(rig->position), t,
                         std::ref(ctl), std::cref(checkpointing),
                         std::ref(ms[t]), std::ref(tracer.log(t + 1)),
                         opt.seed * 1000 + static_cast<std::uint64_t>(t));
  }
  GaugeMax gauges;
  const auto sleepSampling = [&](std::uint64_t until) {
    for (std::uint64_t now = nowNs(); now < until; now = nowNs()) {
      gauges.sample(trees);
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<std::uint64_t>(10'000'000, until - now)));
    }
  };

  // ---- warm-up, then the no-checkpoint baseline --------------------------
  sleepSampling(nowNs() +
                static_cast<std::uint64_t>(warmupSeconds(opt.seconds) * 1e9));
  const std::uint64_t startA = nowNs();
  ctl.phase.store(kMeasure, std::memory_order_release);
  sleepSampling(startA + static_cast<std::uint64_t>(opt.seconds / 3 * 1e9));

  // ---- back-to-back full checkpoints -------------------------------------
  const shard::ShardedMapStats before = map.aggregatedStats();
  const shard::SchedulerStats schedBefore = rig->scheduler->stats();
  ckpt::CheckpointConfig cc;
  cc.dir = ckptDir;
  ckpt::CheckpointWriter writer(map, cc);
  Window w;
  w.startNs = nowNs();
  checkpointing.store(true, std::memory_order_release);
  const double secondsA = static_cast<double>(w.startNs - startA) / 1e9;
  const std::uint64_t endB =
      startA + static_cast<std::uint64_t>(opt.seconds * 1e9);
  std::vector<double> fullS;
  std::vector<double> streamMs;
  std::vector<double> writeMs;
  double rounds = 0;
  double forced = 0;
  std::uint64_t calls = 0;
  bool on = false;
  std::uint64_t sliceStart = w.startNs;
  const auto closeSlice = [&](std::uint64_t now) {
    (on ? w.tracedNs : w.untracedNs) += now - sliceStart;
    sliceStart = now;
  };
  for (std::uint64_t now = nowNs(); now < endB; now = nowNs()) {
    if (opt.traced() && now - sliceStart >= kTraceSliceNs) {
      closeSlice(now);
      on = !on;
      ctl.traceOn.store(on, std::memory_order_relaxed);
    }
    const std::uint64_t t0 = nowNs();
    const ckpt::CheckpointResult res = writer.full();
    const std::uint64_t t1 = nowNs();
    ++calls;
    tracer.log(0).add("ckpt.full", 0, t0, t1);
    if (!res.ok) {
      ++r.failed;
      continue;
    }
    fullS.push_back(static_cast<double>(t1 - t0) / 1e9);
    streamMs.push_back(static_cast<double>(res.streamNs) / 1e6);
    writeMs.push_back(static_cast<double>(res.writeNs) / 1e6);
    rounds += res.rounds;
    forced += res.forcedCut ? 1 : 0;
    if (fullS.size() == 1) {
      fs::copy_file(res.path,
                    fs::path(underLoadDir) / fs::path(res.path).filename(),
                    ec);
    }
    pruneExcept(ckptDir, res.path);
    gauges.sample(trees);
  }
  w.endNs = nowNs();
  closeSlice(w.endNs);
  const shard::ShardedMapStats after = map.aggregatedStats();
  const shard::SchedulerStats schedAfter = rig->scheduler->stats();
  ctl.phase.store(kStop, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  std::vector<ClientStats> cs;
  double baselineOps = 0;
  std::uint64_t maxGapNs = 0;
  for (MoverStats& m : ms) {
    baselineOps += static_cast<double>(m.baselineOps);
    maxGapNs = std::max(maxGapNs, m.maxGapNs);
    cs.push_back(std::move(m.c));
  }
  const ClientTotals tot = totals(cs);
  emitClosedLoop(r, cs, w);
  r.info["checkpoints"] = static_cast<double>(calls);
  const double n = static_cast<double>(fullS.size());
  r.layer["ckpt.full_s"] = median(fullS);
  r.layer["ckpt.stream_ms_p50"] = median(streamMs);
  r.layer["ckpt.write_ms_p50"] = median(writeMs);
  r.layer["ckpt.rounds_mean"] = n > 0 ? rounds / n : 0.0;
  r.layer["ckpt.forced_cut_frac"] = n > 0 ? forced / n : 0.0;
  r.layer["ckpt.writer_stall_ms_max"] = static_cast<double>(maxGapNs) / 1e6;
  r.layer["ckpt.writer_dip"] =
      baselineOps > 0 ? r.e2e["tput_ops_s"] / (baselineOps / secondsA) : 0.0;

  emitShard(r, before, after, schedBefore, schedAfter, tot.ops, w.seconds());
  emitStm(r, before.stm, after.stm, tot.ops);
  emitMaintenance(r, before.maintenance, after.maintenance, tot.updates,
                  static_cast<double>(w.endNs - w.startNs));
  gauges.emit(r);
  emitArenaAndHeight(r, trees, map.height());

  // ---- quiesced checkpoint, restores, correctness -------------------------
  const std::vector<std::pair<Key, Value>> live = image(map);
  bool positionsMatch = tokensExact(live);
  for (std::size_t t = 0; positionsMatch && t < rig->position.size(); ++t) {
    const auto v = map.get(rig->position[t]);
    positionsMatch = v && *v == static_cast<Value>(t);
  }
  r.check("live_tokens_conserved", positionsMatch);

  const ckpt::CheckpointResult fin = writer.full();
  ++calls;
  if (!fin.ok) ++r.failed;
  r.check("final_checkpoint_ok", fin.ok, fin.error);
  r.layer["ckpt.bytes_per_key"] =
      fin.keys > 0 ? static_cast<double>(fin.bytesWritten) /
                         static_cast<double>(fin.keys)
                   : 0.0;
  if (fin.ok) pruneExcept(ckptDir, fin.path);

  ckpt::RestoreOptions ro;
  ro.mapConfig.scheduler = rig->scheduler.get();
  ro.parallelism = 3;  // + the scheduler worker = 4 busy threads
  std::vector<double> restoreS;
  bool restoredEqual = true;
  for (int i = 0; i < kRestores; ++i) {
    ckpt::RestoreReport rep;
    const std::uint64_t t0 = nowNs();
    std::unique_ptr<shard::ShardedMap> m = ckpt::restore(ckptDir, ro, rep);
    const std::uint64_t t1 = nowNs();
    ++calls;
    tracer.log(0).add("ckpt.restore", 0, t0, t1);
    if (m == nullptr || !rep.ok) {
      ++r.failed;
      restoredEqual = false;
      continue;
    }
    restoreS.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (i == 0) {
      restoredEqual = restoredEqual && image(*m) == live;
    } else {
      restoredEqual = restoredEqual && m->size() == live.size();
    }
  }
  r.check("final_checkpoint_restores_live_map", restoredEqual);
  r.layer["ckpt.restore_s"] = median(restoreS);
  r.layer["ckpt.restore_keys_per_s"] =
      restoreS.empty() ? 0.0
                       : static_cast<double>(kTokens) / median(restoreS);

  {
    ckpt::RestoreReport rep;
    std::unique_ptr<shard::ShardedMap> m =
        ckpt::restore(underLoadDir, ro, rep);
    ++calls;
    if (m == nullptr) ++r.failed;
    r.check("under_load_checkpoint_restores_every_token",
            m != nullptr && tokensExact(image(*m)), rep.error);
  }
  r.attempted = static_cast<std::uint64_t>(tot.ops + baselineOps) + calls;
  checkAbortPartition(r, map.aggregatedStats().stm);
  map.quiesce();
  checkTrees(r, trees);
  fs::remove_all(opt.workDir, ec);
  std::string err;
  if (!tracer.write(opt, err)) r.check("trace_written", false, err);
  return r;
}

}  // namespace sfbench
