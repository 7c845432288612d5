#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>

#include "obs/clock.hpp"
#include "stm/stm.hpp"

namespace sftree::ckpt {

namespace fs = std::filesystem;

namespace {

using KV = trees::SFTree::ExtractedKV;

std::string pathForId(const std::string& dir, std::uint64_t id) {
  return dir + "/ckpt-" + std::to_string(id) + ".sfc";
}

// Parse "ckpt-<id>.sfc" -> id.
std::optional<std::uint64_t> idFromName(const std::string& name) {
  const std::string pre = "ckpt-";
  const std::string suf = ".sfc";
  if (name.size() <= pre.size() + suf.size()) return std::nullopt;
  if (name.compare(0, pre.size(), pre) != 0) return std::nullopt;
  if (name.compare(name.size() - suf.size(), suf.size(), suf) != 0) {
    return std::nullopt;
  }
  std::uint64_t id = 0;
  for (std::size_t i = pre.size(); i < name.size() - suf.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    id = id * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return id;
}

// Checkpoint ids present in `dir`, newest first. `maxAnyId` additionally
// tracks temp files, so a writer never reuses the id of a half-written
// file a dead predecessor left behind.
std::vector<std::uint64_t> listIds(const std::string& dir,
                                   std::uint64_t* maxAnyId = nullptr) {
  std::vector<std::uint64_t> ids;
  std::error_code ec;
  for (const auto& ent : fs::directory_iterator(dir, ec)) {
    std::string name = ent.path().filename().string();
    const bool tmp = name.size() > 4 &&
                     name.compare(name.size() - 4, 4, ".tmp") == 0;
    if (tmp) name = name.substr(0, name.size() - 4);
    const auto id = idFromName(name);
    if (!id) continue;
    if (maxAnyId != nullptr) *maxAnyId = std::max(*maxAnyId, *id);
    if (!tmp) ids.push_back(*id);
  }
  std::sort(ids.rbegin(), ids.rend());
  return ids;
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// Open-file cache for cross-file incremental references.
struct FileCache {
  std::string dir;
  std::map<std::uint64_t, FilePtr> open;

  std::FILE* get(std::uint64_t id) {
    auto it = open.find(id);
    if (it != open.end()) return it->second.get();
    FilePtr f(std::fopen(pathForId(dir, id).c_str(), "rb"));
    std::FILE* raw = f.get();
    open.emplace(id, std::move(f));
    return raw;
  }
};

// Read + validate one segment; when `out` is non-null, append the decoded
// pairs. Returns false on any structural or checksum mismatch.
bool readSegment(std::FILE* f, std::uint64_t offset, std::uint32_t expectSlot,
                 std::uint64_t expectCount, std::vector<KV>* out) {
  if (f == nullptr) return false;
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) return false;
  unsigned char hdr[kSegmentHeaderBytes];
  if (std::fread(hdr, 1, sizeof hdr, f) != sizeof hdr) return false;
  ByteReader r(hdr, sizeof hdr);
  SegmentHeader sh;
  if (!sh.parse(r)) return false;
  if (sh.slot != expectSlot || sh.count != expectCount) return false;
  std::vector<unsigned char> payload(sh.payloadBytes);
  if (!payload.empty() &&
      std::fread(payload.data(), 1, payload.size(), f) != payload.size()) {
    return false;
  }
  if (crc32(payload.data(), payload.size()) != sh.payloadCrc) return false;
  if (out != nullptr) {
    ByteReader pr(payload.data(), payload.size());
    for (std::uint64_t i = 0; i < sh.count; ++i) {
      KV kv;
      kv.key = pr.getI64();
      kv.value = pr.getI64();
      out->push_back(kv);
    }
    if (!pr.ok) return false;
  }
  return true;
}

// Footer-first manifest load. Rejects torn files (SIGKILL mid-write, bad
// rename timing) without touching segment payloads.
bool loadManifest(const std::string& path, std::uint64_t expectId,
                  Manifest& m) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return false;
  if (std::fseek(f.get(), 0, SEEK_END) != 0) return false;
  const long size = std::ftell(f.get());
  if (size < static_cast<long>(kFileHeaderBytes + kFooterBytes)) return false;
  unsigned char fbytes[kFooterBytes];
  if (std::fseek(f.get(), size - static_cast<long>(kFooterBytes), SEEK_SET) !=
      0) {
    return false;
  }
  if (std::fread(fbytes, 1, sizeof fbytes, f.get()) != sizeof fbytes) {
    return false;
  }
  ByteReader fr(fbytes, sizeof fbytes);
  Footer foot;
  if (!foot.parse(fr)) return false;
  if (foot.manifestOffset + foot.manifestLen + kFooterBytes !=
      static_cast<std::uint64_t>(size)) {
    return false;
  }
  std::vector<unsigned char> mbytes(foot.manifestLen);
  if (std::fseek(f.get(), static_cast<long>(foot.manifestOffset), SEEK_SET) !=
      0) {
    return false;
  }
  if (std::fread(mbytes.data(), 1, mbytes.size(), f.get()) != mbytes.size()) {
    return false;
  }
  if (crc32(mbytes.data(), mbytes.size()) != foot.manifestCrc) return false;
  ByteReader mr(mbytes.data(), mbytes.size());
  if (!m.parse(mr)) return false;
  if (m.fileId != expectId) return false;
  // Header sanity (catches a manifest pasted into the wrong file).
  unsigned char hbytes[kFileHeaderBytes];
  if (std::fseek(f.get(), 0, SEEK_SET) != 0) return false;
  if (std::fread(hbytes, 1, sizeof hbytes, f.get()) != sizeof hbytes) {
    return false;
  }
  ByteReader hr(hbytes, sizeof hbytes);
  FileHeader head;
  if (!head.parse(hr)) return false;
  return head.fileId == expectId && head.routingSlots == m.routingSlots;
}

// Deep validation: every referenced segment (across files), payloads
// checksummed; optionally decode them into `slotKvs`.
bool verifyManifestSegments(const std::string& dir, const Manifest& m,
                            std::vector<std::vector<KV>>* slotKvs) {
  FileCache cache{dir, {}};
  if (slotKvs != nullptr) slotKvs->assign(m.routingSlots, {});
  for (const ManifestEntry& e : m.slots) {
    if (e.slot >= m.routingSlots) return false;
    std::vector<KV>* out =
        slotKvs != nullptr ? &(*slotKvs)[e.slot] : nullptr;
    if (!readSegment(cache.get(e.fileId), e.offset, e.slot, e.count, out)) {
      return false;
    }
  }
  return true;
}

std::uint64_t wallNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// CheckpointWriter
// ---------------------------------------------------------------------------
CheckpointWriter::CheckpointWriter(shard::ShardedMap& map, CheckpointConfig cfg)
    : map_(map), cfg_(std::move(cfg)) {}

CheckpointResult CheckpointWriter::full() { return write(false); }

CheckpointResult CheckpointWriter::incremental() { return write(true); }

CheckpointResult CheckpointWriter::write(bool allowReuse) {
  CheckpointResult res;
  std::error_code ec;
  fs::create_directories(cfg_.dir, ec);

  std::uint64_t maxAnyId = 0;
  const std::vector<std::uint64_t> ids = listIds(cfg_.dir, &maxAnyId);
  if (!parentScanned_) {
    parentScanned_ = true;
    // Adopt the newest fully-valid checkpoint on disk as the incremental
    // parent (deep verify once; later writes trust the manifest they just
    // produced). Torn predecessors are skipped.
    for (const std::uint64_t id : ids) {
      Manifest m;
      if (loadManifest(pathForId(cfg_.dir, id), id, m) &&
          verifyManifestSegments(cfg_.dir, m, nullptr)) {
        parent_ = std::move(m);
        break;
      }
    }
  }

  const auto S = static_cast<std::size_t>(map_.routingSlots());
  const bool reuse = allowReuse && parent_.has_value() &&
                     parent_->routingSlots == static_cast<std::uint32_t>(S);
  std::vector<std::uint64_t> baseline;
  if (reuse) {
    baseline.assign(S, kTickUnknown);
    for (const ManifestEntry& e : parent_->slots) {
      baseline[e.slot] = e.writeTick;
    }
  }

  const std::uint64_t t0 = obs::tick();
  SnapshotCursor cursor(map_, cfg_.snapshot);
  SnapshotResult snap = cursor.capture(baseline);
  res.streamNs = obs::ticksToNs(obs::tick() - t0);
  res.rounds = snap.rounds;
  res.forcedCut = snap.forcedCut;
  if (!snap.ok) {
    res.error = "snapshot capture failed";
    return res;
  }

  const std::uint64_t tw = obs::tick();
  const std::uint64_t id = std::max(maxAnyId, parent_ ? parent_->fileId : 0) + 1;
  const std::string finalPath = pathForId(cfg_.dir, id);
  const std::string tmpPath = finalPath + ".tmp";
  FilePtr f(std::fopen(tmpPath.c_str(), "wb"));
  if (f == nullptr) {
    res.error = "cannot open " + tmpPath;
    return res;
  }

  Manifest m;
  m.fileId = id;
  m.parentId = reuse ? parent_->fileId : 0;
  m.routingSlots = static_cast<std::uint32_t>(S);
  m.shardCount = static_cast<std::uint32_t>(snap.shardCount);
  m.forcedCut = snap.forcedCut ? 1 : 0;
  m.rounds = static_cast<std::uint32_t>(snap.rounds);
  m.cutStamps = snap.cutStamps;
  m.slots.resize(S);

  ByteBuf headBuf;
  FileHeader head;
  head.routingSlots = m.routingSlots;
  head.fileId = id;
  head.parentId = m.parentId;
  head.shardCount = m.shardCount;
  head.createdNs = wallNs();
  head.serialize(headBuf);
  if (std::fwrite(headBuf.data(), 1, headBuf.size(), f.get()) !=
      headBuf.size()) {
    res.error = "short write (header)";
    return res;
  }
  std::uint64_t offset = headBuf.size();
  res.bytesWritten = headBuf.size();

  int freshWritten = 0;
  for (std::size_t s = 0; s < S; ++s) {
    const SlotImage& img = snap.slots[s];
    ManifestEntry& e = m.slots[s];
    e.slot = static_cast<std::uint32_t>(s);
    e.ownerShard = s < snap.slotOwners.size() ? snap.slotOwners[s] : -1;
    e.writeTick = img.writeTick;
    if (!img.fresh) {
      // Certified clean against the parent cut: reference the originating
      // file's segment directly (parent entries are already flattened).
      const ManifestEntry& pe = parent_->slots[s];
      e.fileId = pe.fileId;
      e.offset = pe.offset;
      e.count = pe.count;
      e.writeTick = pe.writeTick;
      ++res.reusedSegments;
      m.keys += pe.count;
      continue;
    }
    ByteBuf seg;
    ByteBuf payload;
    for (const KV& kv : img.kvs) {
      payload.putI64(kv.key);
      payload.putI64(kv.value);
    }
    SegmentHeader sh;
    sh.slot = static_cast<std::uint32_t>(s);
    sh.count = img.kvs.size();
    sh.payloadBytes = payload.size();
    sh.payloadCrc = payload.crc();
    sh.serialize(seg);
    if (std::fwrite(seg.data(), 1, seg.size(), f.get()) != seg.size() ||
        (!payload.bytes.empty() &&
         std::fwrite(payload.data(), 1, payload.size(), f.get()) !=
             payload.size())) {
      res.error = "short write (segment)";
      return res;
    }
    e.fileId = id;
    e.offset = offset;
    e.count = sh.count;
    offset += seg.size() + payload.size();
    res.bytesWritten += seg.size() + payload.size();
    m.keys += sh.count;
    ++res.freshSegments;
    ++freshWritten;
    if (cfg_.killAfterSegments >= 0 && freshWritten >= cfg_.killAfterSegments) {
      // Crash-injection hook: die with the temp file flushed but no footer
      // and no rename — restore must fall back to the previous checkpoint.
      std::fflush(f.get());
      std::raise(SIGKILL);
    }
  }

  ByteBuf manBuf;
  m.serialize(manBuf);
  Footer foot;
  foot.manifestOffset = offset;
  foot.manifestLen = manBuf.size();
  foot.manifestCrc = crc32(manBuf.data(), manBuf.size());
  ByteBuf footBuf;
  foot.serialize(footBuf);
  if (std::fwrite(manBuf.data(), 1, manBuf.size(), f.get()) != manBuf.size() ||
      std::fwrite(footBuf.data(), 1, footBuf.size(), f.get()) !=
          footBuf.size()) {
    res.error = "short write (manifest)";
    return res;
  }
  res.bytesWritten += manBuf.size() + footBuf.size();
  std::fflush(f.get());
  f.reset();  // close before rename
  fs::rename(tmpPath, finalPath, ec);
  if (ec) {
    res.error = "rename failed: " + ec.message();
    return res;
  }

  res.ok = true;
  res.fileId = id;
  res.path = finalPath;
  res.keys = m.keys;
  res.segments = m.slots.size();
  res.writeNs = obs::ticksToNs(obs::tick() - tw);
  parent_ = std::move(m);
  ++totalCheckpoints_;
  totalKeys_ += res.keys;
  totalBytes_ += res.bytesWritten;
  totalForcedCuts_ += res.forcedCut ? 1 : 0;
  totalReusedSegments_ += res.reusedSegments;
  return res;
}

obs::MetricsRegistry::Registration CheckpointWriter::registerMetrics(
    obs::MetricsRegistry& reg, std::string prefix) {
  return reg.add(std::move(prefix), [this](obs::MetricSink& out) {
    out.counter("checkpoints", totalCheckpoints_);
    out.counter("keys", totalKeys_);
    out.counter("bytes", totalBytes_);
    out.counter("forced_cuts", totalForcedCuts_);
    out.counter("reused_segments", totalReusedSegments_);
  });
}

// ---------------------------------------------------------------------------
// Restore / verify
// ---------------------------------------------------------------------------
std::optional<std::uint64_t> newestValidCheckpoint(const std::string& dir,
                                                   int* badFiles) {
  if (badFiles != nullptr) *badFiles = 0;
  for (const std::uint64_t id : listIds(dir)) {
    Manifest m;
    if (loadManifest(pathForId(dir, id), id, m) &&
        verifyManifestSegments(dir, m, nullptr)) {
      return id;
    }
    if (badFiles != nullptr) ++*badFiles;
  }
  return std::nullopt;
}

std::unique_ptr<shard::ShardedMap> restore(const std::string& dir,
                                           const RestoreOptions& opt,
                                           RestoreReport& report) {
  report = RestoreReport{};
  const std::uint64_t t0 = obs::tick();

  // Newest fully-valid checkpoint wins; torn/corrupt newer files are the
  // SIGKILL fallback path and just get skipped.
  Manifest m;
  bool found = false;
  for (const std::uint64_t id : listIds(dir)) {
    Manifest cand;
    if (loadManifest(pathForId(dir, id), id, cand)) {
      m = std::move(cand);
      found = true;
      break;
    }
    ++report.skippedFiles;
  }
  if (!found) {
    report.error = "no valid checkpoint in " + dir;
    return nullptr;
  }

  // Decode every referenced segment (cross-file for incrementals), with
  // full checksum validation — a corrupt segment rejects the whole file
  // and we retry older ones.
  std::vector<std::vector<KV>> slotKvs;
  while (!verifyManifestSegments(dir, m, &slotKvs)) {
    ++report.skippedFiles;
    const std::uint64_t bad = m.fileId;
    found = false;
    for (const std::uint64_t id : listIds(dir)) {
      if (id >= bad) continue;
      Manifest cand;
      if (loadManifest(pathForId(dir, id), id, cand)) {
        m = std::move(cand);
        found = true;
        break;
      }
      ++report.skippedFiles;
    }
    if (!found) {
      report.error = "no valid checkpoint in " + dir;
      return nullptr;
    }
  }

  // Rebuild the checkpointed topology: same slot count, same slot->shard
  // layout when the manifest's owners are usable (contiguous fallback).
  const auto S = static_cast<std::size_t>(m.routingSlots);
  const int shards = std::max(1, static_cast<int>(m.shardCount));
  std::vector<int> assign(S, 0);
  bool ownersOk = true;
  for (const ManifestEntry& e : m.slots) {
    if (e.ownerShard < 0 || e.ownerShard >= shards) {
      ownersOk = false;
      break;
    }
    assign[e.slot] = e.ownerShard;
  }
  if (!ownersOk) {
    for (std::size_t s = 0; s < S; ++s) {
      assign[s] = static_cast<int>(s * static_cast<std::size_t>(shards) / S);
    }
  }

  shard::ShardedMapConfig cfg = opt.mapConfig;
  cfg.shards = shards;
  cfg.routingSlots = static_cast<int>(S);
  cfg.initialSlotAssignment = assign;
  // The constructor re-registers every shard with cfg.scheduler.
  auto map = std::make_unique<shard::ShardedMap>(std::move(cfg));

  // Parallel bulk load: shards are independent trees, one loader thread
  // each (capped), adopting in batched transactions through the same path
  // migration uses — size estimates settle exactly.
  std::vector<std::vector<int>> shardSlots(static_cast<std::size_t>(shards));
  for (std::size_t s = 0; s < S; ++s) {
    shardSlots[static_cast<std::size_t>(assign[s])].push_back(
        static_cast<int>(s));
  }
  constexpr std::size_t kBatchKeys = 512;  // keys per adopt transaction
  unsigned p = opt.parallelism > 0
                   ? static_cast<unsigned>(opt.parallelism)
                   : std::max(1u, std::thread::hardware_concurrency());
  p = std::min<unsigned>(p, static_cast<unsigned>(shards));
  std::atomic<int> nextShard{0};
  std::atomic<std::uint64_t> adoptedTotal{0};
  std::atomic<bool> failed{false};
  const auto loader = [&] {
    for (;;) {
      const int i = nextShard.fetch_add(1, std::memory_order_relaxed);
      if (i >= shards || failed.load(std::memory_order_relaxed)) return;
      trees::SFTree& tree = map->shard(i);
      for (const int slot : shardSlots[static_cast<std::size_t>(i)]) {
        const std::vector<KV>& kvl = slotKvs[static_cast<std::size_t>(slot)];
        for (std::size_t off = 0; off < kvl.size(); off += kBatchKeys) {
          const std::size_t n = std::min(kBatchKeys, kvl.size() - off);
          const std::size_t adopted = stm::atomically(
              tree.domain(), stm::TxKind::Normal, [&](stm::Tx& tx) {
                return tree.adoptRangeTx(tx, kvl.data() + off, n);
              });
          if (adopted != n) {
            // Duplicate key in the image: certification broke somewhere.
            failed.store(true, std::memory_order_relaxed);
            return;
          }
          adoptedTotal.fetch_add(adopted, std::memory_order_relaxed);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(p);
  for (unsigned i = 0; i < p; ++i) threads.emplace_back(loader);
  for (std::thread& t : threads) t.join();
  if (failed.load() || adoptedTotal.load() != m.keys) {
    report.error = "restore adopted " + std::to_string(adoptedTotal.load()) +
                   " keys, manifest has " + std::to_string(m.keys);
    return nullptr;
  }

  report.ok = true;
  report.fileId = m.fileId;
  report.path = pathForId(dir, m.fileId);
  report.keys = m.keys;
  report.shards = shards;
  report.routingSlots = static_cast<int>(S);
  report.restoreNs = obs::ticksToNs(obs::tick() - t0);
  return map;
}

}  // namespace sftree::ckpt
