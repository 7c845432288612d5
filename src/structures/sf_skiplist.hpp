// A speculation-friendly skip list — the paper's future-work direction
// ("the next challenge is to adapt this technique to a large body of data
// structures to derive a speculation-friendly library", §7) applied to the
// second structure synchrobench ships.
//
// Skip lists are probabilistically balanced, so only the *deletion*
// decoupling of §3.2 applies: erase() flips a logical-deletion flag in a
// tiny transaction; background maintenance passes physically unlink
// deleted towers in node-local transactions and reclaim them through the
// same §3.4 quiescence protocol as the tree.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "gc/limbo_list.hpp"
#include "mem/arena.hpp"
#include "shard/maintenance_scheduler.hpp"
#include "stm/stm.hpp"
#include "trees/key.hpp"

namespace sftree::structures {

struct SkipListConfig {
  // Start the background driver at construction; false = the owner runs
  // runMaintenancePass()/quiesceNow() by hand.
  bool startMaintenance = true;
  // STM clock domain; null selects the process default.
  stm::Domain* domain = nullptr;
};

class SFSkipList {
 public:
  static constexpr int kMaxLevel = 16;

  struct Node {
    const sftree::Key key;
    stm::TxField<sftree::Value> value;
    stm::TxField<bool> deleted;  // logical deletion (abstract transaction)
    stm::TxField<bool> removed;  // physically unlinked (maintenance)
    const int level;             // tower height, 1..kMaxLevel
    stm::TxField<Node*> next[kMaxLevel];

    Node(sftree::Key k, sftree::Value v, int lvl)
        : key(k), value(v), level(lvl) {}
  };

  using Config = SkipListConfig;

  explicit SFSkipList(Config cfg = {});
  ~SFSkipList();

  SFSkipList(const SFSkipList&) = delete;
  SFSkipList& operator=(const SFSkipList&) = delete;

  // --- abstract operations (thread-safe, transactional, composable) --------
  bool insert(sftree::Key k, sftree::Value v);
  bool erase(sftree::Key k);
  bool contains(sftree::Key k);
  std::optional<sftree::Value> get(sftree::Key k);

  bool insertTx(stm::Tx& tx, sftree::Key k, sftree::Value v);
  bool eraseTx(stm::Tx& tx, sftree::Key k);
  bool containsTx(stm::Tx& tx, sftree::Key k);
  std::optional<sftree::Value> getTx(stm::Tx& tx, sftree::Key k);

  // --- maintenance -----------------------------------------------------------
  // The background driver: a one-worker scheduler the list owns
  // (shard::dedicatedRotatorConfig). Stopping cancels an in-flight pass.
  void startMaintenance();
  void stopMaintenance();
  bool maintenanceRunning() const { return driver_ != nullptr; }
  // One unlink pass on the calling thread (the scheduler's per-pass work);
  // true when it unlinked a tower. By hand only while maintenance is stopped.
  bool runMaintenancePass(const std::atomic<bool>* cancel = nullptr);
  // Runs unlink passes on the calling thread until nothing changes
  // (maintenance must be stopped).
  int quiesceNow(int maxPasses = 100);

  std::uint64_t unlinksForTest() const {
    return unlinks_.load(std::memory_order_relaxed);
  }
  std::size_t limboPending() const { return limbo_.pending(); }

  // --- quiesced introspection ------------------------------------------------
  std::size_t abstractSize();    // non-deleted reachable keys
  std::size_t structuralSize();  // reachable towers
  std::vector<sftree::Key> keysInOrder();

  stm::Domain& domain() const { return domain_; }

 private:
  // Fills preds/succs per level for key k; returns the node with key k
  // (still linked at level 0) or nullptr.
  Node* findTx(stm::Tx& tx, sftree::Key k, Node* preds[kMaxLevel],
               Node* succs[kMaxLevel]) const;

  int randomLevel();
  bool tryUnlink(Node* node);

  static void deleteNode(void* p) { mem::NodeArena<Node>::destroy(p); }

  // Declared before the limbo list so retired towers can recycle into it
  // during destruction.
  mem::NodeArena<Node> arena_;
  Node* head_;  // sentinel tower of full height, key = min
  std::atomic<std::uint64_t> rngState_{0x853C49E6748FEA9BULL};
  std::atomic<std::uint64_t> unlinks_{0};

  Config cfg_;
  stm::Domain& domain_;
  gc::LimboList limbo_;
  // Declared last: its worker runs passes over everything above.
  std::unique_ptr<shard::MaintenanceScheduler> driver_;
};

}  // namespace sftree::structures
