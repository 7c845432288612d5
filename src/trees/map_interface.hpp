// Type-erased transactional map interface: lets the benchmark harness, the
// vacation application and the tests swap tree implementations (the paper's
// RBtree / AVLtree / SFtree / Opt-SFtree / NRtree) behind one API.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stm/stm.hpp"
#include "trees/key.hpp"

namespace sftree::shard {
class MaintenanceScheduler;
}

namespace sftree::trees {

class ITransactionalMap {
 public:
  virtual ~ITransactionalMap() = default;

  // Self-contained operations (each runs its own transaction, or joins an
  // enclosing one by flat nesting).
  virtual bool insert(Key k, Value v) = 0;
  virtual bool erase(Key k) = 0;
  virtual bool contains(Key k) = 0;
  virtual std::optional<Value> get(Key k) = 0;
  virtual bool move(Key from, Key to) = 0;

  // Transaction-composable variants for building larger atomic operations
  // (used by the vacation application).
  virtual bool insertTx(stm::Tx& tx, Key k, Value v) = 0;
  virtual bool eraseTx(stm::Tx& tx, Key k) = 0;
  virtual bool containsTx(stm::Tx& tx, Key k) = 0;
  virtual std::optional<Value> getTx(stm::Tx& tx, Key k) = 0;

  // Transactional range count over [lo, hi] — the kind of composed
  // operation the paper notes is impossible to retrofit onto trees that
  // sidestep TM bookkeeping (§6, the Bronson et al. size() discussion).
  // Consistent snapshot semantics: composes with other operations.
  virtual std::size_t countRangeTx(stm::Tx& tx, Key lo, Key hi) = 0;
  virtual std::size_t countRange(Key lo, Key hi) {
    // ReadOnly hint: zero-logging snapshot reads; a write in an override's
    // body would transparently promote, so this is always safe.
    return stm::atomically(
        stm::TxKind::ReadOnly,
        [&](stm::Tx& tx) { return countRangeTx(tx, lo, hi); });
  }
  // Transactional size: a snapshot cardinality of the whole set.
  virtual std::size_t sizeTx(stm::Tx& tx) {
    return countRangeTx(tx, std::numeric_limits<Key>::min(),
                        kInfiniteKey - 1);
  }

  // Quiesced introspection (no concurrent operations).
  virtual std::size_t size() = 0;
  virtual int height() = 0;
  virtual std::vector<Key> keysInOrder() = 0;

  // Blocks until background restructuring (if any) has settled; no-op for
  // trees without background maintenance.
  virtual void quiesce() {}
};

// The tree configurations evaluated in the paper.
enum class MapKind {
  SFTree,     // speculation-friendly tree, portable ops (Algorithm 1)
  OptSFTree,  // speculation-friendly tree, optimized ops (Algorithm 2)
  NRTree,     // no-restructuring baseline (no rotations, no removal)
  RBTree,     // transactional red-black tree (Oracle/STAMP baseline)
  AVLTree,    // transactional AVL tree (STAMP baseline)
  // NOT thread-safe: a plain std::map with no synchronization, used as the
  // "bare sequential code" baseline of the paper's Figure 6 speedups.
  // Single-threaded use only; excluded from allMapKinds().
  SeqSTL,
};

const char* mapKindName(MapKind kind);
// The five concurrent trees (excludes the sequential baseline).
std::vector<MapKind> allMapKinds();

// Extra construction knobs.
struct MapOptions {
  // STM clock domain the map's transactions run against; null selects the
  // process default (ignored by the sequential baseline).
  stm::Domain* domain = nullptr;
  // Maintenance driver for the trees that restructure (SFtree, Opt-SFtree;
  // ignored elsewhere). Null: the tree runs on a one-worker scheduler of
  // its own, the paper's dedicated rotator. Set: the tree attaches to this
  // shared pool instead (SFTree::maintainWith); not owned, must outlive
  // the map.
  shard::MaintenanceScheduler* scheduler = nullptr;
  // Name for the scheduler entry (diagnostics: MaintenanceScheduler::
  // treeStats). Defaults to the map kind's name.
  std::string name;
};

// Factory. `txKind` selects the TM mode the tree's operations use
// (Normal == TinySTM-style opaque transactions, Elastic == E-STM).
std::unique_ptr<ITransactionalMap> makeMap(
    MapKind kind, stm::TxKind txKind = stm::TxKind::Normal,
    const MapOptions& options = {});

}  // namespace sftree::trees
