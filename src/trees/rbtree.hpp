// Transaction-based red-black tree — the paper's primary baseline.
//
// This is the classical algorithm used by the Oracle Labs / STAMP library
// the paper evaluates against: a CLRS-style red-black tree with parent
// pointers and *no sentinel nodes* (the paper notes the STAMP version
// removed sentinels to avoid false conflicts). Every operation — the
// abstraction change, the structural adaptation, the threshold check and
// the rebalancing — runs inside one transaction, which is precisely the
// tight coupling the speculation-friendly tree removes.
//
// Unlinked nodes are reclaimed through the same quiescence scheme as the
// SF tree (process-wide registry + limbo list), amortized over erase calls.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "gc/limbo_list.hpp"
#include "mem/arena.hpp"
#include "stm/stm.hpp"
#include "trees/key.hpp"

namespace sftree::trees {

enum class RBColor : std::uint8_t { Red, Black };

struct RBNode {
  const Key key;
  stm::TxField<Value> value;
  stm::TxField<RBNode*> left;
  stm::TxField<RBNode*> right;
  stm::TxField<RBNode*> parent;
  stm::TxField<RBColor> color;

  RBNode(Key k, Value v) : key(k), value(v), color(RBColor::Red) {}
};

struct RBTreeConfig {
  // Elastic kind applies to read-only operations (contains/get) only;
  // updates always run as normal transactions. (E-STM cut semantics are
  // unsafe for a structure whose delete physically transplants nodes; see
  // DESIGN.md.)
  stm::TxKind txKind = stm::TxKind::Normal;
  // STM clock domain; null selects the process default.
  stm::Domain* domain = nullptr;
};

class RBTree {
 public:
  explicit RBTree(RBTreeConfig cfg = {});
  ~RBTree();

  RBTree(const RBTree&) = delete;
  RBTree& operator=(const RBTree&) = delete;

  bool insert(Key k, Value v);
  bool erase(Key k);
  bool contains(Key k);
  std::optional<Value> get(Key k);
  bool move(Key from, Key to);

  bool insertTx(stm::Tx& tx, Key k, Value v);
  bool eraseTx(stm::Tx& tx, Key k);
  bool containsTx(stm::Tx& tx, Key k);
  std::optional<Value> getTx(stm::Tx& tx, Key k);
  // Snapshot count of keys in [lo, hi] (composable).
  std::size_t countRangeTx(stm::Tx& tx, Key lo, Key hi);
  std::size_t countRange(Key lo, Key hi);

  // Quiesced introspection (no concurrent operations).
  std::size_t size();
  int height();
  std::vector<Key> keysInOrder();
  stm::Domain& domain() const { return domain_; }
  RBNode* rootForTest() { return root_.loadRelaxed(); }

 private:
  RBNode* searchTx(stm::Tx& tx, Key k);

  void leftRotate(stm::Tx& tx, RBNode* x);
  void rightRotate(stm::Tx& tx, RBNode* x);
  void insertFixup(stm::Tx& tx, RBNode* z);
  // v replaces the subtree rooted at u.
  void transplant(stm::Tx& tx, RBNode* u, RBNode* v);
  void eraseFixup(stm::Tx& tx, RBNode* x, RBNode* xParent);

  void retireNode(RBNode* n);
  static void deleteNode(void* p) { mem::NodeArena<RBNode>::destroy(p); }
  // Read-only operations run elastic when configured, zero-logging
  // ReadOnly otherwise.
  stm::TxKind readTxKind() const {
    return cfg_.txKind == stm::TxKind::Elastic ? stm::TxKind::Elastic
                                               : stm::TxKind::ReadOnly;
  }

  RBTreeConfig cfg_;
  stm::Domain& domain_;
  // Declared before the limbo list so retired nodes can recycle into it
  // during destruction.
  mem::NodeArena<RBNode> arena_;
  stm::TxField<RBNode*> root_{nullptr};

  std::mutex limboMu_;
  gc::LimboList limbo_;
  std::uint64_t retireTick_ = 0;
};

}  // namespace sftree::trees
