// Transaction-based AVL tree — the paper's second baseline (STAMP's AVL).
//
// Update operations rebalance *inside the same transaction* that modifies
// the abstraction, walking back up the insertion/deletion path and rotating
// wherever the balance factor leaves {-1, 0, +1}. Heights are transactional
// fields: they are part of what commits atomically, which is exactly the
// tight coupling whose cost the paper measures.
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

struct AVLNode {
  const Key key;
  stm::TxField<Value> value;
  stm::TxField<AVLNode*> left;
  stm::TxField<AVLNode*> right;
  stm::TxField<std::int64_t> height;  // height of the subtree rooted here

  AVLNode(Key k, Value v) : key(k), value(v), height(1) {}
};

struct AVLTreeConfig {
  // Elastic applies to read-only operations only (see RBTreeConfig).
  stm::TxKind txKind = stm::TxKind::Normal;
  // STM clock domain; null selects the process default.
  stm::Domain* domain = nullptr;
};

class AVLTree {
 public:
  explicit AVLTree(AVLTreeConfig cfg = {});
  ~AVLTree();

  AVLTree(const AVLTree&) = delete;
  AVLTree& operator=(const AVLTree&) = delete;

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

  // Quiesced introspection.
  std::size_t size();
  int height();
  std::vector<Key> keysInOrder();
  stm::Domain& domain() const { return domain_; }
  AVLNode* rootForTest() { return root_.loadRelaxed(); }

 private:
  static std::int64_t nodeHeight(stm::Tx& tx, AVLNode* n) {
    return n == nullptr ? 0 : n->height.read(tx);
  }

  AVLNode* rotateRight(stm::Tx& tx, AVLNode* n);
  AVLNode* rotateLeft(stm::Tx& tx, AVLNode* n);
  // Recomputes n's height and applies at most two rotations; returns the
  // (possibly new) subtree root.
  AVLNode* rebalance(stm::Tx& tx, AVLNode* n);

  AVLNode* insertRec(stm::Tx& tx, AVLNode* n, Key k, Value v, bool& inserted);
  AVLNode* eraseRec(stm::Tx& tx, AVLNode* n, Key k, bool& erased);
  // Removes the leftmost node of the subtree, returning it through `minOut`.
  AVLNode* detachMin(stm::Tx& tx, AVLNode* n, AVLNode*& minOut);

  void retireNode(AVLNode* n);
  static void deleteNode(void* p) { mem::NodeArena<AVLNode>::destroy(p); }
  // Read-only operations run elastic when configured, zero-logging
  // ReadOnly otherwise.
  stm::TxKind readTxKind() const {
    return cfg_.txKind == stm::TxKind::Elastic ? stm::TxKind::Elastic
                                               : stm::TxKind::ReadOnly;
  }

  AVLTreeConfig cfg_;
  stm::Domain& domain_;
  // Declared before the limbo list so retired nodes can recycle into it
  // during destruction.
  mem::NodeArena<AVLNode> arena_;
  stm::TxField<AVLNode*> root_{nullptr};

  std::mutex limboMu_;
  gc::LimboList limbo_;
  std::uint64_t retireTick_ = 0;
};

}  // namespace sftree::trees
