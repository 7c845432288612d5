// Transactional sorted singly-linked list.
//
// A small transactional set/map used as a substrate by the vacation
// application (per-customer reservation lists, as in STAMP's list.c). All
// shared accesses go through the STM, so list operations compose with tree
// operations inside one transaction. Unlinked nodes are reclaimed through
// the same quiescence protocol as the trees (process-wide registry +
// limbo).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "gc/limbo_list.hpp"
#include "mem/arena.hpp"
#include "stm/stm.hpp"
#include "trees/key.hpp"

namespace sftree::structures {

using Key = sftree::Key;
using Value = sftree::Value;

struct ListNode {
  const Key key;
  stm::TxField<Value> value;
  stm::TxField<ListNode*> next;

  ListNode(Key k, Value v) : key(k), value(v) {}
};

// Sorted by key, unique keys.
class TMList {
 public:
  // `domain` is the STM clock domain the list's transactions run against;
  // null selects the process default.
  explicit TMList(stm::Domain* domain = nullptr);
  ~TMList();

  TMList(const TMList&) = delete;
  TMList& operator=(const TMList&) = delete;

  bool insertTx(stm::Tx& tx, Key k, Value v);
  bool eraseTx(stm::Tx& tx, Key k);
  bool containsTx(stm::Tx& tx, Key k);
  std::optional<Value> getTx(stm::Tx& tx, Key k);
  // Replaces the value of an existing key; false if absent.
  bool updateTx(stm::Tx& tx, Key k, Value v);
  std::size_t sizeTx(stm::Tx& tx);
  // Applies fn to every (key, value) pair, in key order.
  void forEachTx(stm::Tx& tx, const std::function<void(Key, Value)>& fn);

  // Convenience single-op wrappers.
  bool insert(Key k, Value v);
  bool erase(Key k);
  bool contains(Key k);
  std::optional<Value> get(Key k);
  std::size_t size();

  // Quiesced contents.
  std::vector<std::pair<Key, Value>> items();

  stm::Domain& domain() const { return domain_; }

 private:
  void retireNode(ListNode* n);
  static void deleteNode(void* p) { mem::NodeArena<ListNode>::destroy(p); }

  stm::Domain& domain_;
  // Declared before the limbo list so retired nodes can recycle into it
  // during destruction.
  mem::NodeArena<ListNode> arena_;
  stm::TxField<ListNode*> head_{nullptr};

  std::mutex limboMu_;
  gc::LimboList limbo_;
  std::uint64_t retireTick_ = 0;
};

}  // namespace sftree::structures
