#include "structures/tmlist.hpp"

namespace sftree::structures {

TMList::TMList(stm::Domain* domain)
    : domain_(domain != nullptr ? *domain : stm::defaultDomain()) {}

TMList::~TMList() {
  ListNode* n = head_.loadRelaxed();
  while (n != nullptr) {
    ListNode* next = n->next.loadRelaxed();
    deleteNode(n);
    n = next;
  }
}

bool TMList::insertTx(stm::Tx& tx, Key k, Value v) {
  stm::DomainScope dscope(tx, domain_);
  ListNode* prev = nullptr;
  ListNode* curr = head_.read(tx);
  while (curr != nullptr && curr->key < k) {
    prev = curr;
    curr = curr->next.read(tx);
  }
  if (curr != nullptr && curr->key == k) return false;
  ListNode* nn = arena_.create(k, v);
  tx.onAbortDelete(nn, &TMList::deleteNode);
  nn->next.storeRelaxed(curr);
  if (prev == nullptr) {
    head_.write(tx, nn);
  } else {
    prev->next.write(tx, nn);
  }
  return true;
}

bool TMList::eraseTx(stm::Tx& tx, Key k) {
  stm::DomainScope dscope(tx, domain_);
  ListNode* prev = nullptr;
  ListNode* curr = head_.read(tx);
  while (curr != nullptr && curr->key < k) {
    prev = curr;
    curr = curr->next.read(tx);
  }
  if (curr == nullptr || curr->key != k) return false;
  ListNode* next = curr->next.read(tx);
  if (prev == nullptr) {
    head_.write(tx, next);
  } else {
    prev->next.write(tx, next);
  }
  // Retire only once the unlink is durable (outermost commit); the limbo
  // list frees it after all in-flight operations have completed.
  ListNode* victim = curr;
  tx.onCommit([this, victim] { retireNode(victim); });
  return true;
}

bool TMList::containsTx(stm::Tx& tx, Key k) {
  stm::DomainScope dscope(tx, domain_);
  ListNode* curr = head_.read(tx);
  while (curr != nullptr && curr->key < k) curr = curr->next.read(tx);
  return curr != nullptr && curr->key == k;
}

std::optional<Value> TMList::getTx(stm::Tx& tx, Key k) {
  stm::DomainScope dscope(tx, domain_);
  ListNode* curr = head_.read(tx);
  while (curr != nullptr && curr->key < k) curr = curr->next.read(tx);
  if (curr == nullptr || curr->key != k) return std::nullopt;
  return curr->value.read(tx);
}

bool TMList::updateTx(stm::Tx& tx, Key k, Value v) {
  stm::DomainScope dscope(tx, domain_);
  ListNode* curr = head_.read(tx);
  while (curr != nullptr && curr->key < k) curr = curr->next.read(tx);
  if (curr == nullptr || curr->key != k) return false;
  curr->value.write(tx, v);
  return true;
}

std::size_t TMList::sizeTx(stm::Tx& tx) {
  stm::DomainScope dscope(tx, domain_);
  std::size_t n = 0;
  for (ListNode* curr = head_.read(tx); curr != nullptr;
       curr = curr->next.read(tx)) {
    ++n;
  }
  return n;
}

void TMList::forEachTx(stm::Tx& tx,
                       const std::function<void(Key, Value)>& fn) {
  stm::DomainScope dscope(tx, domain_);
  for (ListNode* curr = head_.read(tx); curr != nullptr;
       curr = curr->next.read(tx)) {
    fn(curr->key, curr->value.read(tx));
  }
}

void TMList::retireNode(ListNode* n) {
  std::lock_guard<std::mutex> lk(limboMu_);
  limbo_.retire(n, &TMList::deleteNode);
  if (++retireTick_ % 64 == 0) {
    limbo_.tryCollect();
    limbo_.openEpoch();
  }
}

bool TMList::insert(Key k, Value v) {
  return stm::atomically(domain_, [&](stm::Tx& tx) { return insertTx(tx, k, v); });
}

bool TMList::erase(Key k) {
  return stm::atomically(domain_, [&](stm::Tx& tx) { return eraseTx(tx, k); });
}

bool TMList::contains(Key k) {
  return stm::atomically(domain_, stm::TxKind::ReadOnly,
                         [&](stm::Tx& tx) { return containsTx(tx, k); });
}

std::optional<Value> TMList::get(Key k) {
  return stm::atomically(domain_, stm::TxKind::ReadOnly,
                         [&](stm::Tx& tx) { return getTx(tx, k); });
}

std::size_t TMList::size() {
  return stm::atomically(domain_, stm::TxKind::ReadOnly,
                         [&](stm::Tx& tx) { return sizeTx(tx); });
}

std::vector<std::pair<Key, Value>> TMList::items() {
  std::vector<std::pair<Key, Value>> out;
  for (ListNode* n = head_.loadRelaxed(); n != nullptr;
       n = n->next.loadRelaxed()) {
    out.emplace_back(n->key, n->value.loadRelaxed());
  }
  return out;
}

}  // namespace sftree::structures
