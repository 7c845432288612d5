#include "trees/avltree.hpp"

#include <algorithm>
#include <stack>

namespace sftree::trees {

AVLTree::AVLTree(AVLTreeConfig cfg)
    : cfg_(cfg),
      domain_(cfg.domain != nullptr ? *cfg.domain : stm::defaultDomain()) {}

AVLTree::~AVLTree() {
  std::stack<AVLNode*> stack;
  if (AVLNode* r = root_.loadRelaxed()) stack.push(r);
  while (!stack.empty()) {
    AVLNode* n = stack.top();
    stack.pop();
    if (AVLNode* l = n->left.loadRelaxed()) stack.push(l);
    if (AVLNode* r = n->right.loadRelaxed()) stack.push(r);
    deleteNode(n);
  }
}

AVLNode* AVLTree::rotateRight(stm::Tx& tx, AVLNode* n) {
  AVLNode* l = n->left.read(tx);
  AVLNode* lr = l->right.read(tx);
  l->right.write(tx, n);
  n->left.write(tx, lr);
  n->height.write(
      tx, 1 + std::max(nodeHeight(tx, lr), nodeHeight(tx, n->right.read(tx))));
  l->height.write(
      tx, 1 + std::max(nodeHeight(tx, l->left.read(tx)), nodeHeight(tx, n)));
  return l;
}

AVLNode* AVLTree::rotateLeft(stm::Tx& tx, AVLNode* n) {
  AVLNode* r = n->right.read(tx);
  AVLNode* rl = r->left.read(tx);
  r->left.write(tx, n);
  n->right.write(tx, rl);
  n->height.write(
      tx, 1 + std::max(nodeHeight(tx, n->left.read(tx)), nodeHeight(tx, rl)));
  r->height.write(
      tx, 1 + std::max(nodeHeight(tx, n), nodeHeight(tx, r->right.read(tx))));
  return r;
}

AVLNode* AVLTree::rebalance(stm::Tx& tx, AVLNode* n) {
  AVLNode* l = n->left.read(tx);
  AVLNode* r = n->right.read(tx);
  const std::int64_t lh = nodeHeight(tx, l);
  const std::int64_t rh = nodeHeight(tx, r);
  const std::int64_t balance = lh - rh;
  if (balance > 1) {
    // Left-heavy; left-right case first rotates the left child.
    if (nodeHeight(tx, l->left.read(tx)) < nodeHeight(tx, l->right.read(tx))) {
      n->left.write(tx, rotateLeft(tx, l));
    }
    return rotateRight(tx, n);
  }
  if (balance < -1) {
    if (nodeHeight(tx, r->right.read(tx)) < nodeHeight(tx, r->left.read(tx))) {
      n->right.write(tx, rotateRight(tx, r));
    }
    return rotateLeft(tx, n);
  }
  const std::int64_t h = 1 + std::max(lh, rh);
  if (n->height.read(tx) != h) n->height.write(tx, h);
  return n;
}

AVLNode* AVLTree::insertRec(stm::Tx& tx, AVLNode* n, Key k, Value v,
                            bool& inserted) {
  if (n == nullptr) {
    AVLNode* fresh = arena_.create(k, v);
    tx.onAbortDelete(fresh, &AVLTree::deleteNode);
    inserted = true;
    return fresh;
  }
  if (k == n->key) {
    inserted = false;  // set semantics: present means no change
    return n;
  }
  if (k < n->key) {
    AVLNode* l = n->left.read(tx);
    AVLNode* nl = insertRec(tx, l, k, v, inserted);
    if (nl != l) n->left.write(tx, nl);
  } else {
    AVLNode* r = n->right.read(tx);
    AVLNode* nr = insertRec(tx, r, k, v, inserted);
    if (nr != r) n->right.write(tx, nr);
  }
  return inserted ? rebalance(tx, n) : n;
}

AVLNode* AVLTree::detachMin(stm::Tx& tx, AVLNode* n, AVLNode*& minOut) {
  AVLNode* l = n->left.read(tx);
  if (l == nullptr) {
    minOut = n;
    return n->right.read(tx);
  }
  AVLNode* nl = detachMin(tx, l, minOut);
  if (nl != l) n->left.write(tx, nl);
  return rebalance(tx, n);
}

AVLNode* AVLTree::eraseRec(stm::Tx& tx, AVLNode* n, Key k, bool& erased) {
  if (n == nullptr) {
    erased = false;
    return nullptr;
  }
  if (k < n->key) {
    AVLNode* l = n->left.read(tx);
    AVLNode* nl = eraseRec(tx, l, k, erased);
    if (nl != l) n->left.write(tx, nl);
    return erased ? rebalance(tx, n) : n;
  }
  if (k > n->key) {
    AVLNode* r = n->right.read(tx);
    AVLNode* nr = eraseRec(tx, r, k, erased);
    if (nr != r) n->right.write(tx, nr);
    return erased ? rebalance(tx, n) : n;
  }
  // Found the node to delete.
  erased = true;
  AVLNode* l = n->left.read(tx);
  AVLNode* r = n->right.read(tx);
  tx.onCommit([this, n] { retireNode(n); });
  if (l == nullptr) return r;
  if (r == nullptr) return l;
  // Two children: the successor node replaces n (keys are immutable, so we
  // relink the successor node itself rather than copying its key).
  AVLNode* succ = nullptr;
  AVLNode* newRight = detachMin(tx, r, succ);
  succ->right.write(tx, newRight);
  succ->left.write(tx, l);
  return rebalance(tx, succ);
}

bool AVLTree::insertTx(stm::Tx& tx, Key k, Value v) {
  stm::DomainScope dscope(tx, domain_);
  bool inserted = false;
  AVLNode* r = root_.read(tx);
  AVLNode* nr = insertRec(tx, r, k, v, inserted);
  if (nr != r) root_.write(tx, nr);
  return inserted;
}

bool AVLTree::eraseTx(stm::Tx& tx, Key k) {
  stm::DomainScope dscope(tx, domain_);
  bool erased = false;
  AVLNode* r = root_.read(tx);
  AVLNode* nr = eraseRec(tx, r, k, erased);
  if (nr != r) root_.write(tx, nr);
  return erased;
}

bool AVLTree::containsTx(stm::Tx& tx, Key k) {
  stm::DomainScope dscope(tx, domain_);
  AVLNode* x = root_.read(tx);
  while (x != nullptr && x->key != k) {
    x = (k < x->key) ? x->left.read(tx) : x->right.read(tx);
  }
  return x != nullptr;
}

std::optional<Value> AVLTree::getTx(stm::Tx& tx, Key k) {
  stm::DomainScope dscope(tx, domain_);
  AVLNode* x = root_.read(tx);
  while (x != nullptr && x->key != k) {
    x = (k < x->key) ? x->left.read(tx) : x->right.read(tx);
  }
  if (x == nullptr) return std::nullopt;
  return x->value.read(tx);
}

bool AVLTree::insert(Key k, Value v) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  const bool r =
      stm::atomically(domain_, [&](stm::Tx& tx) { return insertTx(tx, k, v); });
  st.endOp();
  return r;
}

bool AVLTree::erase(Key k) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  const bool r = stm::atomically(domain_, [&](stm::Tx& tx) { return eraseTx(tx, k); });
  st.endOp();
  return r;
}

bool AVLTree::contains(Key k) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  const bool r = stm::atomically(domain_, readTxKind(),
                                 [&](stm::Tx& tx) { return containsTx(tx, k); });
  st.endOp();
  return r;
}

std::optional<Value> AVLTree::get(Key k) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  const auto r = stm::atomically(domain_, readTxKind(),
                                 [&](stm::Tx& tx) { return getTx(tx, k); });
  st.endOp();
  return r;
}

bool AVLTree::move(Key from, Key to) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  const bool r = stm::atomically(domain_, [&](stm::Tx& tx) {
    if (containsTx(tx, to)) return false;
    const std::optional<Value> v = getTx(tx, from);
    if (!v) return false;
    eraseTx(tx, from);
    if (!insertTx(tx, to, *v)) tx.restart();  // never lose the erased key
    return true;
  });
  st.endOp();
  return r;
}

namespace {
std::size_t avlCountRange(stm::Tx& tx, AVLNode* n, Key lo, Key hi) {
  if (n == nullptr) return 0;
  std::size_t count = 0;
  if (lo < n->key) count += avlCountRange(tx, n->left.read(tx), lo, hi);
  if (lo <= n->key && n->key <= hi) ++count;
  if (hi > n->key) count += avlCountRange(tx, n->right.read(tx), lo, hi);
  return count;
}
}  // namespace

std::size_t AVLTree::countRangeTx(stm::Tx& tx, Key lo, Key hi) {
  stm::DomainScope dscope(tx, domain_);
  return avlCountRange(tx, root_.read(tx), lo, hi);
}

std::size_t AVLTree::countRange(Key lo, Key hi) {
  auto& st = stm::threadStats(domain_);
  st.beginOp();
  // ReadOnly unconditionally — never elastic (countRange promises a
  // consistent snapshot; see SFTree::countRange).
  const auto r = stm::atomically(
      domain_, stm::TxKind::ReadOnly,
      [&](stm::Tx& tx) { return countRangeTx(tx, lo, hi); });
  st.endOp();
  return r;
}

void AVLTree::retireNode(AVLNode* n) {
  std::lock_guard<std::mutex> lk(limboMu_);
  limbo_.retire(n, &AVLTree::deleteNode);
  if (++retireTick_ % 64 == 0) {
    limbo_.tryCollect();
    limbo_.openEpoch();
  }
}

std::size_t AVLTree::size() {
  std::size_t n = 0;
  std::stack<AVLNode*> stack;
  if (AVLNode* r = root_.loadRelaxed()) stack.push(r);
  while (!stack.empty()) {
    AVLNode* x = stack.top();
    stack.pop();
    ++n;
    if (AVLNode* l = x->left.loadRelaxed()) stack.push(l);
    if (AVLNode* r = x->right.loadRelaxed()) stack.push(r);
  }
  return n;
}

namespace {
int avlHeight(AVLNode* n) {
  if (n == nullptr) return 0;
  return 1 + std::max(avlHeight(n->left.loadRelaxed()),
                      avlHeight(n->right.loadRelaxed()));
}
void avlInorder(AVLNode* n, std::vector<Key>& out) {
  if (n == nullptr) return;
  avlInorder(n->left.loadRelaxed(), out);
  out.push_back(n->key);
  avlInorder(n->right.loadRelaxed(), out);
}
}  // namespace

int AVLTree::height() { return avlHeight(root_.loadRelaxed()); }

std::vector<Key> AVLTree::keysInOrder() {
  std::vector<Key> out;
  avlInorder(root_.loadRelaxed(), out);
  return out;
}

}  // namespace sftree::trees
